#include "service/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "net/network.hpp"
#include "opt/manager.hpp"
#include "opt/manager_pool.hpp"
#include "opt/script.hpp"
#include "util/error.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace bds::service {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error("bdsd: " + what + ": " + std::strerror(errno));
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(std::make_shared<opt::ResultCache>(options_.cache_bytes)),
      pool_(std::make_shared<util::ThreadPool>(
          util::ThreadPool::resolve(options_.concurrency))),
      admission_(AdmissionOptions{options_.queue_depth, options_.queue_bytes,
                                  pool_->workers()}) {}

Server::~Server() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
}

void Server::start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw Error("bdsd: socket path empty or too long for sockaddr_un: \"" +
                options_.socket_path + "\"");
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  ::unlink(options_.socket_path.c_str());
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("bind " + options_.socket_path);
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("listen");
  }
  // Nonblocking listen socket: the accept loop in serve() drains every
  // connection pending right now, then goes back to poll().
  const int fl = ::fcntl(listen_fd_, F_GETFL, 0);
  if (fl >= 0) ::fcntl(listen_fd_, F_SETFL, fl | O_NONBLOCK);
}

void Server::serve() {
  if (listen_fd_ < 0) {
    throw Error("bdsd: serve() called before start()");
  }
  // Tears the service down in dependency order: close the gate (waiting
  // requests are answered kShuttingDown, running ones finish), then hang
  // up the connections, which also unblocks a response write to a peer
  // that stopped reading, and join the reader threads. Runs on every exit
  // path, including a poll() failure.
  const auto shutdown_all = [&] {
    admission_.close();
    admission_.wait_runs_done();
    {
      const std::lock_guard<std::mutex> lock(conns_mu_);
      for (Connection& c : conns_) {
        if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
      }
    }
    // Join without the lock: exiting reader threads take conns_mu_ to
    // close their fd. Only this thread erases list nodes, so iterating
    // here is safe.
    for (Connection& c : conns_) {
      if (c.thread.joinable()) c.thread.join();
    }
    const std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  };

  try {
    while (!stop_.load(std::memory_order_relaxed)) {
      // Graceful drain is complete when no ticket is left at the gate: a
      // ticket lives until its response has been written.
      if (drain_.load(std::memory_order_relaxed) && admission_.idle()) {
        break;
      }
      reap_connections();
      pollfd pfd{};
      pfd.fd = listen_fd_;
      pfd.events = POLLIN;
      const int rc = ::poll(&pfd, 1, /*timeout_ms=*/100);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw_errno("poll");
      }
      if (rc == 0) continue;  // timeout: re-check stop/drain

      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;  // EAGAIN = drained; EINTR retries next round
        // Accepted sockets must block: frame I/O assumes read/write park.
        const int ffl = ::fcntl(fd, F_GETFL, 0);
        if (ffl >= 0) ::fcntl(fd, F_SETFL, ffl & ~O_NONBLOCK);
        const std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.emplace_back();
        Connection* conn = &conns_.back();
        conn->fd = fd;
        conn->thread = std::thread([this, conn] { serve_connection(conn); });
      }
    }
  } catch (...) {
    shutdown_all();
    throw;
  }
  shutdown_all();
}

void Server::reap_connections() {
  const std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done) {
      // done was set under this mutex as the thread's final action; the
      // join completes as soon as it falls off its entry function.
      it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::serve_connection(Connection* conn) {
  const int fd = conn->fd;
  try {
    FrameType type{};
    std::string payload;
    const auto send = [&](const OptimizeResponse& response) {
      write_frame(fd, FrameType::kOptimizeResponse,
                  encode_optimize_response(response));
    };
    const auto refuse = [&](Status status, std::string error,
                            std::uint32_t retry_after_ms) {
      OptimizeResponse response;
      response.status = status;
      response.error = std::move(error);
      response.retry_after_ms = retry_after_ms;
      send(response);
    };
    while (read_frame(fd, type, payload)) {
      if (type == FrameType::kOptimizeRequest) {
        const OptimizeRequest request = decode_optimize_request(payload);
        const auto arrival = std::chrono::steady_clock::now();
        AdmissionQueue::Ticket ticket;
        switch (admission_.offer(payload.size(), ticket)) {
          case AdmitResult::kAdmitted:
            // Runs here once the gate gives it a turn. The slot is freed
            // before the write, so a peer that stops reading stalls only
            // its own connection; the ticket itself lives until the
            // response is written, so a drain waiting for idle() never
            // hangs up on an undelivered result.
            if (ticket.wait_turn() && !stop_.load(std::memory_order_relaxed)) {
              const OptimizeResponse response = handle(request, arrival);
              ticket.finish_run();
              send(response);
            } else {
              ticket.release();  // never write while holding a slot
              refuse(Status::kShuttingDown,
                     "server stopped before this queued request could run",
                     0);
            }
            break;
          case AdmitResult::kOverloaded: {
            // The shed path: no parse, no BDD work, just this frame --
            // which is what keeps a shed under the <10ms contract even
            // when every running slot is busy.
            const std::uint32_t hint = admission_.retry_after_ms();
            refuse(Status::kOverloaded,
                   "server overloaded: pending-request queue is full; retry "
                   "after ~" +
                       std::to_string(hint) + " ms",
                   hint);
            break;
          }
          case AdmitResult::kShuttingDown:
            refuse(Status::kShuttingDown,
                   "server is shutting down; no new work is admitted", 0);
            break;
        }
      } else if (type == FrameType::kServerStatsRequest) {
        write_frame(fd, FrameType::kServerStatsResponse,
                    encode_server_stats(stats()));
      } else {
        break;  // a peer sending *response* frames is confused; hang up
      }
    }
  } catch (const std::exception&) {
    // Torn frame or socket failure: this connection only. The daemon and
    // the other connections are unaffected.
  }
  // Close under the connection registry's mutex so the shutdown sweep in
  // serve() can never ::shutdown a recycled fd number.
  const std::lock_guard<std::mutex> lock(conns_mu_);
  ::close(fd);
  conn->fd = -1;
  conn->done = true;
}

OptimizeResponse Server::handle(const OptimizeRequest& request) {
  return handle(request, std::chrono::steady_clock::now());
}

OptimizeResponse Server::handle(
    const OptimizeRequest& request,
    std::chrono::steady_clock::time_point arrival) {
  OptimizeResponse response;
  response.request_id = requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  const opt::RequestOptions& ro = request.options;

  // Every request gets its own telemetry hub so spans from concurrent
  // requests never interleave; the request id is the root span's label.
  auto telemetry = std::make_shared<util::Telemetry>(
      "request-" + std::to_string(response.request_id));
  std::ofstream trace;
  if (!options_.trace_dir.empty()) {
    trace.open(options_.trace_dir + "/request-" +
               std::to_string(response.request_id) + ".jsonl");
    if (trace) telemetry->add_sink(std::make_shared<util::JsonlSink>(trace));
  }

  {
    // Admission snapshot: how long the request queued and what the gate
    // looked like when it started. All exec-bucket keys (see
    // util::is_exec_counter) -- load facts, outside the determinism
    // contract.
    util::TelemetrySpan admission_span =
        util::TelemetrySpan::open(telemetry.get(), "admission");
    const ServerStats gate = admission_.counters();
    admission_span.count(
        "queued_ms",
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - arrival)
            .count());
    admission_span.count("queue_depth", static_cast<double>(gate.queue_depth));
    admission_span.count("in_flight", static_cast<double>(gate.in_flight));
    admission_span.count("admitted", static_cast<double>(gate.admitted));
    admission_span.count("sheds", static_cast<double>(gate.sheds));
    admission_span.count("deadline_rejects",
                         static_cast<double>(gate.deadline_rejects));
    admission_span.count("drained", static_cast<double>(gate.drained));
  }

  // Time limit already blown (typically: it expired while the request sat
  // in the queue)? Reject before parsing a byte -- the request asked for a
  // result by a time that has passed, so any work now is wasted.
  if (ro.time_limit_ms != 0 &&
      std::chrono::steady_clock::now() >=
          arrival + std::chrono::milliseconds(ro.time_limit_ms)) {
    admission_.note_deadline_reject();
    response.status = Status::kBudgetExceeded;
    response.error =
        "time limit expired before optimization began (time_limit_ms=" +
        std::to_string(ro.time_limit_ms) + ")";
    telemetry->finish();
    return response;
  }

  try {
    net::Network network = net::parse_blif_string(request.blif);

    const std::string script =
        ro.script.empty() ? std::string("bds") : ro.script;
    // Everything the options imply for the script -- jobs and the rev-3
    // mapping keys (map/lut_k append passes) -- comes from the one
    // RequestOptions translation, so the daemon path and the CLIs build
    // byte-identical pipelines for identical options.
    opt::PassManager manager =
        opt::PassManager::from_script(script, ro.to_script_params());

    opt::PipelineOptions popts;
    // check, the resource ceilings, and the arrival-anchored time limit --
    // the single RequestOptions -> PipelineOptions translation.
    ro.apply(popts, arrival);
    popts.telemetry = telemetry;
    // One pool for the daemon's lifetime: a request's inner `-j` work runs
    // on shared threads instead of each pass spawning and joining a fresh
    // pool per invocation.
    popts.thread_pool = pool_;
    if (options_.cache_bytes != 0 && !ro.bypass_cache) {
      popts.result_cache = cache_;
    }

    const opt::PipelineStats pstats = manager.run(network, popts);

    response.blif = net::to_blif_string(network);
    response.stats_table = opt::format_pass_table(pstats);
    response.cache_hits =
        static_cast<std::uint64_t>(pstats.counter("cache_hits"));
    response.cache_misses =
        static_cast<std::uint64_t>(pstats.counter("cache_misses"));
    if (pstats.check_failures > 0) {
      response.status = Status::kCheckFailed;
      response.error = "equivalence checkpoint found a mismatch";
    } else if (pstats.degraded_passes > 0) {
      response.status = Status::kDegraded;
    }
  } catch (const ParseError& e) {
    response.status = Status::kParseError;
    response.error = e.what();
  } catch (const NetworkError& e) {
    response.status = Status::kNetworkError;
    response.error = e.what();
  } catch (const BudgetExceeded& e) {
    response.status = Status::kBudgetExceeded;
    response.error = e.what();
  } catch (const opt::ScriptError& e) {
    response.status = Status::kScriptError;
    response.error = e.what();
  } catch (const std::exception& e) {
    response.status = Status::kInternalError;
    response.error = e.what();
  }
  telemetry->finish();
  return response;
}

ServerStats Server::stats() const {
  ServerStats s = admission_.counters();
  s.requests = requests_.load(std::memory_order_relaxed);
  const opt::ResultCache::Stats cs = cache_->stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  s.cache_insertions = cs.insertions;
  s.cache_evictions = cs.evictions;
  s.cache_entries = cs.entries;
  s.cache_bytes = cs.bytes;
  s.pool_idle = opt::ManagerPool::global().idle();
  s.pool_constructed = opt::ManagerPool::global().constructed();
  return s;
}

}  // namespace bds::service
