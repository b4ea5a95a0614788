// The admission layer: the bounded gate each bdsd request passes before
// its connection thread runs it. Unit-level: depth and byte ceilings shed
// immediately and alike for every request, admitted tickets get their turn
// in FIFO order, a finished run frees its slot before delivery, drain
// flips offers to kShuttingDown while admitted work completes, a hard
// stop turns waiting tickets away, and the client backoff schedule
// respects its cap / the server's hint / the jitter band.
// Server-level, over a real socket: a flood against a tiny queue sheds
// fast and cheap while every admitted request stays byte-identical,
// SIGTERM-style drain delivers in-flight work, a request whose time limit
// expired while it queued is rejected before any BDD work starts, and a peer that never reads its
// response holds no running slot and does not block a hard stop.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/gen.hpp"
#include "net/network.hpp"
#include "service/admission.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"

namespace bds::service {
namespace {

std::string unique_socket_path(const char* tag) {
  return "/tmp/bds-adm-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

/// A circuit heavy enough that optimizing it takes real wall time (so
/// concurrent requests genuinely pile up at the gate), emitted as BLIF.
std::string heavy_blif() {
  std::ostringstream os;
  net::write_blif(os, gen::array_multiplier(5));
  return os.str();
}

/// True for the statuses a heavy request may legitimately end with: kOk,
/// or kDegraded when the BDS_NODE_LIMIT environment ceiling is set -- it
/// forces BDD stages to fall back, which is a correct (equivalent) result.
bool completed(Status status) {
  if (status == Status::kOk) return true;
  return status == Status::kDegraded &&
         std::getenv("BDS_NODE_LIMIT") != nullptr;
}

/// Runs `server.serve()` on its own thread for the lifetime of the scope,
/// and stops and joins it on every exit path. A failed ASSERT returns early;
/// without this, the joinable std::thread's destructor would call
/// std::terminate and abort the whole test binary.
class ServeThread {
 public:
  explicit ServeThread(Server& server)
      : server_(server), thread_([&server] { server.serve(); }) {}
  ServeThread(const ServeThread&) = delete;
  ServeThread& operator=(const ServeThread&) = delete;
  ~ServeThread() {
    server_.stop();
    join();
  }
  /// Waits for serve() to return on its own (a graceful drain).
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  Server& server_;
  std::thread thread_;
};

using Ticket = AdmissionQueue::Ticket;

/// Offers a request of `bytes` payload bytes; an admitted ticket joins
/// `held`, in admission order.
AdmitResult offer(AdmissionQueue& gate, std::vector<Ticket>& held,
                  std::size_t bytes) {
  Ticket ticket;
  const AdmitResult result = gate.offer(bytes, ticket);
  if (result == AdmitResult::kAdmitted) held.push_back(std::move(ticket));
  return result;
}

/// Runs every held ticket in admission order: its turn, then its release.
void run_all(std::vector<Ticket>& held) {
  for (Ticket& ticket : held) {
    ASSERT_TRUE(ticket.wait_turn());
    ticket.release();
  }
  held.clear();
}

TEST(AdmissionQueue, DepthIsAHardBoundAndShedsBeyondIt) {
  AdmissionOptions options;
  options.queue_depth = 4;
  options.concurrency = 1;
  AdmissionQueue gate(options);
  std::vector<Ticket> held;

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(offer(gate, held, 10), AdmitResult::kAdmitted) << i;
  }
  // The line is full: the next request is shed, whoever sends it.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(offer(gate, held, 10), AdmitResult::kOverloaded) << i;
  }
  EXPECT_EQ(gate.counters().admitted, 4u);
  EXPECT_EQ(gate.counters().sheds, 2u);

  // Running the waiting tickets frees the slots again.
  ASSERT_EQ(held.size(), 4u);
  run_all(held);
  EXPECT_TRUE(gate.idle());
  EXPECT_EQ(offer(gate, held, 10), AdmitResult::kAdmitted);
}

TEST(AdmissionQueue, ByteCeilingShedsOversizedBacklog) {
  AdmissionOptions options;
  options.queue_depth = 16;
  options.queue_bytes = 100;
  options.concurrency = 1;
  AdmissionQueue gate(options);
  std::vector<Ticket> held;

  EXPECT_EQ(offer(gate, held, 60), AdmitResult::kAdmitted);
  EXPECT_EQ(offer(gate, held, 60), AdmitResult::kOverloaded)
      << "60 + 60 exceeds the 100-byte ceiling";
  EXPECT_EQ(offer(gate, held, 40), AdmitResult::kAdmitted);
  EXPECT_EQ(gate.counters().queue_bytes, 100u);

  // A ticket's turn releases its bytes (the payload is no longer waiting).
  ASSERT_TRUE(held[0].wait_turn());
  EXPECT_EQ(gate.counters().queue_bytes, 40u);
  held[0].release();
  held.erase(held.begin());
  EXPECT_EQ(offer(gate, held, 60), AdmitResult::kAdmitted);
  ASSERT_EQ(held.size(), 2u);
  run_all(held);
  EXPECT_TRUE(gate.idle());
}

TEST(AdmissionQueue, TurnsComeInAdmissionOrder) {
  AdmissionOptions options;
  options.queue_depth = 8;  // reserve = 2, so normal traffic gets 6 slots
  options.concurrency = 1;
  AdmissionQueue gate(options);
  std::vector<Ticket> held;
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(offer(gate, held, 1), AdmitResult::kAdmitted) << i;
  }

  // Waiters start in reverse, so every later ticket is already parked
  // when the first one asks for its turn; one slot serializes the runs.
  std::mutex mu;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int i = 5; i >= 0; --i) {
    waiters.emplace_back([&, i] {
      const bool turn = held[static_cast<std::size_t>(i)].wait_turn();
      {
        const std::lock_guard<std::mutex> lock(mu);
        order.push_back(turn ? i : -1);
      }
      held[static_cast<std::size_t>(i)].release();
    });
  }
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(gate.idle());
}

TEST(AdmissionQueue, DrainRejectsNewWorkWhileAdmittedWorkCompletes) {
  AdmissionOptions options;
  options.queue_depth = 8;
  AdmissionQueue gate(options);
  std::vector<Ticket> held;

  EXPECT_EQ(offer(gate, held, 1), AdmitResult::kAdmitted);
  gate.begin_drain();
  EXPECT_TRUE(gate.draining());
  EXPECT_EQ(offer(gate, held, 1), AdmitResult::kShuttingDown);
  EXPECT_FALSE(gate.idle());

  ASSERT_TRUE(held[0].wait_turn()) << "admitted work survives drain";
  held[0].release();
  EXPECT_TRUE(gate.idle());
  EXPECT_EQ(gate.counters().drained, 1u);
}

TEST(AdmissionQueue, CloseTurnsWaitingTicketsAwayAndLetsRunningOnesFinish) {
  AdmissionOptions options;
  options.queue_depth = 8;
  options.concurrency = 1;
  AdmissionQueue gate(options);
  std::vector<Ticket> held;
  ASSERT_EQ(offer(gate, held, 1), AdmitResult::kAdmitted);
  ASSERT_EQ(offer(gate, held, 1), AdmitResult::kAdmitted);
  ASSERT_TRUE(held[0].wait_turn());

  // The second ticket parks behind the running first one until close().
  std::thread waiter([&] {
    EXPECT_FALSE(held[1].wait_turn())
        << "closed + waiting releases the reader without running it";
    held[1].release();
  });
  // Give the waiter time to park; the outcome is the same if it has not.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.close();
  waiter.join();
  EXPECT_EQ(offer(gate, held, 1), AdmitResult::kShuttingDown);
  EXPECT_EQ(gate.counters().in_flight, 1u) << "running work is not cut off";
  held[0].release();
  gate.wait_runs_done();
  EXPECT_TRUE(gate.idle());
}

// A request that has run frees its slot at once, before its response is
// written; the gate stays non-idle until the ticket is dropped, so a
// drain still waits for delivery.
TEST(AdmissionQueue, FinishedRunFreesTheSlotButStaysUndelivered) {
  AdmissionOptions options;
  options.queue_depth = 8;
  options.concurrency = 1;
  AdmissionQueue gate(options);
  std::vector<Ticket> held;
  ASSERT_EQ(offer(gate, held, 1), AdmitResult::kAdmitted);
  ASSERT_EQ(offer(gate, held, 1), AdmitResult::kAdmitted);
  ASSERT_TRUE(held[0].wait_turn());
  held[0].finish_run();
  EXPECT_EQ(gate.counters().in_flight, 0u);
  // With the one slot free, the next ticket runs at once (this would
  // block forever if the first ticket still held the slot).
  ASSERT_TRUE(held[1].wait_turn());
  held[1].finish_run();
  gate.wait_runs_done();
  EXPECT_FALSE(gate.idle()) << "two responses are still being written";
  held[1].release();
  EXPECT_FALSE(gate.idle());
  held[0].release();
  EXPECT_TRUE(gate.idle());
}

TEST(AdmissionQueue, RetryHintStaysInItsClampAndTracksLoad) {
  AdmissionOptions options;
  options.queue_depth = 8;
  options.concurrency = 2;
  AdmissionQueue gate(options);
  std::vector<Ticket> held;

  // Cold: the fallback estimate, still within [1ms, 30s].
  const std::uint32_t cold = gate.retry_after_ms();
  EXPECT_GE(cold, 1u);
  EXPECT_LE(cold, 30000u);

  // A backlog of slow requests raises the hint; it stays clamped.
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(offer(gate, held, 1), AdmitResult::kAdmitted);
  }
  ASSERT_TRUE(held[0].wait_turn());
  // Seed the EWMA with a slow service time: 50 ms times a backlog of 6
  // over 2 slots is far above the cold hint.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  held[0].release();
  held.erase(held.begin());
  const std::uint32_t loaded = gate.retry_after_ms();
  EXPECT_GT(loaded, cold);
  EXPECT_LE(loaded, 30000u);
  run_all(held);
}

TEST(RetryBackoff, GrowsExponentiallyWithinTheJitterBand) {
  RetryPolicy policy;  // base 50ms, cap 2000ms
  Rng rng(7);
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    const std::uint64_t raw = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(policy.base_backoff_ms) << attempt,
        policy.max_backoff_ms);
    const std::uint32_t delay = retry_backoff_ms(policy, attempt, 0, rng);
    EXPECT_GE(delay, raw / 2) << "attempt " << attempt;
    EXPECT_LE(delay, raw) << "attempt " << attempt;
  }
  // Far past the cap (and past where a 32-bit shift would overflow).
  const std::uint32_t huge = retry_backoff_ms(policy, 40, 0, rng);
  EXPECT_GE(huge, policy.max_backoff_ms / 2);
  EXPECT_LE(huge, policy.max_backoff_ms);
}

TEST(RetryBackoff, ServerHintFloorsTheSchedule) {
  RetryPolicy policy;
  Rng rng(11);
  // Hint above the exponential term *and* above the cap: the hint wins
  // (backing off for less just earns another shed).
  const std::uint32_t hinted = retry_backoff_ms(policy, 0, 5000, rng);
  EXPECT_GE(hinted, 2500u);  // jitter band of the hinted delay
  EXPECT_LE(hinted, 5000u);
  // Hint below the schedule changes nothing.
  const std::uint32_t unhinted = retry_backoff_ms(policy, 3, 10, rng);
  EXPECT_GE(unhinted, 200u);  // 50 << 3 = 400, band [200, 400]
  EXPECT_LE(unhinted, 400u);
}

// A time limit that expired while the request queued is rejected before
// the BLIF is even parsed: the response is kBudgetExceeded naming the
// time limit, and the daemon counts a deadline_reject, not a shed.
TEST(AdmissionServer, ExpiredDeadlineRejectedBeforeAnyWork) {
  ServerOptions options;
  options.socket_path = unique_socket_path("deadline");
  Server server(std::move(options));

  OptimizeRequest req;
  req.blif = "this would not even parse";  // must never be parsed
  req.options.time_limit_ms = 5;
  const auto stale_arrival =
      std::chrono::steady_clock::now() - std::chrono::seconds(10);
  const OptimizeResponse resp = server.handle(req, stale_arrival);
  EXPECT_EQ(resp.status, Status::kBudgetExceeded);
  EXPECT_NE(resp.error.find("time limit"), std::string::npos) << resp.error;
  EXPECT_EQ(server.stats().deadline_rejects, 1u);
  EXPECT_EQ(server.stats().sheds, 0u);

  // The same request with room to spare runs normally (and fails on the
  // garbage BLIF, proving the reject above happened pre-parse).
  req.options.time_limit_ms = 60000;
  EXPECT_EQ(server.handle(req).status, Status::kParseError);
}

// Flood a deliberately tiny daemon: every client retries with jittered
// backoff, so all of them eventually succeed with byte-identical results,
// and the gate sheds at least once along the way -- the overload path and
// the retry path exercised end to end over the socket.
TEST(AdmissionServer, FloodShedsFastWhileAdmittedWorkStaysDeterministic) {
  ServerOptions options;
  options.socket_path = unique_socket_path("flood");
  options.concurrency = 2;
  options.queue_depth = 2;
  Server server(std::move(options));
  server.start();
  ServeThread serving(server);

  const std::string blif = heavy_blif();
  OptimizeRequest req;
  req.blif = blif;
  req.options.bypass_cache = true;  // every request does real work
  // One uncontended request first: the answer every flooded client must
  // reproduce, status and bytes.
  OptimizeResponse reference;
  {
    Client client(server.socket_path());
    client.connect();
    reference = client.optimize(req);
  }
  ASSERT_TRUE(completed(reference.status))
      << "status " << static_cast<int>(reference.status) << ": "
      << reference.error;
  ASSERT_FALSE(reference.blif.empty());

  constexpr int kClients = 12;
  std::vector<std::string> results(kClients);
  std::vector<Status> statuses(kClients, Status::kInternalError);
  std::atomic<int> raw_sheds{0};
  std::atomic<std::int64_t> worst_shed_us{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      Client client(server.socket_path());
      client.connect();
      // First, one raw attempt so the shed path itself is observed (and
      // timed -- shedding must cost microseconds, not a queue slot).
      const auto t0 = std::chrono::steady_clock::now();
      OptimizeResponse resp = client.optimize(req);
      const auto shed_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count();
      if (resp.status == Status::kOverloaded) {
        raw_sheds.fetch_add(1, std::memory_order_relaxed);
        std::int64_t seen = worst_shed_us.load(std::memory_order_relaxed);
        while (shed_us > seen && !worst_shed_us.compare_exchange_weak(
                                     seen, shed_us,
                                     std::memory_order_relaxed)) {
        }
        EXPECT_GT(resp.retry_after_ms, 0u);
        EXPECT_NE(resp.error.find("overloaded"), std::string::npos)
            << resp.error;
        // Shed: fall back to the cooperative client. Generous retry budget
        // so the test converges even on a loaded CI box.
        RetryPolicy retry;
        retry.max_retries = 100;
        retry.base_backoff_ms = 20;
        retry.max_backoff_ms = 300;
        retry.jitter_seed = 1000 + static_cast<std::uint64_t>(i);
        resp = client.optimize_with_retry(req, retry);
      }
      statuses[i] = resp.status;
      results[i] = resp.blif;
    });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(statuses[i], reference.status) << "client " << i;
    EXPECT_EQ(results[i], reference.blif)
        << "admission must never change an admitted result (client " << i
        << ")";
  }
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.sheds, static_cast<std::uint64_t>(raw_sheds.load()));
  EXPECT_GE(raw_sheds.load(), 1)
      << "12 concurrent heavy requests against queue_depth=2 must shed";
  // Acceptance: shedding answers immediately. The bench section holds this
  // to <10ms on a quiet box; under ASan + a saturated test machine allow
  // slack while still catching "shed waited behind the queue".
  EXPECT_LT(worst_shed_us.load(), 2'000'000)
      << "a shed response took " << worst_shed_us.load() << " us";
}

// Graceful drain: with work admitted and executing, request_drain() (the
// SIGTERM path) answers new requests kShuttingDown, delivers everything
// already admitted, and lets serve() return on its own -- no stop() call.
//
// The drain must start while admitted work is still unfinished, however
// fast the host. The daemon writes each request's trace to
// `<trace_dir>/request-<id>.jsonl`; that path is made a FIFO for the first
// request, so the request blocks in handle() -- holding the one running
// slot, with the second request queued behind it -- until the test opens
// the FIFO for reading, which it does only after request_drain().
TEST(AdmissionServer, GracefulDrainDeliversInFlightWork) {
  const std::filesystem::path trace_dir =
      "/tmp/bds-adm-drain-" + std::to_string(::getpid()) + ".d";
  std::filesystem::remove_all(trace_dir);
  std::filesystem::create_directory(trace_dir);
  const std::filesystem::path held = trace_dir / "request-1.jsonl";
  ASSERT_EQ(::mkfifo(held.c_str(), 0600), 0);

  ServerOptions options;
  options.socket_path = unique_socket_path("drain");
  options.concurrency = 1;  // one executor: the second request must queue
  options.trace_dir = trace_dir.string();
  Server server(std::move(options));
  server.start();
  ServeThread serving(server);

  const std::string blif = heavy_blif();
  OptimizeRequest req;
  req.blif = blif;
  req.options.bypass_cache = true;

  // Two admitted requests on one executor: one runs, one queues.
  std::vector<OptimizeResponse> admitted(2);
  std::vector<std::thread> senders;
  for (int i = 0; i < 2; ++i) {
    senders.emplace_back([&, i] {
      Client client(server.socket_path());
      client.connect();
      admitted[i] = client.optimize(req);
    });
  }
  // A bystander connected before the drain begins.
  Client late(server.socket_path());
  late.connect();

  // Wait until both are admitted (not merely sent) before draining. The
  // first is held in its trace open, so neither can have finished.
  while (server.stats().admitted < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.request_drain();

  // New work is refused while the drain runs...
  const OptimizeResponse refused = late.optimize(req);
  EXPECT_EQ(refused.status, Status::kShuttingDown);
  EXPECT_NE(refused.error.find("shutting down"), std::string::npos)
      << refused.error;

  // Release the held request: read its trace until the daemon closes it.
  std::ifstream fifo(held);
  const std::string trace{std::istreambuf_iterator<char>(fifo), {}};
  EXPECT_NE(trace.find("bds-trace/v1"), std::string::npos);

  // ...every admitted request is still delivered, complete and correct...
  for (auto& t : senders) t.join();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(completed(admitted[i].status))
        << "drain dropped admitted request " << i << ": "
        << admitted[i].error;
    EXPECT_FALSE(admitted[i].blif.empty());
  }
  EXPECT_EQ(admitted[1].status, admitted[0].status);
  EXPECT_EQ(admitted[1].blif, admitted[0].blif);

  // ...and serve() returns by itself once the queue is idle.
  serving.join();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_GE(stats.drained, 1u) << "work finished during drain is counted";
  EXPECT_EQ(stats.draining, 1u);

  // Byte-identical to the same request handled outside any drain.
  const OptimizeResponse again = server.handle(req);
  EXPECT_EQ(again.status, admitted[0].status) << again.error;
  EXPECT_EQ(again.blif, admitted[0].blif)
      << "drain must not change what an admitted request computes";
  std::filesystem::remove_all(trace_dir);
}

// A peer that sends a request and never reads its (large) response
// stalls only its own connection: the slot is free once the request has
// run, so the next client still gets its turn on a one-slot daemon, and a
// hard stop still returns while the stalled write is pending.
TEST(AdmissionServer, StalledReaderHoldsNoSlotAndDoesNotBlockStop) {
  ServerOptions options;
  options.socket_path = unique_socket_path("stalled");
  options.concurrency = 1;
  Server server(std::move(options));
  server.start();
  ServeThread serving(server);

  // ~0.5 MB of two-input ANDs through `sweep`: the response is larger
  // than a Unix socket's default send buffer (~200 KB), so its write
  // blocks until read.
  std::ostringstream big;
  constexpr int kGates = 12000;
  big << ".model stalled\n.inputs";
  for (int i = 0; i <= kGates; ++i) big << " x" << i;
  big << "\n.outputs";
  for (int i = 0; i < kGates; ++i) big << " o" << i;
  big << "\n";
  for (int i = 0; i < kGates; ++i) {
    big << ".names x" << i << " x" << i + 1 << " o" << i << "\n11 1\n";
  }
  big << ".end\n";
  OptimizeRequest stalled;
  stalled.blif = big.str();
  stalled.options.script = "sweep";
  stalled.options.bypass_cache = true;

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, server.socket_path().c_str(),
              server.socket_path().size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  write_frame(fd, FrameType::kOptimizeRequest,
              encode_optimize_request(stalled));

  // Once the stalled request has run (in_flight back to 0), a second
  // client gets the one slot.
  while (server.stats().requests < 1 || server.stats().in_flight != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  OptimizeRequest small;
  small.blif = heavy_blif();
  small.options.bypass_cache = true;
  {
    Client client(server.socket_path());
    client.connect();
    const OptimizeResponse resp = client.optimize(small);
    EXPECT_TRUE(completed(resp.status))
        << "status " << static_cast<int>(resp.status) << ": " << resp.error;
  }
  EXPECT_EQ(server.stats().queue_depth, 0u);

  // The stalled response is still unread; a hard stop returns anyway.
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  serving.join();
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            10.0);
  ::close(fd);
}

// The connect-failure satellite: a missing daemon raises ConnectError
// carrying the socket path and errno -- the typed signal bds-client maps
// to its dedicated exit code 6.
TEST(AdmissionClient, MissingDaemonRaisesConnectErrorWithPath) {
  const std::string path = unique_socket_path("nodaemon");
  Client client(path);
  try {
    client.connect();
    FAIL() << "connect() to a nonexistent socket succeeded";
  } catch (const ConnectError& e) {
    EXPECT_EQ(e.socket_path(), path);
    EXPECT_NE(e.saved_errno(), 0);
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("is the daemon running?"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace bds::service
