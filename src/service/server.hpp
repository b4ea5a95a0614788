// The bdsd optimization daemon.
//
// A long-lived server owning the two cross-request amortization structures
// the single-shot CLI cannot have: the content-addressed ResultCache
// (opt/result_cache.hpp), so a cone already decomposed under the same
// options is spliced straight from its shared cached result,
// and the global ManagerPool (opt/manager_pool.hpp), so BDD managers are
// recycled instead of reconstructed per supernode.
//
// Concurrency model: one reader thread per connection decodes frames and
// offers each optimize request to the AdmissionQueue
// (service/admission.hpp) -- a bounded gate with a depth and byte ceiling.
// An admitted request waits at the gate for its turn (FIFO, at most
// `concurrency` requests running at once) and then runs on the same
// reader thread, under its own ResourceBudget (the request's ceilings
// plus its arrival-anchored time limit) and a telemetry hub labeled
// `request-<id>`, so traces from concurrent requests never interleave.
// Its running slot is freed before the response is written, so a peer
// that stops reading stalls only its own connection thread. A
// request the gate rejects is answered immediately -- kOverloaded with a
// retry_after_ms hint, or kShuttingDown during drain -- so overload costs
// a caller microseconds, not a slot in an unbounded pile. Inner `-j`
// parallelism still runs on the shared util::ThreadPool. See DESIGN.md
// §5h.
//
// Shutdown: stop() (SIGINT) is the hard path -- requests waiting at the
// gate are answered kShuttingDown, only requests already running finish,
// then every connection is shut down (unblocking any stalled write).
// request_drain() (SIGTERM) is the graceful path -- everything already
// admitted runs to completion and is delivered, while new offers are
// answered kShuttingDown; serve() returns once the gate is idle.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "opt/result_cache.hpp"
#include "service/admission.hpp"
#include "service/protocol.hpp"
#include "util/thread_pool.hpp"

namespace bds::service {

struct ServerOptions {
  /// Filesystem path of the Unix-domain socket. A stale file from a
  /// previous run is unlinked before binding.
  std::string socket_path;
  /// Requests optimized at once; 0 = hardware concurrency.
  unsigned concurrency = 0;
  /// Waiting-request ceiling of the admission gate (>= 1). Requests
  /// beyond it are shed with kOverloaded instead of queued.
  std::size_t queue_depth = 64;
  /// Byte ceiling over the payloads of waiting requests (0 = unlimited).
  std::size_t queue_bytes = 64u << 20;
  /// Byte budget of the shared ResultCache; 0 turns the cache off.
  /// Individual requests can also opt out with bypass_cache (how the
  /// determinism tests get cache-free runs from a warm daemon).
  std::size_t cache_bytes = opt::ResultCache::kDefaultByteBudget;
  /// When nonempty, each request writes its telemetry trace to
  /// `<trace_dir>/request-<id>.jsonl`. Empty = tracing off.
  std::string trace_dir;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on the socket. Throws bds::Error on failure (path
  /// too long for sockaddr_un, bind/listen errno).
  void start();

  /// Accept-and-serve loop; blocks until stop() or a completed drain.
  /// Requires start().
  void serve();

  /// Hard stop: serve() returns promptly, waiting requests are answered
  /// kShuttingDown (only work already running finishes). Safe from any
  /// thread and from signal-handler-adjacent contexts (only atomics).
  void stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Graceful drain (the SIGTERM path): admitted requests -- waiting and
  /// running -- run to completion and are delivered; new requests are
  /// answered kShuttingDown; serve() returns once nothing is outstanding.
  /// Signal-safe (only atomics).
  void request_drain() {
    drain_.store(true, std::memory_order_relaxed);
    admission_.begin_drain();
  }

  /// Handles one decoded request in the calling thread -- the unit each
  /// connection thread runs once admitted, exposed directly so tests and
  /// the bench harness can exercise daemon semantics without a socket.
  /// `arrival` anchors the request's time_limit_ms; the overload without it
  /// means "arrived now".
  OptimizeResponse handle(const OptimizeRequest& request);
  OptimizeResponse handle(const OptimizeRequest& request,
                          std::chrono::steady_clock::time_point arrival);

  /// Aggregate daemon counters (also served over kServerStatsRequest).
  [[nodiscard]] ServerStats stats() const;

  /// Executors of the daemon's worker pool (it only ever grows).
  [[nodiscard]] unsigned workers() const { return pool_->workers(); }

  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }

 private:
  /// One live connection; the list node outlives the thread so serve()'s
  /// shutdown sweep can ::shutdown a still-open fd under conns_mu_ without
  /// racing the reader thread's own close.
  struct Connection {
    int fd = -1;           ///< -1 once the reader thread has closed it
    bool done = false;     ///< reader thread exited; safe to join+reap
    std::thread thread;
  };

  void serve_connection(Connection* conn);
  /// Joins and erases connections whose reader threads have exited.
  void reap_connections();

  ServerOptions options_;
  std::shared_ptr<opt::ResultCache> cache_;
  /// The daemon's one worker pool, serving every request's inner `-j`
  /// parallelism (injected through PipelineOptions::thread_pool).
  /// Constructed once per server lifetime: request handling never spawns
  /// or joins threads.
  std::shared_ptr<util::ThreadPool> pool_;
  AdmissionQueue admission_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_{false};
  std::atomic<std::uint64_t> requests_{0};
  mutable std::mutex conns_mu_;
  std::list<Connection> conns_;
};

}  // namespace bds::service
