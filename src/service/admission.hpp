// Admission control of the bdsd daemon: the bounded gate between the
// socket threads that read requests and the executor threads that run
// them.
//
// Why a gate at all: without one, a burst of heavy BLIFs makes *every*
// caller slow -- each accepted request joins an unbounded pile and waits
// its turn behind all the others, so latency degrades for the whole
// population instead of staying flat for the work the daemon can actually
// carry. The admission queue bounds the pile in two dimensions (request
// count and payload bytes) and answers "not now" immediately -- a
// kOverloaded response with a retry_after_ms hint -- the moment either
// bound is hit. Admitted requests therefore wait behind at most
// `queue_depth` predecessors, which is what keeps their p99 bounded under
// flood (the bench_suite `overload` section measures exactly this).
//
// Policy details:
//   * A slice of the queue (depth/4, at least one slot when depth > 1) is
//     reserved for kPriorityHigh requests, so operator traffic (health
//     probes, urgent jobs) still gets in when normal traffic has filled
//     the rest.
//   * The retry hint is the service-time EWMA (util/load_meter.hpp) times
//     the backlog per executor -- an estimate of when a slot frees up,
//     not a promise.
//   * Drain (SIGTERM): begin_drain() flips one flag; every offer()
//     afterwards answers kShuttingDown while already-admitted work runs to
//     completion. The server waits for idle() -- an outstanding-work
//     counter covering both queued and in-flight requests, so there is no
//     window where the queue looks empty but an executor still holds a
//     request -- then close()s the queue to release the executors.
//
// Determinism: admission decides only *whether* a request runs, never how;
// an admitted request produces byte-identical output at any load. The
// counters here surface through exec-bucket telemetry and ServerStats,
// both outside the determinism contract. See DESIGN.md §5h.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>

#include "service/protocol.hpp"
#include "util/load_meter.hpp"
#include "util/mpmc_queue.hpp"

namespace bds::service {

/// One admitted request parked between its socket thread and the executor
/// that will run it. The socket thread blocks on the promise's future and
/// writes whatever lands there back to the peer.
struct PendingRequest {
  OptimizeRequest request;
  std::chrono::steady_clock::time_point arrival{};  ///< socket read time
  std::size_t bytes = 0;  ///< payload size charged against the byte ceiling
  std::promise<OptimizeResponse> promise;
};

struct AdmissionOptions {
  std::size_t queue_depth = 64;  ///< pending-request ceiling (>= 1)
  /// Ceiling on the summed payload bytes of pending requests; one giant
  /// BLIF cannot be wedged behind another. 0 = unlimited.
  std::size_t queue_bytes = 64u << 20;
  unsigned workers = 1;  ///< executor count, scales the retry hint
};

/// What offer() decided. kAdmitted means the promise will be fulfilled by
/// an executor; the other two mean the caller answers the peer itself.
enum class AdmitResult : std::uint8_t {
  kAdmitted,
  kOverloaded,
  kShuttingDown,
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionOptions options);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admission decision for one request; never blocks. On kAdmitted the
  /// queue owns `item` until an executor take()s it.
  AdmitResult offer(std::shared_ptr<PendingRequest> item);

  /// Executor loop: blocks for the next admitted request. False once the
  /// queue is closed and drained (the executor-exit condition).
  bool take(std::shared_ptr<PendingRequest>& out);

  /// One admitted request fully answered (including deadline rejects);
  /// `service_ms` feeds the EWMA behind retry_after_ms.
  void finish(double service_ms);

  /// An admitted request rejected because its deadline expired while it
  /// waited in the queue (counted *in addition to* finish()).
  void note_deadline_reject() {
    deadline_rejects_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Stops admitting (offers answer kShuttingDown); admitted work
  /// continues. Idempotent.
  void begin_drain() { draining_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }
  /// True when no admitted request is queued or in flight.
  [[nodiscard]] bool idle() const {
    return outstanding_.load(std::memory_order_acquire) == 0;
  }
  /// Releases the executors (take() drains, then returns false).
  void close() { queue_.close(); }

  /// Backoff hint handed out with kOverloaded: the service-time EWMA times
  /// the backlog per executor, clamped to [1ms, 30s]. Before any request
  /// has completed the estimate defaults to a small constant.
  [[nodiscard]] std::uint32_t retry_after_ms() const;

  // Counters and gauges (all relaxed; they feed ServerStats and telemetry,
  // never control flow).
  [[nodiscard]] std::uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sheds() const {
    return sheds_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t deadline_rejects() const {
    return deadline_rejects_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t drained() const {
    return drained_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t queued() const {
    return queued_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t queue_bytes_used() const {
    return bytes_.used();
  }
  [[nodiscard]] std::uint64_t in_flight() const;

 private:
  AdmissionOptions options_;
  std::size_t reserve_;  ///< queue slots only kPriorityHigh may take
  util::MpmcQueue<std::shared_ptr<PendingRequest>> queue_;
  util::ByteGauge bytes_;
  util::LatencyEwma service_ms_;
  std::atomic<bool> draining_{false};
  /// Requests admitted and not yet finish()ed (queued + in flight); the
  /// drain loop waits for this to reach zero, not for the queue to look
  /// empty, so a request an executor holds still counts.
  std::atomic<std::uint64_t> outstanding_{0};
  /// Requests currently in the ring (incremented before push, decremented
  /// after pop, so it never under-counts; the admission limit check runs
  /// against this, which is what makes depth a hard bound).
  std::atomic<std::uint64_t> queued_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> sheds_{0};
  std::atomic<std::uint64_t> deadline_rejects_{0};
  std::atomic<std::uint64_t> drained_{0};
};

}  // namespace bds::service
