// Admission control of the bdsd daemon: the bounded gate every optimize
// request passes before the connection thread that read it runs it.
//
// Why a gate at all: without one, a burst of heavy BLIFs makes *every*
// caller slow -- each accepted request joins an unbounded pile and waits
// its turn behind all the others, so latency degrades for the whole
// population instead of staying flat for the work the daemon can actually
// carry. The gate bounds the waiting line in two dimensions (request
// count and payload bytes) and answers "not now" immediately -- a
// kOverloaded response with a retry_after_ms hint -- the moment either
// bound is hit. Admitted requests therefore wait behind at most
// `queue_depth` predecessors, which is what keeps their p99 bounded under
// flood (the bench_suite `overload` section measures exactly this).
//
// Mechanism: one mutex and plain counters. An admitted request holds a
// Ticket; its reader thread calls wait_turn(), which returns once the
// ticket is first in line (FIFO) and fewer than `concurrency` requests
// are running, runs the request, calls finish_run() to free the slot,
// writes the response and drops the ticket. The slot is freed before the
// write so a peer that stops reading holds only its own connection, never
// a slot. Each waiting reader sleeps on its own condition variable and
// only the head of the line is woken when a slot frees up.
//
// Policy details:
//   * One lane: every request meets the same `queue_depth` and
//     `queue_bytes` ceilings, in arrival order.
//   * The retry hint is the service-time EWMA times the backlog per
//     running slot -- an estimate of when a slot frees up, not a promise.
//   * Drain (SIGTERM): begin_drain() flips one atomic flag (safe from a
//     signal handler); every offer() afterwards answers kShuttingDown
//     while admitted work runs to completion. The server waits for
//     idle(): no ticket is waiting, running or delivering, and because a
//     ticket lives until its response is written, idle means delivered.
//   * Hard stop (SIGINT): close() wakes every waiting ticket with
//     wait_turn() == false (its reader answers kShuttingDown); running
//     requests finish. wait_runs_done() blocks until they have, without
//     waiting for any response write, so a stalled peer cannot hold it.
//
// Determinism: admission decides only *whether* and *when* a request
// runs, never how; an admitted request produces byte-identical output at
// any load. The counters here surface through exec-bucket telemetry and
// ServerStats, both outside the determinism contract. See DESIGN.md §5h.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

#include "service/protocol.hpp"

namespace bds::service {

struct AdmissionOptions {
  std::size_t queue_depth = 64;  ///< waiting-request ceiling (>= 1)
  /// Ceiling on the summed payload bytes of waiting requests; one giant
  /// BLIF cannot be wedged behind another. 0 = unlimited.
  std::size_t queue_bytes = 64u << 20;
  unsigned concurrency = 1;  ///< requests running at once (>= 1)
};

/// What offer() decided. kAdmitted hands the caller a Ticket; the other
/// two mean the caller answers the peer at once.
enum class AdmitResult : std::uint8_t {
  kAdmitted,
  kOverloaded,
  kShuttingDown,
};

class AdmissionQueue {
 public:
  /// One admitted request's place at the gate. Move-only, but not while a
  /// thread is inside wait_turn(). Dropping it leaves the gate from
  /// whichever state it is in: waiting, running or delivering.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { release(); }

    /// Blocks until this ticket is first in line and a running slot is
    /// free, then takes the slot. False once the gate is closed (hard
    /// stop): the ticket has left the gate and the request must not run.
    /// Call once, on an admitted ticket.
    bool wait_turn();
    /// The request has run: frees its running slot for the next ticket in
    /// line. The ticket still counts against idle() until it is dropped,
    /// i.e. until its response has been written.
    void finish_run();
    /// Leaves the gate now (what the destructor does). Idempotent.
    void release();

   private:
    friend class AdmissionQueue;
    enum class State : std::uint8_t { kNone, kWaiting, kRunning, kDelivering };
    AdmissionQueue* gate_ = nullptr;
    State state_ = State::kNone;
    std::uint64_t serial_ = 0;  ///< place in line
    std::size_t bytes_ = 0;     ///< charged against the byte ceiling
    std::chrono::steady_clock::time_point started_{};  ///< slot taken
  };

  explicit AdmissionQueue(AdmissionOptions options);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admission decision for one request of `bytes` payload bytes; never
  /// blocks. On kAdmitted `ticket` holds the request's place in line.
  AdmitResult offer(std::size_t bytes, Ticket& ticket);

  /// An admitted request rejected because its time limit expired while it
  /// waited in line.
  void note_deadline_reject();

  /// Stops admitting (offers answer kShuttingDown); admitted work
  /// continues. Idempotent and async-signal-safe (one atomic store).
  void begin_drain() { draining_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }
  /// Hard stop: stops admitting and makes every waiting wait_turn()
  /// return false. Running requests are not interrupted. Idempotent.
  void close();
  /// Blocks until no ticket is waiting or running. Tickets still writing
  /// their response are not waited for.
  void wait_runs_done();
  /// True when no ticket is waiting, running or delivering.
  [[nodiscard]] bool idle() const;

  /// Backoff hint handed out with kOverloaded: the service-time EWMA times
  /// the backlog per running slot, clamped to [1ms, 30s]. Before any
  /// request has completed the estimate defaults to a small constant.
  [[nodiscard]] std::uint32_t retry_after_ms() const;

  /// One consistent reading of the gate's counters and gauges: the
  /// admission fields of ServerStats (the others stay 0). They feed
  /// ServerStats and telemetry, never control flow.
  [[nodiscard]] ServerStats counters() const;

 private:
  /// One waiting ticket. `wake` is the condition variable its reader
  /// sleeps on inside wait_turn(); null until the reader gets there.
  struct Waiter {
    std::uint64_t serial;
    std::condition_variable* wake;
  };

  std::deque<Waiter>::iterator find_waiter(std::uint64_t serial);
  /// Takes a waiting ticket out of the line (it will not run).
  void leave_line(const Ticket& ticket);
  /// Frees the running slot of a ticket that took it at `started` and
  /// feeds the service-time EWMA.
  void end_run(std::chrono::steady_clock::time_point started);
  /// Wakes the head of the line if a running slot is free for it.
  void wake_head();
  /// Wakes wait_runs_done() once nothing is waiting or running.
  void wake_if_runs_done();

  AdmissionOptions options_;
  std::atomic<bool> draining_{false};
  mutable std::mutex mu_;
  std::condition_variable runs_done_;  ///< line empty, nothing running
  // Everything below is guarded by mu_.
  std::deque<Waiter> line_;  ///< waiting tickets, FIFO
  std::uint64_t next_serial_ = 0;
  std::size_t running_ = 0;
  std::size_t delivering_ = 0;  ///< ran, response not yet written
  std::size_t waiting_bytes_ = 0;
  /// Service-time EWMA in ms (20% weight per sample); negative until the
  /// first request completes.
  double service_ms_ = -1.0;
  bool closed_ = false;
  std::uint64_t admitted_ = 0;
  std::uint64_t sheds_ = 0;
  std::uint64_t deadline_rejects_ = 0;
  std::uint64_t drained_ = 0;
};

}  // namespace bds::service
