#include "service/admission.hpp"

#include <algorithm>
#include <cmath>

namespace bds::service {
namespace {

/// Retry hint before the first request has completed: long enough that an
/// immediate re-offer probably lands after the current head of the line,
/// short enough not to stall a caller when the daemon is merely warming up.
constexpr double kColdStartHintMs = 25.0;

}  // namespace

AdmissionQueue::Ticket& AdmissionQueue::Ticket::operator=(
    Ticket&& other) noexcept {
  if (this != &other) {
    release();
    gate_ = std::exchange(other.gate_, nullptr);
    state_ = std::exchange(other.state_, State::kNone);
    serial_ = other.serial_;
    bytes_ = other.bytes_;
    started_ = other.started_;
  }
  return *this;
}

bool AdmissionQueue::Ticket::wait_turn() {
  AdmissionQueue& gate = *gate_;
  std::condition_variable wake;
  std::unique_lock<std::mutex> lock(gate.mu_);
  gate.find_waiter(serial_)->wake = &wake;
  wake.wait(lock, [&] {
    return gate.closed_ || (gate.line_.front().serial == serial_ &&
                            gate.running_ < gate.options_.concurrency);
  });
  if (gate.closed_) {
    gate.leave_line(*this);
    gate_ = nullptr;
    state_ = State::kNone;
    return false;
  }
  gate.line_.pop_front();
  gate.waiting_bytes_ -= bytes_;
  ++gate.running_;
  state_ = State::kRunning;
  started_ = std::chrono::steady_clock::now();
  gate.wake_head();  // the next ticket may fit into another free slot
  return true;
}

void AdmissionQueue::Ticket::finish_run() {
  if (state_ != State::kRunning) return;
  AdmissionQueue& gate = *gate_;
  const std::lock_guard<std::mutex> lock(gate.mu_);
  gate.end_run(started_);
  ++gate.delivering_;
  state_ = State::kDelivering;
}

void AdmissionQueue::Ticket::release() {
  if (gate_ == nullptr) return;
  AdmissionQueue& gate = *std::exchange(gate_, nullptr);
  // Everything, notifications included, happens under the lock: once the
  // gate looks idle its owner may destroy it as soon as it takes the mutex.
  const std::lock_guard<std::mutex> lock(gate.mu_);
  switch (std::exchange(state_, State::kNone)) {
    case State::kWaiting:
      gate.leave_line(*this);
      break;
    case State::kRunning:
      gate.end_run(started_);
      break;
    case State::kDelivering:
      --gate.delivering_;
      break;
    case State::kNone:
      break;
  }
}

std::deque<AdmissionQueue::Waiter>::iterator AdmissionQueue::find_waiter(
    std::uint64_t serial) {
  return std::find_if(line_.begin(), line_.end(),
                      [serial](const Waiter& w) { return w.serial == serial; });
}

void AdmissionQueue::leave_line(const Ticket& ticket) {
  const bool head = line_.front().serial == ticket.serial_;
  line_.erase(find_waiter(ticket.serial_));
  waiting_bytes_ -= ticket.bytes_;
  if (head) wake_head();
  wake_if_runs_done();
}

void AdmissionQueue::end_run(std::chrono::steady_clock::time_point started) {
  --running_;
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - started)
                        .count();
  service_ms_ =
      service_ms_ < 0.0 ? ms : service_ms_ + (ms - service_ms_) * 0.2;
  if (draining()) ++drained_;
  wake_head();
  wake_if_runs_done();
}

void AdmissionQueue::wake_head() {
  if (!line_.empty() && running_ < options_.concurrency &&
      line_.front().wake != nullptr) {
    line_.front().wake->notify_one();
  }
}

void AdmissionQueue::wake_if_runs_done() {
  if (line_.empty() && running_ == 0) runs_done_.notify_all();
}

AdmissionQueue::AdmissionQueue(AdmissionOptions options)
    : options_([&] {
        if (options.queue_depth < 1) options.queue_depth = 1;
        if (options.concurrency < 1) options.concurrency = 1;
        return options;
      }()) {}

AdmitResult AdmissionQueue::offer(std::size_t bytes, Ticket& ticket) {
  ticket.release();
  const std::lock_guard<std::mutex> lock(mu_);
  if (draining() || closed_) return AdmitResult::kShuttingDown;
  // Byte bound: one oversized BLIF backlog cannot hide behind a shallow
  // count. Charged now, released when the ticket starts running.
  const bool over_bytes = options_.queue_bytes != 0 &&
                          bytes > options_.queue_bytes - waiting_bytes_;
  if (line_.size() >= options_.queue_depth || over_bytes) {
    ++sheds_;
    return AdmitResult::kOverloaded;
  }
  ticket.gate_ = this;
  ticket.state_ = Ticket::State::kWaiting;
  ticket.serial_ = next_serial_++;
  ticket.bytes_ = bytes;
  line_.push_back(Waiter{ticket.serial_, nullptr});
  waiting_bytes_ += bytes;
  ++admitted_;
  return AdmitResult::kAdmitted;
}

void AdmissionQueue::note_deadline_reject() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++deadline_rejects_;
}

void AdmissionQueue::close() {
  begin_drain();
  const std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  for (const Waiter& w : line_) {
    if (w.wake != nullptr) w.wake->notify_one();
  }
}

void AdmissionQueue::wait_runs_done() {
  std::unique_lock<std::mutex> lock(mu_);
  runs_done_.wait(lock, [&] { return line_.empty() && running_ == 0; });
}

bool AdmissionQueue::idle() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return line_.empty() && running_ == 0 && delivering_ == 0;
}

std::uint32_t AdmissionQueue::retry_after_ms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const double per_request =
      service_ms_ < 0.0 ? kColdStartHintMs : service_ms_;
  const double backlog = static_cast<double>(line_.size() + running_ + 1);
  const double hint = std::ceil(per_request * backlog /
                                static_cast<double>(options_.concurrency));
  return static_cast<std::uint32_t>(std::clamp(hint, 1.0, 30'000.0));
}

ServerStats AdmissionQueue::counters() const {
  ServerStats s;
  s.draining = draining() ? 1 : 0;
  const std::lock_guard<std::mutex> lock(mu_);
  s.admitted = admitted_;
  s.sheds = sheds_;
  s.deadline_rejects = deadline_rejects_;
  s.drained = drained_;
  s.queue_depth = line_.size();
  s.queue_bytes = waiting_bytes_;
  s.in_flight = running_;
  return s;
}

}  // namespace bds::service
