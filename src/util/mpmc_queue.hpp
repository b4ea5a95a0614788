// A bounded multi-producer/multi-consumer ready-queue.
//
// This is the hand-off structure of the bdsd admission gate
// (service/admission.hpp): connection reader threads push admitted
// requests in while executor threads pull them out. The queue is a
// fixed-capacity ring guarded by one mutex and two condition variables;
// the elements queued are coarse (a whole optimization request each), so
// contention on the lock is negligible next to the work an element
// represents, and a mutex-based ring is trivially clean under TSan.
//
// Shutdown protocol: `close()` wakes every parked producer and consumer;
// after it, `push`/`try_push` fail and `pop` drains whatever is left before
// returning false. Consumers therefore run `while (q.pop(item)) work(item);`
// and fall out exactly when the queue is closed *and* empty -- the owner
// closes it once it knows no further item can arrive.
//
// Blocking `push` parks while the ring is full; callers that must never
// park use `try_push` and handle the failure themselves (the admission
// gate sheds the request).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace bds::util {

template <class T>
class MpmcQueue {
 public:
  /// A queue holding at most `capacity` (>= 1) elements.
  explicit MpmcQueue(std::size_t capacity)
      : buf_(capacity < 1 ? 1 : capacity) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Enqueues, parking while the ring is full. Returns false (element
  /// dropped) iff the queue was closed before a slot opened up.
  bool push(T value) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return closed_ || count_ < buf_.size(); });
    if (closed_) return false;
    enqueue_locked(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking enqueue: false when full or closed. Consumers that
  /// produce (split sub-cones) use this and run the element inline on
  /// failure, so they never park on capacity.
  bool try_push(T value) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || count_ == buf_.size()) return false;
      enqueue_locked(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Dequeues, parking while the queue is open but empty. Returns false
  /// only when the queue is closed *and* drained -- the consumer-loop
  /// termination condition.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || count_ > 0; });
    if (count_ == 0) return false;  // closed and drained
    dequeue_locked(out);
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Non-blocking dequeue: false when nothing is ready right now.
  bool try_pop(T& out) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (count_ == 0) return false;
      dequeue_locked(out);
    }
    not_full_.notify_one();
    return true;
  }

  /// Ends the stream: pending pushes fail, pops drain then return false.
  /// Idempotent; safe from any thread.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  void enqueue_locked(T&& value) {
    buf_[(head_ + count_) % buf_.size()] = std::move(value);
    ++count_;
  }
  void dequeue_locked(T& out) {
    out = std::move(buf_[head_]);
    head_ = (head_ + 1) % buf_.size();
    --count_;
  }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> buf_;   ///< fixed ring storage
  std::size_t head_ = 0; ///< index of the oldest element
  std::size_t count_ = 0;
  bool closed_ = false;
};

}  // namespace bds::util
