// A pool of reusable bdd::Manager instances.
//
// The BDS flow used to construct a fresh Manager per supernode and per
// sharing pass; under the optimization service every request repeats that,
// so the arena/cache allocations dominate small-cone work. The pool keeps
// reset() managers around instead: acquire() hands out a recycled manager
// (or constructs one when the pool is empty) and the RAII Lease returns it
// on destruction after stripping the budget and reset()-ing it.
// reset() restores a manager to a state indistinguishable from freshly
// constructed -- including the capacity-derived memory_bytes gauge, which
// it shrinks back to the pristine footprint -- so pooling changes no
// emitted network, no budget decision, and no telemetry byte. What a
// recycled manager still saves is the object construction and, in the
// common case, the computed-table allocation (reset() reuses that buffer
// when the table never grew). Each manager keeps its own starting
// computed-table size (bdd::Manager::initial_cache_entries), so cone-sized
// and default-sized managers share one pool.
//
// Thread-safety: acquire() and release are mutex-guarded, so leases may be
// taken and dropped from any thread; the leased manager itself is as
// single-threaded as any Manager.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "bdd/bdd.hpp"

namespace bds::opt {

class ManagerPool {
 public:
  ManagerPool() = default;
  ManagerPool(const ManagerPool&) = delete;
  ManagerPool& operator=(const ManagerPool&) = delete;

  /// Exclusive ownership of a pooled manager for one unit of work.
  /// Default-constructed leases are empty (no manager); moved-from leases
  /// become empty. Destruction returns the manager to its pool.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept : pool_(o.pool_), mgr_(std::move(o.mgr_)) {
      o.pool_ = nullptr;
    }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = o.pool_;
        mgr_ = std::move(o.mgr_);
        o.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] bool valid() const { return mgr_ != nullptr; }
    bdd::Manager& operator*() const { return *mgr_; }
    bdd::Manager* operator->() const { return mgr_.get(); }
    bdd::Manager* get() const { return mgr_.get(); }

    /// Returns the manager to the pool now (idempotent). The manager is
    /// stripped of its budget and reset() before it goes
    /// back, so the next acquire() sees fresh-constructed behavior.
    void release();

   private:
    friend class ManagerPool;
    Lease(ManagerPool* pool, std::unique_ptr<bdd::Manager> mgr)
        : pool_(pool), mgr_(std::move(mgr)) {}
    ManagerPool* pool_ = nullptr;
    std::unique_ptr<bdd::Manager> mgr_;
  };

  /// A manager indistinguishable from a fresh
  /// `Manager(num_vars, cache_entries)`: identity order, that starting
  /// computed-table size and the matching memory_bytes gauge. An idle
  /// manager already at `cache_entries` is preferred; any other is reset
  /// to the requested size, which reallocates only its table.
  [[nodiscard]] Lease acquire(
      std::uint32_t num_vars,
      std::size_t cache_entries = bdd::Manager::kCacheInitialEntries);

  /// Managers currently parked in the pool (diagnostics/tests).
  [[nodiscard]] std::size_t idle() const;
  /// Total managers ever constructed by this pool (diagnostics/tests):
  /// acquire() count minus recycles.
  [[nodiscard]] std::size_t constructed() const;

  /// The process-wide pool the BDS passes draw from by default; the daemon
  /// shares it across requests so arenas stay warm between them.
  static ManagerPool& global();

 private:
  void put_back(std::unique_ptr<bdd::Manager> mgr);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<bdd::Manager>> idle_;
  std::size_t constructed_ = 0;
};

}  // namespace bds::opt
