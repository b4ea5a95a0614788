// Resource governance: a shared, cooperative budget for BDD-heavy work.
//
// A `ResourceBudget` carries three independent ceilings -- live BDD nodes,
// approximate resident bytes and a wall-clock deadline -- and is installed
// on any number of `bdd::Manager`s (and consulted directly by long-running
// loops such as reordering or CEC). Managers check it cheaply on their
// existing hot paths (computed-table lookups and handle-level GC polls):
// the per-operation cost is one pointer test when no budget is installed,
// and two integer compares when one is. The deadline needs a clock read, so
// it is amortized: the clock is consulted once every
// `kDeadlineCheckInterval` checks.
//
// Exceeding any ceiling throws `bds::BudgetExceeded` (util/error.hpp) from a
// *safe point* -- never from inside a structural rewrite -- so every object
// remains valid and the caller can degrade instead of dying.
//
// Threading: one budget is shared by many managers across threads. The
// ceilings are plain fields fixed at construction; the deadline is an
// atomic so a controller thread can arm it while workers run. Node/byte
// ceilings are *per manager* (each manager compares its own counters),
// which keeps the node-limit degradation decision deterministic: a private
// manager performs the same operation sequence regardless of worker count,
// so it trips -- or not -- identically at every `-j`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "util/error.hpp"

namespace bds::util {

/// A shared, cooperative resource budget consulted from BDD safe points.
/// See the file comment for the ceiling semantics and threading contract.
class ResourceBudget {
 public:
  /// How many budget checks elapse between wall-clock reads (syscalls).
  static constexpr std::uint32_t kDeadlineCheckInterval = 1024;

  /// An unlimited budget (every ceiling 0 = off).
  ResourceBudget() = default;
  /// A budget with node/byte ceilings armed and no deadline.
  ResourceBudget(std::size_t node_limit, std::size_t byte_limit)
      : node_limit_(node_limit), byte_limit_(byte_limit) {}

  // ---- ceilings (0 = unlimited; fixed at construction) ---------------------

  /// Live-BDD-node ceiling per manager (0 = unlimited).
  std::size_t node_limit() const { return node_limit_; }
  /// Approximate resident-byte ceiling per manager (0 = unlimited).
  std::size_t byte_limit() const { return byte_limit_; }

  // ---- deadline (safe to arm while workers run) ----------------------------

  /// Arms the deadline `seconds` from now (<= 0 trips immediately).
  void set_deadline_in(double seconds) {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() +
        static_cast<std::int64_t>(seconds * 1e9);
    // 0 means "no deadline"; an actual 0 timestamp cannot occur on a
    // steady clock that started in the past.
    deadline_ns_.store(ns == 0 ? 1 : ns, std::memory_order_relaxed);
  }
  /// True once an armed deadline has passed (non-throwing poll).
  bool expired() const {
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == 0) return false;
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() >=
           d;
  }

  // ---- throwing checks ------------------------------------------------------

  /// Cheap part of a safe-point check: node/byte ceilings. `ticks` is the
  /// caller's amortization counter; the deadline clock is read only when it
  /// wraps kDeadlineCheckInterval.
  void check(std::size_t live_nodes, std::size_t bytes,
             std::uint32_t& ticks) const {
    if (node_limit_ != 0 && live_nodes > node_limit_) {
      throw BudgetExceeded(
          BudgetExceeded::Resource::kNodes,
          "BDD node budget exceeded: " + std::to_string(live_nodes) + " > " +
              std::to_string(node_limit_) + " live nodes");
    }
    if (byte_limit_ != 0 && bytes > byte_limit_) {
      throw BudgetExceeded(
          BudgetExceeded::Resource::kBytes,
          "BDD memory budget exceeded: " + std::to_string(bytes) + " > " +
              std::to_string(byte_limit_) + " bytes");
    }
    if (++ticks >= kDeadlineCheckInterval) {
      ticks = 0;
      check_deadline();
    }
  }

  /// Unamortized deadline check (one clock read). Used at coarse safe
  /// points (between pipeline passes, between sift rounds).
  void check_deadline() const {
    if (expired()) {
      throw BudgetExceeded(BudgetExceeded::Resource::kDeadline,
                           "wall-clock deadline exceeded");
    }
  }

 private:
  std::size_t node_limit_ = 0;
  std::size_t byte_limit_ = 0;
  std::atomic<std::int64_t> deadline_ns_{0};  ///< steady-clock ns; 0 = none
};

using BudgetPtr = std::shared_ptr<ResourceBudget>;

}  // namespace bds::util
