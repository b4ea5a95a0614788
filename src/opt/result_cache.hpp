// Content-addressed cross-request result cache: the second tier of
// bds_decompose's in-run cone memo (DESIGN.md §5d, §5h).
//
// Key: the canonical-function digest of a supernode's BDD
// (core::canonical_function_hash of the cone's image, recorded in the
// partition manager over the cone's input positions) folded with a
// fingerprint of every decomposition option that influences the result --
// the same key that picks a run's leader cones. Value: the cone's
// decomposition itself -- one immutable ConeResult (private forest, root,
// DecomposeStats) shared by pointer -- so a hit skips the lease, replay,
// reorder and decompose entirely and is spliced by bds_decompose's merge
// with the same const copy_into a cold cone uses, byte-identically to the
// cold run.
//
// Eviction is LRU by byte budget under one mutex; each entry is charged
// the heap bytes of its forest. A lookup hands out a shared reference, so
// a result a request still holds outlives its eviction. Shared across
// requests by the bdsd daemon, injected per pipeline through
// PipelineOptions::result_cache.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/decompose.hpp"
#include "core/factree.hpp"

namespace bds::opt {

/// One cone's decomposition: its private factoring forest, the root of the
/// cone's tree in it, and the decomposition counters. bds_decompose builds
/// it once; afterwards it is only read, by any number of requests at once.
struct ConeResult {
  core::FactoringForest forest;
  core::FactId root = core::kNoFact;
  core::DecomposeStats stats;
};

class ResultCache {
 public:
  /// Default byte budget: enough for ~100k cached cones of typical size
  /// without threatening a daemon's residency.
  static constexpr std::size_t kDefaultByteBudget = 64u << 20;

  explicit ResultCache(std::size_t byte_budget = kDefaultByteBudget)
      : byte_budget_(byte_budget) {}
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached result for `key` (null on a miss) and promotes the
  /// entry to most-recently-used. Counts a hit or a miss either way.
  std::shared_ptr<const ConeResult> lookup(std::uint64_t key);

  /// Inserts `key`, then evicts LRU entries until the byte budget holds. A
  /// key already present is only promoted: identical keys carry identical
  /// results. A result larger than the whole budget is not cached.
  void insert(std::uint64_t key, std::shared_ptr<const ConeResult> value);

  /// Bytes an entry is charged: the heap bytes of its forest, a pure
  /// function of the result, so eviction is deterministic.
  static std::size_t charge(const ConeResult& value) {
    return value.forest.memory_bytes();
  }

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t insertions = 0;
    std::size_t evictions = 0;
    std::size_t entries = 0;  ///< current resident entries
    std::size_t bytes = 0;    ///< current resident charged bytes
  };
  [[nodiscard]] Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::size_t byte_budget_;
  /// Front = most recently used; Entry::lru points into this list.
  std::list<std::uint64_t> lru_;
  struct Entry {
    std::shared_ptr<const ConeResult> value;
    std::list<std::uint64_t>::iterator lru;
  };
  std::unordered_map<std::uint64_t, Entry> map_;
  Stats stats_;
};

/// Folds a canonical-function digest with everything else that determines
/// the decomposition result: the option set and the input arity. The `-j`
/// level is deliberately absent (output is byte-identical across -j), as
/// is the budget (a degraded result is never cached). Technology-mapping
/// options are also deliberately absent: the cached results are pre-emit
/// factoring trees consumed before `bds_emit`, so they are independent of
/// any later `map`/`lutmap` pass and mapped and unmapped requests share
/// them (DESIGN.md §5i).
[[nodiscard]] std::uint64_t decompose_cache_key(
    std::uint64_t function_hash, const core::DecomposeOptions& opts,
    bool reorder, std::uint32_t num_inputs);

}  // namespace bds::opt
