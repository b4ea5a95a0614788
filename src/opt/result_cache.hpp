// Content-addressed cross-request result cache (the service scaling core).
//
// Key: the canonical-function digest of a supernode's BDD
// (core::canonical_function_hash) folded with a fingerprint of every
// decomposition option that influences the result. Value: the serialized
// factoring-forest fragment the cold decomposition produced -- the private
// forest's exact node vector, the root id, and the DecomposeStats -- so a
// hit skips reorder+decompose entirely and splices into stage 3 of
// bds_decompose byte-identically to the cold run (the fragment is the cold
// run's output, bit for bit, stats included).
//
// Eviction is LRU by byte budget under one mutex; lookups copy the value
// out so decoding happens outside the lock. Shared across requests by the
// bdsd daemon, injected per pipeline through PipelineOptions::result_cache.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/decompose.hpp"
#include "core/factree.hpp"

namespace bds::opt {

class ResultCache {
 public:
  /// Default byte budget: enough for ~100k cached cones of typical size
  /// without threatening a daemon's residency.
  static constexpr std::size_t kDefaultByteBudget = 64u << 20;

  explicit ResultCache(std::size_t byte_budget = kDefaultByteBudget)
      : byte_budget_(byte_budget) {}
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Copies the cached value for `key` into `value` and promotes the entry
  /// to most-recently-used. Counts a hit or a miss either way.
  bool lookup(std::uint64_t key, std::string& value);

  /// Inserts (or refreshes) `key`, then evicts LRU entries until the byte
  /// budget holds. A value larger than the whole budget is not cached.
  void insert(std::uint64_t key, std::string value);

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t insertions = 0;
    std::size_t evictions = 0;
    std::size_t entries = 0;  ///< current resident entries
    std::size_t bytes = 0;    ///< current resident value bytes
  };
  [[nodiscard]] Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::size_t byte_budget_;
  /// Front = most recently used; Entry::lru points into this list.
  std::list<std::uint64_t> lru_;
  struct Entry {
    std::string bytes;
    std::list<std::uint64_t>::iterator lru;
  };
  std::unordered_map<std::uint64_t, Entry> map_;
  Stats stats_;
};

/// Folds a canonical-function digest with everything else that determines
/// the decomposition result: the option set and the input arity. The `-j`
/// level is deliberately absent (output is byte-identical across -j), as
/// is the budget (a degraded result is never cached). Technology-mapping
/// options are also deliberately absent: the cached fragments are pre-emit
/// factoring trees consumed before `bds_emit`, so they are independent of
/// any later `map`/`lutmap` pass and mapped and unmapped requests share
/// them (DESIGN.md §5i).
[[nodiscard]] std::uint64_t decompose_cache_key(
    std::uint64_t function_hash, const core::DecomposeOptions& opts,
    bool reorder, std::uint32_t num_inputs);

/// Serializes the fragment `(forest nodes, root, stats)` into a byte
/// string. In-process format (the cache never leaves the daemon), written
/// field by field so struct padding never leaks in.
[[nodiscard]] std::string encode_fragment(const core::FactoringForest& forest,
                                          core::FactId root,
                                          const core::DecomposeStats& stats);

/// Decodes a fragment into `forest` (replacing its contents), `root` and
/// `stats`. Returns false -- leaving the outputs untouched -- on any
/// structural violation (bad kinds, forward child references, bad root),
/// so a corrupted or truncated value degrades to a cache miss.
[[nodiscard]] bool decode_fragment(const std::string& bytes,
                                   core::FactoringForest& forest,
                                   core::FactId& root,
                                   core::DecomposeStats& stats);

}  // namespace bds::opt
