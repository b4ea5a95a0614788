#include "opt/result_cache.hpp"

namespace bds::opt {

std::shared_ptr<const ConeResult> ResultCache::lookup(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru);  // promote to MRU
  return it->second.value;
}

void ResultCache::insert(std::uint64_t key,
                         std::shared_ptr<const ConeResult> value) {
  const std::size_t bytes = charge(*value);
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes > byte_budget_) return;  // would evict everything else
  const auto it = map_.find(key);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  lru_.push_front(key);
  stats_.bytes += bytes;
  map_.emplace(key, Entry{std::move(value), lru_.begin()});
  ++stats_.insertions;
  while (stats_.bytes > byte_budget_ && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    const auto vit = map_.find(victim);
    stats_.bytes -= charge(*vit->second.value);
    map_.erase(vit);
    ++stats_.evictions;
  }
  stats_.entries = map_.size();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = map_.size();
  return s;
}

std::uint64_t decompose_cache_key(std::uint64_t function_hash,
                                  const core::DecomposeOptions& opts,
                                  bool reorder, std::uint32_t num_inputs) {
  // One option bit per flag, then FNV-fold the fingerprint word into the
  // function digest so two option sets never alias onto one key.
  std::uint64_t fp = 0;
  fp |= static_cast<std::uint64_t>(reorder) << 0;
  fp |= static_cast<std::uint64_t>(opts.use_simple_dominators) << 1;
  fp |= static_cast<std::uint64_t>(opts.use_mux) << 2;
  fp |= static_cast<std::uint64_t>(opts.use_generalized) << 3;
  fp |= static_cast<std::uint64_t>(opts.use_xdom) << 4;
  fp |= static_cast<std::uint64_t>(opts.dc_minimizer) << 5;
  fp |= static_cast<std::uint64_t>(num_inputs) << 8;
  std::uint64_t h = function_hash;
  for (int i = 0; i < 8; ++i) {
    h ^= (fp >> (i * 8)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace bds::opt
