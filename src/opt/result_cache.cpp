#include "opt/result_cache.hpp"

#include <cstring>
#include <type_traits>
#include <vector>

namespace bds::opt {

bool ResultCache::lookup(std::uint64_t key, std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru);  // promote to MRU
  value = it->second.bytes;
  return true;
}

void ResultCache::insert(std::uint64_t key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (value.size() > byte_budget_) return;  // would evict everything else
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // Refresh: same function+options should produce the same bytes, but a
    // refresh keeps the cache correct even if an encoder ever changes.
    stats_.bytes -= it->second.bytes.size();
    stats_.bytes += value.size();
    it->second.bytes = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  lru_.push_front(key);
  stats_.bytes += value.size();
  map_.emplace(key, Entry{std::move(value), lru_.begin()});
  ++stats_.insertions;
  while (stats_.bytes > byte_budget_ && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    const auto vit = map_.find(victim);
    stats_.bytes -= vit->second.bytes.size();
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
  // One option bit per flag, then FNV-fold the fingerprint words into the
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
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  fold(fp);
  fold(static_cast<std::uint64_t>(opts.max_cuts));
  return h;
}

namespace {

template <typename T>
void put(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool get(const std::string& in, std::size_t& pos, T& value) {
  if (in.size() - pos < sizeof(T)) return false;
  std::memcpy(&value, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}

}  // namespace

std::string encode_fragment(const core::FactoringForest& forest,
                            core::FactId root,
                            const core::DecomposeStats& stats) {
  std::string out;
  const auto count = static_cast<std::uint32_t>(forest.size());
  out.reserve(24 + 8 * 8 + count * 13);
  put(out, count);
  put(out, root);
  put(out, static_cast<std::uint64_t>(stats.one_dominator));
  put(out, static_cast<std::uint64_t>(stats.zero_dominator));
  put(out, static_cast<std::uint64_t>(stats.x_dominator));
  put(out, static_cast<std::uint64_t>(stats.functional_mux));
  put(out, static_cast<std::uint64_t>(stats.generalized_and));
  put(out, static_cast<std::uint64_t>(stats.generalized_or));
  put(out, static_cast<std::uint64_t>(stats.generalized_xnor));
  put(out, static_cast<std::uint64_t>(stats.shannon));
  for (std::uint32_t i = 0; i < count; ++i) {
    const core::FactNode& n = forest.node(i);
    put(out, static_cast<std::uint8_t>(n.kind));
    put(out, n.var);
    put(out, n.a);
    put(out, n.b);
    put(out, n.c);
  }
  return out;
}

bool decode_fragment(const std::string& bytes, core::FactoringForest& forest,
                     core::FactId& root, core::DecomposeStats& stats) {
  std::size_t pos = 0;
  std::uint32_t count = 0;
  core::FactId r = core::kNoFact;
  if (!get(bytes, pos, count) || !get(bytes, pos, r)) return false;
  core::DecomposeStats st;
  std::uint64_t v = 0;
  const auto take = [&](std::size_t& field) {
    if (!get(bytes, pos, v)) return false;
    field = static_cast<std::size_t>(v);
    return true;
  };
  if (!take(st.one_dominator) || !take(st.zero_dominator) ||
      !take(st.x_dominator) || !take(st.functional_mux) ||
      !take(st.generalized_and) || !take(st.generalized_or) ||
      !take(st.generalized_xnor) || !take(st.shannon)) {
    return false;
  }
  if (count < 2 || r >= count) return false;
  std::vector<core::FactNode> nodes;
  nodes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t kind = 0;
    core::FactNode n;
    if (!get(bytes, pos, kind) || !get(bytes, pos, n.var) ||
        !get(bytes, pos, n.a) || !get(bytes, pos, n.b) ||
        !get(bytes, pos, n.c)) {
      return false;
    }
    if (kind > static_cast<std::uint8_t>(core::FactKind::kMux)) return false;
    n.kind = static_cast<core::FactKind>(kind);
    // Interning appends operands before the nodes that use them, so every
    // child reference must point strictly backwards.
    const auto child_ok = [&](core::FactId c) {
      return c == core::kNoFact || c < i;
    };
    if (!child_ok(n.a) || !child_ok(n.b) || !child_ok(n.c)) return false;
    nodes.push_back(n);
  }
  if (pos != bytes.size()) return false;
  if (nodes[0].kind != core::FactKind::kConst0 ||
      nodes[1].kind != core::FactKind::kConst1) {
    return false;
  }
  forest.restore_nodes(std::move(nodes));
  root = r;
  stats = st;
  return true;
}

}  // namespace bds::opt
