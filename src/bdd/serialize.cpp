// Manager lifecycle: reset() and the versioned binary image format
// (serialize/deserialize).
//
// The SoA store makes the image trivial: node identity is the index, so
// dumping the raw arrays (free slots included) preserves the meaning of
// every outstanding Lit. The arrays are written in the host's native byte
// order, so the header carries an endianness tag and the element widths:
// a reader on a host with a different byte order (or a build whose
// Lit/Var/ref types changed width) rejects the image with a typed
// SerializeError instead of silently misreading the arena -- the daemon's
// content-addressed cache makes cross-host images a normal event, not an
// exotic one. Layout:
//
//   u32 magic 'BDSM'   u32 version
//   --- FNV-1a-hashed payload ---
//   u32 endian tag 0x01020304  (reads back reversed on a foreign host)
//   u8 lit_width   u8 var_width   u8 ref_width   u8 reserved(0)
//   u32 num_vars   u32 arena   u32 free_count   u32 root_count
//   var2level [num_vars x u32]         (level2var is its inverse)
//   vars      [arena x u32]            (kVarTerminal = free slot/terminal)
//   thens     [arena x u32 Lit]
//   elses     [arena x u32 Lit]
//   refs      [arena x u16]            (external pins survive the trip)
//   free_list [free_count x u32]       (deterministic allocation after load)
//   roots     [root_count x u32 Lit]   (writer-chosen entry points)
//   --- end of hashed payload ---
//   u64 FNV-1a checksum
//
// The unique-table chains (nexts) are not stored: deserialize rebuilds the
// subtables by inserting live nodes in increasing index order, which is
// deterministic and independent of the writer's chain history. The
// computed table and statistics are not stored either -- a loaded manager
// starts with a cold cache, like a reset one.
//
// deserialize() validates everything (bounds, canonical form, level order,
// free-list consistency, duplicate triples, checksum) against temporaries
// before touching the manager, so a SerializeError leaves the target in
// its pristine state.
#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <type_traits>

#include "bdd/bdd.hpp"
#include "util/error.hpp"

namespace bds::bdd {

namespace {
constexpr std::uint32_t kMagic = 0x4D534442u;  // "BDSM" little-endian
// Version 2 added the endianness tag and element-width fields to the
// hashed payload; version-1 images predate them and are rejected.
constexpr std::uint32_t kFormatVersion = 2;
// Written natively; a foreign-endian reader sees the bytes reversed
// (0x04030201) and can diagnose the byte order precisely.
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint32_t kEndianTagSwapped = 0x04030201u;
// Counts above this are rejected before any allocation: a corrupt header
// must not drive a multi-gigabyte resize. Node indices are 31-bit (one
// Lit bit holds the complement), so the cap loses no real image.
constexpr std::uint32_t kMaxCount = 1u << 30;

struct Fnv1a {
  std::uint64_t h = 14695981039346656037ULL;
  void feed(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
};

[[noreturn]] void fail(const char* what) {
  throw SerializeError(std::string("bdd::Manager::deserialize: ") + what);
}

template <typename T>
void write_pod(std::ostream& os, Fnv1a& sum, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
  sum.feed(&value, sizeof(T));
}

template <typename T>
void write_vec(std::ostream& os, Fnv1a& sum, const std::vector<T>& v) {
  if (v.empty()) return;
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
  sum.feed(v.data(), v.size() * sizeof(T));
}

template <typename T>
T read_pod(std::istream& is, Fnv1a& sum) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) fail("truncated image");
  sum.feed(&value, sizeof(T));
  return value;
}

template <typename T>
std::vector<T> read_vec(std::istream& is, Fnv1a& sum, std::uint32_t count) {
  std::vector<T> v(count);
  if (count != 0) {
    is.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
    if (!is) fail("truncated image");
    sum.feed(v.data(), v.size() * sizeof(T));
  }
  return v;
}
}  // namespace

void Manager::reset(std::size_t cache_entries) {
  check_cache_entries("Manager::reset", cache_entries);
  initial_cache_entries_ = cache_entries;
  // A reset manager must be indistinguishable from a freshly constructed
  // one -- including the capacity-derived memory_bytes gauge, because the
  // ManagerPool hands reset managers to pipelines whose telemetry traces
  // are guaranteed byte-identical across -j and across runs. The
  // capacity-tracked buffers (the SoA columns, scratch, free list; see
  // update_memory_stats) are therefore shrunk back to their pristine
  // footprint, not just cleared.
  const auto shrink = [](auto& v) {
    v.clear();
    v.shrink_to_fit();
  };
  // The columns get the constructor's exact reservation back; a column
  // still at that capacity is reused in place.
  const auto shrink_column = [](auto& v) {
    if (v.capacity() != kArenaReserve) {
      std::decay_t<decltype(v)> fresh;
      fresh.reserve(kArenaReserve);
      v.swap(fresh);
    } else {
      v.clear();
    }
  };
  shrink_column(vars_);
  shrink_column(thens_);
  shrink_column(elses_);
  shrink_column(nexts_);
  shrink_column(refs_);
  shrink(free_list_);
  subtables_.clear();
  subtable_bucket_bytes_ = 0;
  var2level_.clear();
  level2var_.clear();
  // Same size AND capacity as a fresh manager: the adaptive-growth and GC
  // state below is everything that feeds back into operation behavior, so
  // matching a fresh manager's values makes the replay byte-identical.
  // When the table is still at the starting size (the common case for
  // pooled cone-sized managers), assign() reuses the existing allocation;
  // a grown table, or one reset to a new starting size, is reallocated to
  // exactly that size.
  if (cache_.capacity() != initial_cache_entries_) {
    std::vector<CacheEntry>(initial_cache_entries_).swap(cache_);
  } else {
    cache_.assign(initial_cache_entries_, CacheEntry{});
  }
  cache_lookups_at_resize_ = 0;
  cache_hits_at_resize_ = 0;
  gc_threshold_ = 1u << 14;
  stats_ = ManagerStats{};
  budget_ticks_ = 0;
  visit_epoch_ = 0;
  shrink(visits_);
  shrink(visit_stack_);
  shrink(var_visit_);
  shrink(scratch_mant_);
  shrink(scratch_exp_);
  shrink(scratch_edge_);
  shrink(scratch_num_);
  shrink(node_scratch_);
  // Re-seed the pinned terminal, exactly as the constructor does.
  vars_.push_back(kVarTerminal);
  thens_.push_back(Edge::one());
  elses_.push_back(Edge::one());
  nexts_.push_back(kNil);
  refs_.push_back(1);
  stats_.live_nodes = 1;
  stats_.peak_live_nodes = 1;
  stats_.allocated_nodes = 1;
  stats_.cache_entries = cache_.size();
  update_memory_stats();
}

void Manager::serialize(std::ostream& os,
                        const std::vector<Edge>& roots) const {
  Fnv1a sum;
  // Magic and version are outside the checksum: they identify the format
  // the checksum itself belongs to.
  os.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  os.write(reinterpret_cast<const char*>(&kFormatVersion),
           sizeof(kFormatVersion));
  write_pod(os, sum, kEndianTag);
  write_pod(os, sum, static_cast<std::uint8_t>(sizeof(Lit)));
  write_pod(os, sum, static_cast<std::uint8_t>(sizeof(Var)));
  write_pod(os, sum, static_cast<std::uint8_t>(sizeof(std::uint16_t)));
  write_pod(os, sum, std::uint8_t{0});  // reserved
  write_pod(os, sum, num_vars());
  write_pod(os, sum, arena_size());
  write_pod(os, sum, static_cast<std::uint32_t>(free_list_.size()));
  write_pod(os, sum, static_cast<std::uint32_t>(roots.size()));
  write_vec(os, sum, var2level_);
  write_vec(os, sum, vars_);
  write_vec(os, sum, thens_);
  write_vec(os, sum, elses_);
  write_vec(os, sum, refs_);
  write_vec(os, sum, free_list_);
  write_vec(os, sum, roots);
  os.write(reinterpret_cast<const char*>(&sum.h), sizeof(sum.h));
}

std::vector<Edge> Manager::deserialize(std::istream& is) {
  if (arena_size() != 1 || num_vars() != 0) {
    detail::invalid_argument(
        "Manager::deserialize",
        "target manager must be freshly constructed or reset() (a populated "
        "manager has live handles the image would invalidate)");
  }

  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  is.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!is || magic != kMagic) fail("bad magic (not a manager image)");
  if (version != kFormatVersion) fail("unsupported format version");

  Fnv1a sum;
  // Portability header: the arrays that follow are raw native-endian
  // element dumps, so an image written on a host with a different byte
  // order or different element widths must be rejected, not misread.
  const auto endian = read_pod<std::uint32_t>(is, sum);
  if (endian == kEndianTagSwapped) {
    fail("image was written on a host with the opposite byte order");
  }
  if (endian != kEndianTag) fail("unrecognized endianness tag");
  const auto lit_width = read_pod<std::uint8_t>(is, sum);
  const auto var_width = read_pod<std::uint8_t>(is, sum);
  const auto ref_width = read_pod<std::uint8_t>(is, sum);
  (void)read_pod<std::uint8_t>(is, sum);  // reserved
  if (lit_width != sizeof(Lit) || var_width != sizeof(Var) ||
      ref_width != sizeof(std::uint16_t)) {
    fail("image element widths do not match this build");
  }
  const auto nvars = read_pod<std::uint32_t>(is, sum);
  const auto arena = read_pod<std::uint32_t>(is, sum);
  const auto free_count = read_pod<std::uint32_t>(is, sum);
  const auto root_count = read_pod<std::uint32_t>(is, sum);
  if (arena == 0 || arena > kMaxCount || nvars > kMaxCount ||
      free_count >= arena || root_count > kMaxCount) {
    fail("implausible header counts");
  }
  auto v2l = read_vec<std::uint32_t>(is, sum, nvars);
  auto vars = read_vec<Var>(is, sum, arena);
  auto thens = read_vec<Edge>(is, sum, arena);
  auto elses = read_vec<Edge>(is, sum, arena);
  auto refs = read_vec<std::uint16_t>(is, sum, arena);
  auto free_list = read_vec<std::uint32_t>(is, sum, free_count);
  auto roots = read_vec<Edge>(is, sum, root_count);
  std::uint64_t stored_sum = 0;
  is.read(reinterpret_cast<char*>(&stored_sum), sizeof(stored_sum));
  if (!is) fail("truncated image");
  if (stored_sum != sum.h) fail("checksum mismatch (corrupted image)");

  // Variable order must be a permutation of the levels.
  std::vector<Var> l2v(nvars, kVarTerminal);
  for (Var v = 0; v < nvars; ++v) {
    if (v2l[v] >= nvars || l2v[v2l[v]] != kVarTerminal) {
      fail("variable order is not a permutation");
    }
    l2v[v2l[v]] = v;
  }

  // Slot 0 is the pinned terminal; every other slot is either free (and on
  // the free list exactly once) or a canonical, level-ordered node.
  if (vars[0] != kVarTerminal || !(thens[0] == Edge::one()) ||
      !(elses[0] == Edge::one()) || refs[0] == 0) {
    fail("malformed terminal slot");
  }
  const auto level_of_slot = [&](std::uint32_t idx) {
    return vars[idx] == kVarTerminal ? kLevelTerminal : v2l[vars[idx]];
  };
  std::uint32_t free_slots = 0;
  for (std::uint32_t i = 1; i < arena; ++i) {
    if (vars[i] == kVarTerminal) {
      ++free_slots;
      continue;
    }
    if (vars[i] >= nvars) fail("node variable out of range");
    const Edge hi = thens[i];
    const Edge lo = elses[i];
    if (hi.complemented()) fail("non-canonical node (complemented 1-edge)");
    if (hi == lo) fail("redundant node (equal children)");
    if (hi.node() >= arena || lo.node() >= arena) {
      fail("child index out of range");
    }
    if (vars[hi.node()] == kVarTerminal && hi.node() != 0) {
      fail("child is a free slot");
    }
    if (vars[lo.node()] == kVarTerminal && lo.node() != 0) {
      fail("child is a free slot");
    }
    if (level_of_slot(hi.node()) <= v2l[vars[i]] ||
        level_of_slot(lo.node()) <= v2l[vars[i]]) {
      fail("level order violated");
    }
  }
  std::vector<bool> freed(arena, false);
  for (const std::uint32_t f : free_list) {
    if (f == 0 || f >= arena || vars[f] != kVarTerminal || freed[f]) {
      fail("malformed free list");
    }
    freed[f] = true;
  }
  if (free_slots != free_count) fail("free list does not cover free slots");
  for (const Edge r : roots) {
    if (r.node() >= arena) fail("root index out of range");
    if (vars[r.node()] == kVarTerminal && r.node() != 0) {
      fail("root is a free slot");
    }
  }
  // A duplicate (var, hi, lo) triple would silently break canonicity once
  // chained; detect it before committing anything.
  {
    std::vector<std::array<std::uint32_t, 3>> triples;
    triples.reserve(arena);
    for (std::uint32_t i = 1; i < arena; ++i) {
      if (vars[i] == kVarTerminal) continue;
      triples.push_back({vars[i], thens[i].bits(), elses[i].bits()});
    }
    std::sort(triples.begin(), triples.end());
    if (std::adjacent_find(triples.begin(), triples.end()) != triples.end()) {
      fail("duplicate node triple (non-canonical image)");
    }
  }

  // Validation passed -- commit. Nothing below throws SerializeError, so a
  // rejected image never leaves a half-loaded manager.
  vars_ = std::move(vars);
  thens_ = std::move(thens);
  elses_ = std::move(elses);
  refs_ = std::move(refs);
  nexts_.assign(arena, kNil);
  free_list_ = std::move(free_list);
  var2level_ = std::move(v2l);
  level2var_ = std::move(l2v);
  subtables_.clear();
  subtable_bucket_bytes_ = 0;
  for (Var v = 0; v < nvars; ++v) {
    Subtable st;
    st.buckets.assign(kInitialBuckets, kNil);
    st.mask = kInitialBuckets - 1;
    subtable_bucket_bytes_ += kInitialBuckets * sizeof(std::uint32_t);
    subtables_.push_back(std::move(st));
  }
  // Rebuild the unique subtables in increasing index order (deterministic,
  // independent of the writer's chain history).
  for (std::uint32_t i = 1; i < arena; ++i) {
    if (vars_[i] != kVarTerminal) unique_insert(i);
  }

  std::size_t live = 0;
  std::size_t saturated = 0;
  for (std::uint32_t i = 0; i < arena; ++i) {
    if (i != 0 && vars_[i] == kVarTerminal) continue;  // free slot
    if (refs_[i] > 0) ++live;
    // Saturation is a property of the count itself, so the pinned set --
    // and the counter naming it -- survives the serialization round trip.
    if (refs_[i] == kRefSaturated) ++saturated;
  }
  stats_.live_nodes = live;
  stats_.peak_live_nodes = live;
  stats_.saturated_refs = saturated;
  stats_.allocated_nodes = arena;
  update_memory_stats();
  return roots;
}

}  // namespace bds::bdd
