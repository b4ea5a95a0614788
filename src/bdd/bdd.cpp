// Manager core: struct-of-arrays node store, reset, mask-based unique
// subtables, reference counting, GC, structural queries, and cone images
// (record/replay, the "BDD mapping" between managers).
#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace bds::bdd {

namespace detail {
void invalid_handle(const char* op) {
  std::fprintf(stderr,
               "bds: fatal: %s called on an empty Bdd handle (or on operands "
               "from different managers)\n",
               op);
  std::abort();
}

void invalid_argument(const char* op, const char* what) {
  std::fprintf(stderr, "bds: fatal: %s: %s\n", op, what);
  std::abort();
}
}  // namespace detail

util::CounterList telemetry_counters(const ManagerStats& stats,
                                     const ManagerStats* baseline) {
  util::CounterList out;
  // Monotonic counters: a baseline turns them into this-phase deltas.
  const auto delta = [&](const char* key, std::size_t now, std::size_t base) {
    out.emplace_back(key, static_cast<double>(now - base));
  };
  // Level gauges and high-watermarks: always the current snapshot (a
  // watermark difference has no meaning).
  const auto gauge = [&](const char* key, std::size_t value) {
    out.emplace_back(key, static_cast<double>(value));
  };
  const ManagerStats zero;
  const ManagerStats& b = baseline != nullptr ? *baseline : zero;
  gauge("live_nodes", stats.live_nodes);
  gauge("peak_live_nodes", stats.peak_live_nodes);
  delta("gc_runs", stats.gc_runs, b.gc_runs);
  delta("unique_lookups", stats.unique_lookups, b.unique_lookups);
  delta("cache_lookups", stats.cache_lookups, b.cache_lookups);
  delta("cache_hits", stats.cache_hits, b.cache_hits);
  for (std::size_t op = 0; op < kNumCacheOps; ++op) {
    const std::string prefix = std::string("cache_") + kCacheOpNames[op];
    out.emplace_back(prefix + "_lookups",
                     static_cast<double>(stats.cache_op_lookups[op] -
                                         b.cache_op_lookups[op]));
    out.emplace_back(
        prefix + "_hits",
        static_cast<double>(stats.cache_op_hits[op] - b.cache_op_hits[op]));
  }
  gauge("cache_entries", stats.cache_entries);
  delta("cache_resizes", stats.cache_resizes, b.cache_resizes);
  delta("reorderings", stats.reorderings, b.reorderings);
  gauge("saturated_refs", stats.saturated_refs);
  gauge("memory_bytes", stats.memory_bytes);
  gauge("peak_memory_bytes", stats.peak_memory_bytes);
  return out;
}

namespace {
// Computed-table growth ceiling; the start size and subtable sizing
// constants live in the class.
constexpr std::size_t kCacheMaxEntries = 1u << 20;

std::uint64_t cache_hash(std::uint64_t key_lo, std::uint64_t key_hi) {
  std::uint64_t h =
      key_lo * 0x9e3779b97f4a7c15ULL ^ key_hi * 0xff51afd7ed558ccdULL;
  return h ^ (h >> 29);
}
}  // namespace

std::size_t Manager::cache_set_base(std::uint64_t key_lo,
                                    std::uint64_t key_hi) const {
  // cache_.size() is a power of two >= 2, so size()/2 is the
  // (power-of-two) set count and the mask selects a set; << 1 turns the set
  // index into the index of its MRU way.
  return (cache_hash(key_lo, key_hi) & (cache_.size() / 2 - 1)) << 1;
}

Manager::Manager(std::uint32_t num_vars, std::size_t cache_entries)
    : initial_cache_entries_(cache_entries) {
  check_cache_entries("Manager", cache_entries);
  vars_.reserve(kArenaReserve);
  thens_.reserve(kArenaReserve);
  elses_.reserve(kArenaReserve);
  nexts_.reserve(kArenaReserve);
  refs_.reserve(kArenaReserve);
  // Slot 0 is the terminal 1, pinned forever.
  vars_.push_back(kVarTerminal);
  thens_.push_back(Edge::one());
  elses_.push_back(Edge::one());
  nexts_.push_back(kNil);
  refs_.push_back(1);
  stats_.live_nodes = 1;
  stats_.peak_live_nodes = 1;
  stats_.allocated_nodes = 1;
  cache_.resize(initial_cache_entries_);
  stats_.cache_entries = cache_.size();
  ensure_vars(num_vars);
  // Publish the pristine footprint immediately (reset() does the same), so
  // a fresh and a pool-recycled manager report identical gauges from the
  // first stats() read on, not just after the first operation.
  update_memory_stats();
}

Manager::~Manager() = default;

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
  cache_empty_ = true;
  cache_lookups_at_resize_ = 0;
  cache_hits_at_resize_ = 0;
  gc_threshold_ = 1u << 14;
  stats_ = ManagerStats{};
  budget_ticks_ = 0;
  visit_epoch_ = 0;
  shrink(visits_);
  shrink(visit_stack_);
  shrink(var_visit_);
  shrink(scratch_num_);
  shrink(node_scratch_);
  shrink(killed_);
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

Var Manager::new_var() {
  const Var v = static_cast<Var>(var2level_.size());
  var2level_.push_back(static_cast<std::uint32_t>(level2var_.size()));
  level2var_.push_back(v);
  Subtable st;
  st.buckets.assign(kInitialBuckets, kNil);
  st.mask = kInitialBuckets - 1;
  subtable_bucket_bytes_ += kInitialBuckets * sizeof(std::uint32_t);
  subtables_.push_back(std::move(st));
  // Keep the footprint gauge current across variable growth, so a pooled
  // manager re-widened by ensure_vars reports the same memory_bytes as a
  // fresh Manager(n) before any operation runs.
  update_memory_stats();
  return v;
}

void Manager::ensure_vars(std::uint32_t n) {
  while (num_vars() < n) new_var();
}

std::uint32_t Manager::edge_level(Edge e) const {
  const Var v = vars_[e.node()];
  return v == kVarTerminal ? kLevelTerminal : var2level_[v];
}

Bdd Manager::constant(bool value) {
  return Bdd(*this, value ? Edge::one() : Edge::zero());
}
Bdd Manager::one() { return constant(true); }
Bdd Manager::zero() { return constant(false); }

Bdd Manager::var(Var v) {
  maybe_gc();
  return Bdd(*this, mk(v, Edge::one(), Edge::zero()));
}
Bdd Manager::nvar(Var v) {
  maybe_gc();
  return Bdd(*this, mk(v, Edge::zero(), Edge::one()));
}
Bdd Manager::wrap(Edge e) { return Bdd(*this, e); }

// ----- unique table ----------------------------------------------------------

std::uint32_t Manager::hash_triple(Var v, Edge hi, Edge lo,
                                   std::uint32_t mask) {
  std::uint64_t h = (static_cast<std::uint64_t>(hi.bits()) << 32) | lo.bits();
  h ^= static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ULL;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h) & mask;
}

std::uint32_t Manager::alloc_node(Var v, Edge hi, Edge lo) {
  std::uint32_t idx;
  if (!free_list_.empty()) {
    idx = free_list_.back();
    free_list_.pop_back();
  } else {
    idx = arena_size();
    vars_.emplace_back();
    thens_.emplace_back();
    elses_.emplace_back();
    nexts_.emplace_back();
    refs_.emplace_back();
    stats_.allocated_nodes = vars_.size();
  }
  vars_[idx] = v;
  thens_[idx] = hi;
  elses_[idx] = lo;
  nexts_[idx] = kNil;
  refs_[idx] = 0;
  // The node holds references to its children for its whole lifetime.
  ref(hi);
  ref(lo);
  return idx;
}

void Manager::free_node(std::uint32_t idx) {
  vars_[idx] = kVarTerminal;
  nexts_[idx] = kNil;
  free_list_.push_back(idx);
}

void Manager::grow_subtable(Subtable& st) {
  std::vector<std::uint32_t> old = std::move(st.buckets);
  st.buckets.assign(old.size() * 2, kNil);
  st.mask = static_cast<std::uint32_t>(st.buckets.size()) - 1;
  subtable_bucket_bytes_ += old.size() * sizeof(std::uint32_t);
  for (std::uint32_t head : old) {
    while (head != kNil) {
      const std::uint32_t next = nexts_[head];
      const std::uint32_t b =
          hash_triple(vars_[head], thens_[head], elses_[head], st.mask);
      nexts_[head] = st.buckets[b];
      st.buckets[b] = head;
      head = next;
    }
  }
}

void Manager::unique_insert(std::uint32_t idx) {
  Subtable& st = subtables_[vars_[idx]];
  if (st.count + 1 > st.buckets.size() * 4) grow_subtable(st);
  const std::uint32_t b =
      hash_triple(vars_[idx], thens_[idx], elses_[idx], st.mask);
  nexts_[idx] = st.buckets[b];
  st.buckets[b] = idx;
  ++st.count;
}

void Manager::unique_remove(std::uint32_t idx) {
  Subtable& st = subtables_[vars_[idx]];
  const std::uint32_t b =
      hash_triple(vars_[idx], thens_[idx], elses_[idx], st.mask);
  std::uint32_t* link = &st.buckets[b];
  while (*link != idx) {
    assert(*link != kNil && "node missing from unique table");
    link = &nexts_[*link];
  }
  *link = nexts_[idx];
  nexts_[idx] = kNil;
  --st.count;
}

Edge Manager::mk(Var v, Edge hi, Edge lo) {
  assert(v < num_vars());
  assert(edge_level(hi) > var2level_[v] && edge_level(lo) > var2level_[v]);
  if (hi == lo) return hi;
  // Canonical form: the hi edge must be regular.
  bool out_complement = false;
  if (hi.complemented()) {
    out_complement = true;
    hi = !hi;
    lo = !lo;
  }
  ++stats_.unique_lookups;
  const Subtable& st = subtables_[v];
  const std::uint32_t b = hash_triple(v, hi, lo, st.mask);
  for (std::uint32_t i = st.buckets[b]; i != kNil; i = nexts_[i]) {
    if (thens_[i] == hi && elses_[i] == lo) {
      return Edge(i, out_complement);
    }
  }
  const std::uint32_t idx = alloc_node(v, hi, lo);
  unique_insert(idx);
  return Edge(idx, out_complement);
}

// ----- reference counting / GC ----------------------------------------------

void Manager::ref(Edge e) {
  std::uint16_t& r = refs_[e.node()];
  if (r == kRefSaturated) return;  // pinned
  if (r++ == 0) {
    ++stats_.live_nodes;
    stats_.peak_live_nodes = std::max(stats_.peak_live_nodes, stats_.live_nodes);
  }
  // Count the saturation transition exactly once per node: deref() never
  // touches a saturated count, so the counter is sticky by construction and
  // names the nodes gc() can never reclaim.
  if (r == kRefSaturated) ++stats_.saturated_refs;
}

void Manager::deref(Edge e) {
  std::uint16_t& r = refs_[e.node()];
  if (r == kRefSaturated) return;
  assert(r > 0 && "deref of dead node");
  if (--r == 0) --stats_.live_nodes;
}

void Manager::gc() {
  // Seed by walking the unique-subtable chains: every allocated node is
  // chained, so the chains are exactly the free-list complement, and a
  // churned arena (mostly free slots) no longer pays a full-arena scan.
  // Sorting the candidates ascending reproduces the index-order seeding of
  // the old arena scan, so the reclamation order -- and with it the free
  // list and every subsequent allocation -- is byte-identical.
  std::vector<std::uint32_t>& dead = node_scratch_;
  dead.clear();
  for (const Subtable& st : subtables_) {
    for (std::uint32_t head : st.buckets) {
      for (std::uint32_t i = head; i != kNil; i = nexts_[i]) {
        if (refs_[i] == 0) dead.push_back(i);
      }
    }
  }
  std::sort(dead.begin(), dead.end());
  // Every dead node is found by the walk, so the swap kill list is spent.
  killed_.clear();
  reclaim(dead);
}

void Manager::reclaim(std::vector<std::uint32_t>& dead) {
  ++stats_.gc_runs;
  // Sweep dead nodes; freeing one may kill its children, so iterate to a
  // fixed point. A worklist seeded from all currently-dead nodes suffices
  // because deref() on a child only ever transitions live -> dead here.
  std::size_t freed = 0;
  while (!dead.empty()) {
    const std::uint32_t idx = dead.back();
    dead.pop_back();
    if (vars_[idx] == kVarTerminal || refs_[idx] != 0) {
      continue;  // already freed/revived
    }
    const Edge hi = thens_[idx];
    const Edge lo = elses_[idx];
    unique_remove(idx);
    free_node(idx);
    ++freed;
    deref(hi);
    deref(lo);
    if (!hi.is_constant() && refs_[hi.node()] == 0) dead.push_back(hi.node());
    if (!lo.is_constant() && refs_[lo.node()] == 0) dead.push_back(lo.node());
  }
  // A freed slot may be reallocated to another function, so every
  // computed-table entry could now name the wrong node: drop them all.
  if (freed > 0) cache_clear();
  update_memory_stats();
}

void Manager::maybe_gc() {
  const std::size_t in_tables = arena_size() - free_list_.size();
  if (in_tables > gc_threshold_ && in_tables > stats_.live_nodes * 2) {
    gc();
    // If the arena is still mostly live, raise the bar to avoid thrashing.
    if (arena_size() - free_list_.size() > gc_threshold_) {
      gc_threshold_ = (arena_size() - free_list_.size()) * 2;
    }
  }
  update_memory_stats();
  // Handle-level entry is a safe point: no operation is in flight, so a
  // BudgetExceeded here unwinds with every structure consistent.
  budget_checkpoint();
}

void Manager::budget_check_slow() {
  // live_nodes counts referenced nodes only (ref-0 garbage of an unwound
  // operation does not count against the ceiling); memory_bytes is the
  // arena+table footprint maintained by update_memory_stats().
  budget_->check(stats_.live_nodes, stats_.memory_bytes, budget_ticks_);
}

void Manager::update_memory_stats() {
  // This runs on every handle-level operation (via maybe_gc), so it must
  // not walk the subtables: with n variables that turns every op into O(n)
  // and long operation streams quadratic. The bucket footprint is tracked
  // incrementally at the two sites that allocate buckets (new_var,
  // grow_subtable) instead. The SoA arrays grow in lockstep, so their
  // footprint is one capacity times the per-slot constants plus the
  // demand-grown traversal scratch.
  const std::size_t bytes =
      vars_.capacity() * (kNodeStoreBytesPerNode + kNodeRefBytesPerNode) +
      visits_.capacity() * kNodeScratchBytesPerNode +
      free_list_.capacity() * sizeof(std::uint32_t) +
      cache_.capacity() * sizeof(CacheEntry) + subtable_bucket_bytes_;
  stats_.memory_bytes = bytes;
  stats_.peak_memory_bytes = std::max(stats_.peak_memory_bytes, bytes);
}

// ----- computed table ---------------------------------------------------------
// The table is 2-way set-associative: `cache_` is viewed as size()/2 sets of
// two adjacent entries. Slot 0 of a set is the MRU way -- lookups probe it
// first and promote a slot-1 hit by swapping, stores shift slot 0 down and
// claim it -- so two hot operations that collide on one set coexist instead
// of evicting each other on every apply step (the direct-mapped failure
// mode). All indexing below goes through cache_set_base().

Edge Manager::cache_lookup(CacheOp op, Edge f, Edge g, Edge h, bool& hit) {
  // Every nonterminal apply step (ite/restrict/constrain/compose/exists)
  // passes through here exactly once, and the recursion holds only raw
  // edges: aborting leaves ref-0 garbage for the next gc(), nothing else.
  // That makes this the natural amortized budget check site. Reordering's
  // swap_levels() never reaches it (it builds through mk() directly), so
  // the budget cannot fire mid-swap.
  budget_checkpoint();
  cache_maybe_grow();
  ++stats_.cache_lookups;
  ++stats_.cache_op_lookups[static_cast<std::uint32_t>(op) - 1];
  const std::uint64_t key_lo =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(op)) << 32) |
      f.bits();
  const std::uint64_t key_hi =
      (static_cast<std::uint64_t>(g.bits()) << 32) | h.bits();
  CacheEntry* set = &cache_[cache_set_base(key_lo, key_hi)];
  if (set[0].key_lo == key_lo && set[0].key_hi == key_hi) {
    ++stats_.cache_hits;
    ++stats_.cache_op_hits[static_cast<std::uint32_t>(op) - 1];
    hit = true;
    return set[0].result;
  }
  if (set[1].key_lo == key_lo && set[1].key_hi == key_hi) {
    ++stats_.cache_hits;
    ++stats_.cache_op_hits[static_cast<std::uint32_t>(op) - 1];
    hit = true;
    std::swap(set[0], set[1]);  // promote to the MRU way
    return set[0].result;
  }
  hit = false;
  return Edge::one();
}

void Manager::cache_store(CacheOp op, Edge f, Edge g, Edge h, Edge result) {
  const std::uint64_t key_lo =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(op)) << 32) |
      f.bits();
  const std::uint64_t key_hi =
      (static_cast<std::uint64_t>(g.bits()) << 32) | h.bits();
  CacheEntry* set = &cache_[cache_set_base(key_lo, key_hi)];
  // Replace LRU-of-2: demote the MRU way unless it already holds this key
  // (re-store after a recomputation), then claim the MRU slot.
  if (!(set[0].key_lo == key_lo && set[0].key_hi == key_hi)) set[1] = set[0];
  set[0].key_lo = key_lo;
  set[0].key_hi = key_hi;
  set[0].result = result;
  cache_empty_ = false;
}

void Manager::check_cache_entries(const char* op, std::size_t entries) {
  if (entries < 2 || (entries & (entries - 1)) != 0) {
    detail::invalid_argument(op, "cache_entries must be a power of two >= 2");
  }
}

void Manager::cache_clear() {
  // Sifting collects after every variable, mostly with nothing cached since
  // the previous collection: skip refilling a table that is already empty.
  if (cache_empty_) return;
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
  cache_empty_ = true;
}

void Manager::cache_maybe_grow() {
  // Evaluate the growth policy once per window of 2x-capacity lookups: if
  // at least a quarter of them hit, the working set is bigger than the
  // table -- double it (rehashing the surviving entries) up to the ceiling.
  const std::size_t lookups = stats_.cache_lookups - cache_lookups_at_resize_;
  if (lookups < cache_.size() * 2) return;
  const std::size_t hits = stats_.cache_hits - cache_hits_at_resize_;
  cache_lookups_at_resize_ = stats_.cache_lookups;
  cache_hits_at_resize_ = stats_.cache_hits;
  if (cache_.size() >= kCacheMaxEntries || hits * 4 < lookups) return;
  std::vector<CacheEntry> old = std::move(cache_);
  cache_.assign(old.size() * 2, CacheEntry{});
  // Rehash the survivors into their new sets. Walking the old ways in MRU
  // order per set (slot 0 before slot 1) and inserting store-style keeps
  // each new set's MRU/LRU ordering consistent with access recency.
  for (std::size_t base = 0; base < old.size(); base += 2) {
    for (std::size_t way = 0; way < 2; ++way) {
      const CacheEntry& e = old[base + way];
      if (e.key_lo == ~0ULL && e.key_hi == ~0ULL) continue;
      CacheEntry* set = &cache_[cache_set_base(e.key_lo, e.key_hi)];
      if (set[0].key_lo == ~0ULL && set[0].key_hi == ~0ULL) {
        set[0] = e;
      } else {
        set[1] = e;
      }
    }
  }
  ++stats_.cache_resizes;
  stats_.cache_entries = cache_.size();
  update_memory_stats();
}

// ----- structural queries ------------------------------------------------------

Var Manager::top_var(Edge e) const { return vars_[e.node()]; }

Edge Manager::hi_of(Edge e) const { return thens_[e.node()] ^ e.complemented(); }
Edge Manager::lo_of(Edge e) const { return elses_[e.node()] ^ e.complemented(); }

Edge Manager::cofactor(Edge f, Var v, bool value) {
  // Cofactor by composing with a constant; cheap dedicated recursion.
  const std::uint32_t vlevel = var2level_[v];
  if (edge_level(f) > vlevel) return f;
  if (top_var(f) == v) return value ? hi_of(f) : lo_of(f);
  return compose_rec(f, v, value ? Edge::one() : Edge::zero(), vlevel);
}

std::uint32_t Manager::begin_visit() const {
  // A node is "seen" in the current traversal iff its stamp equals the
  // epoch; bumping the epoch unmarks every node at once. The stamp array is
  // demand-grown here (new slots start at 0, which can never equal a live
  // epoch). On the (rare) 32-bit wrap, reset all stamps so stale marks
  // cannot alias.
  if (visits_.size() < vars_.size()) visits_.resize(vars_.size(), 0);
  if (++visit_epoch_ == 0) {
    std::fill(visits_.begin(), visits_.end(), 0);
    std::fill(var_visit_.begin(), var_visit_.end(), 0);
    visit_epoch_ = 1;
  }
  return visit_epoch_;
}

std::size_t Manager::count_nodes(Edge e, std::uint32_t epoch) const {
  // Stamped DFS; cost is proportional to the function's size, not the
  // arena's (eliminate calls this in a tight loop on large managers), and
  // no per-call containers are allocated. Hot loads go through raw array
  // pointers: only thens_/elses_/visits_ are touched per node.
  std::size_t n = 0;
  const Edge* thens = thens_.data();
  const Edge* elses = elses_.data();
  std::uint32_t* visits = visits_.data();
  std::vector<std::uint32_t>& stack = visit_stack_;
  stack.clear();
  const std::uint32_t root = e.node();
  if (visits[root] != epoch) {
    visits[root] = epoch;
    ++n;
    if (root != 0) stack.push_back(root);
  }
  while (!stack.empty()) {
    const std::uint32_t idx = stack.back();
    stack.pop_back();
    const std::uint32_t hi = thens[idx].node();
    const std::uint32_t lo = elses[idx].node();
    if (visits[hi] != epoch) {
      visits[hi] = epoch;
      ++n;
      if (hi != 0) stack.push_back(hi);
    }
    if (visits[lo] != epoch) {
      visits[lo] = epoch;
      ++n;
      if (lo != 0) stack.push_back(lo);
    }
  }
  return n;
}

std::size_t Manager::size(Edge e) const {
  return count_nodes(e, begin_visit());
}

std::size_t Manager::size(const std::vector<Edge>& roots) const {
  const std::uint32_t epoch = begin_visit();
  std::size_t n = 0;
  for (Edge e : roots) n += count_nodes(e, epoch);
  return n;
}

std::vector<Var> Manager::support(Edge e) const {
  const std::uint32_t epoch = begin_visit();
  // Per-var stamps dedupe variables during the walk, so the result holds
  // one entry per support variable (not per node) and the final sort is
  // over the support, which is tiny next to the node count.
  var_visit_.resize(var2level_.size(), 0);
  const Edge* thens = thens_.data();
  const Edge* elses = elses_.data();
  const Var* vars = vars_.data();
  std::uint32_t* visits = visits_.data();
  std::uint32_t* var_seen = var_visit_.data();
  std::vector<std::uint32_t>& stack = visit_stack_;
  stack.clear();
  std::vector<Var> result;
  visits[0] = epoch;  // never record the terminal
  const std::uint32_t root = e.node();
  if (visits[root] != epoch) {
    visits[root] = epoch;
    stack.push_back(root);
  }
  while (!stack.empty()) {
    const std::uint32_t idx = stack.back();
    stack.pop_back();
    const Var v = vars[idx];
    if (var_seen[v] != epoch) {
      var_seen[v] = epoch;
      result.push_back(v);
    }
    const std::uint32_t hi = thens[idx].node();
    const std::uint32_t lo = elses[idx].node();
    if (visits[hi] != epoch) {
      visits[hi] = epoch;
      stack.push_back(hi);
    }
    if (visits[lo] != epoch) {
      visits[lo] = epoch;
      stack.push_back(lo);
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

bool Manager::eval(Edge e, const std::vector<bool>& assignment) const {
  bool phase = e.complemented();
  std::uint32_t idx = e.node();
  while (idx != 0) {
    assert(vars_[idx] < assignment.size());
    const Edge next = assignment[vars_[idx]] ? thens_[idx] : elses_[idx];
    phase ^= next.complemented();
    idx = next.node();
  }
  return !phase;
}

// ----- cone images ("BDD mapping") ----------------------------------------------

void Manager::record(Edge e, std::span<const Var> relabel,
                     ConeImage& out) const {
  // Stamped post-order DFS, no recursion, so arbitrarily deep chains
  // record. Discovering a node stamps it and pushes a marked copy below its
  // (unstamped) children, so each node is popped at most twice -- once to
  // expand, once to number. A previously-stamped child is always numbered
  // before any later parent's marker pops: levels strictly decrease along
  // edges, so a stamped child's own marker can never sit below a parent
  // discovered later. The top bit of a stack entry tags "children done,
  // number this node" (node indices occupy at most 31 bits).
  constexpr std::uint32_t kComputeBit = 0x80000000u;
  out.nodes.clear();
  const std::uint32_t epoch = begin_visit();
  scratch_num_.resize(vars_.size());
  std::uint32_t* visits = visits_.data();
  std::uint32_t* num = scratch_num_.data();
  visits[0] = epoch;
  num[0] = 0;
  const std::uint32_t root = e.node();
  std::vector<std::uint32_t>& stack = visit_stack_;
  stack.clear();
  if (visits[root] != epoch) stack.push_back(root);
  while (!stack.empty()) {
    const std::uint32_t entry = stack.back();
    stack.pop_back();
    const std::uint32_t idx = entry & ~kComputeBit;
    const Edge hi = thens_[idx];
    const Edge lo = elses_[idx];
    if ((entry & kComputeBit) != 0) {
      const Var v = vars_[idx];
      out.nodes.push_back(
          {relabel.empty() ? v : relabel[v],
           Edge(num[hi.node()], hi.complemented()).bits(),
           Edge(num[lo.node()], lo.complemented()).bits()});
      num[idx] = static_cast<std::uint32_t>(out.nodes.size());
      continue;
    }
    if (visits[idx] == epoch) continue;  // discovered via another path
    visits[idx] = epoch;
    stack.push_back(idx | kComputeBit);
    if (visits[hi.node()] != epoch) stack.push_back(hi.node());
    if (visits[lo.node()] != epoch) stack.push_back(lo.node());
  }
  out.root = Edge(num[root], e.complemented()).bits();
}

Edge Manager::replay(const ConeImage& image) {
  // built[i] is the regular edge of image node i (0 = the terminal).
  std::vector<Edge> built(image.nodes.size() + 1);
  built[0] = Edge::one();
  const auto resolve = [&built](Lit l) {
    const Edge e = Edge::from_bits(l);
    return built[e.node()] ^ e.complemented();
  };
  for (std::size_t i = 0; i < image.nodes.size(); ++i) {
    const ConeImage::Node& n = image.nodes[i];
    assert(n.var < num_vars());
    built[i + 1] = ite(mk(n.var, Edge::one(), Edge::zero()), resolve(n.hi),
                       resolve(n.lo));
  }
  return resolve(image.root);
}

// ----- consistency check --------------------------------------------------------

bool Manager::check_consistency() const {
  // Every chained node is canonical, correctly hashed, and ordered.
  std::size_t chained = 0;
  for (Var v = 0; v < num_vars(); ++v) {
    const Subtable& st = subtables_[v];
    if (st.mask != st.buckets.size() - 1) return false;
    std::size_t in_table = 0;
    for (std::uint32_t b = 0; b < st.buckets.size(); ++b) {
      for (std::uint32_t i = st.buckets[b]; i != kNil; i = nexts_[i]) {
        if (vars_[i] != v) return false;
        if (thens_[i].complemented()) return false;
        if (thens_[i] == elses_[i]) return false;
        if (edge_level(thens_[i]) <= var2level_[v]) return false;
        if (edge_level(elses_[i]) <= var2level_[v]) return false;
        if (hash_triple(v, thens_[i], elses_[i], st.mask) != b) return false;
        ++in_table;
      }
    }
    if (in_table != st.count) return false;
    chained += in_table;
  }
  // Arena bookkeeping: the SoA arrays stay in lockstep, and every non-free
  // node is chained.
  if (thens_.size() != vars_.size() || elses_.size() != vars_.size() ||
      nexts_.size() != vars_.size() || refs_.size() != vars_.size()) {
    return false;
  }
  const std::size_t in_arena = arena_size() - 1 - free_list_.size();
  if (chained != in_arena) return false;
  // Level maps are inverse permutations.
  for (Var v = 0; v < num_vars(); ++v) {
    if (level2var_[var2level_[v]] != v) return false;
  }
  return true;
}

}  // namespace bds::bdd
