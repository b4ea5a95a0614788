// Reduced ordered binary decision diagrams (ROBDDs) with complement edges.
//
// This is the substrate the BDS decomposition engine is built on; it plays
// the role CUDD played for the original system. Design follows the classic
// Brace–Rudell–Bryant package over an index-based struct-of-arrays store
// (the ABC "NewBdd" layout):
//
//  * Nodes are 32-bit indices into parallel arrays (`vars_` / `thens_` /
//    `elses_` / `nexts_`, plus a 16-bit `refs_` side array); a `Lit` is the
//    raw 32-bit literal `(node_index << 1) | complement`, and `Edge` is its
//    typed wrapper. There are no per-node heap objects and no pointers:
//    node identity is the index, which is stable across GC and reordering.
//  * Canonical form: the 1-edge (`then`) of every node is a regular
//    (non-complemented) edge; complement is pushed onto incoming edges.
//    There is a single terminal node representing constant 1; constant 0 is
//    its complement edge.
//  * A mask-based per-variable unique subtable (power-of-two buckets,
//    `hash & mask`) guarantees structural canonicity and makes
//    Rudell-style in-place adjacent-variable swap (and hence sifting
//    reordering) possible.
//  * A lossy computed table caches ITE/restrict/compose results, keyed on
//    `Lit` pairs. It is 2-way set-associative with LRU-of-2 replacement
//    (two hot operations that collide on one set no longer evict each
//    other every apply), sized adaptively (doubling while the lookup
//    stream runs hot, as CUDD does), and cleared by any gc() that frees a
//    node.
//  * Reference counting with deferred reclamation: external references are
//    held through the RAII `Bdd` handle; dead nodes are reclaimed by
//    explicit or threshold-triggered garbage collection, which only runs at
//    handle-level API entry points (never mid-recursion). Counts are
//    16-bit and saturate (CUDD-style): a node with 65535+ parents is
//    pinned for the manager's lifetime.
//  * `reset()` returns a manager to its freshly-constructed state while
//    keeping allocated capacity, so a recycled manager replays a build
//    byte-identically to a fresh one.
//
// The decomposition engine needs read access to raw structure (levels,
// children, complement bits), which `Manager` exposes through the
// `Edge`/`node_hi`/`node_lo` accessors.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/budget.hpp"
#include "util/telemetry.hpp"

namespace bds::bdd {

class Manager;
class Bdd;

/// Raw 32-bit literal: `(node_index << 1) | complement` -- the element
/// type the SoA store and the unique/computed tables traffic in. `Edge`
/// wraps one `Lit`.
using Lit = std::uint32_t;

/// A directed edge in the BDD: target node index plus a complement bit,
/// packed into one `Lit`.
class Edge {
 public:
  constexpr Edge() : bits_(0) {}
  constexpr Edge(std::uint32_t node, bool complement)
      : bits_((node << 1) | static_cast<std::uint32_t>(complement)) {}

  constexpr std::uint32_t node() const { return bits_ >> 1; }
  constexpr bool complemented() const { return (bits_ & 1u) != 0; }
  /// Same target with the complement bit cleared.
  constexpr Edge regular() const { return from_bits(bits_ & ~1u); }

  constexpr Edge operator!() const { return from_bits(bits_ ^ 1u); }
  /// XOR the complement bit with `c` (phase adjustment while traversing).
  constexpr Edge operator^(bool c) const {
    return from_bits(bits_ ^ static_cast<std::uint32_t>(c));
  }

  constexpr bool operator==(const Edge&) const = default;

  /// Terminal constants. The terminal node always has index 0.
  static constexpr Edge one() { return Edge(0, false); }
  static constexpr Edge zero() { return Edge(0, true); }

  constexpr bool is_one() const { return *this == one(); }
  constexpr bool is_zero() const { return *this == zero(); }
  constexpr bool is_constant() const { return node() == 0; }

  constexpr Lit bits() const { return bits_; }
  /// Rehydrates an Edge from its raw literal.
  static constexpr Edge from_bits(Lit b) {
    Edge e;
    e.bits_ = b;
    return e;
  }

 private:
  Lit bits_;
};

static_assert(sizeof(Edge) == sizeof(Lit) && alignof(Edge) == alignof(Lit),
              "Edge must be a transparent Lit wrapper (SoA store layout)");

/// Variable identifier. Variables keep their identity across reordering;
/// the manager maps them to levels (positions in the current order).
using Var = std::uint32_t;
inline constexpr Var kVarTerminal = 0xffffffffu;
/// Level of the terminal node: below every variable.
inline constexpr std::uint32_t kLevelTerminal = 0xffffffffu;

/// Saturated 16-bit reference count: once a node accumulates this many
/// parents it is pinned for the manager's lifetime (CUDD's half-word refs).
inline constexpr std::uint16_t kRefSaturated = 0xffffu;

// Per-node byte footprint, derived from the element types of the parallel
// arrays so accounting cannot drift from the real layout (the predecessor
// of these constants was hand-maintained and went stale).
/// Bytes per slot of the four permanent node-store arrays
/// (var, then-literal, else-literal, unique-chain next).
inline constexpr std::size_t kNodeStoreBytesPerNode =
    sizeof(Var) + 2 * sizeof(Lit) + sizeof(std::uint32_t);
/// Bytes per slot of the reference-count side array.
inline constexpr std::size_t kNodeRefBytesPerNode = sizeof(std::uint16_t);
/// Bytes per slot of the traversal-stamp scratch array. Demand-grown on the
/// first structural query and shared by all of them; not part of the
/// permanent store.
inline constexpr std::size_t kNodeScratchBytesPerNode = sizeof(std::uint32_t);
/// Total permanent bytes per node (store + refs), the constant the
/// benchmark memory columns are computed from.
inline constexpr std::size_t kBytesPerNode =
    kNodeStoreBytesPerNode + kNodeRefBytesPerNode;
static_assert(kNodeStoreBytesPerNode <= 16,
              "node store regressed past 16 bytes/node (was 24 pre-SoA)");

/// Cached operation kinds of the computed table, in the order used by the
/// per-op counters of `ManagerStats` (and by `kCacheOpNames`).
inline constexpr std::size_t kNumCacheOps = 5;
inline constexpr std::array<const char*, kNumCacheOps> kCacheOpNames{
    "ite", "restrict", "constrain", "compose", "exists"};

/// Statistics snapshot used by benchmarks to report memory/size columns.
struct ManagerStats {
  std::size_t live_nodes = 0;       ///< Nodes with a nonzero reference count.
  std::size_t allocated_nodes = 0;  ///< Arena slots ever allocated.
  std::size_t peak_live_nodes = 0;  ///< High-watermark of live_nodes.
  std::size_t gc_runs = 0;
  std::size_t unique_lookups = 0;
  std::size_t cache_lookups = 0;
  std::size_t cache_hits = 0;
  /// Per-operation computed-table traffic, indexed as in kCacheOpNames.
  std::array<std::size_t, kNumCacheOps> cache_op_lookups{};
  std::array<std::size_t, kNumCacheOps> cache_op_hits{};
  std::size_t cache_entries = 0;   ///< Current computed-table capacity.
  std::size_t cache_resizes = 0;   ///< Adaptive growth events.
  std::size_t reorderings = 0;
  /// Nodes whose 16-bit reference count has saturated (kRefSaturated):
  /// they are pinned for the manager's lifetime -- gc() can never reclaim
  /// them -- so a nonzero value explains live-node floors that budgets and
  /// collection cannot push down. Sticky: saturation is irreversible.
  std::size_t saturated_refs = 0;
  /// Approximate resident bytes of the node arena plus tables.
  std::size_t memory_bytes = 0;
  std::size_t peak_memory_bytes = 0;
};

/// Flattens a ManagerStats snapshot into telemetry counters under the
/// canonical names MANUAL.md's glossary documents (live_nodes,
/// peak_live_nodes, gc_runs, unique_lookups, cache_lookups, cache_hits,
/// cache_<op>_lookups/hits per kCacheOpNames, cache_entries/resizes,
/// reorderings, saturated_refs, memory_bytes, peak_memory_bytes). To
/// attribute one phase of work, diff two snapshots with
/// `telemetry_counters(after, &before)`: monotonic counters subtract,
/// level/high-watermark gauges report the `after` value.
[[nodiscard]] util::CounterList telemetry_counters(
    const ManagerStats& stats, const ManagerStats* baseline = nullptr);

namespace detail {
/// Always-on failure hook of the `Bdd` handle guard: prints a diagnostic
/// naming the offending operation and aborts (release builds included).
[[noreturn]] void invalid_handle(const char* op);
/// Always-on rejection of malformed caller-supplied arguments (e.g. a
/// non-permutation handed to Manager::set_order): prints the operation and
/// the violated precondition, then aborts, in release builds too.
[[noreturn]] void invalid_argument(const char* op, const char* what);
}  // namespace detail

/// A cone recorded by Manager::record, independent of any manager. Node i
/// has post-order number i + 1 (the terminal is 0); `hi`, `lo` and `root`
/// are Lits over those numbers, `(number << 1) | complement`.
struct ConeImage {
  struct Node {
    Var var = 0;  ///< the node's variable, relabelled
    Lit hi = 0;
    Lit lo = 0;
  };
  std::vector<Node> nodes;  ///< children before parents
  Lit root = 0;
};

/// The BDD manager: owns all nodes, tables and the variable order.
class Manager {
 public:
  /// Default starting computed-table capacity (entries): the size every
  /// global manager (partition, verify, sharing) starts from.
  static constexpr std::size_t kCacheInitialEntries = 1u << 14;

  /// Creates a manager with `num_vars` variables in identity order whose
  /// computed table starts at `cache_entries` entries (a power of two >= 2;
  /// aborts otherwise) and grows adaptively from there. Small per-cone
  /// managers pass a size derived from their cone.
  explicit Manager(std::uint32_t num_vars = 0,
                   std::size_t cache_entries = kCacheInitialEntries);
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  // ----- lifecycle: reset ---------------------------------------------------

  /// Returns the manager to its freshly-constructed (0-variable) state --
  /// the manager-pool primitive: a reset manager replays an operation
  /// sequence byte-identically to a fresh
  /// `Manager(0, initial_cache_entries())`, *including* the
  /// capacity-derived memory_bytes gauge, because every buffer is restored
  /// to the constructor's exact footprint (buffers already at that
  /// footprint are reused in place, so the common recycling path skips the
  /// computed-table allocation). All outstanding `Bdd` handles and raw
  /// edges are invalidated; the installed budget survives.
  void reset() { reset(initial_cache_entries_); }
  /// reset(), but the manager's starting computed-table size becomes
  /// `cache_entries` (same precondition as the constructor's): afterwards
  /// it is indistinguishable from a fresh `Manager(0, cache_entries)`.
  void reset(std::size_t cache_entries);
  /// The computed-table capacity this manager started from, and that
  /// reset() restores.
  [[nodiscard]] std::size_t initial_cache_entries() const {
    return initial_cache_entries_;
  }

  // ----- variables and order ------------------------------------------------

  [[nodiscard]] std::uint32_t num_vars() const {
    return static_cast<std::uint32_t>(var2level_.size());
  }
  /// Adds a fresh variable at the bottom of the order; returns its id.
  Var new_var();
  /// Ensures at least `n` variables exist.
  void ensure_vars(std::uint32_t n);

  [[nodiscard]] std::uint32_t level_of(Var v) const { return var2level_[v]; }
  [[nodiscard]] Var var_at_level(std::uint32_t level) const {
    return level2var_[level];
  }
  /// Level of the node an edge points to (kLevelTerminal for constants).
  [[nodiscard]] std::uint32_t edge_level(Edge e) const;

  // ----- handle-level API (RAII, GC-safe) -----------------------------------

  Bdd constant(bool value);
  Bdd one();
  Bdd zero();
  Bdd var(Var v);
  Bdd nvar(Var v);
  /// Wraps a raw edge in a counted handle.
  Bdd wrap(Edge e);

  // ----- raw-edge operations ------------------------------------------------
  // These do not trigger garbage collection; callers holding raw edges across
  // calls are safe as long as they do not call gc()/reorder themselves.

  /// Finds or creates the canonical node (v, hi, lo).
  Edge mk(Var v, Edge hi, Edge lo);
  Edge ite(Edge f, Edge g, Edge h);
  Edge and_(Edge f, Edge g) { return ite(f, g, Edge::zero()); }
  Edge or_(Edge f, Edge g) { return ite(f, Edge::one(), g); }
  Edge xor_(Edge f, Edge g) { return ite(f, !g, g); }
  Edge xnor_(Edge f, Edge g) { return ite(f, g, !g); }

  /// Positive/negative cofactor with respect to variable v.
  Edge cofactor(Edge f, Var v, bool value);
  /// Shallow cofactors w.r.t. the variable at the edge's own top level.
  [[nodiscard]] Edge hi_of(Edge e) const;
  [[nodiscard]] Edge lo_of(Edge e) const;
  [[nodiscard]] Var top_var(Edge e) const;

  /// Coudert–Madre restrict: minimizes f using !care as don't care.
  /// Guarantees restrict(f, c) & c == f & c. Requires c != 0.
  Edge restrict_(Edge f, Edge care);
  /// Coudert–Madre constrain (generalized cofactor): also satisfies
  /// constrain(f, c) & c == f & c, with the stronger image property
  /// constrain(f, c)(x) == f(proj_c(x)); may grow the BDD where restrict
  /// cannot. Requires c != 0.
  Edge constrain(Edge f, Edge care);
  /// Existential quantification of a single variable.
  Edge exists(Edge f, Var v);
  /// Substitutes function g for variable v inside f.
  Edge compose(Edge f, Var v, Edge g);

  /// Number of distinct nodes reachable from e (terminal included).
  [[nodiscard]] std::size_t size(Edge e) const;
  /// Combined size of a set of roots (shared nodes counted once).
  [[nodiscard]] std::size_t size(const std::vector<Edge>& roots) const;
  /// Set of variables the function depends on.
  [[nodiscard]] std::vector<Var> support(Edge e) const;
  /// Evaluates the function under a full assignment (indexed by Var).
  [[nodiscard]] bool eval(Edge e, const std::vector<bool>& assignment) const;

  // ----- node structure access (read only) ----------------------------------

  [[nodiscard]] Var node_var(std::uint32_t node) const { return vars_[node]; }
  [[nodiscard]] Edge node_hi(std::uint32_t node) const { return thens_[node]; }
  [[nodiscard]] Edge node_lo(std::uint32_t node) const { return elses_[node]; }
  /// Number of node slots ever allocated (live + free), terminal included.
  [[nodiscard]] std::uint32_t arena_size() const {
    return static_cast<std::uint32_t>(vars_.size());
  }
  [[nodiscard]] bool is_terminal(std::uint32_t node) const {
    return node == 0;
  }
  /// Arena slots on the free list (arena_size() minus this is the number
  /// of chained nodes plus the terminal).
  [[nodiscard]] std::size_t free_slots() const { return free_list_.size(); }

  // ----- reference counting / garbage collection ----------------------------

  void ref(Edge e);
  void deref(Edge e);
  [[nodiscard]] std::uint32_t ref_count(Edge e) const {
    return refs_[e.node()];
  }
  /// Reclaims all dead nodes; clears the computed table if any were freed.
  void gc();
  /// Runs gc() if the arena grew past the auto-GC threshold.
  void maybe_gc();

  // ----- resource governance (util/budget.hpp) ------------------------------

  /// Installs (or, with nullptr, removes) a cooperative resource budget.
  /// The manager polls it at its safe points -- computed-table lookups,
  /// maybe_gc(), and between reordering sift steps -- and throws
  /// bds::BudgetExceeded when a ceiling is hit. Node/byte ceilings compare
  /// against *this* manager's counters; the deadline is global to the
  /// budget. Checks never fire inside a structural rewrite, so the manager
  /// and all handles stay valid after the throw.
  void set_budget(std::shared_ptr<const util::ResourceBudget> budget) {
    budget_ = std::move(budget);
    budget_ticks_ = 0;
  }
  [[nodiscard]] const std::shared_ptr<const util::ResourceBudget>& budget()
      const {
    return budget_;
  }

  // ----- dynamic variable reordering (bdd/reorder.cpp) ----------------------

  /// Rudell sifting over all variables. External `Bdd` handles stay valid
  /// (node identities are preserved or transferred in place).
  void reorder_sift();
  /// Swaps the variables at levels `level` and `level + 1`. Children the
  /// swap kills are listed for reorder_sift()'s collection between sifts.
  void swap_levels(std::uint32_t level);
  /// Entries on that kill list; gc(), reorder_sift() and set_order() leave
  /// it empty. Test-only.
  [[nodiscard]] std::size_t pending_kills() const { return killed_.size(); }
  /// Installs an explicit order (permutation of all vars) by bubble swaps.
  void set_order(const std::vector<Var>& order);

  // ----- cone images ("BDD mapping", Section IV-B) --------------------------

  /// Records the cone of `e` into `out`: its internal nodes in the order a
  /// stamped post-order walk completes them (children before parents, the
  /// hi child pushed before the lo child), each variable renamed through
  /// `relabel` (indexed by this manager's Var; empty keeps each variable).
  /// The image depends on the DAG's shape alone, not on where the arena
  /// placed its nodes, and it refers to nothing in this manager once
  /// recorded.
  void record(Edge e, std::span<const Var> relabel, ConeImage& out) const;
  /// Rebuilds a recorded cone in this manager, node by node in the image's
  /// order, through ITE (the relabelling may reorder variables relative to
  /// this manager's order). Returns the cone's root. Raw operations only:
  /// no garbage collection runs, but the budget may throw at its safe
  /// points.
  Edge replay(const ConeImage& image);

  // ----- diagnostics ---------------------------------------------------------

  [[nodiscard]] const ManagerStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t live_nodes() const { return stats_.live_nodes; }
  /// Writes a Graphviz rendering of the functions in `roots` (bdd/dot.cpp).
  void write_dot(std::ostream& os, const std::vector<Edge>& roots,
                 const std::vector<std::string>& root_names = {},
                 const std::vector<std::string>& var_names = {}) const;
  /// Checks internal invariants (canonicity, table consistency). Test-only.
  [[nodiscard]] bool check_consistency() const;

 private:
  friend class Bdd;

  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Starting bucket count of a fresh unique subtable (power of two).
  static constexpr std::uint32_t kInitialBuckets = 16;
  /// SoA-column slots reserved by the constructor -- and restored exactly
  /// by reset(), so the capacity-derived memory_bytes gauge of a recycled
  /// manager matches a fresh one byte for byte.
  static constexpr std::size_t kArenaReserve = 1024;

  /// Mask-based unique subtable: power-of-two bucket array of chain heads
  /// (kNil-terminated, chained through `nexts_`), indexed by `hash & mask`.
  struct Subtable {
    std::vector<std::uint32_t> buckets;
    std::uint32_t mask = 0;   ///< buckets.size() - 1.
    std::uint32_t count = 0;  ///< Nodes currently chained (live + dead).
  };

  // Computed-table entry, keyed on Lit pairs packed two to a word; op tags
  // distinguish cached operations.
  struct CacheEntry {
    std::uint64_t key_lo = ~0ULL;  // (op, f)
    std::uint64_t key_hi = ~0ULL;  // (g, h)
    Edge result{};
  };
  enum class CacheOp : std::uint32_t {
    kIte = 1,
    kRestrict,
    kConstrain,
    kCompose,
    kExists,
  };

  std::uint32_t alloc_node(Var v, Edge hi, Edge lo);
  void free_node(std::uint32_t idx);
  void unique_insert(std::uint32_t idx);
  void unique_remove(std::uint32_t idx);
  void grow_subtable(Subtable& st);
  static std::uint32_t hash_triple(Var v, Edge hi, Edge lo,
                                   std::uint32_t mask);

  Edge cache_lookup(CacheOp op, Edge f, Edge g, Edge h, bool& hit);
  void cache_store(CacheOp op, Edge f, Edge g, Edge h, Edge result);
  /// Index of slot 0 (the MRU way) of the 2-way set a key maps to; the set
  /// count is cache_.size() / 2 and slot 1 sits at the next index.
  [[nodiscard]] std::size_t cache_set_base(std::uint64_t key_lo,
                                           std::uint64_t key_hi) const;
  void cache_clear();
  /// Aborts via detail::invalid_argument unless `entries` is a valid
  /// starting computed-table size (a power of two >= 2).
  static void check_cache_entries(const char* op, std::size_t entries);
  /// Doubles the computed table when the recent lookup window ran hot
  /// (CUDD-style adaptive sizing); existing entries are rehashed, not lost.
  void cache_maybe_grow();

  /// Budget safe-point poll: one pointer test when no budget is installed.
  /// Called from cache_lookup() (once per nonterminal apply step) and
  /// maybe_gc() (handle-level entries) -- never from mk(), so the budget
  /// cannot fire inside swap_levels()'s in-place node rewrite.
  void budget_checkpoint() {
    if (budget_) budget_check_slow();
  }
  void budget_check_slow();

  Edge ite_rec(Edge f, Edge g, Edge h);
  Edge restrict_rec(Edge f, Edge c);
  Edge constrain_rec(Edge f, Edge c);
  Edge compose_rec(Edge f, Var v, Edge g, std::uint32_t vlevel);
  Edge exists_rec(Edge f, Var v, std::uint32_t vlevel);

  // Generation-stamped traversal machinery (see Node::visit). begin_visit()
  // opens a fresh epoch: a node is "seen" in the current query iff its stamp
  // equals the epoch. Queries share the scratch stack/arrays below so the
  // hot structural paths allocate nothing after warm-up.
  std::uint32_t begin_visit() const;
  /// Marks and counts the nodes reachable from `e` not yet stamped `epoch`.
  std::size_t count_nodes(Edge e, std::uint32_t epoch) const;
  void update_memory_stats();

  // Reordering internals (bdd/reorder.cpp).
  std::uint32_t subtable_live(Var v) const;
  void sift_var(Var v);
  /// deref() for a child swap_levels() lets go of: a child it kills joins
  /// `killed_`.
  void release_child(Edge e);
  /// The collection between sifts: reclaims from `killed_` instead of
  /// walking every subtable, with gc()'s seed list and effects.
  void collect_killed();
  /// gc()'s sweep from a sorted seed list of dead nodes (consumed): frees
  /// them and every node they alone kept alive, clears the computed table
  /// if any node was freed, and counts one gc run.
  void reclaim(std::vector<std::uint32_t>& dead);

  // Struct-of-arrays node store, indexed by node index. The four permanent
  // arrays total kNodeStoreBytesPerNode (16) bytes per slot; `refs_` adds
  // kNodeRefBytesPerNode. Free slots are stamped kVarTerminal in `vars_`
  // and linked through `free_list_`.
  std::vector<Var> vars_;             ///< Branch variable (kVarTerminal = free/terminal).
  std::vector<Edge> thens_;           ///< 1-edges; regular by canonical form.
  std::vector<Edge> elses_;           ///< 0-edges.
  std::vector<std::uint32_t> nexts_;  ///< Unique-table chains (kNil-terminated).
  std::vector<std::uint16_t> refs_;   ///< Saturating reference counts.
  std::vector<std::uint32_t> free_list_;
  std::vector<Subtable> subtables_;  ///< Indexed by Var.
  std::vector<std::uint32_t> var2level_;
  std::vector<Var> level2var_;
  /// Computed table: power-of-two size, adaptively grown, viewed as
  /// size()/2 sets of two adjacent ways (slot 0 = MRU; cache_set_base()).
  std::vector<CacheEntry> cache_;
  /// Capacity of a fresh (or reset) manager's table; it grows adaptively
  /// from here (cache_maybe_grow), never past its ceiling.
  std::size_t initial_cache_entries_ = kCacheInitialEntries;
  std::size_t cache_lookups_at_resize_ = 0;  ///< Window start (growth policy).
  std::size_t cache_hits_at_resize_ = 0;
  /// No entry stored since the table was last filled empty: cache_clear()
  /// has nothing to do.
  bool cache_empty_ = true;
  std::size_t gc_threshold_ = 1u << 14;
  /// Total bytes of all subtable bucket arrays, maintained incrementally so
  /// update_memory_stats() stays O(1) on the per-operation hot path.
  std::size_t subtable_bucket_bytes_ = 0;
  ManagerStats stats_;

  /// Optional resource governor (set_budget); shared across managers.
  std::shared_ptr<const util::ResourceBudget> budget_;
  /// Amortization counter for the budget's deadline clock reads.
  std::uint32_t budget_ticks_ = 0;

  // Traversal scratch (all logically const; see begin_visit()). `visits_`
  // holds the per-node generation stamps: a node is "seen" in the current
  // query iff its stamp equals the epoch. It is demand-grown to the arena
  // size by begin_visit(), so managers that never run a structural query
  // never pay its kNodeScratchBytesPerNode.
  mutable std::uint32_t visit_epoch_ = 0;
  mutable std::vector<std::uint32_t> visits_;      ///< per-node epoch stamps
  mutable std::vector<std::uint32_t> visit_stack_;
  mutable std::vector<std::uint32_t> var_visit_;   ///< per-var epoch stamps
  mutable std::vector<std::uint32_t> scratch_num_; ///< record's post-order ids
  /// Node-index worklist of gc() and swap_levels() (never both at once).
  std::vector<std::uint32_t> node_scratch_;
  /// Nodes whose count swap_levels() dropped to 0 since the last gc()
  /// (duplicates and revived nodes included); reorder_sift() collects from
  /// it between sifts, and set_order() drops it.
  std::vector<std::uint32_t> killed_;
};

/// RAII handle to a BDD function: owns one external reference.
///
/// All engine-level code holds functions through `Bdd`; raw `Edge` values
/// are only used inside single recursive operations.
///
/// INVARIANT: a default-constructed `Bdd` is an empty placeholder -- it
/// holds no manager and denotes no function (`valid()` is false). The only
/// legal operations on it are destruction, assignment, swap, `valid()` and
/// `operator==`. Every functional query or operator checks this invariant
/// (and that binary operands share one manager) and aborts with a
/// diagnostic on violation, in release builds too: a silent null-manager
/// dereference used to segfault far from the misuse site.
class Bdd {
 public:
  Bdd() = default;
  Bdd(Manager& mgr, Edge e) : mgr_(&mgr), e_(e) { mgr_->ref(e_); }
  Bdd(const Bdd& o) : mgr_(o.mgr_), e_(o.e_) {
    if (mgr_ != nullptr) mgr_->ref(e_);
  }
  Bdd(Bdd&& o) noexcept : mgr_(o.mgr_), e_(o.e_) { o.mgr_ = nullptr; }
  Bdd& operator=(const Bdd& o) {
    if (this != &o) {
      Bdd tmp(o);
      swap(tmp);
    }
    return *this;
  }
  Bdd& operator=(Bdd&& o) noexcept {
    swap(o);
    return *this;
  }
  ~Bdd() {
    if (mgr_ != nullptr) mgr_->deref(e_);
  }

  void swap(Bdd& o) noexcept {
    std::swap(mgr_, o.mgr_);
    std::swap(e_, o.e_);
  }

  [[nodiscard]] bool valid() const { return mgr_ != nullptr; }
  [[nodiscard]] Manager& manager() const { return req("Bdd::manager"); }
  [[nodiscard]] Edge edge() const { return e_; }

  [[nodiscard]] bool is_one() const { return e_.is_one(); }
  [[nodiscard]] bool is_zero() const { return e_.is_zero(); }
  [[nodiscard]] bool is_constant() const { return e_.is_constant(); }

  // Handle-level operators run maybe_gc() first: every live function is
  // pinned by a handle here, so collection is safe, and it bounds the
  // arena during long operation sequences (CEC, eliminate, full_simplify).
  Bdd operator!() const { return Bdd(req("Bdd::operator!"), !e_); }
  Bdd operator&(const Bdd& o) const {
    Manager& m = req(o, "Bdd::operator&");
    m.maybe_gc();
    return Bdd(m, m.and_(e_, o.e_));
  }
  Bdd operator|(const Bdd& o) const {
    Manager& m = req(o, "Bdd::operator|");
    m.maybe_gc();
    return Bdd(m, m.or_(e_, o.e_));
  }
  Bdd operator^(const Bdd& o) const {
    Manager& m = req(o, "Bdd::operator^");
    m.maybe_gc();
    return Bdd(m, m.xor_(e_, o.e_));
  }
  Bdd xnor(const Bdd& o) const {
    Manager& m = req(o, "Bdd::xnor");
    m.maybe_gc();
    return Bdd(m, m.xnor_(e_, o.e_));
  }
  Bdd ite(const Bdd& g, const Bdd& h) const {
    Manager& m = req(g, "Bdd::ite");
    if (h.mgr_ != mgr_) detail::invalid_handle("Bdd::ite");
    m.maybe_gc();
    return Bdd(m, m.ite(e_, g.e_, h.e_));
  }

  bool operator==(const Bdd& o) const { return mgr_ == o.mgr_ && e_ == o.e_; }

  Bdd cofactor(Var v, bool value) const {
    Manager& m = req("Bdd::cofactor");
    m.maybe_gc();
    return Bdd(m, m.cofactor(e_, v, value));
  }
  Bdd restrict_(const Bdd& care) const {
    Manager& m = req(care, "Bdd::restrict_");
    m.maybe_gc();
    return Bdd(m, m.restrict_(e_, care.e_));
  }
  Bdd constrain(const Bdd& care) const {
    Manager& m = req(care, "Bdd::constrain");
    m.maybe_gc();
    return Bdd(m, m.constrain(e_, care.e_));
  }
  Bdd compose(Var v, const Bdd& g) const {
    Manager& m = req(g, "Bdd::compose");
    m.maybe_gc();
    return Bdd(m, m.compose(e_, v, g.e_));
  }
  Bdd exists(Var v) const {
    Manager& m = req("Bdd::exists");
    m.maybe_gc();
    return Bdd(m, m.exists(e_, v));
  }

  [[nodiscard]] Var top_var() const { return req("Bdd::top_var").top_var(e_); }
  [[nodiscard]] std::size_t size() const { return req("Bdd::size").size(e_); }
  [[nodiscard]] std::vector<Var> support() const {
    return req("Bdd::support").support(e_);
  }
  [[nodiscard]] bool eval(const std::vector<bool>& assignment) const {
    return req("Bdd::eval").eval(e_, assignment);
  }

 private:
  /// Handle guard (see class invariant): aborts on an empty handle, or --
  /// for binary operations -- on operands from different managers.
  Manager& req(const char* op) const {
    if (mgr_ == nullptr) detail::invalid_handle(op);
    return *mgr_;
  }
  Manager& req(const Bdd& o, const char* op) const {
    if (mgr_ == nullptr || o.mgr_ != mgr_) detail::invalid_handle(op);
    return *mgr_;
  }

  Manager* mgr_ = nullptr;
  Edge e_ = Edge::one();
};

}  // namespace bds::bdd

template <>
struct std::hash<bds::bdd::Edge> {
  std::size_t operator()(const bds::bdd::Edge& e) const noexcept {
    return std::hash<std::uint32_t>()(e.bits());
  }
};
