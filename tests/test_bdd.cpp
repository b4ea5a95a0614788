// Unit and property tests for the ROBDD package: canonicity, the full
// operator set checked against a truth-table oracle, reference counting,
// garbage collection, restrict semantics, cone record/replay between
// managers, and reset.
#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "oracle.hpp"
#include "util/rng.hpp"

namespace bds::bdd {
namespace {

using test::TruthTable;

Bdd from_table(Manager& mgr, const TruthTable& t) {
  // Build a BDD as an OR of minterms; exercises mk/ite heavily.
  Bdd f = mgr.zero();
  for (std::size_t row = 0; row < t.rows(); ++row) {
    if (!t.at(row)) continue;
    Bdd minterm = mgr.one();
    for (unsigned v = 0; v < t.num_vars(); ++v) {
      minterm = minterm & (((row >> v) & 1) != 0 ? mgr.var(v) : mgr.nvar(v));
    }
    f = f | minterm;
  }
  return f;
}

bool matches(const Bdd& f, const TruthTable& t) {
  for (std::size_t row = 0; row < t.rows(); ++row) {
    if (f.eval(t.assignment(row)) != t.at(row)) return false;
  }
  return true;
}

TEST(Bdd, ConstantsAreCanonical) {
  Manager mgr(2);
  EXPECT_TRUE(mgr.one().is_one());
  EXPECT_TRUE(mgr.zero().is_zero());
  EXPECT_EQ((!mgr.one()).edge(), mgr.zero().edge());
  EXPECT_EQ(mgr.one().edge().node(), mgr.zero().edge().node());
}

TEST(Bdd, VariableSemantics) {
  Manager mgr(3);
  const Bdd x = mgr.var(0);
  EXPECT_TRUE(x.eval({true, false, false}));
  EXPECT_FALSE(x.eval({false, true, true}));
  const Bdd nx = mgr.nvar(0);
  EXPECT_EQ(nx.edge(), (!x).edge());
}

TEST(Bdd, CanonicityIdenticalFunctionsShareEdges) {
  Manager mgr(3);
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  const Bdd f1 = (a & b) | c;
  const Bdd f2 = !((!c) & (!(b & a)));  // same function via De Morgan
  EXPECT_EQ(f1.edge(), f2.edge());
}

TEST(Bdd, HiEdgeAlwaysRegular) {
  Manager mgr(4);
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const TruthTable t = TruthTable::random(4, rng);
    const Bdd f = from_table(mgr, t);
    (void)f;
  }
  EXPECT_TRUE(mgr.check_consistency());
}

TEST(Bdd, XorChainHasLinearSize) {
  // Parity is the showcase for complement edges: n+1 nodes instead of 2^n.
  Manager mgr(16);
  Bdd f = mgr.zero();
  for (Var v = 0; v < 16; ++v) f = f ^ mgr.var(v);
  EXPECT_EQ(f.size(), 17u);  // 16 variable nodes + terminal
}

TEST(Bdd, SizeCountsSharedNodesOnce) {
  Manager mgr(3);
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  const Bdd f = (a & b) | ((!a) & b) | c;  // collapses to b | c
  EXPECT_EQ(f.size(), 3u);
}

TEST(Bdd, SupportListsExactlyDependentVars) {
  Manager mgr(5);
  const Bdd f = (mgr.var(0) & mgr.var(3)) | mgr.var(4);
  EXPECT_EQ(f.support(), (std::vector<Var>{0, 3, 4}));
  const Bdd g = mgr.var(1) ^ mgr.var(1);  // constant
  EXPECT_TRUE(g.support().empty());
}

// ---- randomized operator properties -----------------------------------------

struct OpCase {
  unsigned vars;
  std::uint64_t seed;
};

class BddOps : public ::testing::TestWithParam<OpCase> {};

TEST_P(BddOps, BinaryOpsMatchOracle) {
  const auto [nv, seed] = GetParam();
  Manager mgr(nv);
  Rng rng(seed);
  const TruthTable ta = TruthTable::random(nv, rng);
  const TruthTable tb = TruthTable::random(nv, rng);
  const TruthTable tc = TruthTable::random(nv, rng);
  const Bdd a = from_table(mgr, ta);
  const Bdd b = from_table(mgr, tb);
  const Bdd c = from_table(mgr, tc);

  EXPECT_TRUE(matches(a & b, ta & tb));
  EXPECT_TRUE(matches(a | b, ta | tb));
  EXPECT_TRUE(matches(a ^ b, ta ^ tb));
  EXPECT_TRUE(matches(a.xnor(b), ~(ta ^ tb)));
  EXPECT_TRUE(matches(!a, ~ta));
  EXPECT_TRUE(matches(a.ite(b, c), (ta & tb) | (~ta & tc)));
}

TEST_P(BddOps, CofactorComposeExistsMatchOracle) {
  const auto [nv, seed] = GetParam();
  Manager mgr(nv);
  Rng rng(seed ^ 0xabcdef);
  const TruthTable ta = TruthTable::random(nv, rng);
  const TruthTable tg = TruthTable::random(nv, rng);
  const Bdd a = from_table(mgr, ta);
  const Bdd g = from_table(mgr, tg);
  for (unsigned v = 0; v < nv; ++v) {
    EXPECT_TRUE(matches(a.cofactor(v, true), ta.cofactor(v, true)));
    EXPECT_TRUE(matches(a.cofactor(v, false), ta.cofactor(v, false)));
    EXPECT_TRUE(matches(a.exists(v), ta.exists(v)));
    EXPECT_TRUE(matches(a.compose(v, g), ta.compose(v, tg)));
  }
}

TEST_P(BddOps, RestrictAgreesOnCareSet) {
  const auto [nv, seed] = GetParam();
  Manager mgr(nv);
  Rng rng(seed ^ 0x5a5a5a);
  for (int i = 0; i < 8; ++i) {
    const TruthTable tf = TruthTable::random(nv, rng);
    TruthTable tc = TruthTable::random(nv, rng);
    if (tc.count_ones() == 0) tc.set(0, true);
    const Bdd f = from_table(mgr, tf);
    const Bdd c = from_table(mgr, tc);
    const Bdd r = f.restrict_(c);
    // Defining property: r and f agree wherever the care set holds.
    EXPECT_EQ(((r ^ f) & c).edge(), mgr.zero().edge());
  }
}

TEST_P(BddOps, ConstrainAgreesOnCareSetAndProjects) {
  const auto [nv, seed] = GetParam();
  Manager mgr(nv);
  Rng rng(seed ^ 0xc0c0);
  for (int i = 0; i < 8; ++i) {
    const TruthTable tf = TruthTable::random(nv, rng);
    TruthTable tc = TruthTable::random(nv, rng);
    if (tc.count_ones() == 0) tc.set(0, true);
    const Bdd f = from_table(mgr, tf);
    const Bdd c = from_table(mgr, tc);
    const Bdd r = f.constrain(c);
    // Defining property: agrees with f wherever the care set holds.
    EXPECT_EQ(((r ^ f) & c).edge(), mgr.zero().edge());
    // Classic identity: f & c == constrain(f, c) & c, and the image
    // identity (f & c) == constrain(f, c) restricted to the care set.
    EXPECT_EQ((r & c).edge(), (f & c).edge());
  }
  // constrain(f, f) == 1 and constrain(f, !f) == 0.
  const Bdd f = from_table(mgr, TruthTable::random(nv, rng));
  if (!f.is_constant()) {
    EXPECT_TRUE(f.constrain(f).is_one());
    EXPECT_TRUE(f.constrain(!f).is_zero());
  }
}

TEST_P(BddOps, RestrictWithFullCareIsIdentity) {
  const auto [nv, seed] = GetParam();
  Manager mgr(nv);
  Rng rng(seed ^ 0x777);
  const Bdd f = from_table(mgr, TruthTable::random(nv, rng));
  EXPECT_EQ(f.restrict_(mgr.one()).edge(), f.edge());
}

INSTANTIATE_TEST_SUITE_P(Sweep, BddOps,
                         ::testing::Values(OpCase{2, 1}, OpCase{3, 2},
                                           OpCase{4, 3}, OpCase{5, 4},
                                           OpCase{6, 5}, OpCase{7, 6},
                                           OpCase{8, 7}, OpCase{6, 42},
                                           OpCase{7, 43}, OpCase{8, 44}));

// ---- reference counting and GC ----------------------------------------------

TEST(BddGc, GarbageIsReclaimed) {
  Manager mgr(8);
  Rng rng(3);
  {
    std::vector<Bdd> hold;
    for (int i = 0; i < 32; ++i) {
      hold.push_back(from_table(mgr, TruthTable::random(8, rng)));
    }
    EXPECT_GT(mgr.live_nodes(), 1u);
  }
  mgr.gc();
  EXPECT_EQ(mgr.live_nodes(), 1u);  // only the terminal remains
  EXPECT_TRUE(mgr.check_consistency());
}

TEST(BddGc, LiveFunctionsSurviveGc) {
  Manager mgr(6);
  Rng rng(9);
  const TruthTable t = TruthTable::random(6, rng);
  const Bdd f = from_table(mgr, t);
  for (int i = 0; i < 10; ++i) {
    (void)from_table(mgr, TruthTable::random(6, rng));  // garbage
  }
  mgr.gc();
  EXPECT_TRUE(matches(f, t));
  EXPECT_TRUE(mgr.check_consistency());
}

TEST(BddGc, HandleCopiesShareOneReferenceEach) {
  Manager mgr(2);
  const Bdd x = mgr.var(0);
  const std::uint32_t before = mgr.ref_count(x.edge());
  {
    const Bdd y = x;
    EXPECT_EQ(mgr.ref_count(x.edge()), before + 1);
  }
  EXPECT_EQ(mgr.ref_count(x.edge()), before);
}

TEST(BddGc, PeakStatsAreMonotone) {
  Manager mgr(8);
  Rng rng(17);
  (void)from_table(mgr, TruthTable::random(8, rng));
  const auto s1 = mgr.stats();
  mgr.gc();
  const auto s2 = mgr.stats();
  EXPECT_GE(s2.peak_live_nodes, s1.live_nodes);
  EXPECT_LE(s2.live_nodes, s1.live_nodes);
}

// ---- cone images ("BDD mapping", Section IV-B) -------------------------------

TEST(BddConeImage, ReplaysWithVariableRemap) {
  Manager src(6);
  Rng rng(23);
  const TruthTable t = TruthTable::random(6, rng);
  const Bdd f = from_table(src, t);

  Manager dst(6);
  // Reverse variable identity: src var v becomes dst var 5 - v.
  const std::vector<Var> map{5, 4, 3, 2, 1, 0};
  ConeImage image;
  src.record(f.edge(), map, image);
  const Bdd g = dst.wrap(dst.replay(image));
  for (std::size_t row = 0; row < t.rows(); ++row) {
    const auto a = t.assignment(row);
    std::vector<bool> permuted(6);
    for (unsigned v = 0; v < 6; ++v) permuted[map[v]] = a[v];
    EXPECT_EQ(g.eval(permuted), t.at(row));
  }
  EXPECT_TRUE(dst.check_consistency());
}

TEST(BddConeImage, CompactsUnusedVariables) {
  // The paper's bddPool: a function of vars {10, 20} moves into a manager
  // with just 2 variables.
  Manager src(32);
  const Bdd f = src.var(10) ^ src.var(20);
  Manager dst(2);
  std::vector<Var> map(32, 0);
  map[10] = 0;
  map[20] = 1;
  ConeImage image;
  src.record(f.edge(), map, image);
  EXPECT_EQ(image.nodes.size(), 2u);
  const Bdd g = dst.wrap(dst.replay(image));
  EXPECT_EQ(g.size(), 3u);
  EXPECT_TRUE(g.eval({true, false}));
  EXPECT_FALSE(g.eval({true, true}));
}

// ---- misc --------------------------------------------------------------------

TEST(Bdd, EvalWalksComplementEdges) {
  Manager mgr(3);
  const Bdd f = !(mgr.var(0) & !mgr.var(1));
  EXPECT_TRUE(f.eval({false, false, false}));
  EXPECT_FALSE(f.eval({true, false, false}));
  EXPECT_TRUE(f.eval({true, true, false}));
}

TEST(Bdd, DotExportMentionsAllRoots) {
  Manager mgr(3);
  const Bdd f = mgr.var(0) & mgr.var(1);
  const Bdd g = mgr.var(1) ^ mgr.var(2);
  std::ostringstream os;
  mgr.write_dot(os, {f.edge(), g.edge()}, {"f", "g"}, {"a", "b", "c"});
  const std::string s = os.str();
  EXPECT_NE(s.find("digraph"), std::string::npos);
  EXPECT_NE(s.find("\"f\""), std::string::npos);
  EXPECT_NE(s.find("\"g\""), std::string::npos);
  EXPECT_NE(s.find("\"a\""), std::string::npos);
}

// ---- computed-table policy (PR 2) -------------------------------------------

TEST(BddCache, PerOpCountersPartitionTotalTraffic) {
  Manager mgr(8);
  Rng rng(29);
  const ManagerStats& st = mgr.stats();
  const std::size_t ite_before = st.cache_op_lookups[0];
  const Bdd f = from_table(mgr, TruthTable::random(8, rng));
  const Bdd c = from_table(mgr, TruthTable::random(8, rng));
  EXPECT_GT(st.cache_op_lookups[0], ite_before);  // index 0 == "ite"

  const std::size_t restrict_before = st.cache_op_lookups[1];
  (void)f.restrict_(c);
  EXPECT_GT(st.cache_op_lookups[1], restrict_before);

  std::size_t lookups = 0, hits = 0;
  for (std::size_t i = 0; i < kNumCacheOps; ++i) {
    lookups += st.cache_op_lookups[i];
    hits += st.cache_op_hits[i];
  }
  EXPECT_EQ(lookups, st.cache_lookups);
  EXPECT_EQ(hits, st.cache_hits);
  EXPECT_STREQ(kCacheOpNames[0], "ite");
}

TEST(BddCache, GcThatFreesNodesClearsTheTable) {
  Manager mgr(8);
  Rng rng(31);
  const Bdd a = from_table(mgr, TruthTable::random(8, rng));
  const Bdd b = from_table(mgr, TruthTable::random(8, rng));
  for (int i = 0; i < 8; ++i) {
    (void)from_table(mgr, TruthTable::random(8, rng));  // garbage
  }
  // Seeded after the garbage, so no later traffic can evict the entry,
  // and far below the auto-GC threshold, so the gc() below is the first.
  const Bdd r = mgr.wrap(mgr.and_(a.edge(), b.edge()));
  mgr.gc();

  // The collection freed nodes, so it dropped every entry: the repeat is
  // not answered by one top-level hit but recomputed, to the same node.
  const ManagerStats& st = mgr.stats();
  const std::size_t lookups_before = st.cache_lookups;
  const std::size_t hits_before = st.cache_hits;
  EXPECT_EQ(mgr.and_(a.edge(), b.edge()), r.edge());
  EXPECT_GT(st.cache_lookups - lookups_before, st.cache_hits - hits_before);
}

TEST(BddCache, TableGrowsUnderSustainedHitTraffic) {
  Manager mgr(8);
  Rng rng(41);
  const Bdd a = from_table(mgr, TruthTable::random(8, rng));
  const Bdd b = from_table(mgr, TruthTable::random(8, rng));
  const ManagerStats& st = mgr.stats();
  const std::size_t initial_entries = st.cache_entries;
  // A hot loop of pure cache hits: the adaptive policy must widen the
  // table (growth is triggered from lookups, not only from stores).
  for (int i = 0; i < 200'000; ++i) {
    (void)mgr.and_(a.edge(), b.edge());
  }
  EXPECT_GT(st.cache_entries, initial_entries);
  EXPECT_GE(st.cache_resizes, 1u);
  EXPECT_GT(st.cache_hits, 100'000u);
}

TEST(BddCache, SmallStartingTableGrowsAndResetRestoresIt) {
  // A per-instance starting size: the same adaptive growth from 2^8, and
  // reset() returns to 2^8 (not the class default) with the footprint of
  // a fresh manager of that size.
  constexpr std::size_t kSmall = std::size_t{1} << 8;
  Manager mgr(8, kSmall);
  EXPECT_EQ(mgr.initial_cache_entries(), kSmall);
  const ManagerStats& st = mgr.stats();
  EXPECT_EQ(st.cache_entries, kSmall);
  Rng rng(41);
  {
    const Bdd a = from_table(mgr, TruthTable::random(8, rng));
    const Bdd b = from_table(mgr, TruthTable::random(8, rng));
    for (int i = 0; i < 20'000; ++i) {
      (void)mgr.and_(a.edge(), b.edge());
    }
  }
  EXPECT_GT(st.cache_entries, kSmall);
  EXPECT_GE(st.cache_resizes, 1u);
  EXPECT_GT(st.cache_hits, 10'000u);

  mgr.reset();
  mgr.ensure_vars(8);
  const Manager fresh(8, kSmall);
  EXPECT_EQ(mgr.initial_cache_entries(), kSmall);
  EXPECT_EQ(mgr.stats().cache_entries, kSmall);
  EXPECT_EQ(mgr.stats().memory_bytes, fresh.stats().memory_bytes);
  EXPECT_LT(fresh.stats().memory_bytes, Manager(8).stats().memory_bytes);

  // reset(n) adopts a new starting size that later resets keep.
  mgr.reset(Manager::kCacheInitialEntries);
  mgr.ensure_vars(8);
  EXPECT_EQ(mgr.stats().cache_entries, Manager::kCacheInitialEntries);
  EXPECT_EQ(mgr.stats().memory_bytes, Manager(8).stats().memory_bytes);
  mgr.reset();
  EXPECT_EQ(mgr.initial_cache_entries(), Manager::kCacheInitialEntries);
}

TEST(BddCache, DefaultStartingSizeIsUnchanged) {
  const Manager mgr(4);
  EXPECT_EQ(mgr.initial_cache_entries(), Manager::kCacheInitialEntries);
  EXPECT_EQ(mgr.stats().cache_entries, std::size_t{1} << 14);
}

using BddCacheDeathTest = ::testing::Test;

TEST(BddCacheDeathTest, StartingSizeMustBeAPowerOfTwo) {
  EXPECT_DEATH({ const Manager mgr(2, 100); }, "power of two");
  EXPECT_DEATH({ const Manager mgr(2, 1); }, "power of two");
  EXPECT_DEATH(
      {
        Manager mgr(2);
        mgr.reset(3);
      },
      "power of two");
}

// ---- empty-handle guard (always on, PR 2) -----------------------------------

using BddHandleDeathTest = ::testing::Test;

TEST(BddHandleDeathTest, DefaultConstructedHandleAbortsLoudly) {
  EXPECT_DEATH(
      {
        const Bdd empty;
        (void)empty.size();
      },
      "empty Bdd handle");
  EXPECT_DEATH(
      {
        const Bdd empty;
        (void)(!empty);
      },
      "empty Bdd handle");
  EXPECT_DEATH(
      {
        Manager mgr(2);
        const Bdd x = mgr.var(0);
        const Bdd empty;
        (void)(x & empty);
      },
      "empty Bdd handle");
}

TEST(BddHandleDeathTest, MixedManagerOperandsAbort) {
  EXPECT_DEATH(
      {
        Manager m1(2);
        Manager m2(2);
        const Bdd x = m1.var(0);
        const Bdd y = m2.var(0);
        (void)(x & y);
      },
      "different managers");
}

TEST(Bdd, DefaultConstructedHandleAllowsValidityChecks) {
  // The documented invariant: destruction, assignment, swap, valid() and
  // operator== stay legal on an empty handle. The manager must be declared
  // before the handles: a non-empty handle derefs its node on destruction,
  // so it must not outlive the manager that owns the node.
  Manager mgr(2);
  Bdd a, b;
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(a == b);
  a = mgr.var(0);
  EXPECT_TRUE(a.valid());
  b = a;
  EXPECT_TRUE(a == b);
}

TEST(Bdd, ManagerGrowsVariablesOnDemand) {
  Manager mgr;
  EXPECT_EQ(mgr.num_vars(), 0u);
  const Var v0 = mgr.new_var();
  const Var v1 = mgr.new_var();
  EXPECT_EQ(v0, 0u);
  EXPECT_EQ(v1, 1u);
  mgr.ensure_vars(10);
  EXPECT_EQ(mgr.num_vars(), 10u);
  const Bdd f = mgr.var(9) | mgr.var(0);
  EXPECT_EQ(f.support(), (std::vector<Var>{0, 9}));
}

// gc() seeds its dead-node worklist from the unique-subtable chains (the
// complement of the free list) rather than scanning the whole arena. The
// survivor set must still be exactly the nodes reachable from live
// references -- this oracle recomputes reachability independently and
// checks both the set size and that every surviving node's structure is
// untouched.
TEST(BddGc, SurvivorsMatchReachabilityOracle) {
  Manager mgr(8);
  std::vector<Bdd> keep;
  {
    std::vector<Bdd> temp;
    for (int i = 0; i < 24; ++i) {
      Bdd f = mgr.var(i % 8) ^ mgr.var((i * 3 + 1) % 8);
      f = f | (mgr.var((i + 2) % 8) & mgr.var((i * 5 + 3) % 8));
      (i % 3 == 0 ? keep : temp).push_back(f);
    }
    // `temp` handles die here, leaving dead nodes chained in the
    // subtables for gc() to find.
  }

  // Independent reachability oracle plus a structural signature per root.
  std::set<std::uint32_t> reachable{0};  // terminal is always live
  const auto visit = [&](std::uint32_t node, auto&& self) -> void {
    if (node == 0 || !reachable.insert(node).second) return;
    self(mgr.node_hi(node).node(), self);
    self(mgr.node_lo(node).node(), self);
  };
  for (const Bdd& f : keep) visit(f.edge().node(), visit);
  const auto signature = [&] {
    std::vector<std::uint64_t> sig;
    for (const std::uint32_t n : reachable) {
      if (n == 0) continue;
      sig.push_back((static_cast<std::uint64_t>(mgr.node_var(n)) << 40) ^
                    (static_cast<std::uint64_t>(mgr.node_hi(n).bits()) << 20) ^
                    mgr.node_lo(n).bits());
    }
    return sig;
  };
  const std::vector<std::uint64_t> before = signature();

  mgr.gc();

  EXPECT_TRUE(mgr.check_consistency());
  // Survivors are exactly the reachable set (gc preserves node identity,
  // so the structural signature over those indices is unchanged too).
  EXPECT_EQ(mgr.stats().live_nodes, reachable.size());
  EXPECT_EQ(signature(), before);
}

// A node whose 16-bit reference count saturates is pinned forever:
// ref()/deref() stop touching it, gc() can never reclaim it, and the
// sticky saturated_refs counter names how many such floors exist.
TEST(BddGc, SaturatedNodeSurvivesCollection) {
  Manager mgr(2);
  Bdd f = mgr.var(0) & mgr.var(1);
  const Edge e = f.edge();
  EXPECT_EQ(mgr.stats().saturated_refs, 0u);

  for (int i = 0; i < 70000; ++i) mgr.ref(e);
  EXPECT_EQ(mgr.ref_count(e), kRefSaturated);
  EXPECT_EQ(mgr.stats().saturated_refs, 1u);

  // Saturation is sticky: no amount of deref releases the node...
  for (int i = 0; i < 80000; ++i) mgr.deref(e);
  EXPECT_EQ(mgr.ref_count(e), kRefSaturated);
  f = Bdd();  // ...dropping the handle included.

  mgr.gc();
  EXPECT_TRUE(mgr.check_consistency());
  EXPECT_EQ(mgr.ref_count(e), kRefSaturated);
  EXPECT_EQ(mgr.node_var(e.node()), 0u);
  EXPECT_EQ(mgr.stats().saturated_refs, 1u);

  // reset() discards the whole graph, pinned nodes included.
  mgr.reset();
  EXPECT_EQ(mgr.stats().saturated_refs, 0u);
}

// ----- reset ------------------------------------------------------------------

/// Structural snapshot of a manager: every arena slot (variable, children,
/// reference count, free slots included), the variable order, the footprint
/// gauge and the edge the next allocation gets. Allocates that probe node,
/// so take it last.
std::vector<std::uint64_t> snapshot(Manager& mgr) {
  std::vector<std::uint64_t> out{mgr.arena_size()};
  for (std::uint32_t i = 0; i < mgr.arena_size(); ++i) {
    out.push_back(mgr.node_var(i));
    out.push_back(mgr.node_hi(i).bits());
    out.push_back(mgr.node_lo(i).bits());
    out.push_back(mgr.ref_count(Edge(i, false)));
  }
  for (Var v = 0; v < mgr.num_vars(); ++v) out.push_back(mgr.level_of(v));
  out.push_back(mgr.stats().memory_bytes);
  // A fresh variable's node cannot exist yet, so it takes the next slot:
  // the free list's top, or the end of the arena.
  out.push_back(mgr.var(mgr.new_var()).edge().bits());
  return out;
}

TEST(BddReset, ResetReplayIsByteIdentical) {
  // The build drives both pieces of GC state that reset() must restore.
  // Garbage is made of single dead nodes over live children, so maybe_gc()
  // sees it as dead. Over few live nodes it collects at the initial
  // threshold, which decides the slots of the result kept from that phase;
  // over 2^14 live suffix cubes it collects and raises the threshold.
  // Dropping half the cubes before a last collection leaves a free list.
  const auto build_and_snapshot = [](Manager& mgr) {
    mgr.ensure_vars(15);
    // The cube over variables first..14 whose literals are the bits of m.
    const auto cube = [&mgr](Var first, std::uint32_t m) {
      Bdd f = mgr.one();
      for (Var v = 15; v-- > first;) {
        f = (((m >> (v - first)) & 1) != 0 ? mgr.var(v) : mgr.nvar(v)) & f;
      }
      return f;
    };
    // One new node per ite: x_top ? cubes[a] : cubes[b], dropped at once
    // except for the last.
    const auto churn = [&mgr](const std::vector<Bdd>& cubes, Var tops,
                              std::size_t count) {
      Bdd t;
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t a = i % cubes.size();
        const std::size_t b = (i / cubes.size() + a + 1) % cubes.size();
        t = mgr.var(static_cast<Var>(i % tops)).ite(cubes[a], cubes[b]);
      }
      return t;
    };
    std::vector<Bdd> small;
    for (std::uint32_t m = 0; m < (1u << 7); ++m) small.push_back(cube(8, m));
    const Bdd kept = churn(small, 8, 20000);
    std::vector<Bdd> cubes;
    for (std::uint32_t m = 0; m < (1u << 14); ++m) cubes.push_back(cube(1, m));
    churn(cubes, 1, 40000);
    for (std::size_t i = 0; i < cubes.size(); i += 2) cubes[i] = Bdd();
    mgr.gc();
    return snapshot(mgr);
  };
  Manager mgr;
  const std::vector<std::uint64_t> first = build_and_snapshot(mgr);
  EXPECT_GT(mgr.stats().gc_runs, 1u);
  mgr.reset();
  EXPECT_EQ(mgr.num_vars(), 0u);
  EXPECT_EQ(mgr.live_nodes(), 1u);  // just the terminal
  // Every buffer is back at the constructor's footprint before any replay.
  ASSERT_EQ(mgr.stats().memory_bytes, Manager().stats().memory_bytes);
  // A reset manager replays the build byte-identically to a fresh one --
  // same indices, same free list, same order -- which is what makes a
  // manager pool transparent.
  EXPECT_EQ(build_and_snapshot(mgr), first);
  Manager fresh;
  EXPECT_EQ(build_and_snapshot(fresh), first);
}

TEST(BddReset, ResetClearsGraphButKeepsGovernance) {
  Manager mgr(4);
  const auto budget =
      std::make_shared<util::ResourceBudget>(1u << 20, std::size_t{1} << 30);
  mgr.set_budget(budget);
  { const Bdd f = mgr.var(0) & mgr.var(1); }
  mgr.reset();
  EXPECT_TRUE(mgr.check_consistency());
  EXPECT_EQ(mgr.budget(), budget);  // governance survives the reset
  // The manager is immediately usable.
  mgr.ensure_vars(2);
  const Bdd f = mgr.var(0) | mgr.var(1);
  EXPECT_EQ(f.size(), 3u);
}

}  // namespace
}  // namespace bds::bdd
