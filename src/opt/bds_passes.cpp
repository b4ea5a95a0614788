#include "opt/bds_passes.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <ranges>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "opt/manager_pool.hpp"
#include "opt/registry.hpp"
#include "opt/result_cache.hpp"
#include "sis/factor.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace bds::opt {

namespace {

using bdd::Bdd;
using bdd::Var;
using net::NodeId;

/// Copies a manager-counter list onto an open telemetry span (no-op for an
/// inert span).
void attach_counters(util::TelemetrySpan& span,
                     const util::CounterList& counters) {
  for (const auto& [key, value] : counters) span.count(key, value);
}

/// The per-cone decomposition counters every supernode span carries, in
/// fixed report order.
void attach_decompose_counters(util::TelemetrySpan& span,
                               const core::DecomposeStats& d) {
  span.count("one_dominator", static_cast<double>(d.one_dominator));
  span.count("zero_dominator", static_cast<double>(d.zero_dominator));
  span.count("x_dominator", static_cast<double>(d.x_dominator));
  span.count("functional_mux", static_cast<double>(d.functional_mux));
  span.count("generalized",
             static_cast<double>(d.generalized_and + d.generalized_or +
                                 d.generalized_xnor));
  span.count("shannon", static_cast<double>(d.shannon));
}

/// Starting computed-table size of a supernode's private manager: eight
/// entries per node of its BDD in the partition manager, rounded up to a
/// power of two and kept within [2^8, the global default]. A pure function
/// of the cone, so node/byte-ceiling trips -- and the degradations they
/// cause -- stay deterministic across -j.
std::size_t cone_cache_entries(std::size_t partition_bdd_size) {
  constexpr std::size_t kMin = std::size_t{1} << 8;
  constexpr std::size_t kMax = bdd::Manager::kCacheInitialEntries;
  return std::clamp(std::bit_ceil(8 * partition_bdd_size), kMin, kMax);
}

// ---- budget-degradation fallback -------------------------------------------
//
// When a supernode's BDD work (replay, reorder, decompose) trips the
// resource budget, the supernode is rebuilt by algebraically factoring its
// *original* SOP cone instead (sis::factor -- the same quick-factor the SIS
// baseline and the technology mapper use). The cone interior is the
// supernode driver plus every eliminated node reachable through fanins; kept
// signals (the partition boundary) become kVar leaves over the global signal
// space, so a fallback tree splices into the forest exactly like a
// decomposed one and bds_emit needs no special case.

/// Factors one network node's SOP into `st.forest`. Interior fanins (nodes
/// eliminated by the partition) must already be memoized in `memo`.
core::FactId fallback_factor_node(const net::Network& net, BdsFlowState& st,
                                  NodeId id,
                                  const std::vector<core::FactId>& memo) {
  const net::Node& n = net.node(id);
  if (n.func.is_constant_zero()) return st.forest.const0();
  if (n.func.has_full_cube()) return st.forest.const1();
  const sis::FactoredForm form =
      sis::factor(sis::to_sparse(n.func, std::views::iota(0u)));

  const std::function<core::FactId(std::int32_t)> expand =
      [&](std::int32_t fi) -> core::FactId {
    const sis::FactorNode& fn = form.nodes[static_cast<std::size_t>(fi)];
    switch (fn.kind) {
      case sis::FactorKind::kConst0:
        return st.forest.const0();
      case sis::FactorKind::kConst1:
        return st.forest.const1();
      case sis::FactorKind::kLit: {
        const unsigned pos = sis::lit_signal(fn.literal);
        const NodeId src = n.fanins[pos];
        const core::FactId base = st.part.var_of[src] != core::kNoVar
                                      ? st.forest.mk_var(st.sig_of[src])
                                      : memo[src];
        return sis::lit_negated(fn.literal) ? st.forest.mk_not(base) : base;
      }
      case sis::FactorKind::kAnd:
        return st.forest.mk_and(expand(fn.a), expand(fn.b));
      case sis::FactorKind::kOr:
        return st.forest.mk_or(expand(fn.a), expand(fn.b));
    }
    return core::kNoFact;
  };
  return expand(form.root);
}

/// Builds the fallback factoring tree for the cone rooted at `target` (a
/// supernode driver). Dependency-order expansion with an explicit stack, so
/// the call depth does not grow with the eliminated-chain length. `memo` is
/// shared across supernodes: an eliminated node composed into several
/// degraded supernodes is factored once.
core::FactId fallback_factor_cone(const net::Network& net, BdsFlowState& st,
                                  NodeId target,
                                  std::vector<core::FactId>& memo) {
  std::vector<NodeId> stack{target};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    if (memo[id] != core::kNoFact) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const NodeId f : net.node(id).fanins) {
      // Interior = eliminated by the partition (no variable of its own);
      // anything else is a boundary leaf resolved by fallback_factor_node.
      if (st.part.var_of[f] == core::kNoVar && memo[f] == core::kNoFact) {
        stack.push_back(f);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    memo[id] = fallback_factor_node(net, st, id, memo);
  }
  return memo[target];
}

class BdsPartitionPass final : public Pass {
 public:
  explicit BdsPartitionPass(const std::vector<std::string>& args) {
    validate_args("bds_partition", args, 0, {"-t"}, {});
    opts_.threshold = parse_int_arg(
        "bds_partition", flag_value("bds_partition", args, "-t",
                                    std::to_string(opts_.threshold)));
  }

  std::string_view name() const override { return "bds_partition"; }
  std::string args() const override {
    if (opts_.threshold == core::EliminateOptions{}.threshold) return {};
    return "-t " + std::to_string(opts_.threshold);
  }
  bool modifies_network() const override { return false; }

  void run(net::Network& net, PassContext& ctx) override {
    BdsFlowState& st = ctx.state<BdsFlowState>();
    st.pmgr = std::make_unique<bdd::Manager>();
    st.pmgr->set_budget(ctx.budget());
    try {
      st.part = core::partition_network(net, *st.pmgr, opts_);
    } catch (const BudgetExceeded&) {
      // Even building the initial local BDDs blew the budget (the
      // elimination loop itself degrades internally, setting
      // budget_stopped). Fall back to the trivial partition: one supernode
      // per logic node, no BDDs at all -- downstream passes route every
      // supernode through the algebraic-factoring fallback. The fresh
      // manager carries no budget; it only hands out variables.
      st.pmgr = std::make_unique<bdd::Manager>();
      st.part = core::trivial_partition(net, *st.pmgr);
    }

    // Global signal space: PIs plus supernode outputs.
    st.sig_of.assign(net.raw_size(), 0xffffffffu);
    st.nsigs = 0;
    for (const NodeId pi : net.inputs()) st.sig_of[pi] = st.nsigs++;
    for (const core::Supernode& sn : st.part.supernodes) {
      st.sig_of[sn.id] = st.nsigs++;
    }

    ctx.count("eliminated", static_cast<double>(st.part.eliminated));
    ctx.count("supernodes", static_cast<double>(st.part.supernodes.size()));
    if (st.part.degraded || st.part.budget_stopped) ctx.count("degraded", 1.0);

    // Snapshot span: the partition manager's counters (cache traffic of
    // the elimination phase, peak live nodes and bytes) and the remaining
    // budget headroom. All tick- or op-driven, so deterministic per input.
    if (util::Telemetry* tel = ctx.telemetry()) {
      util::TelemetrySpan span =
          util::TelemetrySpan::open(tel, "manager:partition");
      attach_counters(span, bdd::telemetry_counters(st.pmgr->stats()));
      const auto& budget = ctx.budget();
      if (budget != nullptr && budget->node_limit() > 0) {
        const std::size_t peak = st.pmgr->stats().peak_live_nodes;
        span.count("budget_node_headroom",
                   peak >= budget->node_limit()
                       ? 0.0
                       : static_cast<double>(budget->node_limit() - peak));
      }
    }
  }

 private:
  core::EliminateOptions opts_;
};

class BdsDecomposePass final : public Pass {
 public:
  /// Largest accepted `-j`: the same ceiling as `bdsd -c`.
  static constexpr std::size_t kMaxJobs = 1024;

  explicit BdsDecomposePass(const std::vector<std::string>& args) {
    validate_args(
        "bds_decompose", args, 0, {"-j"},
        {"-noreorder", "-nodom", "-nomux", "-nogen", "-noxdom", "-constrain"});
    reorder_ = !has_flag(args, "-noreorder");
    opts_.use_simple_dominators = !has_flag(args, "-nodom");
    opts_.use_mux = !has_flag(args, "-nomux");
    opts_.use_generalized = !has_flag(args, "-nogen");
    opts_.use_xdom = !has_flag(args, "-noxdom");
    if (has_flag(args, "-constrain")) {
      opts_.dc_minimizer = core::DcMinimizer::kConstrain;
    }
    const std::size_t jobs = parse_size_arg(
        "bds_decompose",
        flag_value("bds_decompose", args, "-j", std::to_string(jobs_)));
    // Every worker count reaches the pool's growth in parallel_for through
    // here -- the `jobs` script parameter, raw scripts and daemon requests
    // alike -- so this is where a runaway count is refused.
    if (jobs > kMaxJobs) {
      throw ScriptError("bds_decompose: -j " + std::to_string(jobs) +
                        " exceeds the limit of " + std::to_string(kMaxJobs) +
                        " workers");
    }
    jobs_ = static_cast<unsigned>(jobs);
  }

  std::string_view name() const override { return "bds_decompose"; }
  std::string args() const override {
    std::string out;
    const auto flag = [&out](const char* f) {
      if (!out.empty()) out += ' ';
      out += f;
    };
    if (!reorder_) flag("-noreorder");
    if (!opts_.use_simple_dominators) flag("-nodom");
    if (!opts_.use_mux) flag("-nomux");
    if (!opts_.use_generalized) flag("-nogen");
    if (!opts_.use_xdom) flag("-noxdom");
    if (opts_.dc_minimizer == core::DcMinimizer::kConstrain) {
      flag("-constrain");
    }
    if (jobs_ != 1) {
      flag("-j");
      out += ' ' + std::to_string(jobs_);
    }
    return out;
  }
  bool modifies_network() const override { return false; }

  // The decompose phase is embarrassingly parallel at the supernode level:
  // every cone is rebuilt in its own compact manager and factored into its
  // own private forest, so the per-cone work shares nothing. Most cones of
  // an arithmetic circuit repeat an earlier cone's function, so each
  // distinct function is decomposed once. The pass runs in three phases:
  //
  //   stage     -- serial, in cone index order. Each cone's variable map is
  //                checked, its image is recorded in the partition manager
  //                (each partition variable relabelled to its input
  //                position) and keyed by the image's digest, and its role
  //                is decided. The first index with a key leads; a later
  //                index with that key follows and is never leased or
  //                decomposed. A leader tries the result cache next. The
  //                partition manager's visit stamps are shared scratch, and
  //                index order makes leadership and the cache's LRU lookups
  //                deterministic. Nothing is leased here.
  //   decompose -- parallel_for over the leaders the cache missed, `jobs`
  //                wide, on the persistent pool (PassContext::thread_pool,
  //                never a pool constructed here). Each body leases a
  //                manager, replays the cone's image into it, sifts,
  //                decomposes and ends the lease. The bodies touch only
  //                their own cone and executor slot: there is no lock.
  //   merge     -- serial, in cone index order: each cone splices its
  //                leader's result (its own when it leads) into the flow
  //                forest, and fresh results are published to the cache,
  //                so the emitted network and the absorbed telemetry are
  //                byte-identical to -j1 at every worker count.
  //
  // A stale partition throws from the stage phase before any lease; a body
  // exception is rethrown by parallel_for once every leader ran.
  void run(net::Network& net, PassContext& ctx) override {
    BdsFlowState& st = ctx.state<BdsFlowState>();
    if (!st.pmgr) {
      throw ScriptError("bds_decompose: no partition; run bds_partition first");
    }
    st.forest = core::FactoringForest();
    st.roots.clear();
    const std::size_t num_supernodes = st.part.supernodes.size();
    st.roots.reserve(num_supernodes);

    constexpr std::size_t kLeads = static_cast<std::size_t>(-1);
    struct Item {
      /// The cone recorded in the partition manager; kept only by a leader
      /// the cache missed, until the decompose phase replays it.
      bdd::ConeImage image;
      std::uint32_t k = 0;
      /// Peak gauges of the cone's manager, captured when its lease ends.
      std::size_t peak_nodes = 0;
      std::size_t peak_bytes = 0;
      /// The cone's decomposition once it has one. Null after the
      /// decompose phase means the budget tripped on this cone (or on its
      /// leader): the merge rebuilds it from its original SOP cone instead.
      std::shared_ptr<const ConeResult> result;
      /// decompose_cache_key of the cone's image; it names the cone in
      /// this run and in the cache.
      std::uint64_t key = 0;
      /// The earlier cone with the same key whose result this one shares,
      /// or kLeads.
      std::size_t leader = kLeads;
      /// Served from the content-addressed result cache: `result` is an
      /// earlier request's decomposition of the same canonical function.
      bool cached = false;
      /// Run by the decompose phase, which wrote its supernode span.
      bool decomposed = false;
    };

    util::Telemetry* tel = ctx.telemetry();
    ResultCache* cache = ctx.result_cache().get();
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::size_t cache_skipped = 0;
    std::size_t cone_repeats = 0;

    std::vector<Item> items(num_supernodes);

    // One span covers staging and decomposition. Per-cone telemetry goes
    // into one private recorder per cone, absorbed in index order
    // afterwards, so the event stream is byte-identical at every -j
    // (execution-dependent values ride in the exec bucket).
    util::TelemetrySpan par_span =
        util::TelemetrySpan::open(tel, "stage:pipeline");
    std::vector<util::TelemetryRecorder> recorders;
    if (tel != nullptr) {
      const std::string base_path = tel->current_path();
      const std::uint32_t base_depth = tel->next_depth();
      recorders.reserve(num_supernodes);
      for (std::size_t s = 0; s < num_supernodes; ++s) {
        recorders.emplace_back(base_path, base_depth);
      }
    }

    // ---- stage: serial, in cone index order. `position` maps a partition
    // variable to the staged cone's input position (kNoVar elsewhere: an
    // input absent from the partition map must be diagnosed, not silently
    // aliased onto variable 0); each cone resets the entries it set.
    std::vector<Var> position(st.pmgr->num_vars(), core::kNoVar);
    std::unordered_map<std::uint64_t, std::size_t> leader_of;
    leader_of.reserve(num_supernodes);
    bdd::ConeImage image;  // scratch: a leader keeps a copy
    std::vector<std::size_t> leaders;  ///< cones to decompose, index order
    for (std::size_t s = 0; s < num_supernodes; ++s) {
      const core::Supernode& sn = st.part.supernodes[s];
      Item& item = items[s];
      item.k = static_cast<std::uint32_t>(sn.inputs.size());
      if (st.part.degraded) {
        // Trivial partition: the supernode `func` handles are invalid by
        // contract. Every cone goes straight to the fallback path.
        if (cache != nullptr) ++cache_skipped;
        continue;
      }
      for (std::uint32_t i = 0; i < item.k; ++i) {
        const net::NodeId input = sn.inputs[i];
        const Var pvar = input < st.part.var_of.size()
                             ? st.part.var_of[input]
                             : core::kNoVar;
        if (pvar == core::kNoVar) {
          throw ScriptError("bds_decompose: supernode '" +
                            net.node(sn.id).name + "' input '" +
                            net.node(input).name +
                            "' has no partition variable (stale "
                            "partition?)");
        }
        position[pvar] = i;
      }
      // The inputs are the support in variable order and the partition
      // manager never reorders, so relabelling each variable to its
      // position records the DAG a compact identity-ordered manager
      // holds -- and its digest.
      st.pmgr->record(sn.func.edge(), position, image);
      for (const net::NodeId input : sn.inputs) {
        position[st.part.var_of[input]] = core::kNoVar;
      }
      if (std::ranges::find(image.nodes, core::kNoVar,
                            &bdd::ConeImage::Node::var) !=
          image.nodes.end()) {
        throw ScriptError("bds_decompose: supernode '" +
                          net.node(sn.id).name +
                          "' depends on a signal missing from its input "
                          "list");
      }
      item.key = decompose_cache_key(core::canonical_function_hash(image),
                                     opts_, reorder_, item.k);
      const auto [it, leads] = leader_of.try_emplace(item.key, s);
      if (!leads) {
        item.leader = it->second;
        ++cone_repeats;
        continue;
      }
      if (cache != nullptr) {
        item.result = cache->lookup(item.key);
        item.cached = item.result != nullptr;
        ++(item.cached ? cache_hits : cache_misses);
      }
      if (!item.cached) {
        // A copy is allocated at its exact size; the moved scratch
        // would carry its growth slack until the replay.
        item.image = image;
        leaders.push_back(s);
      }
    }

    // Rebuilds a leader in a leased manager, then reorders and decomposes
    // it, recording epochs into `rec`, and ends the lease. "BDD mapping":
    // the compact manager holds only the cone's variables (Section IV-B),
    // its computed table sized from the cone. The node/byte ceilings are
    // per manager, and each private manager performs the same operation
    // sequence at any -j, so budget trips -- and therefore degradations --
    // are deterministic across -j. The handle is declared after the lease:
    // it has to die before the manager that owns its nodes.
    const auto decompose = [&](Item& item, util::TelemetryRecorder* rec) {
      ManagerPool::Lease lease = ManagerPool::global().acquire(
          item.k, cone_cache_entries(item.image.nodes.size() + 1));
      bdd::Manager& mgr = *lease;
      mgr.set_budget(ctx.budget());
      Bdd func;
      try {
        func = mgr.wrap(mgr.replay(item.image));
      } catch (const BudgetExceeded&) {
      }
      item.image = bdd::ConeImage();
      if (!func.valid()) return;  // the replay tripped: no result
      try {
        if (reorder_ && item.k > 1) {
          // Manager-op epoch: counters accrued by reordering alone,
          // observed as a ManagerStats delta at the span boundary (the
          // manager itself carries no telemetry branches).
          bdd::ManagerStats before;
          util::TelemetrySpan epoch;
          if (rec != nullptr) {
            before = mgr.stats();
            epoch = util::TelemetrySpan::open(rec, "epoch:reorder");
          }
          mgr.reorder_sift();
          if (epoch.active()) {
            attach_counters(epoch,
                            bdd::telemetry_counters(mgr.stats(), &before));
          }
        }
        bdd::ManagerStats before;
        util::TelemetrySpan epoch;
        if (rec != nullptr) {
          before = mgr.stats();
          epoch = util::TelemetrySpan::open(rec, "epoch:decompose");
        }
        auto result = std::make_shared<ConeResult>();
        core::Decomposer dec(mgr, result->forest, opts_);
        result->root = dec.decompose(func);
        result->stats = dec.stats();
        item.result = std::move(result);
        if (epoch.active()) {
          attach_counters(epoch, bdd::telemetry_counters(mgr.stats(), &before));
        }
      } catch (const BudgetExceeded&) {
        // The cone degrades: it is left without a result.
      }
      item.peak_nodes = mgr.stats().peak_live_nodes;
      item.peak_bytes = mgr.stats().peak_memory_bytes;
    };

    // The supernode span of cone `s`: its arity, its decomposition
    // counters (a follower's are its leader's) and how it got its result.
    const auto cone_counters = [&](util::TelemetrySpan& span, std::size_t s) {
      const Item& item = items[s];
      span.count("inputs", item.k);
      attach_decompose_counters(span, item.result != nullptr
                                          ? item.result->stats
                                          : core::DecomposeStats());
      if (item.result == nullptr) span.count("degraded", 1.0);
      if (item.cached) span.count("cache_hit", 1.0);
      if (item.leader != kLeads) span.count("repeat", 1.0);
    };

    // ---- decompose: one body per leader. Executor slots are loop-local
    // identities, so per-slot accounting is race-free even when the pool
    // runs loops of concurrent pipelines.
    const unsigned slots = util::ThreadPool::resolve(jobs_);
    std::vector<double> busy_seconds(slots, 0.0);
    std::vector<std::size_t> cones_run(slots, 0);
    ctx.thread_pool().parallel_for(
        leaders.size(), slots, [&](std::size_t j, unsigned slot) {
          const std::size_t s = leaders[j];
          Item& item = items[s];
          util::TelemetryRecorder* rec =
              recorders.empty() ? nullptr : &recorders[s];
          util::TelemetrySpan span;
          if (rec != nullptr) {
            span = util::TelemetrySpan::open(
                rec, "supernode[" + std::to_string(s) + "]");
          }
          Timer timer;
          decompose(item, rec);
          item.decomposed = true;
          busy_seconds[slot] += timer.seconds();
          ++cones_run[slot];
          if (span.active()) {
            cone_counters(span, s);
            span.attr("executor", std::to_string(slot));
            span.count("busy_seconds", timer.seconds());
          }
        });

    // Every leader is done: followers take their leader's result, and the
    // cones the decompose phase did not run get their supernode spans, in
    // index order.
    for (std::size_t s = 0; s < num_supernodes; ++s) {
      Item& item = items[s];
      if (item.leader != kLeads) item.result = items[item.leader].result;
      if (!recorders.empty() && !item.decomposed) {
        util::TelemetrySpan span = util::TelemetrySpan::open(
            &recorders[s], "supernode[" + std::to_string(s) + "]");
        cone_counters(span, s);
      }
    }

    // Deterministic merge of the per-cone telemetry, in index order, while
    // the parent stage:pipeline span is still open.
    for (util::TelemetryRecorder& rec : recorders) {
      tel->absorb(std::move(rec));
    }
    if (par_span.active()) {
      par_span.count("supernodes", static_cast<double>(num_supernodes));
      par_span.count("workers", static_cast<double>(slots));
      for (unsigned w = 0; w < slots; ++w) {
        par_span.count("busy_seconds[" + std::to_string(w) + "]",
                       busy_seconds[w]);
      }
    }
    par_span.close();

    // ---- merge: serial, in cone index order. Degraded items are rebuilt
    // by algebraic factoring here, still in index order, so the emitted
    // network is bit-identical to -j1 whenever the trips themselves are
    // deterministic (node/byte ceilings; a deadline is inherently not).
    std::size_t degraded_count = 0;
    util::TelemetrySpan merge_span =
        util::TelemetrySpan::open(tel, "stage:merge");
    std::vector<core::FactId> fallback_memo(net.raw_size(), core::kNoFact);
    for (std::size_t s = 0; s < num_supernodes; ++s) {
      const core::Supernode& sn = st.part.supernodes[s];
      Item& item = items[s];
      if (item.result == nullptr) {
        ++degraded_count;
        st.roots.push_back(fallback_factor_cone(net, st, sn.id,
                                                fallback_memo));
      } else {
        const ConeResult& r = *item.result;
        st.decompose.one_dominator += r.stats.one_dominator;
        st.decompose.zero_dominator += r.stats.zero_dominator;
        st.decompose.x_dominator += r.stats.x_dominator;
        st.decompose.functional_mux += r.stats.functional_mux;
        st.decompose.generalized_and += r.stats.generalized_and;
        st.decompose.generalized_or += r.stats.generalized_or;
        st.decompose.generalized_xnor += r.stats.generalized_xnor;
        st.decompose.shannon += r.stats.shannon;
        // Publish fresh decompositions (leaders only: a follower's result
        // is its leader's); inserting serially in index order keeps the
        // cache's LRU state deterministic per request stream.
        if (cache != nullptr && item.decomposed) {
          cache->insert(item.key, item.result);
        }
        std::vector<core::FactId> leaf_map(item.k);
        for (std::uint32_t i = 0; i < item.k; ++i) {
          leaf_map[i] = st.forest.mk_var(st.sig_of[sn.inputs[i]]);
        }
        st.roots.push_back(r.forest.copy_into(st.forest, r.root, leaf_map));
      }
      st.peak_local_nodes = std::max(st.peak_local_nodes, item.peak_nodes);
      st.peak_local_bytes = std::max(st.peak_local_bytes, item.peak_bytes);
      item.result.reset();
    }
    if (merge_span.active()) {
      merge_span.count("fallbacks", static_cast<double>(degraded_count));
    }
    merge_span.close();
    if (degraded_count > 0) {
      ctx.count("degraded", static_cast<double>(degraded_count));
    }

    ctx.count("dominators", static_cast<double>(st.decompose.one_dominator +
                                                st.decompose.zero_dominator +
                                                st.decompose.x_dominator));
    ctx.count("mux", static_cast<double>(st.decompose.functional_mux));
    ctx.count("generalized",
              static_cast<double>(st.decompose.generalized_and +
                                  st.decompose.generalized_or +
                                  st.decompose.generalized_xnor));
    ctx.count("shannon", static_cast<double>(st.decompose.shannon));
    ctx.count("cone_repeats", static_cast<double>(cone_repeats));
    if (cache != nullptr) {
      // Leaders only: a follower never reaches the cache. hits + misses +
      // skipped + cone_repeats == supernodes, exactly: cones of a trivial
      // partition never reach lookup and are counted skipped, not silently
      // dropped from the denominator.
      ctx.count("cache_hits", static_cast<double>(cache_hits));
      ctx.count("cache_misses", static_cast<double>(cache_misses));
      ctx.count("cache_skipped", static_cast<double>(cache_skipped));
    }
    ctx.count("workers", static_cast<double>(slots));
    // Execution-dependent load-balance facts (exec telemetry bucket):
    // which slots actually decomposed a cone, and the busy-time spread
    // across the ones that did. A slot that never decomposed a cone is
    // reported idle rather than dragging par_seconds_min to a meaningless 0.
    double busy_max = 0.0;
    double busy_min = 0.0;
    std::size_t active = 0;
    std::size_t idle = 0;
    for (unsigned w = 0; w < slots; ++w) {
      if (cones_run[w] == 0) {
        ++idle;
        continue;
      }
      busy_max = std::max(busy_max, busy_seconds[w]);
      busy_min = active == 0 ? busy_seconds[w]
                             : std::min(busy_min, busy_seconds[w]);
      ++active;
    }
    if (active > 0) {
      ctx.count("par_seconds_max", busy_max);
      ctx.count("par_seconds_min", busy_min);
    }
    ctx.count("idle_workers", static_cast<double>(idle));
  }

 private:
  core::DecomposeOptions opts_;
  bool reorder_ = true;  ///< sift each cone before decomposing it
  unsigned jobs_ = 1;    ///< decompose workers; 0 = hardware concurrency
};

class BdsSharingPass final : public Pass {
 public:
  std::string_view name() const override { return "bds_sharing"; }
  bool modifies_network() const override { return false; }

  void run(net::Network&, PassContext& ctx) override {
    BdsFlowState& st = ctx.state<BdsFlowState>();
    if (!st.pmgr) {
      throw ScriptError("bds_sharing: no partition; run bds_partition first");
    }
    if (st.roots.empty()) return;
    // Pooled, like the per-supernode managers: the sharing pass runs once
    // per request, so under the daemon its arena is recycled every time.
    ManagerPool::Lease lease = ManagerPool::global().acquire(
        static_cast<std::uint32_t>(st.nsigs));
    bdd::Manager& smgr = *lease;
    smgr.set_budget(ctx.budget());
    try {
      st.sharing = core::extract_sharing(st.forest, st.roots, smgr);
    } catch (const BudgetExceeded&) {
      // Sharing extraction rewrites roots in place one at a time and each
      // completed rewrite is function-preserving, so stopping part-way is
      // safe: the already-merged trees stay merged, the rest stay as the
      // decomposer built them.
      ctx.count("degraded", 1.0);
    }
    st.peak_sharing_nodes = smgr.stats().peak_live_nodes;
    st.peak_sharing_bytes = smgr.stats().peak_memory_bytes;
    ctx.count("merged", static_cast<double>(st.sharing.merged));
    ctx.count("merged_neg", static_cast<double>(st.sharing.merged_negated));
    // Snapshot span: the sharing manager's counters for this phase.
    if (util::Telemetry* tel = ctx.telemetry()) {
      util::TelemetrySpan span =
          util::TelemetrySpan::open(tel, "manager:sharing");
      attach_counters(span, bdd::telemetry_counters(smgr.stats()));
    }
  }
};

class BdsBalancePass final : public Pass {
 public:
  std::string_view name() const override { return "bds_balance"; }
  bool modifies_network() const override { return false; }

  void run(net::Network&, PassContext& ctx) override {
    BdsFlowState& st = ctx.state<BdsFlowState>();
    if (st.roots.empty()) return;
    st.balance = core::balance_forest(st.forest, st.roots);
    ctx.count("chains", static_cast<double>(st.balance.chains_rebalanced));
  }
};

class BdsEmitPass final : public Pass {
 public:
  std::string_view name() const override { return "bds_emit"; }

  void run(net::Network& net, PassContext& ctx) override {
    BdsFlowState& st = ctx.state<BdsFlowState>();
    if (!st.pmgr) {
      throw ScriptError("bds_emit: no partition; run bds_partition first");
    }
    net::Network out = core::emit_gate_network(
        net, st.forest, st.roots, st.part, st.sig_of, st.nsigs, &st.emit);
    ctx.count("po_inverters", static_cast<double>(st.emit.po_inverters));
    // The supernode partition refers to ids of the pre-emit network; it is
    // consumed here (a later bds_emit without a fresh partition is an error).
    st.peak_partition_nodes =
        std::max(st.peak_partition_nodes, st.pmgr->stats().peak_live_nodes);
    st.peak_partition_bytes =
        std::max(st.peak_partition_bytes, st.pmgr->stats().peak_memory_bytes);
    st.part = {};  // drops the supernode Bdd handles before their manager
    st.pmgr.reset();
    net = std::move(out);
  }
};

}  // namespace

void register_bds_passes(PassRegistry& registry) {
  registry.add(
      "bds_partition",
      "bds_partition [-t N]: BDD-cost eliminate; builds the supernode "
      "partition (blackboard)",
      [](const std::vector<std::string>& args) {
        return std::make_unique<BdsPartitionPass>(args);
      });
  registry.add(
      "bds_decompose",
      "bds_decompose [-noreorder] [-nodom] [-nomux] [-nogen] [-noxdom] "
      "[-constrain] [-j N]: per-supernode BDD decomposition into "
      "factoring trees (a staged for-each over the cones on N executors; "
      "-noreorder skips sifting)",
      [](const std::vector<std::string>& args) {
        return std::make_unique<BdsDecomposePass>(args);
      });
  registry.add("bds_sharing",
               "canonical sharing extraction across factoring trees",
               [](const std::vector<std::string>& args) {
                 validate_args("bds_sharing", args, 0, {}, {});
                 return std::make_unique<BdsSharingPass>();
               });
  registry.add("bds_balance",
               "depth-balance associative chains in the factoring trees",
               [](const std::vector<std::string>& args) {
                 validate_args("bds_balance", args, 0, {}, {});
                 return std::make_unique<BdsBalancePass>();
               });
  registry.add("bds_emit",
               "construct the simple-gate network from the factoring forest",
               [](const std::vector<std::string>& args) {
                 validate_args("bds_emit", args, 0, {}, {});
                 return std::make_unique<BdsEmitPass>();
               });
}

}  // namespace bds::opt
