#include "opt/bds_passes.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/dominators.hpp"
#include "opt/manager_pool.hpp"
#include "opt/registry.hpp"
#include "opt/result_cache.hpp"
#include "sis/factor.hpp"
#include "util/mpmc_queue.hpp"
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

/// The per-work-item decomposition counters every supernode (or split half)
/// span carries, in fixed report order.
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

// ---- information-measure variable ordering ---------------------------------
//
// The alternative to Rudell sifting from Popel, "Towards Efficient
// Calculation of Information Measures for Reordering of BDDs": rank each
// variable by the information it reveals about the function,
//
//   I(v) = H(p) - [H(p|v=0) + H(p|v=1)] / 2
//
// where p is the function's minterm density, p|v=c the density of the
// cofactor, and H the binary entropy. Variables are installed top-down in
// decreasing-gain order (ties broken by variable index), so the ordering
// is a pure function of the BDD -- deterministic across runs and -j
// levels, unlike greedy sifting it needs no trial swaps.

/// The reordering strategy bds_decompose applies to each supernode BDD
/// before decomposition (`-reorder sift|info|none`; `-noreorder` is the
/// legacy alias for none).
enum class ReorderMode : std::uint8_t { kNone = 0, kSift = 1, kInfo = 2 };

double binary_entropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

/// Computes the decreasing-information-gain variable order of `f` and
/// installs it. Gains use scaled sat counts over all `nvars` variables;
/// a cofactor is independent of the cofactored variable, so its density
/// over the same space is exactly the conditional probability.
void reorder_by_information_gain(bdd::Manager& mgr, bdd::Edge f) {
  const std::uint32_t nvars = mgr.num_vars();
  const double total = std::ldexp(1.0, static_cast<int>(nvars));
  const double h = binary_entropy(mgr.sat_count(f, nvars) / total);
  std::vector<std::pair<double, Var>> gain;
  gain.reserve(nvars);
  for (Var v = 0; v < nvars; ++v) {
    const double h0 =
        binary_entropy(mgr.sat_count(mgr.cofactor(f, v, false), nvars) / total);
    const double h1 =
        binary_entropy(mgr.sat_count(mgr.cofactor(f, v, true), nvars) / total);
    gain.emplace_back(h - 0.5 * (h0 + h1), v);
  }
  // stable_sort on strictly-greater keeps equal gains in variable order.
  std::stable_sort(gain.begin(), gain.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<Var> order;
  order.reserve(nvars);
  for (const auto& [g, v] : gain) order.push_back(v);
  mgr.set_order(order);
}

// ---- budget-degradation fallback -------------------------------------------
//
// When a supernode's BDD work (transfer, reorder, decompose) trips the
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
  sis::SparseSop sparse;
  for (const sop::Cube& c : n.func.cubes()) {
    sis::SparseCube sc;
    for (unsigned i = 0; i < c.num_vars(); ++i) {
      const sop::Literal l = c.get(i);
      if (l == sop::Literal::kAbsent) continue;
      sc.push_back(sis::lit(i, l == sop::Literal::kNeg));
    }
    std::sort(sc.begin(), sc.end());
    sparse.cubes.push_back(std::move(sc));
  }
  sparse.normalize();
  const sis::FactoredForm form = sis::factor(sparse);

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
    validate_args("bds_partition", args, 0, {"-t", "-max_bdd", "-passes"},
                  {});
    opts_.threshold = parse_int_arg(
        "bds_partition", flag_value("bds_partition", args, "-t",
                                    std::to_string(opts_.threshold)));
    opts_.max_bdd = parse_size_arg(
        "bds_partition", flag_value("bds_partition", args, "-max_bdd",
                                    std::to_string(opts_.max_bdd)));
    opts_.max_passes = static_cast<unsigned>(parse_size_arg(
        "bds_partition", flag_value("bds_partition", args, "-passes",
                                    std::to_string(opts_.max_passes))));
  }

  std::string_view name() const override { return "bds_partition"; }
  std::string args() const override {
    std::string out;
    const core::EliminateOptions defaults;
    if (opts_.threshold != defaults.threshold) {
      out += "-t " + std::to_string(opts_.threshold);
    }
    if (opts_.max_bdd != defaults.max_bdd) {
      if (!out.empty()) out += ' ';
      out += "-max_bdd " + std::to_string(opts_.max_bdd);
    }
    if (opts_.max_passes != defaults.max_passes) {
      if (!out.empty()) out += ' ';
      out += "-passes " + std::to_string(opts_.max_passes);
    }
    return out;
  }
  bool modifies_network() const override { return false; }

  void run(net::Network& net, PassContext& ctx) override {
    BdsFlowState& st = ctx.state<BdsFlowState>();
    st.pmgr = std::make_unique<bdd::Manager>();
    st.pmgr->set_budget(ctx.budget());
    // Low-frequency live-node/byte watermarks, sampled on the budget's
    // amortized tick (only fires while a budget is installed).
    util::GaugeSampler gauge;
    if (ctx.telemetry() != nullptr) st.pmgr->set_gauge_sampler(&gauge);
    try {
      st.part = core::partition_network(net, *st.pmgr, opts_);
    } catch (const BudgetExceeded& e) {
      // Cancellation unwinds; only resource exhaustion degrades.
      if (e.resource() == BudgetExceeded::Resource::kCancelled) throw;
      // Even building the initial local BDDs blew the budget (the
      // elimination loop itself degrades internally, setting
      // budget_stopped). Fall back to the trivial partition: one supernode
      // per logic node, no BDDs at all -- downstream passes route every
      // supernode through the algebraic-factoring fallback. The fresh
      // manager carries no budget; it only hands out variables.
      st.pmgr = std::make_unique<bdd::Manager>();
      st.part = core::trivial_partition(net, *st.pmgr);
    }
    // The sampler is a stack local: detach before it goes out of scope
    // (the manager outlives this pass on the blackboard).
    st.pmgr->set_gauge_sampler(nullptr);

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
    // the elimination phase), the sampled watermarks, and the remaining
    // budget headroom. All tick- or op-driven, so deterministic per input.
    if (util::Telemetry* tel = ctx.telemetry()) {
      util::TelemetrySpan span =
          util::TelemetrySpan::open(tel, "manager:partition");
      attach_counters(span, bdd::telemetry_counters(st.pmgr->stats()));
      span.count("gauge_samples", static_cast<double>(gauge.samples));
      if (gauge.samples > 0) {
        span.count("gauge_live_nodes_max",
                   static_cast<double>(gauge.live_nodes_max));
        span.count("gauge_memory_bytes_max",
                   static_cast<double>(gauge.memory_bytes_max));
      }
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
  explicit BdsDecomposePass(const std::vector<std::string>& args) {
    validate_args(
        "bds_decompose", args, 0, {"-max_cuts", "-j", "-split", "-reorder"},
        {"-noreorder", "-nodom", "-nomux", "-nogen", "-noxdom", "-constrain"});
    const std::string mode =
        flag_value("bds_decompose", args, "-reorder",
                   has_flag(args, "-noreorder") ? "none" : "sift");
    if (mode == "sift") {
      reorder_ = ReorderMode::kSift;
    } else if (mode == "info") {
      reorder_ = ReorderMode::kInfo;
    } else if (mode == "none") {
      reorder_ = ReorderMode::kNone;
    } else {
      throw ScriptError("bds_decompose: -reorder must be sift, info or none "
                        "(got '" + mode + "')");
    }
    opts_.use_simple_dominators = !has_flag(args, "-nodom");
    opts_.use_mux = !has_flag(args, "-nomux");
    opts_.use_generalized = !has_flag(args, "-nogen");
    opts_.use_xdom = !has_flag(args, "-noxdom");
    if (has_flag(args, "-constrain")) {
      opts_.dc_minimizer = core::DcMinimizer::kConstrain;
    }
    opts_.max_cuts = parse_size_arg(
        "bds_decompose", flag_value("bds_decompose", args, "-max_cuts",
                                    std::to_string(opts_.max_cuts)));
    split_ = parse_size_arg(
        "bds_decompose",
        flag_value("bds_decompose", args, "-split", std::to_string(split_)));
    jobs_ = static_cast<unsigned>(parse_size_arg(
        "bds_decompose",
        flag_value("bds_decompose", args, "-j", std::to_string(jobs_))));
  }

  std::string_view name() const override { return "bds_decompose"; }
  std::string args() const override {
    std::string out;
    const auto flag = [&out](const char* f) {
      if (!out.empty()) out += ' ';
      out += f;
    };
    if (reorder_ == ReorderMode::kNone) flag("-noreorder");
    if (reorder_ == ReorderMode::kInfo) {
      if (!out.empty()) out += ' ';
      out += "-reorder info";
    }
    if (!opts_.use_simple_dominators) flag("-nodom");
    if (!opts_.use_mux) flag("-nomux");
    if (!opts_.use_generalized) flag("-nogen");
    if (!opts_.use_xdom) flag("-noxdom");
    if (opts_.dc_minimizer == core::DcMinimizer::kConstrain) {
      flag("-constrain");
    }
    const core::DecomposeOptions defaults;
    if (opts_.max_cuts != defaults.max_cuts) {
      if (!out.empty()) out += ' ';
      out += "-max_cuts " + std::to_string(opts_.max_cuts);
    }
    if (split_ != 0) {
      if (!out.empty()) out += ' ';
      out += "-split " + std::to_string(split_);
    }
    if (jobs_ != 1) {
      if (!out.empty()) out += ' ';
      out += "-j " + std::to_string(jobs_);
    }
    return out;
  }
  bool modifies_network() const override { return false; }

  // The decompose phase is embarrassingly parallel at the supernode level:
  // every supernode is rebuilt in its own compact manager and factored into
  // its own private forest, so the per-supernode work shares nothing. It
  // used to run as three barriered stages (transfer all, then parallel_for
  // all, then merge all); it now runs as an overlapped producer/consumer
  // pipeline:
  //
  //   producer  -- the calling thread streams the "BDD mapping" transfers
  //                out of the shared partition manager (transfer_to mutates
  //                the *source* manager's visit stamps and scratch, so
  //                staging cannot overlap itself) plus the result-cache
  //                lookup, pushing each ready supernode into a bounded MPMC
  //                queue while earlier supernodes already decompose;
  //   consumers -- `jobs - 1` executors submitted to the persistent pool
  //                (PassContext::thread_pool -- never a pool constructed
  //                here) pop, reorder and decompose; the producer joins
  //                them once staging ends. A supernode whose transferred
  //                BDD reaches `-split N` nodes is split at its most
  //                balanced conjunctive generalized-dominator cut
  //                (core::find_balanced_split) into two independently
  //                decomposable halves: the splitter keeps one and offers
  //                the other to the queue for an idle executor to steal.
  //   merge     -- serial, in supernode index order: split halves are
  //                recombined as a single AND (the Lemma 1 conjunction the
  //                cut guarantees), so the emitted network and the absorbed
  //                telemetry are byte-identical to -j1 at every worker
  //                count. Split decisions are pure functions of the BDD
  //                (size threshold + deterministic cut scan in the identity
  //                variable order the cache key is computed in), never of
  //                timing or thread count.
  //
  // Deadlock freedom: the producer is the only blocking pusher; consumers
  // re-offering split halves use try_push and run the half inline when the
  // queue is full, so capacity pressure always drains. Termination: tasks
  // in flight are counted (`remaining`); the queue closes when staging is
  // done and the count hits zero, which pops every consumer out of its
  // drain loop.
  void run(net::Network& net, PassContext& ctx) override {
    BdsFlowState& st = ctx.state<BdsFlowState>();
    if (!st.pmgr) {
      throw ScriptError("bds_decompose: no partition; run bds_partition first");
    }
    st.forest = core::FactoringForest();
    st.roots.clear();
    const std::size_t num_supernodes = st.part.supernodes.size();
    st.roots.reserve(num_supernodes);

    // Per-supernode work unit. `func` must be declared after `mgr` (and
    // each half's function after its manager): the handle has to die before
    // the manager that owns its nodes. Managers are pool leases, not fresh
    // constructions -- recycled arenas skip the allocation cost a
    // long-lived daemon would otherwise pay per cone. A lease ends as soon
    // as its forest is built (end_lease), so the merge reads only forests
    // and the live managers are bounded by the executor slots plus the
    // queue, not by the supernode count.
    struct Item {
      ManagerPool::Lease mgr;
      Bdd func;
      std::uint32_t k = 0;
      /// Starting computed-table size of this cone's managers (split
      /// halves inherit it); see cone_cache_entries.
      std::size_t cache_entries = 0;
      /// Peak gauges of the item's managers -- [0] the whole supernode,
      /// [1 + half] a split half -- captured when each lease ends.
      std::size_t peak_nodes[3] = {0, 0, 0};
      std::size_t peak_bytes[3] = {0, 0, 0};
      core::FactoringForest forest;
      core::FactId root = core::kNoFact;
      core::DecomposeStats stats;
      /// Budget tripped on this supernode: the merge rebuilds it from its
      /// original SOP cone instead of the (abandoned) BDD decomposition.
      bool degraded = false;
      /// Served from the content-addressed result cache: forest/root/stats
      /// were decoded from an earlier request's decomposition of the same
      /// canonical function, and no task is ever issued for this item.
      bool cached = false;
      std::uint64_t cache_key = 0;
      /// Split at a generalized-dominator cut into two independently
      /// decomposable halves (divisor in half 0, quotient in half 1),
      /// recombined as a single AND at merge.
      bool split = false;
      unsigned split_slot = 0;  ///< executor slot that performed the split
      ManagerPool::Lease sub_mgr[2];
      Bdd sub_func[2];
      core::FactoringForest sub_forest[2];
      core::FactId sub_root[2] = {core::kNoFact, core::kNoFact};
      core::DecomposeStats sub_stats[2];
      /// A half tripped the budget: the whole item falls back (a lone half
      /// means nothing un-recombined). Atomic because both halves may trip
      /// concurrently on different executors.
      std::atomic<bool> sub_failed{false};
    };

    util::Telemetry* tel = ctx.telemetry();
    ResultCache* cache = ctx.result_cache().get();
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::size_t cache_skipped = 0;

    // Executor slots of this pass invocation: slot 0 is the calling thread
    // (producer first, consumer afterwards), slots 1..N-1 are consumer jobs
    // submitted to the persistent pool. Slots are pass-local identities --
    // one job each -- so per-slot accounting is race-free even when the
    // pool interleaves jobs from concurrent pipelines.
    const unsigned slots = util::ThreadPool::resolve(jobs_);
    util::ThreadPool& pool = ctx.thread_pool();
    pool.ensure_workers(slots);

    std::vector<Item> items(num_supernodes);
    std::vector<double> busy_seconds(slots, 0.0);
    std::vector<std::size_t> tasks_run(slots, 0);
    std::atomic<std::size_t> splits{0};
    std::atomic<std::size_t> steals{0};

    // One span covers the whole overlapped phase (staging, decomposition
    // and stealing all happen under it). Worker-side telemetry goes into
    // private per-task recorders -- three per supernode: the supernode
    // itself and its two potential halves -- absorbed in index order after
    // the pipeline drains, so the event stream is byte-identical at every
    // -j (execution-dependent values ride in the exec bucket).
    util::TelemetrySpan par_span =
        util::TelemetrySpan::open(tel, "stage:pipeline");
    std::vector<util::TelemetryRecorder> recorders;
    if (tel != nullptr) {
      const std::string base_path = tel->current_path();
      const std::uint32_t base_depth = tel->next_depth();
      recorders.reserve(num_supernodes * 3);
      for (std::size_t s = 0; s < num_supernodes * 3; ++s) {
        recorders.emplace_back(base_path, base_depth);
      }
    }

    /// One task: a whole supernode (`sub < 0`) or one half of a split one.
    struct Task {
      std::size_t item = 0;
      int sub = -1;
    };
    util::MpmcQueue<Task> queue(std::max<std::size_t>(slots * 2, 4));
    std::atomic<std::size_t> remaining{0};  ///< tasks issued, not yet retired
    std::atomic<bool> staging_done{false};
    std::atomic<bool> aborted{false};
    std::mutex error_mu;
    std::exception_ptr first_error;

    // A task (or staging itself) threw something no task-level fallback
    // handles -- budget cancellation, a stale-partition ScriptError,
    // bad_alloc. Remember the first, close the queue so every parked
    // participant wakes, and let the leftover tasks retire as no-ops; the
    // pass rethrows once the pipeline is fully unwound.
    const auto record_error = [&](std::exception_ptr e) {
      {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::move(e);
      }
      aborted.store(true);
      queue.close();
    };
    const auto finish_task = [&] {
      if (remaining.fetch_sub(1) == 1 && staging_done.load()) queue.close();
    };

    // Reorder + decompose one (manager, function) pair into (forest, root,
    // stats), recording epochs into `rec`. Returns false -- outputs reset
    // -- when the budget tripped short of cancellation.
    const auto decompose_one =
        [&](bdd::Manager& mgr, const Bdd& func, std::uint32_t k,
            core::FactoringForest& forest, core::FactId& root,
            core::DecomposeStats& stats, util::TelemetryRecorder* rec) {
          try {
            if (reorder_ != ReorderMode::kNone && k > 1) {
              // Manager-op epoch: counters accrued by reordering alone,
              // observed as a ManagerStats delta at the span boundary (the
              // manager itself carries no telemetry branches).
              bdd::ManagerStats before;
              util::TelemetrySpan epoch;
              if (rec != nullptr) {
                before = mgr.stats();
                epoch = util::TelemetrySpan::open(rec, "epoch:reorder");
              }
              if (reorder_ == ReorderMode::kInfo) {
                reorder_by_information_gain(mgr, func.edge());
              } else {
                mgr.reorder_sift();
              }
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
            core::Decomposer dec(mgr, forest, opts_);
            root = dec.decompose(func);
            stats = dec.stats();
            if (epoch.active()) {
              attach_counters(epoch,
                              bdd::telemetry_counters(mgr.stats(), &before));
            }
            return true;
          } catch (const BudgetExceeded& e) {
            // Cancellation unwinds the whole pipeline; only resource
            // exhaustion degrades. Discard whatever was half-built.
            if (e.resource() == BudgetExceeded::Resource::kCancelled) throw;
            forest = core::FactoringForest();
            root = core::kNoFact;
            stats = core::DecomposeStats();
            return false;
          }
        };

    // Ends one of an item's leases (`which`: 0 whole, 1 + half): records
    // the manager's peak gauges, drops the handle before its manager, and
    // parks the manager back in the pool.
    const auto end_lease = [](Item& item, std::size_t which) {
      ManagerPool::Lease& lease =
          which == 0 ? item.mgr : item.sub_mgr[which - 1];
      Bdd& func = which == 0 ? item.func : item.sub_func[which - 1];
      if (!lease.valid()) return;
      item.peak_nodes[which] = lease->stats().peak_live_nodes;
      item.peak_bytes[which] = lease->stats().peak_memory_bytes;
      func = Bdd();
      lease.release();
    };

    const auto run_task = [&](Task t, unsigned slot,
                              std::vector<Task>& follow) {
      Item& item = items[t.item];
      if (t.sub >= 0) {
        // One half of a split supernode: private manager, private forest.
        const auto half = static_cast<std::size_t>(t.sub);
        util::TelemetryRecorder* rec =
            recorders.empty() ? nullptr : &recorders[3 * t.item + 1 + half];
        util::TelemetrySpan span;
        if (rec != nullptr) {
          span = util::TelemetrySpan::open(
              rec, "supernode[" + std::to_string(t.item) + "].half[" +
                       std::to_string(half) + "]");
          span.count("inputs", item.k);
        }
        if (slot != item.split_slot) {
          steals.fetch_add(1, std::memory_order_relaxed);
        }
        Timer timer;
        if (!item.sub_failed.load(std::memory_order_relaxed) &&
            !decompose_one(*item.sub_mgr[half], item.sub_func[half], item.k,
                           item.sub_forest[half], item.sub_root[half],
                           item.sub_stats[half], rec)) {
          item.sub_failed.store(true, std::memory_order_relaxed);
        }
        end_lease(item, 1 + half);
        if (span.active()) {
          attach_decompose_counters(span, item.sub_stats[half]);
          span.attr("executor", std::to_string(slot));
          span.count("busy_seconds", timer.seconds());
        }
        return;
      }

      // A whole supernode.
      util::TelemetryRecorder* rec =
          recorders.empty() ? nullptr : &recorders[3 * t.item];
      util::TelemetrySpan span;
      if (rec != nullptr) {
        span = util::TelemetrySpan::open(
            rec, "supernode[" + std::to_string(t.item) + "]");
        span.count("inputs", item.k);
      }
      Timer timer;
      bool handled = false;
      if (split_ > 0 && item.func.size() >= split_) {
        // Work split (Lemma 1, applied once at the top): find the most
        // balanced conjunctive generalized-dominator cut while the BDD is
        // still in the deterministic identity order the cache key was
        // computed in, and carve F = D & Q into two private managers.
        try {
          if (const auto cut = core::find_balanced_split(
                  *item.mgr, item.func.edge(), opts_.max_cuts)) {
            std::vector<Var> var_map(item.mgr->num_vars(), core::kNoVar);
            for (std::uint32_t v = 0; v < item.k; ++v) var_map[v] = v;
            for (std::size_t half = 0; half < 2; ++half) {
              item.sub_mgr[half] =
                  ManagerPool::global().acquire(item.k, item.cache_entries);
              item.sub_mgr[half]->set_budget(ctx.budget());
              const bdd::Edge src =
                  half == 0 ? cut->divisor.edge() : cut->quotient.edge();
              item.sub_func[half] = item.sub_mgr[half]->wrap(
                  item.mgr->transfer_to(*item.sub_mgr[half], src, var_map));
            }
            item.split = true;
            item.split_slot = slot;
            splits.fetch_add(1, std::memory_order_relaxed);
            if (span.active()) {
              span.count("split", 1.0);
              span.count("cut_level", static_cast<double>(cut->cut_level));
            }
          }
        } catch (const BudgetExceeded& e) {
          if (e.resource() == BudgetExceeded::Resource::kCancelled) throw;
          item.degraded = true;
          for (std::size_t half = 0; half < 2; ++half) {
            item.sub_func[half] = Bdd();
            item.sub_mgr[half].release();
          }
          handled = true;
        }
      }
      if (item.split) {
        // Both halves are issued before this task retires, so `remaining`
        // can never dip to zero with work still in flight. One half goes
        // to the queue for an idle executor to steal; the other (and the
        // first too, if the queue is full or this is a serial run) stays
        // on this slot.
        remaining.fetch_add(2);
        if (slots == 1 || !queue.try_push(Task{t.item, 0})) {
          follow.push_back(Task{t.item, 0});
        }
        follow.push_back(Task{t.item, 1});
      } else if (!handled &&
                 !decompose_one(*item.mgr, item.func, item.k, item.forest,
                                item.root, item.stats, rec)) {
        item.degraded = true;
      }
      // The halves (if any) hold transferred copies; the whole-cone manager
      // is done either way.
      end_lease(item, 0);
      if (span.active()) {
        attach_decompose_counters(span, item.stats);
        if (item.degraded) span.count("degraded", 1.0);
        span.attr("executor", std::to_string(slot));
        span.count("busy_seconds", timer.seconds());
      }
    };

    // Runs one task under slot accounting and error capture; kept halves
    // run on the same slot right after (depth <= 2: halves produce no
    // follow-ups). Aborted pipelines still retire every task so the
    // termination count stays exact.
    std::function<void(Task, unsigned)> execute;
    execute = [&](Task t, unsigned slot) {
      std::vector<Task> follow;
      if (!aborted.load(std::memory_order_relaxed)) {
        Timer timer;
        try {
          run_task(t, slot, follow);
        } catch (...) {
          record_error(std::current_exception());
        }
        busy_seconds[slot] += timer.seconds();
        ++tasks_run[slot];
      }
      finish_task();
      for (const Task& f : follow) execute(f, slot);
    };

    // Consumers start before staging does: they overlap the producer from
    // the very first pushed supernode.
    util::ThreadPool::Batch batch;
    if (slots > 1) {
      for (unsigned c = 1; c < slots; ++c) {
        pool.submit(batch, [&, c](unsigned) {
          Task t;
          while (queue.pop(t)) execute(t, c);
        });
      }
    }

    // Items that never become tasks (cached hits, degraded transfers)
    // still get their deterministic supernode span, emitted here on the
    // staging thread.
    const auto stage_span = [&](std::size_t s) {
      if (recorders.empty()) return;
      Item& item = items[s];
      util::TelemetrySpan span = util::TelemetrySpan::open(
          &recorders[3 * s], "supernode[" + std::to_string(s) + "]");
      span.count("inputs", item.k);
      attach_decompose_counters(span, item.stats);
      if (item.degraded) span.count("degraded", 1.0);
      if (item.cached) span.count("cache_hit", 1.0);
      span.attr("executor", "0");
      span.count("busy_seconds", 0.0);
    };

    // ---- producer: stream transfers out of the shared partition manager.
    try {
      for (std::size_t s = 0; s < num_supernodes; ++s) {
        if (aborted.load(std::memory_order_relaxed)) break;
        const core::Supernode& sn = st.part.supernodes[s];
        Item& item = items[s];
        item.k = static_cast<std::uint32_t>(sn.inputs.size());
        if (st.part.degraded) {
          // Trivial partition: the supernode `func` handles are invalid by
          // contract. Every item goes straight to the fallback path.
          item.degraded = true;
          if (cache != nullptr) ++cache_skipped;
          stage_span(s);
          continue;
        }
        // "BDD mapping": rebuild the supernode function in a compact
        // manager containing only the used variables (Section IV-B), its
        // computed table sized from the cone.
        item.cache_entries = cone_cache_entries(sn.func.size());
        item.mgr = ManagerPool::global().acquire(item.k, item.cache_entries);
        // The node/byte ceilings are per manager, and each private manager
        // performs the same operation sequence at any -j, so budget trips
        // -- and therefore degradations -- are deterministic across -j.
        item.mgr->set_budget(ctx.budget());
        // kNoVar sentinel, not variable 0: an input absent from the
        // partition map must be diagnosed, not silently aliased onto
        // variable 0.
        std::vector<Var> var_map(st.pmgr->num_vars(), core::kNoVar);
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
          var_map[pvar] = i;
        }
        for (const Var v : st.pmgr->support(sn.func.edge())) {
          if (var_map[v] == core::kNoVar) {
            throw ScriptError(
                "bds_decompose: supernode '" + net.node(sn.id).name +
                "' depends on a signal missing from its input list "
                "(partition variable " +
                std::to_string(v) + ")");
          }
        }
        try {
          item.func = item.mgr->wrap(
              st.pmgr->transfer_to(*item.mgr, sn.func.edge(), var_map));
        } catch (const BudgetExceeded& e) {
          if (e.resource() == BudgetExceeded::Resource::kCancelled) throw;
          item.degraded = true;
          item.func = Bdd();
          item.mgr.release();
          // This supernode never reached cache lookup; without counting it
          // skipped, hits + misses would undercount the supernode
          // population and every derived hit rate would drift.
          if (cache != nullptr) ++cache_skipped;
          stage_span(s);
          continue;
        }
        // Content-addressed lookup: the freshly transferred function in a
        // compact identity-ordered manager hashes the same for the same
        // cone in any request, so a hit replays an earlier decomposition
        // of it -- forest bytes, root and stats -- and no task is issued.
        if (cache != nullptr) {
          item.cache_key = decompose_cache_key(
              core::canonical_function_hash(*item.mgr, item.func.edge()),
              opts_, reorder_ != ReorderMode::kNone, item.k, split_,
              reorder_ == ReorderMode::kInfo ? 1u : 0u);
          std::string bytes;
          if (cache->lookup(item.cache_key, bytes) &&
              decode_fragment(bytes, item.forest, item.root, item.stats)) {
            item.cached = true;
            ++cache_hits;
            item.func = Bdd();
            item.mgr.release();
            stage_span(s);
            continue;
          }
          ++cache_misses;
        }
        remaining.fetch_add(1);
        if (slots == 1) {
          execute(Task{s, -1}, 0);
        } else if (!queue.push(Task{s, -1})) {
          remaining.fetch_sub(1);  // closed underneath us: aborting
        }
      }
    } catch (...) {
      record_error(std::current_exception());
    }
    staging_done.store(true);
    if (remaining.load() == 0) queue.close();
    // The producer joins the consumers for whatever is still queued.
    if (slots > 1) {
      Task t;
      while (queue.pop(t)) execute(t, 0);
    }
    pool.wait(batch);
    if (first_error) std::rethrow_exception(first_error);

    // Deterministic merge of the worker-side telemetry, in supernode index
    // order (whole item, then its two halves), while the parent
    // stage:pipeline span is still open.
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
      par_span.count("splits",
                     static_cast<double>(splits.load(std::memory_order_relaxed)));
      par_span.count("steals",
                     static_cast<double>(steals.load(std::memory_order_relaxed)));
    }
    par_span.close();

    // ---- merge: serial, in supernode index order. Degraded items are
    // rebuilt by algebraic factoring here, still in index order, so the
    // emitted network is bit-identical to -j1 whenever the trips themselves
    // are deterministic (node/byte ceilings; a deadline is inherently not).
    std::size_t degraded_count = 0;
    util::TelemetrySpan merge_span =
        util::TelemetrySpan::open(tel, "stage:merge");
    std::vector<core::FactId> fallback_memo(net.raw_size(), core::kNoFact);
    const auto absorb_stats = [&st](const core::DecomposeStats& d) {
      st.decompose.one_dominator += d.one_dominator;
      st.decompose.zero_dominator += d.zero_dominator;
      st.decompose.x_dominator += d.x_dominator;
      st.decompose.functional_mux += d.functional_mux;
      st.decompose.generalized_and += d.generalized_and;
      st.decompose.generalized_or += d.generalized_or;
      st.decompose.generalized_xnor += d.generalized_xnor;
      st.decompose.shannon += d.shannon;
    };
    for (std::size_t s = 0; s < num_supernodes; ++s) {
      const core::Supernode& sn = st.part.supernodes[s];
      Item& item = items[s];
      const bool degraded =
          item.degraded || item.sub_failed.load(std::memory_order_relaxed);
      absorb_stats(item.stats);

      if (degraded) {
        ++degraded_count;
        st.roots.push_back(fallback_factor_cone(net, st, sn.id,
                                                fallback_memo));
      } else if (item.split) {
        // Recombine the halves: F = D & Q, the Lemma 1 conjunction the cut
        // was chosen for -- bookkept as one more generalized AND.
        absorb_stats(item.sub_stats[0]);
        absorb_stats(item.sub_stats[1]);
        st.decompose.generalized_and += 1;
        std::vector<core::FactId> leaf_map(item.k);
        for (std::uint32_t i = 0; i < item.k; ++i) {
          leaf_map[i] = st.forest.mk_var(st.sig_of[sn.inputs[i]]);
        }
        const core::FactId did = item.sub_forest[0].copy_into(
            st.forest, item.sub_root[0], leaf_map);
        const core::FactId qid = item.sub_forest[1].copy_into(
            st.forest, item.sub_root[1], leaf_map);
        st.roots.push_back(st.forest.mk_and(did, qid));
      } else {
        // Publish fresh (non-degraded, non-cached, unsplit) decompositions
        // before the splice; inserting serially in index order keeps the
        // cache's LRU state deterministic per request stream. Split items
        // are never inserted: the fragment format stores one tree, and a
        // warm replay must reproduce the cold run byte for byte.
        if (cache != nullptr && !item.cached) {
          cache->insert(item.cache_key,
                        encode_fragment(item.forest, item.root, item.stats));
        }
        std::vector<core::FactId> leaf_map(item.k);
        for (std::uint32_t i = 0; i < item.k; ++i) {
          leaf_map[i] = st.forest.mk_var(st.sig_of[sn.inputs[i]]);
        }
        st.roots.push_back(
            item.forest.copy_into(st.forest, item.root, leaf_map));
      }
      for (std::size_t which = 0; which < 3; ++which) {
        st.peak_local_nodes =
            std::max(st.peak_local_nodes, item.peak_nodes[which]);
        st.peak_local_bytes =
            std::max(st.peak_local_bytes, item.peak_bytes[which]);
      }
      item.forest = core::FactoringForest();
      item.sub_forest[0] = core::FactoringForest();
      item.sub_forest[1] = core::FactoringForest();
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
    if (split_ > 0) {
      // Deterministic: a pure function of the input and -split, identical
      // at every -j (the invariant the split determinism tests pin down).
      ctx.count("splits",
                static_cast<double>(splits.load(std::memory_order_relaxed)));
    }
    if (cache != nullptr) {
      ctx.count("cache_hits", static_cast<double>(cache_hits));
      ctx.count("cache_misses", static_cast<double>(cache_misses));
      // hits + misses + skipped == supernodes, exactly: supernodes that
      // degraded before lookup are counted skipped, not silently dropped
      // from the denominator.
      ctx.count("cache_skipped", static_cast<double>(cache_skipped));
    }
    ctx.count("workers", static_cast<double>(slots));
    // Execution-dependent load-balance facts (exec telemetry bucket):
    // which slots actually ran work, and the busy-time spread across the
    // ones that did. A slot that never saw a task is reported idle rather
    // than dragging par_seconds_min to a meaningless 0.
    double busy_max = 0.0;
    double busy_min = 0.0;
    std::size_t active = 0;
    std::size_t idle = 0;
    for (unsigned w = 0; w < slots; ++w) {
      if (tasks_run[w] == 0) {
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
    ctx.count("steals",
              static_cast<double>(steals.load(std::memory_order_relaxed)));
  }

 private:
  core::DecomposeOptions opts_;
  ReorderMode reorder_ = ReorderMode::kSift;
  /// Split threshold: a supernode whose transferred BDD has at least this
  /// many nodes is split at a balanced generalized-dominator cut into two
  /// independently decomposable halves. 0 = never split (the default).
  std::size_t split_ = 0;
  unsigned jobs_ = 1;  ///< decompose workers; 0 = hardware concurrency
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
    } catch (const BudgetExceeded& e) {
      if (e.resource() == BudgetExceeded::Resource::kCancelled) throw;
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
      "bds_partition [-t N] [-max_bdd N] [-passes N]: BDD-cost eliminate; "
      "builds the supernode partition (blackboard)",
      [](const std::vector<std::string>& args) {
        return std::make_unique<BdsPartitionPass>(args);
      });
  registry.add(
      "bds_decompose",
      "bds_decompose [-reorder sift|info|none] [-noreorder] [-nodom] "
      "[-nomux] [-nogen] [-noxdom] [-constrain] [-max_cuts N] [-split N] "
      "[-j N]: per-supernode BDD decomposition into factoring trees "
      "(overlapped pipeline; -split halves big BDDs at a dominator cut for "
      "work stealing; -reorder info ranks variables by information gain "
      "instead of sifting)",
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
