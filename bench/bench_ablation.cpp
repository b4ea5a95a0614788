// Ablation benchmarks (google-benchmark) for the design choices DESIGN.md
// calls out: which decomposition types run, sharing extraction, variable
// reordering, and the eliminate threshold. Since the flows are pass
// pipelines, every ablation is expressed by editing the registered `bds`
// script text (src/opt/registry.cpp) rather than option booleans; each
// benchmark measures the full pipeline time and reports the resulting gate
// count and literal count as counters, so both runtime and quality effects
// are visible.
#include <benchmark/benchmark.h>

#include <string>

#include "bdd/bdd.hpp"
#include "gen/gen.hpp"
#include "map/mapper.hpp"
#include "opt/manager.hpp"

namespace {

using namespace bds;

net::Network circuit_for(int id) {
  switch (id) {
    case 0:
      return gen::alu(8);
    case 1:
      return gen::array_multiplier(6);
    case 2:
      return gen::barrel_shifter(32);
    default:
      return gen::hamming_corrector(4);
  }
}

const char* circuit_name(int id) {
  switch (id) {
    case 0:
      return "alu8";
    case 1:
      return "m6x6";
    case 2:
      return "bshift32";
    default:
      return "ecc15";
  }
}

/// The default BDS pipeline with editable stage arguments; empty stage
/// strings drop the stage entirely.
std::string bds_script_with(const std::string& partition_args,
                            const std::string& decompose_args,
                            bool sharing = true, bool balance = true) {
  std::string s = "sweep; bds_partition";
  if (!partition_args.empty()) s += " " + partition_args;
  s += "; bds_decompose";
  if (!decompose_args.empty()) s += " " + decompose_args;
  if (sharing) s += "; bds_sharing";
  if (balance) s += "; bds_balance";
  s += "; bds_emit; sweep";
  return s;
}

void run_and_report(benchmark::State& state, const net::Network& input,
                    const std::string& script) {
  opt::PipelineStats stats;
  net::Network out("empty");
  for (auto _ : state) {
    out = input;
    opt::PassManager pm = opt::PassManager::from_script(script);
    stats = pm.run(out);
    benchmark::DoNotOptimize(out);
  }
  state.counters["gates"] = static_cast<double>(out.num_logic_nodes());
  state.counters["literals"] = static_cast<double>(out.total_literals());
  state.counters["mapped_area"] = map::map_network(out).area;
  state.counters["shannon_steps"] = stats.counter("shannon");
}

// ---- decomposition-type ablation (priority list of Section IV-C) ----------

void BM_DecompositionTypes(benchmark::State& state) {
  const int circuit = static_cast<int>(state.range(0));
  const int mask = static_cast<int>(state.range(1));
  const net::Network input = circuit_for(circuit);
  std::string dec;
  if ((mask & 1) == 0) dec += " -nodom";
  if ((mask & 2) == 0) dec += " -nomux";
  if ((mask & 4) == 0) dec += " -nogen";
  if ((mask & 8) == 0) dec += " -noxdom";
  state.SetLabel(std::string(circuit_name(circuit)) + "/" +
                 ((mask & 1) ? "dom," : "") + ((mask & 2) ? "mux," : "") +
                 ((mask & 4) ? "gen," : "") + ((mask & 8) ? "xdom" : "") +
                 (mask == 0 ? "shannon-only" : ""));
  run_and_report(state, input,
                 bds_script_with("", dec.empty() ? dec : dec.substr(1)));
}
BENCHMARK(BM_DecompositionTypes)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1, 3, 7, 15}})
    ->Unit(benchmark::kMillisecond);

// ---- sharing extraction on/off ----------------------------------------------

void BM_SharingExtraction(benchmark::State& state) {
  const int circuit = static_cast<int>(state.range(0));
  const bool sharing = state.range(1) != 0;
  const net::Network input = circuit_for(circuit);
  state.SetLabel(std::string(circuit_name(circuit)) +
                 (sharing ? "/sharing" : "/no-sharing"));
  run_and_report(state, input, bds_script_with("", "", sharing));
}
BENCHMARK(BM_SharingExtraction)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// ---- per-supernode variable reordering on/off ---------------------------------

void BM_Reordering(benchmark::State& state) {
  const int circuit = static_cast<int>(state.range(0));
  const bool reorder = state.range(1) != 0;
  const net::Network input = circuit_for(circuit);
  state.SetLabel(std::string(circuit_name(circuit)) +
                 (reorder ? "/sift" : "/no-reorder"));
  run_and_report(state, input,
                 bds_script_with("", reorder ? "" : "-noreorder"));
}
BENCHMARK(BM_Reordering)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// ---- eliminate threshold sweep (partition granularity, Section IV-B) ---------

void BM_EliminateThreshold(benchmark::State& state) {
  const int circuit = static_cast<int>(state.range(0));
  const int threshold = static_cast<int>(state.range(1));
  const net::Network input = circuit_for(circuit);
  state.SetLabel(std::string(circuit_name(circuit)) + "/thr=" +
                 std::to_string(threshold));
  run_and_report(state, input,
                 bds_script_with("-t " + std::to_string(threshold), ""));
}
BENCHMARK(BM_EliminateThreshold)
    ->ArgsProduct({{0, 1, 2}, {-4, 0, 4, 16, 64}})
    ->Unit(benchmark::kMillisecond);

// ---- don't-care minimizer: restrict vs constrain (Section III-B remark) -------

void BM_DcMinimizer(benchmark::State& state) {
  const int circuit = static_cast<int>(state.range(0));
  const bool use_constrain = state.range(1) != 0;
  const net::Network input = circuit_for(circuit);
  state.SetLabel(std::string(circuit_name(circuit)) +
                 (use_constrain ? "/constrain" : "/restrict"));
  run_and_report(state, input,
                 bds_script_with("", use_constrain ? "-constrain" : ""));
}
BENCHMARK(BM_DcMinimizer)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// ---- factoring-tree balancing on/off (future-work item 3) ---------------------

void BM_Balancing(benchmark::State& state) {
  const int circuit = static_cast<int>(state.range(0));
  const bool balance = state.range(1) != 0;
  const net::Network input = circuit_for(circuit);
  state.SetLabel(std::string(circuit_name(circuit)) +
                 (balance ? "/balanced" : "/chains"));
  net::Network out("empty");
  for (auto _ : state) {
    out = input;
    opt::PassManager pm = opt::PassManager::from_script(
        bds_script_with("", "", /*sharing=*/true, balance));
    pm.run(out);
    benchmark::DoNotOptimize(out);
  }
  state.counters["gates"] = static_cast<double>(out.num_logic_nodes());
  state.counters["depth"] = static_cast<double>(out.depth());
  state.counters["mapped_delay"] = map::map_network(out).delay;
}
BENCHMARK(BM_Balancing)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// ---- raw BDD substrate microbenchmarks ----------------------------------------

void BM_BddIteDense(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    bdd::Manager mgr(n);
    bdd::Bdd f = mgr.zero();
    // Majority-ish accumulation: stresses ITE and the unique table.
    for (bdd::Var v = 0; v + 2 < n; ++v) {
      f = mgr.var(v).ite(f | mgr.var(v + 1), f & mgr.var(v + 2));
    }
    benchmark::DoNotOptimize(f.size());
  }
}
BENCHMARK(BM_BddIteDense)->Arg(16)->Arg(24)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_BddSifting(benchmark::State& state) {
  const unsigned k = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    bdd::Manager mgr(2 * k);
    bdd::Bdd f = mgr.one();
    for (unsigned i = 0; i < k; ++i) {
      f = f & mgr.var(i).xnor(mgr.var(k + i));  // worst-order comparator
    }
    state.ResumeTiming();
    mgr.reorder_sift();
    benchmark::DoNotOptimize(f.size());
  }
}
BENCHMARK(BM_BddSifting)->Arg(6)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
