// bds-style command line driver: optimize a BLIF file with the BDD-based
// flow, the SIS-style algebraic baseline, or any custom pass script; map
// it, verify it, and write the result.
//
// Usage:
//   optimize_blif <input.blif> [-o out.blif] [-gates out_mapped.blif]
//                 [-script "<passes>"] [-j N]
//                 [-node-limit N] [-time-limit S] [-nomap] [-noverify]
//                 [-stats] [-trace] [-check] [-profile]
//                 [-trace-json FILE] [-list-passes]
//
// The optimization flow is a pass pipeline (src/opt/): `-script` names one
// of the registered scripts ("bds", the default; "rugged"; "sis") or runs
// an arbitrary script such as "sweep; eliminate -1; simplify; gkx; resub",
// `-trace` prints each pass as it completes, `-check` proves every
// network-modifying pass equivalent to its input, and `-stats` prints the
// shared per-pass time/size breakdown table. `-j N` runs the decompose
// phase on N workers (0 = all hardware threads); the result is
// bit-identical to a serial run.
//
// Technology mapping is itself a pipeline stage: by default a `map` pass
// onto the embedded MCNC-like library is appended (the reserved `map`
// parameter -- the same mechanism `-map LIB` and a daemon request's
// map_lib use), so mapped area/delay land in -stats, -profile and the
// telemetry trace like any other pass counters. `-nomap` drops the gate
// mapping; `-lut K` appends a `lutmap` covering pass instead of or after
// it.
//
// Telemetry (util/telemetry.hpp): `-trace-json FILE` streams one JSON
// object per closed span to FILE (schema bds-trace/v1, `-` = stdout;
// everything outside each line's "exec" object is byte-identical at any
// -j), and `-profile` prints the in-memory aggregator's summary (top
// passes/supernodes by time, computed-table hit rates, degradations).
//
// `-node-limit N` and `-time-limit S` bound the run's BDD work (live nodes
// per manager / wall-clock seconds, measured from just before the pipeline
// starts). Exceeding a bound does not fail the run: supernodes whose BDD
// work trips the budget fall back to algebraic factoring of their original
// SOP (shown as `degraded` in -stats), and the result stays functionally
// equivalent.
//
// Exit codes: 0 success (possibly degraded), 1 verification/check/IO
// failure, 2 usage or script error, 3 parse error, 4 network construction
// error, 5 resource budget exhausted with no fallback available.
//
// With no input file, a built-in demo circuit is used.
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "map/mapper.hpp"
#include "net/network.hpp"
#include "opt/manager.hpp"
#include "opt/map_passes.hpp"
#include "opt/registry.hpp"
#include "opt/request_options.hpp"
#include "util/error.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"
#include "verify/cec.hpp"

namespace {

constexpr const char* kDemo = R"(
.model demo
.inputs a b c d e
.outputs f g
.names a b c d e f
1-1-- 1
1--1- 1
-11-- 1
-1-1- 1
----1 1
.names a b c d g
10-- 1
01-- 1
--11 1
.end
)";

int usage() {
  std::cerr << "usage: optimize_blif [input.blif] [-o out.blif] "
               "[-gates out_mapped.blif] [-nomap] [-noverify] "
               "[-stats] [-trace] [-profile] [-trace-json FILE] "
               "[-list-passes]\n"
               "shared request options (also bds-client / the bdsd wire "
               "protocol):\n"
            << bds::opt::RequestOptions::cli_help();
  return 2;
}

int list_passes() {
  const auto& registry = bds::opt::PassRegistry::instance();
  std::cout << "passes:\n";
  for (const auto& [name, help] : registry.list()) {
    std::cout << "  " << name << "\n      " << help << "\n";
  }
  std::cout << "scripts:\n";
  for (const auto& [name, text] : registry.list_scripts()) {
    std::cout << "  " << name << "\n      " << text << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bds;
  // Wall time of the whole run -- parse, pipeline, verify and write -- for
  // the closing `total time:` line.
  const Timer timer;

  std::string input_path;
  std::string output_path;
  std::string gate_path;
  bool do_map = true;
  bool do_verify = true;
  bool show_stats = false;
  bool trace = false;
  bool profile = false;
  std::string trace_json_path;
  // The shared request options (script, jobs, ceilings, time limit, check --
  // the same struct bds-client and the bdsd wire protocol use; one parser,
  // declared once in opt/request_options.hpp).
  opt::RequestOptions ro;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (ro.parse_cli_arg(argc, argv, i)) {
        continue;
      } else if (arg == "-o" && i + 1 < argc) {
        output_path = argv[++i];
      } else if (arg == "-gates" && i + 1 < argc) {
        gate_path = argv[++i];
      } else if (arg == "-nomap") {
        do_map = false;
      } else if (arg == "-noverify") {
        do_verify = false;
      } else if (arg == "-stats") {
        show_stats = true;
      } else if (arg == "-trace") {
        trace = true;
      } else if (arg == "-profile") {
        profile = true;
      } else if (arg == "-trace-json" && i + 1 < argc) {
        trace_json_path = argv[++i];
      } else if (arg == "-list-passes") {
        return list_passes();
      } else if (arg[0] == '-') {
        return usage();
      } else if (input_path.empty()) {
        input_path = arg;
      } else {
        std::cerr << "unexpected extra argument '" << arg << "' (input is '"
                  << input_path << "')\n";
        return usage();
      }
    }
    ro.validate();
  } catch (const ParseError& e) {
    std::cerr << "optimize_blif: " << e.what() << "\n";
    return usage();
  }
  const std::string script = ro.script.empty() ? "bds" : ro.script;
  const bool check = ro.check;

  // Gate mapping is part of the pipeline: the default run maps onto the
  // embedded MCNC-like library by appending a `map` pass (the reserved
  // `map` parameter), exactly the path a daemon request with map_lib set
  // takes. -nomap disables gate mapping (an explicit -map wins over the
  // default; -lut is independent and still runs).
  if (!do_map) {
    ro.map_lib.clear();
  } else if (ro.map_lib.empty()) {
    ro.map_lib = "mcnc";
  }

  // Typed parameter bindings instead of patching script text: `jobs` is
  // declared by the "bds" script (routed to bds_decompose -j), and
  // `map`/`lut_k` append the mapping stage. The budget ceilings reach the
  // pipeline through ro.apply(popts) below.
  const opt::ScriptParams params = ro.to_script_params();

  net::Network input;
  try {
    if (input_path.empty()) {
      std::cout << "(no input given: using the built-in demo circuit)\n";
      input = net::parse_blif_string(kDemo);
    } else {
      std::ifstream in(input_path);
      if (!in) {
        std::cerr << "cannot open " << input_path << "\n";
        return 1;
      }
      input = net::parse_blif(in);
    }
  } catch (const ParseError& e) {
    std::cerr << "parse error: " << e.what() << "\n";
    return 3;
  } catch (const NetworkError& e) {
    std::cerr << "network error: " << e.what() << "\n";
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "error reading input: " << e.what() << "\n";
    return 1;
  }

  std::cout << input.name() << ": " << input.num_inputs() << " inputs, "
            << input.num_outputs() << " outputs, " << input.num_logic_nodes()
            << " nodes, " << input.total_literals() << " literals\n";

  opt::PassManager pipeline;
  try {
    pipeline = opt::PassManager::from_script(script, params);
  } catch (const opt::ScriptError& e) {
    std::cerr << "script error: " << e.what() << "\n";
    return 2;
  }
  // -gates writes the network the map pass returned, so that pass must be
  // the last one: a later pass (lutmap, for -lut) would rewrite it.
  if (!gate_path.empty() &&
      (pipeline.empty() || pipeline.passes().back()->name() != "map")) {
    std::cerr << "-gates needs a map pass at the end of the run (drop -nomap "
                 "and -lut, or add -map LIB)\n";
    return 2;
  }

  opt::PipelineOptions popts;
  // check, the resource ceilings, and the optional -time-limit (anchored
  // at "now": a CLI run has no admission queue to wait in).
  ro.apply(popts);
  if (trace) {
    popts.trace = [](const opt::PassStats& p) {
      std::cout << "  [pass] " << p.name;
      if (!p.args.empty()) std::cout << ' ' << p.args;
      std::cout << ": nodes " << p.nodes_before << "->" << p.nodes_after
                << ", literals " << p.lits_before << "->" << p.lits_after
                << " (" << p.seconds << " s)";
      if (p.check == opt::PassStats::Check::kFailed) std::cout << "  CHECK FAILED";
      std::cout << "\n";
    };
  }

  // Telemetry: one hub, up to two sinks (JSONL stream and/or the profile
  // aggregator). Left null when neither flag is given -- spans are then
  // inert and the pipeline pays nothing.
  std::shared_ptr<util::Telemetry> telemetry;
  std::shared_ptr<util::AggregateSink> aggregate;
  std::ofstream trace_json_file;
  if (profile || !trace_json_path.empty()) {
    telemetry = std::make_shared<util::Telemetry>(script);
    if (!trace_json_path.empty()) {
      std::ostream* os = &std::cout;
      if (trace_json_path != "-") {
        trace_json_file.open(trace_json_path);
        if (!trace_json_file) {
          std::cerr << "cannot open " << trace_json_path << "\n";
          return 1;
        }
        os = &trace_json_file;
      }
      telemetry->add_sink(std::make_shared<util::JsonlSink>(*os));
    }
    if (profile) {
      aggregate = std::make_shared<util::AggregateSink>();
      telemetry->add_sink(aggregate);
    }
    popts.telemetry = telemetry;
  }

  net::Network optimized = input;
  opt::PipelineStats pstats;
  // Caller-owned context: after the run, the MapFlowState blackboard entry
  // holds the map pass's library and instance table (for -gates).
  opt::PassContext ctx;
  try {
    pstats = pipeline.run(optimized, popts, ctx);
  } catch (const opt::ScriptError& e) {
    std::cerr << "script error: " << e.what() << "\n";
    return 2;
  } catch (const BudgetExceeded& e) {
    // Degradable stages absorb budget trips themselves; reaching this
    // handler means a stage with no fallback hit the ceiling.
    std::cerr << "resource budget exhausted ("
              << BudgetExceeded::resource_name(e.resource())
              << "): " << e.what() << "\n";
    return 5;
  } catch (const NetworkError& e) {
    std::cerr << "network error: " << e.what() << "\n";
    return 4;
  }

  std::cout << script << ": " << optimized.num_logic_nodes() << " nodes, "
            << optimized.total_literals() << " literals in "
            << pstats.seconds_total << " s\n";
  if (pstats.degraded_passes > 0) {
    std::cout << "degraded: " << pstats.degraded_passes
              << " pass(es) hit the resource budget and fell back "
              << "(degraded=" << pstats.counter("degraded")
              << "); the result is still functionally equivalent\n";
  }
  if (telemetry) telemetry->finish();
  if (show_stats) std::cout << format_pass_table(pstats);
  if (aggregate) std::cout << aggregate->format_profile();
  if (!trace_json_path.empty() && trace_json_path != "-") {
    std::cout << "wrote trace (" << telemetry->events_emitted()
              << " spans, " << util::kTraceSchemaName << ") to "
              << trace_json_path << "\n";
  }
  if (check) {
    if (pstats.check_failures > 0) {
      std::cerr << "per-pass check: " << pstats.check_failures
                << " pass(es) FAILED\n";
      return 1;
    }
    std::cout << "per-pass check: all passes equivalent\n";
  }

  // The map/lutmap passes already rewrote `optimized` in place; report
  // their results from the same counters -stats and the telemetry spans
  // carry, so every surface reads the one instrumentation path.
  const net::Network& final_net = optimized;
  if (!ro.map_lib.empty()) {
    std::cout << "mapped: "
              << static_cast<long long>(pstats.counter("mapped_gates"))
              << " gates, area " << pstats.counter("mapped_area")
              << ", delay " << pstats.counter("mapped_delay") << " ns\n";
  }
  if (ro.lut_k != 0) {
    std::cout << "lutmap: "
              << static_cast<long long>(pstats.counter("lut_count"))
              << " LUT" << ro.lut_k << "s, depth "
              << static_cast<long long>(pstats.counter("lut_depth")) << "\n";
  }
  if (!gate_path.empty()) {
    const auto& mapstate = ctx.state<opt::MapFlowState>();
    std::ofstream gout(gate_path);
    map::write_gate_blif(gout, optimized, mapstate.instance_gate);
    std::cout << "wrote mapped netlist (.gate form) to " << gate_path
              << "\n";
  }

  if (do_verify) {
    const Timer verify_timer;
    const auto cec = verify::check_equivalence(input, final_net);
    std::string verdict;
    switch (cec.status) {
      case verify::CecStatus::kEquivalent:
        verdict = "EQUIVALENT";
        break;
      case verify::CecStatus::kInequivalent:
        verdict = "FAILED on output " + cec.failing_output;
        break;
      case verify::CecStatus::kAborted:
        verdict = std::string("global BDDs too large; falling back to "
                              "simulation: ") +
                  (verify::random_simulation_equal(input, final_net)
                       ? "no mismatch found"
                       : "MISMATCH");
        break;
    }
    std::cout << "verify: " << verdict << " (" << verify_timer.seconds()
              << " s)\n";
    if (cec.status == verify::CecStatus::kInequivalent) return 1;
  }

  if (!output_path.empty()) {
    std::ofstream out(output_path);
    net::write_blif(out, final_net);
    std::cout << "wrote " << output_path << "\n";
  }
  std::cout << "total time: " << timer.seconds() << " s\n";
  return 0;
}
