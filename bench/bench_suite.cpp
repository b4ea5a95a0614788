// Continuous benchmark suite. A `budget` section runs a forced-degradation
// flow whose output is equivalence-checked. A `telemetry` section times the
// `bds` pipeline with and without a full Telemetry hub. A `service` section
// drives the bdsd daemon's request path in-process (Server::handle(), no
// socket) over a repeated family workload: the cold batch pays
// reorder+decompose, the warm batch is served from the content-addressed
// result cache and must come back byte-identical at >= 2x. An `overload`
// section floods a real socket-backed daemon at 4x its concurrency twice --
// once behind the bounded admission queue, once with the queue ceiling
// effectively removed -- and records the p99 latency of admitted requests
// on both sides plus the cost of every shed: admission must keep the
// admitted p99 below the unbounded baseline's while answering each shed in
// well under 10ms, with every admitted result byte-identical. A `mapping`
// section runs every generated circuit family once through each of the
// bds / rugged / mini-SIS scripts with the reserved `map` parameter bound
// to the embedded MCNC-like library -- the exact pipeline `optimize_blif
// -map` and the daemon build -- recording the family's size, the pre-map
// literals and depth, the peak BDD nodes and the mapped area/delay from the
// pass counters, plus a bds 4-LUT covering point; every mapped netlist is
// equivalence-checked. Emits one JSON report (default BENCH_pr10.json)
// that CI uploads as an artifact, so regressions show up as a diff in the
// numbers, not an anecdote. `hardware_concurrency` is recorded alongside:
// the service and overload sections run on several threads.
//
// Usage: bench_suite [-out <path>] [-quick]
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/gen.hpp"
#include "net/network.hpp"
#include "opt/bds_passes.hpp"
#include "opt/manager.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"
#include "verify/cec.hpp"

namespace {

using bds::Timer;
using bds::net::Network;

// ---------------------------------------------------------------------------
// Tiny JSON writer (no new dependencies): builds an indented object tree.

class Json {
 public:
  explicit Json(std::ostream& os) : os_(os) {}

  void open(const std::string& key = "") { item(key, "{"), ++depth_; }
  void close() { end_scope("}"); }
  void open_list(const std::string& key = "") { item(key, "["), ++depth_; }
  void close_list() { end_scope("]"); }

  void field(const std::string& key, const std::string& v) {
    item(key, quote(v));
  }
  void field(const std::string& key, const char* v) { item(key, quote(v)); }
  void field(const std::string& key, bool v) { item(key, v ? "true" : "false"); }
  void field(const std::string& key, double v) {
    std::ostringstream ss;
    ss << std::setprecision(6) << v;
    item(key, ss.str());
  }
  template <class T>
    requires std::is_integral_v<T>
  void field(const std::string& key, T v) {
    item(key, std::to_string(v));
  }

 private:
  static std::string quote(const std::string& s) { return '"' + s + '"'; }

  void item(const std::string& key, const std::string& text) {
    if (needs_comma_) {
      os_ << ",\n";
    } else if (!first_) {
      os_ << '\n';
    }
    first_ = false;
    os_ << std::string(2 * depth_, ' ');
    if (!key.empty()) os_ << quote(key) << ": ";
    os_ << text;
    // An opening brace/bracket starts a fresh scope with no pending comma.
    needs_comma_ = text != "{" && text != "[";
  }
  void end_scope(const char* closer) {
    --depth_;
    os_ << '\n' << std::string(2 * depth_, ' ') << closer;
    needs_comma_ = true;
  }

  std::ostream& os_;
  int depth_ = 0;
  bool needs_comma_ = false;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Mapped flow: the same registered script with the reserved `map` /
// `lut_k` / `reorder` parameters bound, so the bench builds the exact
// pipeline `optimize_blif -map` and the daemon build for those options.
// Mapped area/delay/LUT counts come back through the pass counters (the
// one instrumentation path `-stats` and `-profile` print), the optimized
// network's literals and depth from the mapping pass's entry sizes, and
// every mapped netlist is equivalence-checked against the family input.

struct MappedRun {
  double seconds = 0.0;
  unsigned literals_premap = 0;  ///< factored literals entering the mapper
  unsigned depth_premap = 0;     ///< network depth entering the mapper
  std::size_t peak_bdd_nodes = 0;
  double mapped_gates = 0.0;
  double mapped_area = 0.0;
  double mapped_delay = 0.0;
  double lut_count = 0.0;
  double lut_depth = 0.0;
  bool equivalent = false;
};

MappedRun run_mapped_flow(const Network& input, const std::string& script,
                          const bds::opt::ScriptParams& params) {
  MappedRun r;
  Network net = input;
  bds::opt::PassManager pm =
      bds::opt::PassManager::from_script(script, params);
  bds::opt::PassContext ctx;
  const bds::opt::PipelineStats ps = pm.run(net, {}, ctx);
  r.seconds = ps.seconds_total;
  if (const auto* st = ctx.find_state<bds::opt::BdsFlowState>()) {
    r.peak_bdd_nodes = st->peak_bdd_nodes();
  } else {
    r.peak_bdd_nodes = static_cast<std::size_t>(ps.counter("peak_bdd_nodes"));
  }
  r.mapped_gates = ps.counter("mapped_gates");
  r.mapped_area = ps.counter("mapped_area");
  r.mapped_delay = ps.counter("mapped_delay");
  r.lut_count = ps.counter("lut_count");
  r.lut_depth = ps.counter("lut_depth");
  for (const bds::opt::PassStats& pass : ps.passes) {
    if (pass.name == "map" || pass.name == "lutmap") {
      r.literals_premap = pass.lits_before;
      r.depth_premap = pass.depth_before;
      break;
    }
  }
  r.equivalent = static_cast<bool>(bds::verify::check_equivalence(input, net));
  return r;
}

struct Family {
  std::string name;
  std::string generator;
  Network net;
};

// ---------------------------------------------------------------------------
// Resource governance: a node ceiling far below what the flow needs forces
// degradation, and the fallback output is equivalence-checked, so the
// graceful-degradation path stays both exercised and measured. The cost of
// the budget checks on the apply hot paths is below what this suite can
// resolve, so it is not reported.

struct BudgetBenchResult {
  std::string degraded_circuit;
  std::size_t degraded_node_limit = 0;
  double degraded_seconds = 0.0;
  std::size_t degraded_passes = 0;
  double degraded_count = 0.0;
  bool degraded_equivalent = false;
};

BudgetBenchResult run_budget_bench() {
  BudgetBenchResult r;
  // Forced degradation: a ceiling this small trips the partition build, so
  // the whole flow routes through the algebraic fallback -- and must still
  // produce an equivalent network.
  const Network victim = bds::gen::alu(4);
  r.degraded_circuit = "alu(4)";
  r.degraded_node_limit = 16;
  Network out = victim;
  bds::opt::PipelineOptions popts;
  popts.node_limit = r.degraded_node_limit;
  Timer td;
  const bds::opt::PipelineStats ps =
      bds::opt::PassManager::from_script("bds").run(out, popts);
  r.degraded_seconds = td.seconds();
  r.degraded_passes = ps.degraded_passes;
  r.degraded_count = ps.counter("degraded");
  r.degraded_equivalent =
      static_cast<bool>(bds::verify::check_equivalence(victim, out));
  return r;
}

// ---------------------------------------------------------------------------
// Telemetry cost: the `bds` pipeline with a null telemetry pointer vs a
// full hub (JSONL into a string + aggregator), measuring the end-to-end
// cost of enabled tracing (informational: enabled telemetry is allowed to
// cost something; a null hub is free by construction).

struct TelemetryBenchResult {
  std::string pipeline_circuit;
  double pipeline_off_seconds = 0.0;  ///< bds flow, popts.telemetry == null
  double pipeline_on_seconds = 0.0;   ///< bds flow, JSONL + aggregate sinks
  std::size_t pipeline_spans = 0;
};

TelemetryBenchResult run_telemetry_bench(int reps) {
  TelemetryBenchResult r;
  const Network victim = bds::gen::alu(8);
  r.pipeline_circuit = "alu(8)";
  for (int rep = 0; rep < reps; ++rep) {
    {
      Network work = victim;
      Timer t;
      bds::opt::PassManager::from_script("bds").run(work);
      const double s = t.seconds();
      r.pipeline_off_seconds =
          rep == 0 ? s : std::min(r.pipeline_off_seconds, s);
    }
    {
      Network work = victim;
      bds::opt::PipelineOptions popts;
      const auto telemetry = std::make_shared<bds::util::Telemetry>("bds");
      std::ostringstream trace;
      telemetry->add_sink(std::make_shared<bds::util::JsonlSink>(trace));
      telemetry->add_sink(std::make_shared<bds::util::AggregateSink>());
      popts.telemetry = telemetry;
      Timer t;
      bds::opt::PassManager::from_script("bds").run(work, popts);
      const double s = t.seconds();
      telemetry->finish();
      r.pipeline_spans = telemetry->events_emitted();
      r.pipeline_on_seconds =
          rep == 0 ? s : std::min(r.pipeline_on_seconds, s);
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Service: the bdsd request path driven in-process through Server::handle()
// (exposed for exactly this -- no socket, no extra thread, so the numbers
// are the daemon's compute cost, not loopback I/O). Each rep constructs a
// fresh Server, pays the cold batch (result cache empty, every supernode
// goes through reorder+decompose), then replays the identical batch warm
// (every cone served from the content-addressed cache). Warm output must
// be byte-identical to cold; the acceptance bar is >= 2x on the aggregate.

struct ServicePoint {
  std::string circuit;
  double cold_seconds = 0.0;  ///< best of `reps` cache-cold requests
  double warm_seconds = 0.0;  ///< best of `reps` cache-warm requests
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_misses = 0;
  bool byte_identical = true;
  bool ok = true;  ///< every request returned Status::kOk
};

struct ServiceBenchResult {
  int reps = 0;
  std::vector<ServicePoint> points;
  double cold_total = 0.0;  ///< sum of best-of-reps cold latencies
  double warm_total = 0.0;
  double speedup = 0.0;  ///< aggregate: cold_total / warm_total
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
};

ServiceBenchResult run_service_bench(const std::vector<Family>& workload,
                                     int reps) {
  namespace svc = bds::service;
  ServiceBenchResult r;
  r.reps = reps;
  r.points.resize(workload.size());

  std::vector<svc::OptimizeRequest> requests(workload.size());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    r.points[i].circuit = workload[i].name;
    requests[i].blif = bds::net::to_blif_string(workload[i].net);
    // Single-threaded on purpose: the cache, not the pool, is under test.
    requests[i].options.jobs = 1;
  }

  for (int rep = 0; rep < reps; ++rep) {
    svc::ServerOptions options;
    options.socket_path = "/tmp/bench-bdsd-inprocess.sock";  // never bound
    svc::Server server(std::move(options));
    std::vector<std::string> cold_blif(workload.size());
    for (std::size_t i = 0; i < workload.size(); ++i) {
      ServicePoint& p = r.points[i];
      Timer tc;
      const svc::OptimizeResponse cold = server.handle(requests[i]);
      const double cold_s = tc.seconds();
      if (cold.status != svc::Status::kOk) p.ok = false;
      cold_blif[i] = cold.blif;
      if (rep == 0 || cold_s < p.cold_seconds) p.cold_seconds = cold_s;
    }
    for (std::size_t i = 0; i < workload.size(); ++i) {
      ServicePoint& p = r.points[i];
      Timer tw;
      const svc::OptimizeResponse warm = server.handle(requests[i]);
      const double warm_s = tw.seconds();
      if (warm.status != svc::Status::kOk) p.ok = false;
      if (warm.blif != cold_blif[i]) p.byte_identical = false;
      if (rep == 0 || warm_s < p.warm_seconds) {
        p.warm_seconds = warm_s;
        p.warm_hits = warm.cache_hits;
        p.warm_misses = warm.cache_misses;
      }
    }
    const svc::ServerStats stats = server.stats();
    r.cache_entries = stats.cache_entries;
    r.cache_bytes = stats.cache_bytes;
  }

  for (const ServicePoint& p : r.points) {
    r.cold_total += p.cold_seconds;
    r.warm_total += p.warm_seconds;
  }
  r.speedup = r.warm_total > 0 ? r.cold_total / r.warm_total : 0.0;
  return r;
}

// ---------------------------------------------------------------------------
// Overload: the admission layer under a 4x closed-loop flood, over a real
// socket (unlike the `service` section, queueing *is* the effect under
// test here, so loopback I/O belongs in the measurement). The same flood
// runs twice: once behind the bounded gate (small queue_depth, requests
// beyond it shed with kOverloaded) and once with the ceiling pushed out of
// reach -- the "no admission" baseline where every request is accepted and
// waits behind the whole backlog. Admission's promise is the difference
// between the two admitted-latency distributions: bounded queue => an
// admitted request waits behind at most queue_depth predecessors, so its
// p99 stays near (depth/workers + 1) service times while the baseline's
// grows with the flood factor. Sheds are timed individually; the bar is
// that no shed ever costs a queue slot (well under 10ms each).

struct OverloadSide {
  std::vector<double> admitted_ms;  ///< per-attempt latency, kOk responses
  std::vector<double> shed_ms;      ///< per-attempt latency, kOverloaded
  std::uint64_t server_sheds = 0;   ///< daemon-side counter, cross-check
  double p99_admitted_ms = 0.0;
  double mean_admitted_ms = 0.0;
  double worst_shed_ms = 0.0;
  bool all_ok = true;          ///< no unexpected statuses
  bool byte_identical = true;  ///< every admitted result matched the first
};

double percentile_ms(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::min(rank > 0 ? rank - 1 : 0, samples.size() - 1)];
}

OverloadSide run_overload_side(const std::string& blif, unsigned workers,
                               std::size_t queue_depth, int clients,
                               int successes_per_client) {
  namespace svc = bds::service;
  OverloadSide side;

  svc::ServerOptions options;
  options.socket_path = "/tmp/bench-bdsd-overload-" +
                        std::to_string(::getpid()) + ".sock";
  options.concurrency = workers;
  options.queue_depth = queue_depth;
  svc::Server server(std::move(options));
  server.start();
  std::thread serve_thread([&server] { server.serve(); });

  std::mutex mu;
  std::string reference;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      svc::Client client(server.socket_path());
      client.connect();
      svc::OptimizeRequest req;
      req.blif = blif;
      req.options.jobs = 1;
      req.options.bypass_cache = true;  // every admitted request does work
      std::vector<double> admitted;
      std::vector<double> shed;
      bool ok = true;
      bool identical = true;
      // Closed loop: one outstanding request per client, resubmitted after
      // a shed once the daemon's hint elapses, until the quota of
      // successes is met. Per-attempt latency is what the distributions
      // are built from -- a shed must never inherit an admitted wait.
      for (int done = 0; done < successes_per_client;) {
        Timer t;
        const svc::OptimizeResponse resp = client.optimize(req);
        const double ms = t.seconds() * 1000.0;
        if (resp.status == svc::Status::kOk) {
          admitted.push_back(ms);
          ++done;
          std::lock_guard<std::mutex> lock(mu);
          if (reference.empty()) {
            reference = resp.blif;
          } else if (resp.blif != reference) {
            identical = false;
          }
        } else if (resp.status == svc::Status::kOverloaded) {
          shed.push_back(ms);
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::max<std::uint32_t>(resp.retry_after_ms, 1)));
        } else {
          ok = false;  // kShuttingDown etc. would be a bench bug
          ++done;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      side.admitted_ms.insert(side.admitted_ms.end(), admitted.begin(),
                              admitted.end());
      side.shed_ms.insert(side.shed_ms.end(), shed.begin(), shed.end());
      side.all_ok = side.all_ok && ok;
      side.byte_identical = side.byte_identical && identical;
    });
  }
  for (std::thread& t : threads) t.join();
  side.server_sheds = server.stats().sheds;
  server.stop();
  serve_thread.join();

  side.p99_admitted_ms = percentile_ms(side.admitted_ms, 0.99);
  for (const double ms : side.admitted_ms) side.mean_admitted_ms += ms;
  if (!side.admitted_ms.empty()) {
    side.mean_admitted_ms /= static_cast<double>(side.admitted_ms.size());
  }
  for (const double ms : side.shed_ms) {
    side.worst_shed_ms = std::max(side.worst_shed_ms, ms);
  }
  return side;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_pr10.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "-quick") {
      quick = true;
    } else {
      std::cerr << "usage: bench_suite [-out <path>] [-quick]\n";
      return 2;
    }
  }

  std::vector<Family> families;
  families.push_back({"add32", "ripple_adder(32)", bds::gen::ripple_adder(32)});
  families.push_back(
      {"bshift32", "barrel_shifter(32)", bds::gen::barrel_shifter(32)});
  families.push_back(
      {"mult8", "array_multiplier(8)", bds::gen::array_multiplier(8)});
  families.push_back({"alu8", "alu(8)", bds::gen::alu(8)});
  families.push_back({"parity64", "parity_tree(64)", bds::gen::parity_tree(64)});
  families.push_back({"priority16", "priority_controller(16)",
                      bds::gen::priority_controller(16)});
  families.push_back({"control24", "random_control(24,10,12,7)",
                      bds::gen::random_control(24, 10, 12, 7)});
  if (quick) families.resize(3);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_suite: cannot open " << out_path << " for writing\n";
    return 1;
  }
  Json json(out);
  json.open();
  json.field("schema", "bds-bench/v1");
  json.field("pr", "pr10");
  json.field("hardware_concurrency", std::thread::hardware_concurrency());

  bool all_ok = true;

  // -- Forced degradation ---------------------------------------------------
  std::cout << "== resource budget ==\n";
  const BudgetBenchResult bb = run_budget_bench();
  std::cout << "  " << bb.degraded_circuit << " @ node-limit "
            << bb.degraded_node_limit << ": " << bb.degraded_passes
            << " degraded pass(es) in " << std::fixed << std::setprecision(3)
            << bb.degraded_seconds << "s, "
            << (bb.degraded_equivalent ? "EQUIVALENT" : "NOT EQUIVALENT")
            << "\n";
  json.open("budget");
  json.open("forced_degradation");
  json.field("circuit", bb.degraded_circuit);
  json.field("node_limit", bb.degraded_node_limit);
  json.field("seconds", bb.degraded_seconds);
  json.field("degraded_passes", bb.degraded_passes);
  json.field("degraded_count", bb.degraded_count);
  json.field("equivalent", bb.degraded_equivalent);
  json.close();
  json.close();
  if (!bb.degraded_equivalent) {
    std::cerr << "bench_suite: forced-degradation output NOT equivalent\n";
    all_ok = false;
  }

  // -- Telemetry cost --------------------------------------------------------
  std::cout << "== telemetry ==\n";
  const TelemetryBenchResult tb = run_telemetry_bench(quick ? 1 : 3);
  std::cout << "  " << tb.pipeline_circuit << " bds flow: telemetry off "
            << std::fixed << std::setprecision(3) << tb.pipeline_off_seconds
            << "s   on " << tb.pipeline_on_seconds << "s ("
            << tb.pipeline_spans << " spans)\n";
  json.open("telemetry");
  json.open("pipeline_tracing");
  json.field("circuit", tb.pipeline_circuit);
  json.field("off_seconds", tb.pipeline_off_seconds);
  json.field("on_seconds", tb.pipeline_on_seconds);
  json.field("spans", tb.pipeline_spans);
  json.close();
  json.close();

  // -- Service: bdsd request path, cold vs warm -----------------------------
  std::cout << "== service (bdsd result cache, cold vs warm) ==\n";
  std::vector<Family> workload(families.begin(),
                               families.begin() + std::min<std::size_t>(
                                                      families.size(), 3));
  const ServiceBenchResult sb = run_service_bench(workload, quick ? 1 : 3);
  json.open("service");
  json.field("reps", sb.reps);
  json.open_list("circuits");
  bool service_ok = true;
  for (const ServicePoint& p : sb.points) {
    json.open();
    json.field("circuit", p.circuit);
    json.field("cold_seconds", p.cold_seconds);
    json.field("warm_seconds", p.warm_seconds);
    json.field("speedup",
               p.warm_seconds > 0 ? p.cold_seconds / p.warm_seconds : 0.0);
    json.field("warm_cache_hits", p.warm_hits);
    json.field("warm_cache_misses", p.warm_misses);
    json.field("byte_identical", p.byte_identical);
    json.close();
    std::cout << "  " << std::left << std::setw(12) << p.circuit << std::right
              << "  cold " << std::fixed << std::setprecision(4)
              << p.cold_seconds << "s   warm " << p.warm_seconds << "s   "
              << std::setprecision(2)
              << (p.warm_seconds > 0 ? p.cold_seconds / p.warm_seconds : 0.0)
              << "x   " << p.warm_hits << " hit(s)"
              << (p.byte_identical ? "" : "   WARM BLIF DIFFERS!") << "\n";
    if (!p.ok || !p.byte_identical || p.warm_hits == 0 ||
        p.warm_misses != 0) {
      service_ok = false;
    }
  }
  json.close_list();
  json.field("cold_total_seconds", sb.cold_total);
  json.field("warm_total_seconds", sb.warm_total);
  json.field("speedup", sb.speedup);
  json.field("cache_entries", sb.cache_entries);
  json.field("cache_bytes", sb.cache_bytes);
  const bool service_fast_enough = sb.speedup >= 2.0;
  json.field("meets_2x_bar", service_fast_enough);
  json.close();
  std::cout << "  aggregate: cold " << std::fixed << std::setprecision(4)
            << sb.cold_total << "s   warm " << sb.warm_total << "s   "
            << std::setprecision(2) << sb.speedup << "x"
            << (service_fast_enough ? "" : "   UNDER THE 2x BAR!") << "\n";
  if (!service_ok) {
    std::cerr << "bench_suite: warm service replay missed the cache or "
                 "changed the output\n";
    all_ok = false;
  }
  if (!service_fast_enough) {
    std::cerr << "bench_suite: warm service speedup under the 2x bar\n";
    all_ok = false;
  }

  // -- Overload: admission vs no-admission under a 4x flood -----------------
  std::cout << "== overload (bounded admission vs unbounded baseline) ==\n";
  {
    const unsigned overload_workers = 2;
    const int overload_clients = 4 * static_cast<int>(overload_workers);
    const int successes_per_client = quick ? 1 : 3;
    const std::size_t bounded_depth = 2;
    // "No admission": a ceiling no closed loop of `overload_clients` can
    // reach, so every request is accepted and waits behind the whole
    // backlog -- the behavior the gate exists to prevent.
    const std::size_t baseline_depth = 256;
    const std::string overload_blif =
        bds::net::to_blif_string(bds::gen::array_multiplier(6));

    const OverloadSide bounded =
        run_overload_side(overload_blif, overload_workers, bounded_depth,
                          overload_clients, successes_per_client);
    const OverloadSide baseline =
        run_overload_side(overload_blif, overload_workers, baseline_depth,
                          overload_clients, successes_per_client);

    const bool shed_observed = !bounded.shed_ms.empty();
    const bool sheds_fast = bounded.worst_shed_ms < 10.0;
    const bool p99_bounded =
        bounded.p99_admitted_ms <= baseline.p99_admitted_ms;
    const bool overload_ok = bounded.all_ok && baseline.all_ok &&
                             bounded.byte_identical &&
                             baseline.byte_identical && shed_observed &&
                             sheds_fast && p99_bounded;

    auto emit_side = [&json](const char* key, const OverloadSide& side,
                             std::size_t depth) {
      json.open(key);
      json.field("queue_depth", depth);
      json.field("admitted", side.admitted_ms.size());
      json.field("sheds_observed", side.shed_ms.size());
      json.field("server_sheds", side.server_sheds);
      json.field("p99_admitted_ms", side.p99_admitted_ms);
      json.field("mean_admitted_ms", side.mean_admitted_ms);
      json.field("worst_shed_ms", side.worst_shed_ms);
      json.field("all_ok", side.all_ok);
      json.field("byte_identical", side.byte_identical);
      json.close();
    };
    json.open("overload");
    json.field("circuit", "array_multiplier(6)");
    json.field("workers", overload_workers);
    json.field("clients", overload_clients);
    json.field("successes_per_client", successes_per_client);
    emit_side("bounded", bounded, bounded_depth);
    emit_side("baseline", baseline, baseline_depth);
    json.field("shed_observed", shed_observed);
    json.field("sheds_under_10ms", sheds_fast);
    json.field("p99_bounded_vs_baseline", p99_bounded);
    json.field("ok", overload_ok);
    json.close();
    std::cout << "  bounded (depth " << bounded_depth << "): p99 "
              << std::fixed << std::setprecision(2) << bounded.p99_admitted_ms
              << "ms  mean " << bounded.mean_admitted_ms << "ms  "
              << bounded.shed_ms.size() << " shed(s), worst "
              << bounded.worst_shed_ms << "ms\n"
              << "  baseline (depth " << baseline_depth << "): p99 "
              << baseline.p99_admitted_ms << "ms  mean "
              << baseline.mean_admitted_ms << "ms  "
              << baseline.shed_ms.size() << " shed(s)\n"
              << "  p99 bounded vs baseline: "
              << (p99_bounded ? "YES" : "NO") << "   sheds <10ms: "
              << (sheds_fast ? "YES" : "NO")
              << (overload_ok ? "" : "   OVERLOAD CHECK FAILED!") << "\n";
    if (!overload_ok) {
      std::cerr << "bench_suite: overload section failed its checks\n";
      all_ok = false;
    }
  }

  // -- Technology mapping ---------------------------------------------------
  // The paper-reproduction numbers: every family through bds vs rugged vs
  // mini-SIS, each followed by gate mapping onto the embedded MCNC-like
  // library via the reserved `map` parameter, plus a bds k-LUT covering
  // point (`lut_k=4`) measured through the same counter path. These rows
  // feed the EXPERIMENTS.md "Paper reproduction" table.
  std::cout << "== technology mapping ==\n";
  json.open_list("mapping");
  for (const Family& fam : families) {
    json.open();
    json.field("name", fam.name);
    json.field("generator", fam.generator);
    json.field("inputs", fam.net.num_inputs());
    json.field("outputs", fam.net.num_outputs());
    json.field("literals", fam.net.total_literals());
    json.field("depth", fam.net.depth());
    json.open("flows");
    for (const char* script : {"bds", "rugged", "sis"}) {
      const MappedRun mr =
          run_mapped_flow(fam.net, script, {{"map", "mcnc"}});
      json.open(script);
      json.field("seconds", mr.seconds);
      json.field("literals_premap", mr.literals_premap);
      json.field("depth_premap", mr.depth_premap);
      json.field("peak_bdd_nodes", mr.peak_bdd_nodes);
      json.field("mapped_gates", mr.mapped_gates);
      json.field("mapped_area", mr.mapped_area);
      json.field("mapped_delay", mr.mapped_delay);
      json.field("equivalent", mr.equivalent);
      json.close();
      if (!mr.equivalent) {
        all_ok = false;
        std::cerr << "bench_suite: " << fam.name << "/" << script
                  << " mapped netlist is NOT equivalent\n";
      }
      std::cout << "  " << std::left << std::setw(12) << fam.name
                << std::right << std::setw(8) << script << "  lits "
                << std::setw(6) << mr.literals_premap << "  depth "
                << std::setw(3) << mr.depth_premap << "  area "
                << std::setw(7) << std::fixed << std::setprecision(1)
                << mr.mapped_area << "  delay " << std::setw(5)
                << std::setprecision(2) << mr.mapped_delay
                << (mr.equivalent ? "" : "  NOT EQUIVALENT!") << "\n";
    }
    {
      const MappedRun mr =
          run_mapped_flow(fam.net, "bds", {{"lut_k", "4"}});
      json.open("bds_lut4");
      json.field("seconds", mr.seconds);
      json.field("lut_count", mr.lut_count);
      json.field("lut_depth", mr.lut_depth);
      json.field("equivalent", mr.equivalent);
      json.close();
      if (!mr.equivalent) {
        all_ok = false;
        std::cerr << "bench_suite: " << fam.name
                  << "/bds lut4 netlist is NOT equivalent\n";
      }
      std::cout << "  " << std::left << std::setw(12) << fam.name
                << std::right << std::setw(8) << "lut4" << "  luts "
                << std::setw(6)
                << static_cast<unsigned>(mr.lut_count) << "  depth "
                << std::setw(3) << static_cast<unsigned>(mr.lut_depth)
                << (mr.equivalent ? "" : "  NOT EQUIVALENT!") << "\n";
    }
    json.close();
    json.close();
  }
  json.close_list();

  json.close();
  out << '\n';
  out.close();

  std::cout << "wrote " << out_path << "\n";
  if (!all_ok) {
    std::cerr << "bench_suite: a cross-check failed\n";
    return 1;
  }
  return 0;
}
