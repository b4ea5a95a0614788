// Benchmark harness for the BDS libraries.
//
// Runs one workload -- `ladder`, `verify` or `service` -- as a closed loop
// with one caller for a fixed measuring time, checks every output, and
// prints its metrics as the last line of standard output, one JSON object.
// Only the libraries' public functions are called; every per-layer time is
// a span this file records around a call into that layer (README.md lists
// the layers each workload stresses and the end-to-end metric each layer
// metric should move).
//
//   bds_perfbench --workload ladder|verify|service --seed N --seconds S
//                 [--trace 0|1] [--setup-only] [--spans FILE]
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds, and prints the per-layer metrics plus the tracing
// overhead. --setup-only performs the
// set-up once and prints {"setup_s": ...}, so a caller can sample set-up
// time in fresh processes. The exit code is 0 only when every output was
// correct.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/gen.hpp"
#include "net/network.hpp"
#include "opt/manager.hpp"
#include "opt/manager_pool.hpp"
#include "opt/registry.hpp"
#include "opt/request_options.hpp"
#include "opt/result_cache.hpp"
#include "opt/script.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "verify/cec.hpp"

namespace {

using namespace bds;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + salt).next();
}

// ---- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& what) {
    ++failed;
    if (failed <= 5) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Prints the result line. Times (units ms and s) are multiplied by
/// `time_scale` and rates (unit 1/s) divided by it; see HostSpeed.
void print_result(const Outcome& out, double time_scale) {
  std::string line = "{\"correct\": ";
  line += out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    double value = m.value;
    if (m.unit == "ms" || m.unit == "s") value *= time_scale;
    if (m.unit == "1/s") value /= time_scale;
    if (i != 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + json_number(value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- latency statistics -----------------------------------------------------

/// Quantile with linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Latency {
  double p50 = 0.0;
  double tail = 0.0;      ///< value with exactly 10 samples above it
  double tail_pct = 0.0;  ///< its percentile
  std::size_t samples = 0;
};

/// The median and the highest percentile that still has at least ten
/// samples beyond it.
Latency summarize(std::vector<double> ms) {
  Latency l;
  l.samples = ms.size();
  if (ms.empty()) return l;
  std::sort(ms.begin(), ms.end());
  l.p50 = quantile(ms, 0.5);
  const std::size_t n = ms.size();
  const std::size_t idx = n > 10 ? n - 11 : 0;
  l.tail = ms[idx];
  l.tail_pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return l;
}

/// Latency percentiles, and throughput as requests per round over the
/// median round time (robust to a stall in one round).
void add_end_to_end(Outcome& out, const std::vector<double>& latency_ms,
                    const std::vector<double>& round_s) {
  const Latency l = summarize(latency_ms);
  const double per_round = static_cast<double>(l.samples) /
                           static_cast<double>(round_s.size());
  std::fprintf(stderr, "requests %zu in %zu rounds; tail is p%.1f\n",
               l.samples, round_s.size(), l.tail_pct);
  out.add("req_ms.p50", l.p50, "ms");
  out.add("req_ms.tail", l.tail, "ms");
  out.add("ops_per_s", per_round / quantile(round_s, 0.5), "1/s");
}

// ---- host speed -------------------------------------------------------------

/// Probe time at which reported times equal measured times (see HostSpeed):
/// about the probe's median time on the 4-vCPU Xeon host the benchmark was
/// written on.
constexpr double kProbeReferenceMs = 2.3;
/// Probes taken before and again after the set-up.
constexpr int kSetupProbes = 5;

/// The speed of a shared host drifts by up to 40% over seconds to minutes,
/// and it drifts alike for every request: the cause is the machine's other
/// tenants, not the program. A fixed computation that calls nothing of the
/// libraries -- hashed reads and writes in a 256 KiB table, which is read
/// into the cache first, so the program's own use of the cache does not
/// change the probe -- is timed before every round and around the set-up,
/// and follows much of that drift. Every time the harness reports is the
/// measured time x kProbeReferenceMs / (the process's median probe time),
/// and every rate is scaled inversely: figures at the speed the host has
/// when the probe takes kProbeReferenceMs. A change to the program moves
/// them exactly as it moves the measured times.
class HostSpeed {
 public:
  /// Times the probe `times` times.
  void sample(int times = 1) {
    for (int k = 0; k < times; ++k) {
      std::uint32_t acc = 0;
      for (std::uint32_t& slot : table_) acc += slot;  // back into the cache
      std::uint64_t h = 0x9e3779b97f4a7c15ULL;
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < 300000; ++i) {
        h ^= h >> 29;
        h *= 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 32;
        std::uint32_t& slot = table_[(h + acc) & (table_.size() - 1)];
        acc += slot;
        slot = static_cast<std::uint32_t>(h) + acc;
      }
      probe_ms_.push_back(1e3 * seconds_since(t0));
    }
  }
  /// The factor that turns measured times into reported ones.
  [[nodiscard]] double time_scale() const {
    return probe_ms_.empty() ? 1.0
                             : kProbeReferenceMs / quantile(probe_ms_, 0.5);
  }
  [[nodiscard]] std::size_t samples() const { return probe_ms_.size(); }

 private:
  std::vector<std::uint32_t> table_ = std::vector<std::uint32_t>(1u << 16);
  std::vector<double> probe_ms_;
};

// ---- tracing ----------------------------------------------------------------

/// Spans recorded by this harness around its calls into the libraries:
/// kept in memory, written as JSON lines when the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  std::size_t open(std::string name, std::uint64_t request,
                   long parent = -1) {
    spans_.push_back({std::move(name), now_ms(), 0.0, parent, request});
    return spans_.size() - 1;
  }
  void close(std::size_t id) { spans_[id].end_ms = now_ms(); }
  [[nodiscard]] double duration_ms(std::size_t id) const {
    return spans_[id].end_ms - spans_[id].start_ms;
  }

  /// Total milliseconds of all spans with the given name.
  [[nodiscard]] double total_ms(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.end_ms - s.start_ms;
    }
    return sum;
  }
  void write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\": " << i << ", \"name\": \"" << s.name
         << "\", \"request\": " << s.request << ", \"parent\": " << s.parent
         << ", \"start_ms\": " << json_number(s.start_ms)
         << ", \"end_ms\": " << json_number(s.end_ms) << "}\n";
    }
  }

 private:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    long parent = -1;  ///< index of the enclosing span, -1 for a root
    std::uint64_t request = 0;
  };
  [[nodiscard]] double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---- the optimization pipeline, whole and pass at a time --------------------

/// Layer name of each pass of the `bds` script plus mapping, after the
/// src/ module that implements it.
std::string layer_of(const std::string& pass) {
  static const std::map<std::string, std::string> kLayers = {
      {"sweep", "net.sweep"},          {"bds_partition", "core.partition"},
      {"bds_decompose", "core.decompose"}, {"bds_sharing", "core.sharing"},
      {"bds_balance", "core.balance"}, {"bds_emit", "core.emit"},
      {"map", "map.map"}};
  const auto it = kLayers.find(pass);
  if (it == kLayers.end()) {
    throw std::runtime_error("no layer name for pass '" + pass + "'");
  }
  return it->second;
}

const std::vector<std::string> kPassLayers = {
    "net.sweep", "core.partition", "core.decompose", "core.sharing",
    "core.balance", "core.emit", "map.map"};

/// Request time not covered by any layer span, per request.
double unattributed_ms(const Tracer& tr, double requests) {
  double ms = tr.total_ms("request");
  for (const std::string& layer : kPassLayers) ms -= tr.total_ms(layer);
  for (const char* layer :
       {"net.parse", "net.write", "service.codec", "verify.check"}) {
    ms -= tr.total_ms(layer);
  }
  return ms / requests;
}

/// The `bds` script mapped onto the embedded mcnc library, as one
/// PassManager and as one PassManager per pass (run over a shared
/// PassContext, which gives the same network as the one-shot run).
struct Pipeline {
  opt::PassManager whole;
  std::vector<std::pair<std::string, opt::PassManager>> steps;

  explicit Pipeline(unsigned jobs) {
    const std::string j = std::to_string(jobs);
    whole = opt::PassManager::from_script("bds",
                                          {{"jobs", j}, {"map", "mcnc"}});
    std::vector<opt::ScriptCommand> commands =
        opt::parse_script(*opt::PassRegistry::instance().find_script("bds"));
    commands.push_back({"map", {"-lib", "mcnc"}});
    for (opt::ScriptCommand& c : commands) {
      if (c.name == "bds_decompose") c.args.insert(c.args.end(), {"-j", j});
      opt::PassManager pm;
      pm.add(opt::PassRegistry::instance().create(c));
      steps.emplace_back(layer_of(c.name), std::move(pm));
    }
    if (steps.size() != whole.passes().size()) {
      throw std::runtime_error("pass-at-a-time pipeline differs in length");
    }
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const opt::Pass& a = *whole.passes()[i];
      const opt::Pass& b = *steps[i].second.passes().front();
      if (a.name() != b.name() || a.args() != b.args()) {
        throw std::runtime_error("pass-at-a-time pipeline differs at pass " +
                                 std::string(a.name()));
      }
    }
  }
};

/// Quality of one optimized result, from the pipeline's own counters.
struct Quality {
  double literals = 0.0;  ///< factored literals entering the mapper
  double area = 0.0;
  double delay = 0.0;

  void add(const opt::PipelineStats& st) {
    for (const opt::PassStats& p : st.passes) {
      if (p.name == "map") literals += p.lits_before;
    }
    area += st.counter("mapped_area");
    delay += st.counter("mapped_delay");
  }
  void report(Outcome& out) const {
    out.add("literals", literals, "count");
    out.add("mapped_area", area, "area");
    out.add("mapped_delay", delay, "delay");
  }
};

/// Counters of the core layer that a pass-at-a-time run reports.
struct CoreCounters {
  double supernodes = 0, dominators = 0, mux = 0, generalized = 0,
         shannon = 0, busy_s = 0;

  void add(const opt::PipelineStats& st) {
    supernodes += st.counter("supernodes");
    dominators += st.counter("dominators");
    mux += st.counter("mux");
    generalized += st.counter("generalized");
    shannon += st.counter("shannon");
    busy_s += st.counter("par_seconds_max");
  }
};

/// Runs `net` through the pipeline pass at a time, one span per pass, and
/// returns the combined stats of the passes.
opt::PipelineStats run_traced(Pipeline& pipe, net::Network& net,
                              const opt::PipelineOptions& popts,
                              Tracer& tr, std::uint64_t id, long parent) {
  opt::PassContext ctx;
  opt::PipelineStats all;
  for (auto& [layer, pm] : pipe.steps) {
    const std::size_t s = tr.open(layer, id, parent);
    opt::PipelineStats st = pm.run(net, popts, ctx);
    tr.close(s);
    all.passes.push_back(std::move(st.passes.front()));
  }
  return all;
}

/// Per-layer metrics every traced run prints, in a fixed order. Layers a
/// workload does not call read 0.
struct LayerReport {
  std::map<std::string, std::pair<double, std::string>> values;

  LayerReport() {
    for (const char* ms :
         {"net.parse_ms", "net.write_ms", "net.sweep_ms", "core.partition_ms",
          "core.decompose_ms", "core.sharing_ms", "core.balance_ms",
          "core.emit_ms", "map.map_ms", "verify.prove_ms", "verify.refute_ms",
          "verify.abort_ms", "service.codec_ms", "unattributed_ms"}) {
      values[ms] = {0.0, "ms"};
    }
    for (const char* count :
         {"core.supernodes", "core.dominators", "core.mux",
          "core.generalized", "core.shannon", "verify.proved",
          "verify.refuted", "verify.aborted", "opt.cache_insertions",
          "opt.cache_evictions", "opt.pool_constructed", "req.samples"}) {
      values[count] = {0.0, "count"};
    }
    values["core.decompose_busy_share"] = {0.0, "share"};
    values["opt.cache_hit_share"] = {0.0, "share"};
    values["trace.ops_per_s_untraced"] = {0.0, "1/s"};
    values["trace.ops_per_s_traced"] = {0.0, "1/s"};
    values["trace.overhead_share"] = {0.0, "share"};
  }
  void set(const std::string& name, double v) {
    const auto it = values.find(name);
    if (it == values.end()) throw std::logic_error("unknown metric " + name);
    it->second.first = v;
  }
  /// Mean per-request milliseconds of every pass layer, plus the counters.
  void set_passes(const Tracer& tr, const CoreCounters& c, double requests) {
    for (const std::string& layer : kPassLayers) {
      set(layer + "_ms", tr.total_ms(layer) / requests);
    }
    set("core.supernodes", c.supernodes / requests);
    set("core.dominators", c.dominators / requests);
    set("core.mux", c.mux / requests);
    set("core.generalized", c.generalized / requests);
    set("core.shannon", c.shannon / requests);
    const double dec_ms = tr.total_ms("core.decompose");
    set("core.decompose_busy_share", dec_ms > 0 ? 1e3 * c.busy_s / dec_ms : 0);
  }
  /// Tracing overhead: throughput over request time, untraced vs traced.
  void set_overhead(const std::vector<double>& untraced_ms,
                    const std::vector<double>& traced_ms) {
    double u = 0, t = 0;
    for (double v : untraced_ms) u += v;
    for (double v : traced_ms) t += v;
    const double ops_u = 1e3 * static_cast<double>(untraced_ms.size()) / u;
    const double ops_t = 1e3 * static_cast<double>(traced_ms.size()) / t;
    set("trace.ops_per_s_untraced", ops_u);
    set("trace.ops_per_s_traced", ops_t);
    set("trace.overhead_share", 1.0 - ops_t / ops_u);
    set("req.samples", static_cast<double>(traced_ms.size()));
  }
  void report(Outcome& out) const {
    for (const auto& [name, v] : values) out.add(name, v.first, v.second);
  }
};

/// Times of the rounds of one run, by whether they were traced.
struct Rounds {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
};

/// Closed loop: calls `round(traced)` until at least `seconds` of measured
/// time have passed. Each call runs one whole round of requests and returns
/// the seconds it measured; the host's speed is probed before each. With
/// `trace`, rounds alternate between untraced and traced, so both kinds see
/// the same state of the host.
template <class Round>
Rounds run_rounds(double seconds, bool trace, HostSpeed& speed,
                  Round&& round) {
  Rounds r;
  double total = 0.0;
  bool traced = false;
  while (total < seconds) {
    speed.sample();
    const double s = round(traced);
    (traced ? r.traced_s : r.untraced_s).push_back(s);
    total += s;
    traced = trace && !traced;
  }
  return r;
}

/// The request order of a round: a seeded permutation, drawn afresh for
/// every round.
class RoundOrder {
 public:
  RoundOrder(std::size_t n, std::uint64_t seed)
      : rng_(mix(seed, 99)), order_(n) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
  }
  void shuffle() {
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.below(i)]);
    }
  }
  [[nodiscard]] auto begin() const { return order_.begin(); }
  [[nodiscard]] auto end() const { return order_.end(); }

 private:
  Rng rng_;
  std::vector<std::size_t> order_;
};

bool simulates_equal(const net::Network& golden, const std::string& blif,
                     std::uint64_t seed) {
  return verify::random_simulation_equal(golden, net::parse_blif_string(blif),
                                         1024, seed);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string spans;
};

// ---- ladder -----------------------------------------------------------------

struct Circuit {
  std::string name;
  net::Network golden;
  std::string blif;
};

Circuit make_circuit(std::string name, net::Network n) {
  std::string text = net::to_blif_string(n);
  return {std::move(name), std::move(n), std::move(text)};
}

/// The size ladder. random_multilevel appears twice, with two seeds, so a
/// pass has an odd number of requests and its median falls inside one
/// circuit's latencies instead of on the boundary between two.
std::vector<Circuit> ladder_inputs(std::uint64_t seed) {
  std::vector<Circuit> c;
  c.push_back(make_circuit("mult16", gen::array_multiplier(16)));
  c.push_back(make_circuit("mult24", gen::array_multiplier(24)));
  c.push_back(make_circuit("add256", gen::ripple_adder(256)));
  c.push_back(make_circuit("bshift128", gen::barrel_shifter(128)));
  c.push_back(make_circuit("ham6", gen::hamming_corrector(6)));
  for (std::uint64_t k = 0; k < 2; ++k) {
    const std::uint64_t s = mix(seed, k) % 1000000;
    c.push_back(make_circuit("rnd_s" + std::to_string(s),
                             gen::random_multilevel(64, 40, 60, 32, s)));
  }
  return c;
}

Outcome run_ladder(const Args& args, double& setup_s, HostSpeed& speed) {
  Outcome out;
  const std::vector<Circuit> circuits = ladder_inputs(args.seed);

  // Set-up: pipeline and library construction, then one untimed pass
  // whose outputs are the reference for every later request.
  const Clock::time_point t_setup = Clock::now();
  Pipeline pipe(1);
  std::vector<std::string> reference;
  Quality quality;
  for (const Circuit& c : circuits) {
    net::Network n = net::parse_blif_string(c.blif);
    quality.add(pipe.whole.run(n));
    reference.push_back(net::to_blif_string(n));
  }
  setup_s = seconds_since(t_setup);
  if (args.setup_only) return out;

  // Checks, outside the timed region: each reference simulates equal to
  // its generator network, and after every round each request's output
  // must be the reference bytes (for traced requests: pass at a time
  // equals the one-shot run).
  std::vector<bool> golden_ok(circuits.size());
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    golden_ok[i] = simulates_equal(circuits[i].golden, reference[i],
                                   mix(args.seed, 7 + i));
  }
  std::vector<std::pair<std::size_t, std::string>> outputs;
  const auto check_round = [&] {
    for (const auto& [i, text] : outputs) {
      ++out.attempted;
      if (!golden_ok[i]) {
        out.fail(circuits[i].name + ": output differs from its generator");
      } else if (text != reference[i]) {
        out.fail(circuits[i].name + ": output differs from the reference");
      }
    }
    outputs.clear();
  };

  RoundOrder order(circuits.size(), args.seed);
  Tracer tr(Clock::now());
  CoreCounters counters;
  std::vector<double> untraced_ms, traced_ms;
  const std::size_t pool_before = opt::ManagerPool::global().constructed();
  std::uint64_t id = 0;
  const Rounds rounds =
      run_rounds(args.seconds, args.trace, speed, [&](bool traced) {
        order.shuffle();
        const Clock::time_point t_round = Clock::now();
        for (std::size_t i : order) {
          std::string text;
          if (!traced) {
            const Clock::time_point t0 = Clock::now();
            net::Network n = net::parse_blif_string(circuits[i].blif);
            (void)pipe.whole.run(n);
            text = net::to_blif_string(n);
            untraced_ms.push_back(1e3 * seconds_since(t0));
          } else {
            const std::size_t req = tr.open("request", ++id);
            const auto parent = static_cast<long>(req);
            const std::size_t p = tr.open("net.parse", id, parent);
            net::Network n = net::parse_blif_string(circuits[i].blif);
            tr.close(p);
            counters.add(run_traced(pipe, n, {}, tr, id, parent));
            const std::size_t w = tr.open("net.write", id, parent);
            text = net::to_blif_string(n);
            tr.close(w);
            tr.close(req);
            traced_ms.push_back(tr.duration_ms(req));
          }
          outputs.emplace_back(i, std::move(text));
        }
        const double measured = seconds_since(t_round);
        check_round();
        return measured;
      });

  if (!args.trace) {
    add_end_to_end(out, untraced_ms, rounds.untraced_s);
    quality.report(out);
    return out;
  }

  LayerReport layers;
  const auto reqs = static_cast<double>(traced_ms.size());
  layers.set_passes(tr, counters, reqs);
  layers.set("net.parse_ms", tr.total_ms("net.parse") / reqs);
  layers.set("net.write_ms", tr.total_ms("net.write") / reqs);
  layers.set("unattributed_ms", unattributed_ms(tr, reqs));
  layers.set("opt.pool_constructed",
             static_cast<double>(opt::ManagerPool::global().constructed() -
                                 pool_before) /
                 static_cast<double>(untraced_ms.size() + traced_ms.size()));
  layers.set_overhead(untraced_ms, traced_ms);
  if (!args.spans.empty()) tr.write_jsonl(args.spans);
  layers.report(out);
  return out;
}

// ---- verify -----------------------------------------------------------------

/// Live-node ceiling of every check.
constexpr std::size_t kVerifyCeiling = 30'000;

struct Pair {
  std::string name;
  const Circuit* circuit;
  std::string other;  ///< BLIF text compared against the circuit
  bool equivalent;
};

/// Flips one literal of one gate that drives a primary output, chosen by
/// `rng`, until random simulation observes the change. Mutating next to an
/// output keeps the checker's work on the mutated pair close to its work
/// on the equivalent pair, so the seed moves verdicts, not check times.
std::string mutate(const std::string& blif, Rng& rng) {
  const net::Network original = net::parse_blif_string(blif);
  std::vector<net::NodeId> drivers;
  for (const auto& [name, id] : original.outputs()) {
    if (original.node(id).kind == net::NodeKind::kLogic) drivers.push_back(id);
  }
  for (int attempt = 0; attempt < 200 && !drivers.empty(); ++attempt) {
    net::Network n = original;
    const net::NodeId id = drivers[rng.below(drivers.size())];
    const net::Node& node = n.node(id);
    if (node.func.cube_count() == 0 || node.fanins.empty()) continue;
    std::vector<sop::Cube> cubes = node.func.cubes();
    sop::Cube& cube = cubes[rng.below(cubes.size())];
    const unsigned v = static_cast<unsigned>(rng.below(node.fanins.size()));
    const sop::Literal lit = cube.get(v);
    if (lit != sop::Literal::kPos && lit != sop::Literal::kNeg) continue;
    cube.set(v, lit == sop::Literal::kPos ? sop::Literal::kNeg
                                           : sop::Literal::kPos);
    n.rewrite_node(id, node.fanins,
                   sop::Sop(node.func.num_vars(), std::move(cubes)));
    if (!verify::random_simulation_equal(original, n, 1024, rng.next())) {
      return net::to_blif_string(n);
    }
  }
  throw std::runtime_error("no observable mutation found");
}

/// True when the assignment (by a's input order) gives some output of a
/// and b different values.
bool separates(const net::Network& a, const net::Network& b,
               const std::vector<bool>& cex) {
  if (cex.size() != a.num_inputs()) return false;
  std::vector<bool> b_in(b.num_inputs());
  for (std::size_t i = 0; i < b.num_inputs(); ++i) {
    const net::NodeId ai = a.find(b.node(b.inputs()[i]).name);
    const auto pos = std::find(a.inputs().begin(), a.inputs().end(), ai);
    if (pos == a.inputs().end()) return false;
    b_in[i] = cex[static_cast<std::size_t>(pos - a.inputs().begin())];
  }
  const std::vector<bool> va = a.eval(cex);
  const std::vector<bool> vb = b.eval(b_in);
  for (std::size_t o = 0; o < a.num_outputs(); ++o) {
    const std::string& name = a.outputs()[o].first;
    for (std::size_t p = 0; p < b.num_outputs(); ++p) {
      if (b.outputs()[p].first == name && va[o] != vb[p]) return true;
    }
  }
  return false;
}

Outcome run_verify(const Args& args, double& setup_s, HostSpeed& speed) {
  Outcome out;
  // Circuits proved (or, mutated, refuted) under the ceiling, plus one
  // that exceeds it; the last entry gets no mutated twin, which also makes
  // the pair count odd (see ladder_inputs).
  std::vector<Circuit> circuits;
  circuits.push_back(make_circuit("alu16", gen::alu(16)));
  circuits.push_back(make_circuit("prio24", gen::priority_controller(24)));
  circuits.push_back(make_circuit("mult6", gen::array_multiplier(6)));
  circuits.push_back(make_circuit("add16", gen::ripple_adder(16)));
  circuits.push_back(make_circuit("cmp16", gen::comparator(16)));
  circuits.push_back(make_circuit("rot16", gen::rotator(16)));
  circuits.push_back(make_circuit("mult8", gen::array_multiplier(8)));

  // Set-up: optimize every circuit, derive a mutated copy of each result,
  // and check every pair once.
  const Clock::time_point t_setup = Clock::now();
  Pipeline pipe(1);
  Quality quality;
  Rng mut_rng(mix(args.seed, 5));
  std::vector<Pair> pairs;
  for (const Circuit& c : circuits) {
    net::Network n = net::parse_blif_string(c.blif);
    quality.add(pipe.whole.run(n));
    std::string optimized = net::to_blif_string(n);
    std::string mutated =
        &c == &circuits.back() ? "" : mutate(optimized, mut_rng);
    pairs.push_back({c.name, &c, std::move(optimized), true});
    if (!mutated.empty()) {
      pairs.push_back({c.name + "*", &c, std::move(mutated), false});
    }
  }
  const auto check = [](const Pair& p) {
    const net::Network a = net::parse_blif_string(p.circuit->blif);
    const net::Network b = net::parse_blif_string(p.other);
    return verify::check_equivalence(a, b, kVerifyCeiling);
  };
  for (const Pair& p : pairs) (void)check(p);
  setup_s = seconds_since(t_setup);
  if (args.setup_only) return out;

  RoundOrder order(pairs.size(), args.seed);

  // Checks after each round, outside the timed region: no verdict
  // contradicts the pair's known answer, and every counterexample gives
  // the two networks different outputs.
  std::vector<std::pair<std::size_t, verify::CecResult>> verdicts;
  std::size_t decided = 0;
  std::vector<const char*> verdict_of(pairs.size(), "");
  const auto check_round = [&] {
    for (const auto& [i, r] : verdicts) {
      ++out.attempted;
      const Pair& p = pairs[i];
      verdict_of[i] = r.status == verify::CecStatus::kEquivalent ? "proved"
                      : r.status == verify::CecStatus::kInequivalent
                          ? "refuted"
                          : "aborted";
      if (r.status == verify::CecStatus::kAborted) continue;
      ++decided;
      if (r.status == verify::CecStatus::kEquivalent) {
        if (!p.equivalent) out.fail(p.name + ": mutated pair proved equal");
      } else if (p.equivalent) {
        out.fail(p.name + ": equivalent pair refuted");
      } else if (!separates(net::parse_blif_string(p.circuit->blif),
                            net::parse_blif_string(p.other),
                            r.counterexample)) {
        out.fail(p.name + ": counterexample does not separate the pair");
      }
    }
    verdicts.clear();
  };

  Tracer tr(Clock::now());
  std::vector<double> untraced_ms, traced_ms;
  std::vector<double> pair_ms(pairs.size());
  // Check time and count per verdict, in traced rounds.
  std::map<verify::CecStatus, std::pair<double, double>> by_verdict;
  std::uint64_t id = 0;
  const Rounds rounds =
      run_rounds(args.seconds, args.trace, speed, [&](bool traced) {
        order.shuffle();
        const Clock::time_point t_round = Clock::now();
        for (std::size_t i : order) {
          verify::CecResult r;
          if (!traced) {
            const Clock::time_point t0 = Clock::now();
            r = check(pairs[i]);
            untraced_ms.push_back(1e3 * seconds_since(t0));
            pair_ms[i] += untraced_ms.back();
          } else {
            const std::size_t req = tr.open("request", ++id);
            const auto parent = static_cast<long>(req);
            const std::size_t p = tr.open("net.parse", id, parent);
            const net::Network a =
                net::parse_blif_string(pairs[i].circuit->blif);
            const net::Network b = net::parse_blif_string(pairs[i].other);
            tr.close(p);
            const std::size_t c = tr.open("verify.check", id, parent);
            r = verify::check_equivalence(a, b, kVerifyCeiling);
            tr.close(c);
            tr.close(req);
            traced_ms.push_back(tr.duration_ms(req));
            auto& [ms, n] = by_verdict[r.status];
            ms += tr.duration_ms(c);
            n += 1;
          }
          verdicts.emplace_back(i, std::move(r));
        }
        const double measured = seconds_since(t_round);
        check_round();
        return measured;
      });

  if (!args.trace) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      std::fprintf(stderr, "  %-8s %-8s %8.1f ms\n", pairs[i].name.c_str(),
                   verdict_of[i],
                   pair_ms[i] / static_cast<double>(rounds.untraced_s.size()));
    }
    add_end_to_end(out, untraced_ms, rounds.untraced_s);
    quality.report(out);
    out.add("decided_share",
            static_cast<double>(decided) / static_cast<double>(out.attempted),
            "share");
    return out;
  }

  LayerReport layers;
  const auto traced_rounds = static_cast<double>(rounds.traced_s.size());
  const auto set_verdict = [&](verify::CecStatus s, const char* ms_name,
                               const char* count_name) {
    const auto& [ms, n] = by_verdict[s];
    layers.set(ms_name, n > 0 ? ms / n : 0.0);
    layers.set(count_name, n / traced_rounds);
  };
  set_verdict(verify::CecStatus::kEquivalent, "verify.prove_ms",
              "verify.proved");
  set_verdict(verify::CecStatus::kInequivalent, "verify.refute_ms",
              "verify.refuted");
  set_verdict(verify::CecStatus::kAborted, "verify.abort_ms",
              "verify.aborted");
  const auto reqs = static_cast<double>(traced_ms.size());
  layers.set("net.parse_ms", tr.total_ms("net.parse") / reqs);
  layers.set("unattributed_ms", unattributed_ms(tr, reqs));
  layers.set_overhead(untraced_ms, traced_ms);
  if (!args.spans.empty()) tr.write_jsonl(args.spans);
  layers.report(out);
  return out;
}

// ---- service ----------------------------------------------------------------

/// Distinct fresh circuits per seed. The stream cycles through them, so a
/// seed fixes every input of a run however many requests the run holds.
constexpr std::size_t kServicePool = 120;
/// Byte budget of the daemon's result cache: a small part of what the
/// pool's circuits insert. The cache is LRU, so a circuit's cones have left
/// it before the cycle comes back to it (fresh requests miss and insert,
/// and evictions keep pace with insertions), yet it holds every cone a
/// re-send (at most six requests later) asks for.
constexpr std::size_t kServiceCacheBytes = 256u << 10;
/// Requests per round: every third one re-sends a recent request verbatim.
constexpr std::size_t kServiceRound = 15;
/// A re-send repeats one of the last kResendWindow fresh requests.
constexpr std::size_t kResendWindow = 4;

/// One fresh circuit of the service stream: a random multilevel or
/// two-level control circuit of seeded size.
struct FreshCircuit {
  std::string name;
  net::Network golden;
  std::string blif;
  std::string response;  ///< the daemon's first answer
};

std::vector<FreshCircuit> fresh_circuits(std::uint64_t seed,
                                         std::size_t count) {
  Rng rng(seed);
  const auto pick = [&](unsigned lo, unsigned hi) {
    return lo + static_cast<unsigned>(rng.below(hi - lo + 1));
  };
  std::vector<FreshCircuit> pool;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t s = rng.next() % 1000000000;
    const bool multilevel = rng.coin();
    // Inputs, levels, width, outputs / inputs, outputs, cubes per output.
    const unsigned lo[2][4] = {{16, 10, 8, 0}, {24, 12, 16, 12}};
    const unsigned hi[2][4] = {{32, 24, 16, 0}, {40, 20, 28, 20}};
    unsigned p[4];
    for (int k = 0; k < 4; ++k) p[k] = pick(lo[multilevel][k], hi[multilevel][k]);
    FreshCircuit c;
    c.name = (multilevel ? "rml_s" : "ctl_s") + std::to_string(s);
    c.golden = multilevel ? gen::random_multilevel(p[0], p[1], p[2], p[3], s)
                          : gen::random_control(p[0], p[1], p[2], s);
    c.blif = net::to_blif_string(c.golden);
    pool.push_back(std::move(c));
  }
  return pool;
}

/// The seeded request stream over a pool: fresh requests take the pool's
/// circuits in turn, and every third request re-sends one of the last few
/// fresh ones verbatim.
class ServiceStream {
 public:
  ServiceStream(std::size_t pool, std::uint64_t seed)
      : pool_(pool), rng_(seed) {}

  /// Index into the pool of the next request.
  std::size_t next() {
    if (count_++ % 3 == 2) {
      const std::size_t back =
          1 + rng_.below(std::min<std::size_t>(kResendWindow, fresh_));
      return (fresh_ - back) % pool_;
    }
    return fresh_++ % pool_;
  }

 private:
  std::size_t pool_;
  Rng rng_;
  std::size_t count_ = 0;
  std::size_t fresh_ = 0;
};

/// An in-process bdsd server on a Unix socket, served from its own thread
/// and stopped and joined on destruction.
class ServerThread {
 public:
  explicit ServerThread(service::ServerOptions options)
      : server_(std::move(options)) {
    server_.start();
    thread_ = std::thread([this] { server_.serve(); });
  }
  ~ServerThread() {
    server_.stop();
    thread_.join();
    ::unlink(server_.socket_path().c_str());
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  [[nodiscard]] service::ServerStats stats() const { return server_.stats(); }

 private:
  service::Server server_;
  std::thread thread_;
};

/// Confines the calling thread, and every thread it creates afterwards, to
/// the last two CPUs it may run on. With one client, each request is
/// handed from thread to thread several times (client, connection reader,
/// executor, pool worker); on a virtualized host a handoff that has to wake
/// an idle virtual CPU waits a delay that varies with the host's load,
/// which made this workload the noisiest. Two CPUs still let `-j 2`
/// decompose in parallel.
void pin_to_two_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  cpu_set_t last;
  CPU_ZERO(&last);
  int kept = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && kept < 2; --cpu) {
    if (CPU_ISSET(cpu, &set)) {
      CPU_SET(cpu, &last);
      ++kept;
    }
  }
  if (kept > 0) (void)sched_setaffinity(0, sizeof last, &last);
}

Outcome run_service(const Args& args, double& setup_s, HostSpeed& speed) {
  Outcome out;
  pin_to_two_cpus();
  opt::RequestOptions ro;
  ro.script = "bds";
  ro.jobs = 2;
  ro.map_lib = "mcnc";
  const auto request_for = [&](const FreshCircuit& c) {
    return service::OptimizeRequest{c.blif, ro};
  };
  std::vector<FreshCircuit> warmup =
      fresh_circuits(mix(args.seed, 11), kServiceRound);
  std::vector<FreshCircuit> pool =
      fresh_circuits(mix(args.seed, 13), kServicePool);

  // Set-up: daemon start, client connection, and one untimed round of
  // requests disjoint from the pool.
  const Clock::time_point t_setup = Clock::now();
  service::ServerOptions so;
  so.socket_path = "perfbench-" + std::to_string(::getpid()) + ".sock";
  so.concurrency = 2;
  so.cache_bytes = kServiceCacheBytes;
  auto server = std::make_unique<ServerThread>(so);
  service::Client client(so.socket_path);
  client.connect();
  for (FreshCircuit& c : warmup) {
    service::OptimizeResponse r = client.optimize(request_for(c));
    if (r.status != service::Status::kOk) {
      throw std::runtime_error("warm-up request failed: " + r.error);
    }
    c.response = std::move(r.blif);
  }
  setup_s = seconds_since(t_setup);
  if (args.setup_only) return out;
  for (const FreshCircuit& c : warmup) {
    ++out.attempted;
    if (!simulates_equal(c.golden, c.response, mix(args.seed, 19))) {
      out.fail(c.name + ": warm-up response differs from its generator");
    }
  }

  // Checks after each round, outside the timed region: every status is OK
  // and every answer for a circuit repeats the bytes of its first answer.
  // The first answers are checked after the run (see below).
  ServiceStream stream(pool.size(), mix(args.seed, 17));
  std::vector<std::size_t> round;
  std::vector<service::OptimizeResponse> responses;
  const auto check_round = [&] {
    for (std::size_t k = 0; k < round.size(); ++k) {
      ++out.attempted;
      FreshCircuit& c = pool[round[k]];
      const service::OptimizeResponse& r = responses[k];
      if (r.status != service::Status::kOk) {
        out.fail(c.name + ": status " +
                 std::to_string(static_cast<int>(r.status)) + " " + r.error);
      } else if (c.response.empty()) {
        c.response = r.blif;
      } else if (r.blif != c.response) {
        out.fail(c.name + ": repeated request returned different bytes");
      }
    }
    round.clear();
    responses.clear();
  };

  // Each traced request is sent to the daemon (the request span), then
  // replayed in-process on the same payload, one span per layer: codec,
  // parse, every pass (with a cache of the daemon's budget and a pool of
  // its width), write. The replay must return the daemon's bytes.
  Tracer tr(Clock::now());
  Pipeline pipe(ro.jobs);
  opt::PipelineOptions popts;
  popts.result_cache = std::make_shared<opt::ResultCache>(kServiceCacheBytes);
  popts.thread_pool = std::make_shared<util::ThreadPool>(ro.jobs);
  CoreCounters counters;
  std::vector<double> untraced_ms, traced_ms;
  double hits = 0, lookups = 0;
  const service::ServerStats before = server->stats();
  std::uint64_t id = 0;
  const Rounds rounds =
      run_rounds(args.seconds, args.trace, speed, [&](bool traced) {
        for (std::size_t i = 0; i < kServiceRound; ++i) {
          round.push_back(stream.next());
        }
        double measured = 0.0;
        for (std::size_t i : round) {
          const service::OptimizeRequest request = request_for(pool[i]);
          if (!traced) {
            const Clock::time_point t0 = Clock::now();
            responses.push_back(client.optimize(request));
            untraced_ms.push_back(1e3 * seconds_since(t0));
            measured += untraced_ms.back() / 1e3;
            continue;
          }
          const std::size_t req = tr.open("request", ++id);
          responses.push_back(client.optimize(request));
          tr.close(req);
          const service::OptimizeResponse& r = responses.back();
          traced_ms.push_back(tr.duration_ms(req));
          measured += traced_ms.back() / 1e3;
          hits += static_cast<double>(r.cache_hits);
          lookups += static_cast<double>(r.cache_hits + r.cache_misses);

          const std::string resp_bytes = service::encode_optimize_response(r);
          const auto replay = static_cast<long>(tr.open("replay", id));
          const std::size_t c = tr.open("service.codec", id, replay);
          (void)service::encode_optimize_request(request);
          (void)service::decode_optimize_response(resp_bytes);
          tr.close(c);
          const std::size_t p = tr.open("net.parse", id, replay);
          net::Network n = net::parse_blif_string(request.blif);
          tr.close(p);
          counters.add(run_traced(pipe, n, popts, tr, id, replay));
          const std::size_t w = tr.open("net.write", id, replay);
          const std::string text = net::to_blif_string(n);
          tr.close(w);
          tr.close(static_cast<std::size_t>(replay));
          if (text != r.blif) {
            out.fail("in-process replay differs from the daemon");
          }
        }
        check_round();
        return measured;
      });
  const service::ServerStats after = server->stats();

  // Each circuit's first answer simulates equal to its generator, and the
  // same pipeline run in-process returns its bytes. The quality metrics
  // sum the whole pool, so they depend on the seed alone.
  Pipeline inproc(ro.jobs);
  Quality quality;
  for (const FreshCircuit& c : pool) {
    net::Network n = net::parse_blif_string(c.blif);
    quality.add(inproc.whole.run(n));
    if (c.response.empty()) continue;
    if (!simulates_equal(c.golden, c.response, mix(args.seed, 19))) {
      out.fail(c.name + ": response differs from its generator");
    } else if (net::to_blif_string(n) != c.response) {
      out.fail(c.name + ": in-process run differs from the daemon");
    }
  }

  if (!args.trace) {
    add_end_to_end(out, untraced_ms, rounds.untraced_s);
    quality.report(out);
    return out;
  }

  const auto reqs = static_cast<double>(traced_ms.size());
  const auto per_request = [&](std::uint64_t delta) {
    return static_cast<double>(delta) /
           static_cast<double>(untraced_ms.size() + traced_ms.size());
  };
  LayerReport layers;
  layers.set_passes(tr, counters, reqs);
  layers.set("service.codec_ms", tr.total_ms("service.codec") / reqs);
  layers.set("net.parse_ms", tr.total_ms("net.parse") / reqs);
  layers.set("net.write_ms", tr.total_ms("net.write") / reqs);
  // Request time the replayed layers do not account for: the daemon's
  // socket, admission and scheduling, and any difference between the
  // daemon's run and the replay.
  layers.set("unattributed_ms", unattributed_ms(tr, reqs));
  layers.set("opt.cache_hit_share", lookups > 0 ? hits / lookups : 0.0);
  layers.set("opt.cache_insertions",
             per_request(after.cache_insertions - before.cache_insertions));
  layers.set("opt.cache_evictions",
             per_request(after.cache_evictions - before.cache_evictions));
  layers.set("opt.pool_constructed",
             per_request(after.pool_constructed - before.pool_constructed));
  layers.set_overhead(untraced_ms, traced_ms);
  if (!args.spans.empty()) tr.write_jsonl(args.spans);
  layers.report(out);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") {
        args.workload = value();
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        args.trace = value() != "0";
      } else if (a == "--setup-only") {
        args.setup_only = true;
      } else if (a == "--spans") {
        args.spans = value();
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    }
    if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    return 2;
  }
  // The benchmark fixes every ceiling itself.
  unsetenv("BDS_NODE_LIMIT");

  try {
    double setup_s = 0.0;
    Outcome out;
    // Probes around the set-up, so a set-up-only process has its own.
    HostSpeed speed;
    speed.sample(kSetupProbes);
    if (args.workload == "ladder") {
      out = run_ladder(args, setup_s, speed);
    } else if (args.workload == "verify") {
      out = run_verify(args, setup_s, speed);
    } else if (args.workload == "service") {
      out = run_service(args, setup_s, speed);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    speed.sample(kSetupProbes);
    const double scale = speed.time_scale();
    std::fprintf(stderr,
                 "host probe: median of %zu is %.4f ms; times scaled by "
                 "%.4f\n",
                 speed.samples(), kProbeReferenceMs / scale, scale);
    if (args.setup_only) {
      std::printf("{\"setup_s\": %s}\n", json_number(setup_s * scale).c_str());
      return 0;
    }
    if (!args.trace) {
      // Outside `verify` every output check is a simulation against the
      // generator network, which always reaches a verdict.
      if (args.workload != "verify") out.add("decided_share", 1.0, "share");
      out.add("setup_s", setup_s, "s");
      out.add("peak_rss_mb", peak_rss_mb(), "MB");
      out.add("ok_share",
              static_cast<double>(out.attempted - out.failed) /
                  static_cast<double>(out.attempted),
              "share");
    }
    print_result(out, scale);
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
