#include "opt/manager.hpp"

#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <memory>
#include <sstream>

#include "opt/registry.hpp"
#include "util/timer.hpp"
#include "verify/cec.hpp"

namespace bds::opt {

namespace {

/// Live-node budget of a checkpoint CEC before it falls back to
/// simulation.
constexpr std::size_t kCheckMaxLiveNodes = 2'000'000;

}  // namespace

double PipelineStats::counter(std::string_view key) const {
  double total = 0.0;
  for (const PassStats& p : passes) total += p.counter(key);
  return total;
}

double PipelineStats::seconds_in(std::string_view pass_name) const {
  double total = 0.0;
  for (const PassStats& p : passes) {
    if (p.name == pass_name) total += p.seconds;
  }
  return total;
}

PassManager& PassManager::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

PassManager PassManager::from_script(const std::string& script) {
  return from_script(script, {});
}

PassManager PassManager::from_script(const std::string& script,
                                     const ScriptParams& params) {
  std::string text = script;
  const std::vector<ScriptParamDecl>* decls = nullptr;
  {
    // A bare registered-script name expands to its text and brings its
    // parameter declarations into scope.
    const std::vector<ScriptCommand> probe = parse_script(text);
    if (probe.size() == 1 && probe[0].args.empty()) {
      if (const std::string* named =
              PassRegistry::instance().find_script(probe[0].name)) {
        text = *named;
        decls = &PassRegistry::instance().script_params(probe[0].name);
      }
    }
  }
  std::vector<ScriptCommand> commands = parse_script(text);
  PassManager pm;
  // Reserved mapping keys append a mapping stage after the script's own
  // commands; collected first so the order the caller lists them in does
  // not matter (gate mapping always precedes LUT covering).
  std::string map_lib;
  std::string lut_k;
  for (const auto& [key, value] : params) {
    // Reserved mapping keys: rather than binding a flag on a pass the
    // script must already contain, they append the `map` / `lutmap`
    // passes to the end of ANY script -- so `-script rugged -map mcnc`
    // works the same as `-script bds -map lib.genlib`, from the CLI, the
    // daemon, and the bench harness alike.
    if (key == "map") {
      map_lib = value;
      continue;
    }
    if (key == "lut_k") {
      lut_k = value;
      continue;
    }
    const ScriptParamDecl* decl = nullptr;
    if (decls != nullptr) {
      for (const ScriptParamDecl& d : *decls) {
        if (d.key == key) {
          decl = &d;
          break;
        }
      }
    }
    if (decl == nullptr) {
      throw ScriptError("unknown pipeline parameter '" + key + "'");
    }
    bool applied = false;
    for (ScriptCommand& cmd : commands) {
      if (cmd.name != decl->pass) continue;
      // Prepend so the binding wins over a same flag already in the text
      // (flag_value returns the first occurrence).
      cmd.args.insert(cmd.args.begin(), {decl->flag, value});
      applied = true;
    }
    if (!applied) {
      throw ScriptError("parameter '" + key + "' targets pass '" + decl->pass +
                        "', which the script does not contain");
    }
  }
  if (!map_lib.empty()) {
    commands.push_back(ScriptCommand{"map", {"-lib", map_lib}});
  }
  if (!lut_k.empty()) {
    commands.push_back(ScriptCommand{"lutmap", {"-k", lut_k}});
  }
  for (const ScriptCommand& cmd : commands) {
    pm.add(PassRegistry::instance().create(cmd));
  }
  return pm;
}

PipelineStats PassManager::run(net::Network& net,
                               const PipelineOptions& options) {
  PassContext ctx;
  return run(net, options, ctx);
}

PipelineStats PassManager::run(net::Network& net,
                               const PipelineOptions& options,
                               PassContext& ctx) {
  PipelineStats stats;
  stats.passes.reserve(passes_.size());
  Timer t_total;

  // Assemble the run's budget from the explicit ceilings, with the
  // BDS_NODE_LIMIT environment variable (the CI safety net) standing in
  // for an unset node ceiling. The deadline (default-constructed
  // time_point = none) becomes a relative remaining-seconds figure here; a
  // deadline already in the past yields remaining <= 0, which arms a
  // budget that trips at its first check -- the "reject expired work
  // before building a node" contract.
  std::size_t node_limit = options.node_limit;
  if (node_limit == 0) {
    if (const char* env = std::getenv("BDS_NODE_LIMIT")) {
      node_limit = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    }
  }
  const bool deadline_armed = options.deadline.time_since_epoch().count() != 0;
  util::BudgetPtr budget;
  if (node_limit != 0 || options.byte_limit != 0 || deadline_armed) {
    budget =
        std::make_shared<util::ResourceBudget>(node_limit, options.byte_limit);
  }
  if (deadline_armed) {
    budget->set_deadline_in(std::chrono::duration<double>(
                                options.deadline -
                                std::chrono::steady_clock::now())
                                .count());
  }
  ctx.set_budget(budget);
  ctx.set_result_cache(options.result_cache);
  if (options.thread_pool) ctx.set_thread_pool(options.thread_pool);

  // Telemetry: the whole run is one "pipeline" span; each pass gets a
  // "pass[i]:<name>" child span that mirrors its PassStats, so a trace
  // alone carries every -stats column. With no telemetry installed every
  // span here is inert and free.
  util::Telemetry* telemetry = options.telemetry.get();
  ctx.set_telemetry(telemetry);
  util::TelemetrySpan pipeline_span =
      util::TelemetrySpan::open(telemetry, "pipeline");

  // One statistics walk per pass boundary: a pass's "after" figures are
  // the next pass's "before" figures, and a pass that declares it leaves
  // the network alone is not walked again.
  net::NetworkStats current = net.stats();
  std::size_t pass_index = 0;
  for (const std::unique_ptr<Pass>& pass : passes_) {
    PassStats ps;
    ps.name = std::string(pass->name());
    ps.args = pass->args();
    ps.nodes_before = current.nodes;
    ps.lits_before = current.literals;
    ps.depth_before = current.depth;

    util::TelemetrySpan pass_span = util::TelemetrySpan::open(
        telemetry,
        "pass[" + std::to_string(pass_index++) + "]:" + ps.name);

    const bool checkpoint = options.check && pass->modifies_network();
    net::Network before_copy("unused");
    if (checkpoint) before_copy = net;

    ctx.attach_counter_sink(&ps);
    Timer t_pass;
    pass->run(net, ctx);
    ps.seconds = t_pass.seconds();
    ctx.attach_counter_sink(nullptr);

    if (pass->modifies_network()) current = net.stats();
    ps.nodes_after = current.nodes;
    ps.lits_after = current.literals;
    ps.depth_after = current.depth;

    // A pass reports partial fallback through its "degraded" counter; the
    // run is still functionally correct, just not fully decomposed.
    if (ps.counter("degraded") > 0.0) {
      ps.outcome = PassStats::Outcome::kDegraded;
      ++stats.degraded_passes;
    }

    if (checkpoint) {
      const verify::CecResult cec = verify::check_equivalence(
          before_copy, net, kCheckMaxLiveNodes, budget);
      switch (cec.status) {
        case verify::CecStatus::kEquivalent:
          ps.check = PassStats::Check::kEquivalent;
          break;
        case verify::CecStatus::kInequivalent:
          ps.check = PassStats::Check::kFailed;
          break;
        case verify::CecStatus::kAborted:
          ps.check = verify::random_simulation_equal(before_copy, net)
                         ? PassStats::Check::kSimulated
                         : PassStats::Check::kFailed;
          break;
      }
      if (ps.check == PassStats::Check::kFailed) ++stats.check_failures;
    }

    if (pass_span.active()) {
      if (!ps.args.empty()) pass_span.attr("args", ps.args);
      pass_span.count("nodes_before", static_cast<double>(ps.nodes_before));
      pass_span.count("nodes_after", static_cast<double>(ps.nodes_after));
      pass_span.count("lits_before", ps.lits_before);
      pass_span.count("lits_after", ps.lits_after);
      pass_span.count("depth_before", ps.depth_before);
      pass_span.count("depth_after", ps.depth_after);
      pass_span.count("check", static_cast<double>(ps.check));
      pass_span.count("outcome", static_cast<double>(ps.outcome));
      pass_span.count("seconds", ps.seconds);  // exec bucket, feeds -stats
      for (const auto& [key, value] : ps.counters) {
        pass_span.count(key, value);
      }
    }
    pass_span.close();

    if (options.trace) options.trace(ps);
    stats.passes.push_back(std::move(ps));
  }

  stats.seconds_total = t_total.seconds();
  if (pipeline_span.active()) {
    pipeline_span.count("passes", static_cast<double>(stats.passes.size()));
    pipeline_span.count("check_failures",
                        static_cast<double>(stats.check_failures));
    pipeline_span.count("degraded_passes",
                        static_cast<double>(stats.degraded_passes));
    pipeline_span.count("seconds", stats.seconds_total);
  }
  pipeline_span.close();
  ctx.set_telemetry(nullptr);
  return stats;
}

std::string format_pass_table(const PipelineStats& stats) {
  std::ostringstream os;
  os << "  " << std::left << std::setw(28) << "pass" << std::right
     << std::setw(10) << "time [s]" << std::setw(16) << "nodes"
     << std::setw(16) << "literals" << std::setw(7) << "depth"
     << std::setw(7) << "check" << std::setw(5) << "run" << "  counters\n";

  const auto arrow = [](std::size_t before, std::size_t after) {
    std::ostringstream s;
    if (before == after) {
      s << after;
    } else {
      s << before << "->" << after;
    }
    return s.str();
  };

  for (const PassStats& p : stats.passes) {
    std::string head = p.name;
    if (!p.args.empty()) head += " " + p.args;
    os << "  " << std::left << std::setw(28) << head << std::right
       << std::setw(10) << std::fixed << std::setprecision(4) << p.seconds
       << std::setw(16) << arrow(p.nodes_before, p.nodes_after)
       << std::setw(16) << arrow(p.lits_before, p.lits_after)
       << std::setw(7)
       << arrow(p.depth_before, p.depth_after);
    const char* check = "-";
    switch (p.check) {
      case PassStats::Check::kSkipped:
        check = "-";
        break;
      case PassStats::Check::kEquivalent:
        check = "ok";
        break;
      case PassStats::Check::kSimulated:
        check = "sim";
        break;
      case PassStats::Check::kFailed:
        check = "FAIL";
        break;
    }
    os << std::setw(7) << check;
    os << std::setw(5)
       << (p.outcome == PassStats::Outcome::kDegraded ? "deg" : "-") << "  ";
    bool first = true;
    for (const auto& [key, value] : p.counters) {
      if (!first) os << ' ';
      first = false;
      os << key << '=';
      if (value == static_cast<double>(static_cast<long long>(value))) {
        os << static_cast<long long>(value);
      } else {
        os << value;
      }
    }
    os << '\n';
  }
  os << "  " << std::left << std::setw(28) << "total" << std::right
     << std::setw(10) << std::fixed << std::setprecision(4)
     << stats.seconds_total << '\n';
  return os.str();
}

}  // namespace bds::opt
