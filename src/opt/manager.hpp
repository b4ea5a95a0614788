// The pipeline driver: runs a sequence of passes over a network with
// per-pass instrumentation (wall time, node/literal/depth deltas, pass
// counters), an optional per-pass equivalence checkpoint against the pass
// input, and an optional trace callback for live progress reporting.
#pragma once

#include <chrono>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "opt/pass.hpp"
#include "opt/script.hpp"

namespace bds::opt {

struct PipelineOptions {
  /// After every network-modifying pass, prove the pass output equivalent
  /// to the pass input (global-BDD CEC with a random-simulation fallback).
  /// The checkpoint CEC falls back to simulation past 2,000,000 live
  /// nodes.
  bool check = false;
  /// Ceilings of the resource budget governing the whole run (installed
  /// in the PassContext; passes put it on every BDD manager they create).
  /// With no node ceiling set, the BDS_NODE_LIMIT environment variable
  /// supplies one; 0 means "unlimited".
  std::size_t node_limit = 0;
  std::size_t byte_limit = 0;
  /// Absolute wall-clock deadline of the run (default-constructed = none),
  /// fixed by the caller: RequestOptions::apply() sets it to `arrival +
  /// time_limit_ms`, where bdsd's arrival is the request's socket read, so
  /// time a request spent queued counts against it. A deadline already in
  /// the past trips the budget at its first check, before any BDD node is
  /// built.
  std::chrono::steady_clock::time_point deadline{};
  /// Called after each pass completes with its final measurements.
  std::function<void(const PassStats&)> trace;
  /// Telemetry hub for the run (null = telemetry disabled, zero overhead).
  /// The manager wraps the whole run in a "pipeline" span and each pass in
  /// a "pass[i]:<name>" child span carrying every PassStats field as
  /// counters; passes add their own child spans through
  /// PassContext::telemetry(). See util/telemetry.hpp and DESIGN.md §5f.
  std::shared_ptr<util::Telemetry> telemetry;
  /// Cross-request content-addressed result cache (null = disabled). The
  /// bdsd daemon shares one instance across all requests so repeated cones
  /// skip decomposition; the CLI leaves it null (single-shot runs see no
  /// repeats worth the footprint). See opt/result_cache.hpp.
  std::shared_ptr<ResultCache> result_cache;
  /// Persistent worker pool for parallel passes (null = fall back to the
  /// process-wide util::ThreadPool::shared()). The bdsd daemon injects its
  /// own pool so concurrent requests and their inner `-j` parallelism share
  /// one set of threads; passes never construct pools of their own.
  std::shared_ptr<util::ThreadPool> thread_pool;
};

struct PipelineStats {
  std::vector<PassStats> passes;
  double seconds_total = 0.0;
  std::size_t check_failures = 0;
  /// Passes that completed in degraded form (PassStats::Outcome::kDegraded).
  std::size_t degraded_passes = 0;

  /// Sum of a named counter over all passes.
  [[nodiscard]] double counter(std::string_view key) const;
  /// Total seconds spent in passes with the given name.
  [[nodiscard]] double seconds_in(std::string_view pass_name) const;
};

/// `key=value` bindings for PassManager::from_script: script-declared
/// parameters (PassRegistry ScriptParamDecl) plus the reserved keys
/// `map`, `lut_k` (append a technology-mapping stage to any script).
using ScriptParams = std::vector<std::pair<std::string, std::string>>;

/// Renders the per-pass breakdown as an aligned text table (the `-stats`
/// output of `optimize_blif`, shared by both flows).
std::string format_pass_table(const PipelineStats& stats);

class PassManager {
 public:
  PassManager() = default;

  PassManager& add(std::unique_ptr<Pass> pass);

  /// Builds a pipeline from script text via the global PassRegistry.
  /// A single-word script naming a registered script ("rugged", "bds") is
  /// expanded to that script's text first. Throws ScriptError on unknown
  /// passes or malformed arguments.
  static PassManager from_script(const std::string& script);
  /// Same, binding `key=value` parameters: reserved mapping keys (`map` =
  /// genlib path or "mcnc", `lut_k` = LUT arity) append `map -lib <v>` /
  /// `lutmap -k <v>` passes after the script's own commands; other keys
  /// must be declared by the named script and are routed to their pass as
  /// flags (a binding wins over a flag already in the text). Throws
  /// ScriptError on a key the script does not declare.
  static PassManager from_script(const std::string& script,
                                 const ScriptParams& params);

  /// Runs all passes in order over `net`, in place.
  PipelineStats run(net::Network& net, const PipelineOptions& options = {});
  /// Same, with a caller-owned context (to inspect blackboard state after
  /// the run, or to share state between pipelines).
  PipelineStats run(net::Network& net, const PipelineOptions& options,
                    PassContext& ctx);

  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }
  bool empty() const { return passes_.empty(); }

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace bds::opt
