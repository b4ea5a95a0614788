// The one definition of a request's user-facing options.
//
// Before this header existed, three surfaces re-declared the same knobs
// with three separate parse/validate paths: the `optimize_blif` CLI flags,
// the wire fields of `service::OptimizeRequest`, and the `bds-client`
// flags. Adding a field meant editing all three and hoping they agreed on
// spelling and units. `RequestOptions` collapses them: the struct is the
// wire payload of an optimize request (service/protocol.cpp serializes it
// field by field), `parse_cli_arg()` is the flag parser both CLIs call,
// and `apply()` is the single translation into PipelineOptions. A new
// request field is declared exactly once, here.
#pragma once

#include <cstdint>
#include <string>

#include "opt/manager.hpp"

namespace bds::opt {

/// Ceiling on RequestOptions::time_limit_ms (365 days): `arrival + limit`
/// must stay representable on the steady clock.
inline constexpr std::uint64_t kMaxTimeLimitMs = 365ull * 24 * 3600 * 1000;

/// Per-request options shared by the optimize_blif CLI, the bds-client
/// CLI, and the bdsd wire protocol. Zero always means "unset": unlimited
/// for the resource ceilings, "no time limit" for time_limit_ms, "the
/// flow's default" for jobs.
struct RequestOptions {
  std::string script;            ///< script text or name; "" = flow default
  std::uint32_t jobs = 0;        ///< intra-request workers; 0 = flow default
  std::uint64_t node_limit = 0;  ///< live-BDD-node ceiling (0 = unlimited)
  std::uint64_t byte_limit = 0;  ///< BDD byte ceiling (0 = unlimited)
  /// Wall-clock budget of the request, measured from its arrival (see
  /// apply()): in bdsd queue wait counts against it, and a request whose
  /// limit has already passed when its turn comes is rejected before a
  /// single BDD node is built. 0 = no limit.
  std::uint64_t time_limit_ms = 0;
  bool check = false;         ///< per-pass equivalence checkpoints
  bool bypass_cache = false;  ///< skip the daemon's ResultCache
  /// Gate library to technology-map the optimized network onto: a genlib
  /// file path, or "mcnc" for the embedded MCNC-like library. "" = no gate
  /// mapping. Appends a `map` pass to whatever script runs (protocol
  /// revision 3 wire field).
  std::string map_lib;
  /// When nonzero (2..6), cover the result with k-input LUTs by appending
  /// a `lutmap` pass (runs after `map` if both are set; protocol revision
  /// 3 wire field). 0 = no LUT mapping.
  std::uint32_t lut_k = 0;

  /// Consumes argv[i] (and its value, if any) when it is one of the shared
  /// request flags: -script, -j, -node-limit, -byte-limit, -time-limit
  /// (seconds, stored as ms), -check, -no-cache, -map, -lut. Returns false when argv[i] is not a shared flag (the
  /// caller's own flags come next); throws bds::ParseError on a flag with
  /// a missing or malformed value.
  bool parse_cli_arg(int argc, char* const* argv, int& i);

  /// Range-checks the fields a CLI or a wire peer could have set out of
  /// bounds (today: time_limit_ms, lut_k). Throws bds::ParseError naming the
  /// field.
  void validate() const;

  /// The usage text of the shared flags, one line each, indented two
  /// spaces -- both CLIs splice it into their usage() output so the help
  /// never drifts from the parser.
  static const char* cli_help();

  /// The reserved/declared script parameter bindings these options imply
  /// (jobs when nonzero, map when map_lib is set, lut_k when nonzero) for
  /// PassManager::from_script. The ceilings travel through apply() only.
  [[nodiscard]] ScriptParams to_script_params() const;

  /// Translates into pipeline terms: check, the budget ceilings, and --
  /// when time_limit_ms is set -- an absolute PipelineOptions::deadline of
  /// `arrival + time_limit_ms`. `arrival` is when the request entered the
  /// system (its socket read time in the daemon; "now" in a CLI).
  void apply(PipelineOptions& popts,
             std::chrono::steady_clock::time_point arrival =
                 std::chrono::steady_clock::now()) const;
};

}  // namespace bds::opt
