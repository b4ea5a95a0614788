#include "opt/request_options.hpp"

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/error.hpp"

namespace bds::opt {
namespace {

/// Plain decimal digits only (from_chars takes no blank or sign for an
/// unsigned type; strtoull would read " -1" as 2^64-1), at most `max`.
std::uint64_t parse_u64(const std::string& flag, const char* text,
                        std::uint64_t max = UINT64_MAX) {
  const char* const last = text + std::strlen(text);
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text, last, v);
  if (ec != std::errc{} || end != last || v > max) {
    throw ParseError(flag + ": expected an integer in 0.." +
                     std::to_string(max) + ", got \"" + text + "\"");
  }
  return v;
}

/// A duration in seconds, returned in whole milliseconds; a positive
/// duration under 1 ms becomes 1 ms, since 0 means "no limit". NaN and
/// values past kMaxTimeLimitMs are refused before the conversion could
/// overflow.
std::uint64_t parse_seconds_as_ms(const std::string& flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !(v >= 0.0 && v * 1000.0 <= static_cast<double>(kMaxTimeLimitMs))) {
    throw ParseError(flag + ": expected a duration in seconds, 0.." +
                     std::to_string(kMaxTimeLimitMs / 1000) + ", got \"" +
                     text + "\"");
  }
  const auto ms = static_cast<std::uint64_t>(v * 1000.0);
  return ms == 0 && v > 0.0 ? 1 : ms;
}

/// The value of flag argv[i], advancing i past it.
const char* flag_value(int argc, char* const* argv, int& i) {
  if (i + 1 >= argc) {
    throw ParseError(std::string(argv[i]) + ": missing value");
  }
  return argv[++i];
}

}  // namespace

bool RequestOptions::parse_cli_arg(int argc, char* const* argv, int& i) {
  const std::string arg = argv[i];
  if (arg == "-script") {
    script = flag_value(argc, argv, i);
  } else if (arg == "-j") {
    jobs = static_cast<std::uint32_t>(
        parse_u64(arg, flag_value(argc, argv, i), UINT32_MAX));
  } else if (arg == "-node-limit") {
    node_limit = parse_u64(arg, flag_value(argc, argv, i));
  } else if (arg == "-byte-limit") {
    byte_limit = parse_u64(arg, flag_value(argc, argv, i));
  } else if (arg == "-time-limit") {
    time_limit_ms = parse_seconds_as_ms(arg, flag_value(argc, argv, i));
  } else if (arg == "-check") {
    check = true;
  } else if (arg == "-no-cache") {
    bypass_cache = true;
  } else if (arg == "-map") {
    map_lib = flag_value(argc, argv, i);
    if (map_lib.empty()) {
      throw ParseError("-map: expected a genlib path or \"mcnc\"");
    }
  } else if (arg == "-lut") {
    lut_k = static_cast<std::uint32_t>(
        parse_u64(arg, flag_value(argc, argv, i), UINT32_MAX));
  } else {
    return false;
  }
  return true;
}

void RequestOptions::validate() const {
  if (time_limit_ms > kMaxTimeLimitMs) {
    throw ParseError("request options: time_limit_ms " +
                     std::to_string(time_limit_ms) + " out of range (0.." +
                     std::to_string(kMaxTimeLimitMs) + ")");
  }
  if (lut_k != 0 && (lut_k < 2 || lut_k > 6)) {
    throw ParseError("request options: lut_k " + std::to_string(lut_k) +
                     " out of range (0 = off, else 2..6)");
  }
}

const char* RequestOptions::cli_help() {
  return "  -script TEXT      script text or name (default: bds)\n"
         "  -j N              intra-request workers (0 = flow default)\n"
         "  -node-limit N     live-BDD-node ceiling (0 = unlimited)\n"
         "  -byte-limit N     BDD byte ceiling (0 = unlimited)\n"
         "  -time-limit SECS  wall-clock budget incl. queue wait (0 = none)\n"
         "  -check            per-pass equivalence checkpoints\n"
         "  -no-cache         bypass the daemon's result cache\n"
         "  -map LIB          map onto a genlib file, or \"mcnc\" for the "
         "built-in library\n"
         "  -lut K            cover with K-input LUTs, 2..6 (after -map if "
         "both)\n";
}

ScriptParams RequestOptions::to_script_params() const {
  ScriptParams params;
  if (jobs != 0) params.emplace_back("jobs", std::to_string(jobs));
  if (!map_lib.empty()) params.emplace_back("map", map_lib);
  if (lut_k != 0) params.emplace_back("lut_k", std::to_string(lut_k));
  return params;
}

void RequestOptions::apply(PipelineOptions& popts,
                           std::chrono::steady_clock::time_point arrival)
    const {
  popts.check = check;
  popts.node_limit = node_limit;
  popts.byte_limit = byte_limit;
  if (time_limit_ms != 0) {
    popts.deadline = arrival + std::chrono::milliseconds(time_limit_ms);
  }
}

}  // namespace bds::opt
