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

double parse_seconds(const std::string& flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || v < 0.0) {
    throw ParseError(flag + ": expected a non-negative duration in seconds, "
                     "got \"" + text + "\"");
  }
  return v;
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
    time_limit_ms = static_cast<std::uint64_t>(
        parse_seconds(arg, flag_value(argc, argv, i)) * 1000.0);
  } else if (arg == "-deadline-ms") {
    deadline_ms = parse_u64(arg, flag_value(argc, argv, i));
  } else if (arg == "-priority") {
    const std::string v = flag_value(argc, argv, i);
    if (v == "normal" || v == "0") {
      priority = kPriorityNormal;
    } else if (v == "high" || v == "1") {
      priority = kPriorityHigh;
    } else {
      throw ParseError("-priority: expected normal|high, got \"" + v + "\"");
    }
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
  if (priority > kPriorityHigh) {
    throw ParseError("request options: priority " + std::to_string(priority) +
                     " out of range (0 = normal, 1 = high)");
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
         "  -time-limit SECS  wall-clock compute budget (0 = none)\n"
         "  -deadline-ms N    total latency budget incl. queue wait (0 = "
         "none)\n"
         "  -priority P       admission priority: normal|high\n"
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
  popts.time_limit_seconds = static_cast<double>(time_limit_ms) / 1000.0;
  if (deadline_ms != 0) {
    popts.deadline = arrival + std::chrono::milliseconds(deadline_ms);
  }
}

}  // namespace bds::opt
