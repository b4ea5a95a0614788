// Script grammar of the pipeline layer: a flow is a `;`- or
// newline-separated list of commands, each a pass name followed by
// whitespace-separated arguments. `#` starts a comment running to end of
// line. Example:
//
//   sweep; eliminate -1; simplify
//   gkx   # fast-extract
//   resub; full_simplify
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bds::opt {

/// Malformed script text, an unknown pass name, or bad pass arguments.
class ScriptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ScriptCommand {
  std::string name;
  std::vector<std::string> args;

  bool operator==(const ScriptCommand&) const = default;
};

/// Parses script text into commands. Empty commands (";;", blank lines)
/// are skipped. Throws ScriptError on stray characters.
std::vector<ScriptCommand> parse_script(std::string_view text);

// ---- argument parsing helpers for pass factories ------------------------------

/// Parses a full-string integer; ScriptError mentioning `pass` otherwise.
int parse_int_arg(std::string_view pass, std::string_view value);
/// Parses a full-string count that fits std::size_t: decimal digits only,
/// no sign or blank.
std::size_t parse_size_arg(std::string_view pass, std::string_view value);

/// Returns the value following flag `flag` in `args` (e.g. "-j" "4"),
/// or `fallback` when absent. Throws when the flag is last with no value.
std::string flag_value(std::string_view pass,
                       const std::vector<std::string>& args,
                       std::string_view flag, std::string_view fallback);
/// True when the bare flag is present.
bool has_flag(const std::vector<std::string>& args, std::string_view flag);

}  // namespace bds::opt
