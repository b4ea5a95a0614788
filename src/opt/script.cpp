#include "opt/script.hpp"

#include <cctype>
#include <charconv>

namespace bds::opt {

namespace {

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

std::vector<ScriptCommand> parse_script(std::string_view text) {
  std::vector<ScriptCommand> commands;
  ScriptCommand current;
  std::string token;

  const auto flush_token = [&] {
    if (token.empty()) return;
    if (current.name.empty()) {
      current.name = std::move(token);
    } else {
      current.args.push_back(std::move(token));
    }
    token.clear();
  };
  const auto flush_command = [&] {
    flush_token();
    if (!current.name.empty()) commands.push_back(std::move(current));
    current = {};
  };

  bool in_comment = false;
  for (const char c : text) {
    if (c == '\n') {
      in_comment = false;
      flush_command();
    } else if (in_comment) {
      // skip
    } else if (c == '#') {
      in_comment = true;
    } else if (c == ';') {
      flush_command();
    } else if (is_space(c)) {
      flush_token();
    } else if (std::isprint(static_cast<unsigned char>(c))) {
      token.push_back(c);
    } else {
      throw ScriptError("script: unprintable character in input");
    }
  }
  flush_command();
  return commands;
}

int parse_int_arg(std::string_view pass, std::string_view value) {
  int result = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), result);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    throw ScriptError(std::string(pass) + ": expected an integer, got '" +
                      std::string(value) + "'");
  }
  return result;
}

std::size_t parse_size_arg(std::string_view pass, std::string_view value) {
  // Plain decimal digits only: from_chars takes no sign or blank for an
  // unsigned type.
  std::size_t result = 0;
  const char* const last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, result);
  if (ec != std::errc{} || ptr != last) {
    throw ScriptError(std::string(pass) + ": expected a count, got '" +
                      std::string(value) + "'");
  }
  return result;
}

std::string flag_value(std::string_view pass,
                       const std::vector<std::string>& args,
                       std::string_view flag, std::string_view fallback) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == flag) {
      if (i + 1 >= args.size()) {
        throw ScriptError(std::string(pass) + ": flag " + std::string(flag) +
                          " needs a value");
      }
      return args[i + 1];
    }
  }
  return std::string(fallback);
}

bool has_flag(const std::vector<std::string>& args, std::string_view flag) {
  for (const std::string& a : args) {
    if (a == flag) return true;
  }
  return false;
}

}  // namespace bds::opt
