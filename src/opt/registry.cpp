#include "opt/registry.hpp"

#include <algorithm>
#include <cctype>

namespace bds::opt {

PassRegistry& PassRegistry::instance() {
  static PassRegistry* registry = [] {
    auto* r = new PassRegistry();
    register_sis_passes(*r);
    register_bds_passes(*r);
    register_map_passes(*r);
    // The flows are their script texts; these literals are their only
    // definition. "bds" is the paper's Fig. 12 pipeline. "rugged" is SIS's
    // script.rugged: sweep/eliminate/simplify, then extraction and
    // resubstitution, a cleanup round, and the closing full_simplify (which
    // gives up by itself on BDD-infeasible circuits). "sis" is the leaner
    // mini-SIS baseline -- rugged without that closing full_simplify round
    // -- the third column of the paper-reproduction mapping benchmarks.
    r->add_script("bds",
                  "sweep; bds_partition; bds_decompose; bds_sharing; "
                  "bds_balance; bds_emit; sweep",
                  {{"jobs", "bds_decompose", "-j"}});
    r->add_script("rugged",
                  "sweep; eliminate -1; simplify; sweep; eliminate 5; gkx; "
                  "resub; gkx; sweep; eliminate -1; simplify; sweep; "
                  "full_simplify; sweep");
    r->add_script("sis",
                  "sweep; eliminate -1; simplify; sweep; eliminate 5; gkx; "
                  "resub; gkx; sweep; eliminate -1; simplify; sweep");
    return r;
  }();
  return *registry;
}

void PassRegistry::add(const std::string& name, const std::string& help,
                       Factory factory) {
  passes_[name] = Entry{help, std::move(factory)};
}

bool PassRegistry::contains(const std::string& name) const {
  return passes_.count(name) != 0;
}

std::unique_ptr<Pass> PassRegistry::create(const ScriptCommand& command) const {
  const auto it = passes_.find(command.name);
  if (it == passes_.end()) {
    throw ScriptError("unknown pass '" + command.name + "'");
  }
  return it->second.factory(command.args);
}

std::vector<std::pair<std::string, std::string>> PassRegistry::list() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(passes_.size());
  for (const auto& [name, entry] : passes_) out.emplace_back(name, entry.help);
  std::sort(out.begin(), out.end());
  return out;
}

void PassRegistry::add_script(const std::string& name, const std::string& text,
                              std::vector<ScriptParamDecl> params) {
  scripts_[name] = Script{text, std::move(params)};
}

const std::string* PassRegistry::find_script(const std::string& name) const {
  const auto it = scripts_.find(name);
  return it == scripts_.end() ? nullptr : &it->second.text;
}

const std::vector<ScriptParamDecl>& PassRegistry::script_params(
    const std::string& name) const {
  static const std::vector<ScriptParamDecl> kEmpty;
  const auto it = scripts_.find(name);
  return it == scripts_.end() ? kEmpty : it->second.params;
}

std::vector<std::pair<std::string, std::string>> PassRegistry::list_scripts()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(scripts_.size());
  for (const auto& [name, script] : scripts_) {
    out.emplace_back(name, script.text);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void validate_args(std::string_view pass, const std::vector<std::string>& args,
                   std::size_t max_positional,
                   const std::vector<std::string_view>& value_flags,
                   const std::vector<std::string_view>& bare_flags) {
  std::size_t positional = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (std::find(value_flags.begin(), value_flags.end(), a) !=
        value_flags.end()) {
      if (i + 1 >= args.size()) {
        throw ScriptError(std::string(pass) + ": flag " + a +
                          " needs a value");
      }
      ++i;  // consume the value
      continue;
    }
    if (std::find(bare_flags.begin(), bare_flags.end(), a) !=
        bare_flags.end()) {
      continue;
    }
    // A positional argument. Negative numbers ("-1") parse as positional,
    // not as flags.
    const bool looks_numeric =
        !a.empty() && (a[0] != '-' || (a.size() > 1 && (std::isdigit(static_cast<unsigned char>(a[1])) != 0)));
    if (looks_numeric && positional < max_positional) {
      ++positional;
      continue;
    }
    throw ScriptError(std::string(pass) + ": unknown argument '" + a + "'");
  }
}

}  // namespace bds::opt
