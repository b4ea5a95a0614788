// BLIF reader/writer for combinational models. Supports .model, .inputs,
// .outputs, .names with '\' line continuations and '#' comments; both onset
// ("... 1") and offset ("... 0") covers are accepted, the latter being
// complemented on the fly (offset covers are rare and small in practice).
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "net/network.hpp"
#include "util/error.hpp"

namespace bds::net {

namespace {

/// Splits on whitespace. No stream per line: a flat netlist has one line
/// per cube, so this runs hundreds of thousands of times.
std::vector<std::string> tokenize(const std::string& line) {
  constexpr const char* kBlank = " \t\n\v\f\r";
  std::vector<std::string> tokens;
  std::size_t end = 0;
  for (;;) {
    const std::size_t begin = line.find_first_not_of(kBlank, end);
    if (begin == std::string::npos) return tokens;
    end = line.find_first_of(kBlank, begin);
    tokens.push_back(line.substr(begin, end - begin));
  }
}

struct PendingNames {
  std::vector<std::string> signals;  // fanins..., output
  std::vector<std::pair<std::string, char>> cover;  // input part, output bit
  int line = 0;
};

}  // namespace

Network parse_blif(std::istream& is) {
  Network net;
  std::vector<std::string> declared_inputs;
  std::vector<std::string> declared_outputs;
  std::vector<PendingNames> pending;
  PendingNames* current = nullptr;
  bool in_model = false;
  // Signal definition sites (inputs and .names outputs), for duplicate
  // diagnostics that point at both lines instead of a late generic throw.
  std::unordered_map<std::string, int> defined_at;

  int lineno = 0;
  std::string line;
  std::string logical;
  const auto fail = [&](const std::string& msg) {
    throw ParseError("blif line " + std::to_string(lineno) + ": " +
                             msg);
  };

  while (std::getline(is, line)) {
    ++lineno;
    // Strip comments and handle continuations.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    logical += line;
    if (!logical.empty() && logical.back() == '\\') {
      logical.pop_back();
      continue;
    }
    const std::vector<std::string> tokens = tokenize(logical);
    logical.clear();
    if (tokens.empty()) continue;

    if (tokens[0] == ".model") {
      if (in_model) fail("nested .model (only flat models supported)");
      in_model = true;
      if (tokens.size() > 1) net.set_name(tokens[1]);
    } else if (tokens[0] == ".inputs") {
      for (auto it = tokens.begin() + 1; it != tokens.end(); ++it) {
        const auto [prev, fresh] = defined_at.emplace(*it, lineno);
        if (!fresh) {
          fail("input '" + *it + "' already defined at line " +
               std::to_string(prev->second));
        }
        declared_inputs.push_back(*it);
      }
      current = nullptr;
    } else if (tokens[0] == ".outputs") {
      declared_outputs.insert(declared_outputs.end(), tokens.begin() + 1,
                              tokens.end());
      current = nullptr;
    } else if (tokens[0] == ".names") {
      if (tokens.size() < 2) fail(".names needs at least an output");
      const auto [prev, fresh] = defined_at.emplace(tokens.back(), lineno);
      if (!fresh) {
        fail("duplicate driver for '" + tokens.back() +
             "' (already defined at line " + std::to_string(prev->second) +
             ")");
      }
      pending.push_back(
          {std::vector<std::string>(tokens.begin() + 1, tokens.end()),
           {},
           lineno});
      current = &pending.back();
    } else if (tokens[0] == ".end") {
      break;
    } else if (tokens[0] == ".latch") {
      fail("sequential elements are not supported (combinational BLIF only)");
    } else if (tokens[0][0] == '.') {
      // Ignore unknown dot-directives (.default_input_arrival etc.).
      current = nullptr;
    } else {
      if (current == nullptr) fail("cover line outside .names");
      if (current->signals.size() == 1) {
        // Constant node: single token '1' or '0'.
        if (tokens.size() != 1 || (tokens[0] != "1" && tokens[0] != "0")) {
          fail("bad constant cover");
        }
        current->cover.emplace_back("", tokens[0][0]);
      } else {
        if (tokens.size() != 2) fail("cover line must be '<cube> <value>'");
        if (tokens[0].size() != current->signals.size() - 1) {
          fail("cube width " + std::to_string(tokens[0].size()) +
               " does not match fanin count " +
               std::to_string(current->signals.size() - 1) + " of .names '" +
               current->signals.back() + "' (line " +
               std::to_string(current->line) + ")");
        }
        for (const char ch : tokens[0]) {
          if (ch != '0' && ch != '1' && ch != '-' && ch != '2') {
            fail(std::string("invalid cube character '") + ch +
                 "' (expected 0, 1 or -)");
          }
        }
        if (tokens[1] != "0" && tokens[1] != "1") {
          fail("bad output value '" + tokens[1] + "' (expected 0 or 1)");
        }
        current->cover.emplace_back(tokens[0], tokens[1][0]);
      }
    }
  }

  for (const std::string& name : declared_inputs) net.add_input(name);

  // Create nodes in dependency order: multiple passes until all resolve.
  std::vector<bool> done(pending.size(), false);
  std::size_t remaining = pending.size();
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (done[i]) continue;
      const PendingNames& p = pending[i];
      const std::string& out = p.signals.back();
      bool ready = true;
      std::vector<NodeId> fanins;
      for (std::size_t j = 0; j + 1 < p.signals.size(); ++j) {
        const NodeId id = net.find(p.signals[j]);
        if (id == kNoNode) {
          ready = false;
          break;
        }
        fanins.push_back(id);
      }
      if (!ready) continue;

      const unsigned width = static_cast<unsigned>(fanins.size());
      sop::Sop onset(width);
      sop::Sop offset(width);
      for (const auto& [cube_text, value] : p.cover) {
        sop::Sop& target = value == '1' ? onset : offset;
        target.add_cube(width == 0 ? sop::Cube(0) : sop::Cube::parse(cube_text));
      }
      sop::Sop func(width);
      if (!offset.cubes().empty() && !onset.cubes().empty()) {
        throw ParseError("node " + out +
                                 ": mixed onset/offset cover not supported");
      }
      if (!offset.cubes().empty()) {
        func = offset.complement();
      } else if (width == 0 && !p.cover.empty() && p.cover[0].second == '1') {
        func = sop::Sop::constant(0, true);
      } else {
        func = onset;
      }
      net.add_node(out, std::move(fanins), std::move(func));
      done[i] = true;
      --remaining;
      progress = true;
    }
  }
  if (remaining > 0) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (!done[i]) {
        throw ParseError(
            "unresolved or cyclic .names (first at line " +
            std::to_string(pending[i].line) + ": " +
            pending[i].signals.back() + ")");
      }
    }
  }

  for (const std::string& name : declared_outputs) {
    const NodeId driver = net.find(name);
    if (driver == kNoNode) {
      throw ParseError("output " + name + " is never defined");
    }
    net.set_output(name, driver);
  }
  return net;
}

Network parse_blif_string(const std::string& text) {
  std::istringstream is(text);
  return parse_blif(is);
}

void write_blif(std::ostream& os, const Network& net) {
  os << ".model " << net.name() << '\n';
  os << ".inputs";
  for (const NodeId id : net.inputs()) os << ' ' << net.node(id).name;
  os << '\n';
  os << ".outputs";
  for (const auto& [name, driver] : net.outputs()) os << ' ' << name;
  os << '\n';

  for (const NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    os << ".names";
    for (const NodeId fi : n.fanins) os << ' ' << net.node(fi).name;
    os << ' ' << n.name << '\n';
    if (n.fanins.empty()) {
      if (!n.func.is_constant_zero()) os << "1\n";
      continue;
    }
    for (const sop::Cube& c : n.func.cubes()) {
      os << c.to_string() << " 1\n";
    }
  }
  // Outputs driven by a differently-named node (e.g. directly by a PI) need
  // a buffer.
  for (const auto& [name, driver] : net.outputs()) {
    if (driver != kNoNode && net.node(driver).name != name) {
      os << ".names " << net.node(driver).name << ' ' << name << "\n1 1\n";
    }
  }
  os << ".end\n";
}

std::string to_blif_string(const Network& net) {
  std::ostringstream os;
  write_blif(os, net);
  return os.str();
}

}  // namespace bds::net
