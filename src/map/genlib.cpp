#include "map/genlib.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

#include "util/error.hpp"

namespace bds::map {

namespace {

/// Recursive-descent parser for genlib gate expressions:
///   expr := term ('+' term)* ; term := factor ('*'? factor)* ;
///   factor := '!' factor | '(' expr ')' | ident | CONST0 | CONST1
/// Juxtaposition denotes AND, as genlib allows.
class ExprParser {
 public:
  ExprParser(const std::string& text, Gate& gate)
      : text_(text), gate_(gate) {}

  std::int32_t parse() {
    const std::int32_t root = parse_or();
    skip_ws();
    if (pos_ != text_.size()) {
      throw std::runtime_error("trailing junk in expression '" + text_ + "'");
    }
    return root;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool peek_factor_start() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    return c == '!' || c == '(' || std::isalnum(static_cast<unsigned char>(c)) != 0 ||
           c == '_' || c == '[' || c == ']';
  }

  std::int32_t push(Expr e) {
    gate_.expr.push_back(std::move(e));
    return static_cast<std::int32_t>(gate_.expr.size() - 1);
  }

  std::int32_t parse_or() {
    std::int32_t left = parse_and();
    for (;;) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '+') {
        ++pos_;
        const std::int32_t right = parse_and();
        left = push({Expr::Kind::kOr, left, right, ""});
      } else {
        return left;
      }
    }
  }

  std::int32_t parse_and() {
    std::int32_t left = parse_factor();
    for (;;) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '*') {
        ++pos_;
        const std::int32_t right = parse_factor();
        left = push({Expr::Kind::kAnd, left, right, ""});
      } else if (peek_factor_start()) {
        const std::int32_t right = parse_factor();
        left = push({Expr::Kind::kAnd, left, right, ""});
      } else {
        return left;
      }
    }
  }

  std::int32_t parse_factor() {
    skip_ws();
    if (pos_ >= text_.size()) {
      throw std::runtime_error("unexpected end of expression");
    }
    const char c = text_[pos_];
    if (c == '!') {
      ++pos_;
      const std::int32_t a = parse_factor();
      return push({Expr::Kind::kNot, a, -1, ""});
    }
    if (c == '(') {
      ++pos_;
      const std::int32_t e = parse_or();
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ')') {
        throw std::runtime_error("missing ')' in expression");
      }
      ++pos_;
      // Postfix ' (complement), another genlib convention.
      if (pos_ < text_.size() && text_[pos_] == '\'') {
        ++pos_;
        return push({Expr::Kind::kNot, e, -1, ""});
      }
      return e;
    }
    std::string name;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '_' || text_[pos_] == '[' || text_[pos_] == ']')) {
      name += text_[pos_++];
    }
    if (name.empty()) {
      throw std::runtime_error(std::string("bad character '") + c +
                               "' in expression");
    }
    if (name == "CONST0") return push({Expr::Kind::kConst0, -1, -1, ""});
    if (name == "CONST1") return push({Expr::Kind::kConst1, -1, -1, ""});
    if (pos_ < text_.size() && text_[pos_] == '\'') {
      ++pos_;
      const std::int32_t v = var(name);
      return push({Expr::Kind::kNot, v, -1, ""});
    }
    return var(name);
  }

  std::int32_t var(const std::string& name) {
    if (std::find(gate_.pins.begin(), gate_.pins.end(), name) ==
        gate_.pins.end()) {
      gate_.pins.push_back(name);
    }
    return push({Expr::Kind::kVar, -1, -1, name});
  }

  const std::string& text_;
  Gate& gate_;
  std::size_t pos_ = 0;
};

sop::Sop expr_to_sop(const Gate& g, std::int32_t idx) {
  const Expr& e = g.expr[static_cast<std::size_t>(idx)];
  const unsigned nv = static_cast<unsigned>(g.pins.size());
  switch (e.kind) {
    case Expr::Kind::kConst0:
      return sop::Sop::constant(nv, false);
    case Expr::Kind::kConst1:
      return sop::Sop::constant(nv, true);
    case Expr::Kind::kVar: {
      const auto it = std::find(g.pins.begin(), g.pins.end(), e.pin);
      return sop::Sop::literal(
          nv, static_cast<unsigned>(it - g.pins.begin()), true);
    }
    case Expr::Kind::kNot:
      return expr_to_sop(g, e.a).complement();
    case Expr::Kind::kAnd:
      return expr_to_sop(g, e.a).times(expr_to_sop(g, e.b));
    case Expr::Kind::kOr:
      return expr_to_sop(g, e.a).plus(expr_to_sop(g, e.b));
  }
  return sop::Sop(nv);
}

}  // namespace

const Gate* Library::find(const std::string& gate_name) const {
  for (const Gate& g : gates) {
    if (g.name == gate_name) return &g;
  }
  return nullptr;
}

const Gate* Library::inverter() const {
  const Gate* best = nullptr;
  for (const Gate& g : gates) {
    if (g.pins.size() != 1) continue;
    const sop::Sop& f = g.function();
    if (f.cube_count() == 1 && f.cubes()[0].get(0) == sop::Literal::kNeg) {
      if (best == nullptr || g.area < best->area) best = &g;
    }
  }
  return best;
}

const Gate* Library::nand2() const {
  const Gate* best = nullptr;
  for (const Gate& g : gates) {
    if (g.pins.size() != 2) continue;
    // Semantic check: covers of the same function can differ structurally.
    const sop::Sop& f = g.function();
    const bool is_nand = f.eval({false, false}) && f.eval({false, true}) &&
                         f.eval({true, false}) && !f.eval({true, true});
    if (is_nand && (best == nullptr || g.area < best->area)) best = &g;
  }
  return best;
}

Library parse_genlib(const std::string& text) {
  Library lib;
  // A GATE statement may wrap across lines (its PIN lines usually do), so
  // statements are gathered first, each remembering the 1-based line its
  // GATE keyword appeared on -- every diagnostic below is anchored to
  // that line, the same "<format> line N: <what>" shape the BLIF parser
  // uses.
  struct Statement {
    std::size_t line = 0;
    std::string text;
  };
  std::vector<Statement> statements;
  {
    std::istringstream is(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
      ++lineno;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::size_t pos = 0;
      while (pos < line.size()) {
        const std::size_t next = line.find("GATE", pos);
        const std::string chunk =
            line.substr(pos, next == std::string::npos ? std::string::npos
                                                       : next - pos);
        // Text before the first GATE keyword of the file (a non-comment
        // preamble) has nothing to attach to and is ignored, as before;
        // otherwise the chunk continues the open statement.
        if (!statements.empty() && !chunk.empty()) {
          statements.back().text += ' ';
          statements.back().text += chunk;
        }
        if (next == std::string::npos) break;
        statements.push_back(Statement{lineno, "GATE"});
        pos = next + 4;
      }
    }
  }

  // Gate name -> defining line, for the duplicate diagnostic.
  std::vector<std::pair<std::string, std::size_t>> defined;
  for (const Statement& stmt : statements) {
    const auto fail = [&stmt](const std::string& msg) -> void {
      throw ParseError("genlib line " + std::to_string(stmt.line) + ": " +
                       msg);
    };
    std::istringstream ss(stmt.text);
    std::string kw;
    Gate g;
    ss >> kw >> g.name >> g.area;
    if (!ss) {
      fail("bad GATE header (expected 'GATE <name> <area> <out>=<expr>;'): " +
           stmt.text);
    }
    for (const auto& [name, line] : defined) {
      if (name == g.name) {
        fail("gate '" + g.name + "' already defined at line " +
             std::to_string(line));
      }
    }
    defined.emplace_back(g.name, stmt.line);
    // Function up to ';'.
    std::string func;
    std::getline(ss, func, ';');
    if (ss.eof()) {
      fail("gate '" + g.name + "': missing ';' after the gate function");
    }
    const std::size_t eq = func.find('=');
    if (eq == std::string::npos) {
      fail("gate '" + g.name + "': missing '=' in function '" + func + "'");
    }
    g.output = func.substr(0, eq);
    g.output.erase(std::remove_if(g.output.begin(), g.output.end(),
                                  [](char c) {
                                    return std::isspace(
                                               static_cast<unsigned char>(
                                                   c)) != 0;
                                  }),
                   g.output.end());
    const std::string body = func.substr(eq + 1);
    try {
      ExprParser parser(body, g);
      g.expr_root = parser.parse();
    } catch (const std::runtime_error& e) {
      fail("gate '" + g.name + "': " + e.what());
    }
    g.function_ = expr_to_sop(g, g.expr_root);
    g.function_.minimize_scc();

    // PIN lines: take the worst block delay over pins.
    std::string tok;
    while (ss >> tok) {
      if (tok != "PIN") {
        fail("gate '" + g.name + "': expected PIN, got '" + tok + "'");
      }
      std::string pin_name, phase;
      double in_load = 0, max_load = 0, rb = 0, rf = 0, fb = 0, ff = 0;
      ss >> pin_name >> phase >> in_load >> max_load >> rb >> rf >> fb >> ff;
      if (!ss) {
        fail("gate '" + g.name + "': bad PIN line (expected 'PIN <pin|*> "
             "<phase> <in_load> <max_load> <rise_block> <rise_fanout> "
             "<fall_block> <fall_fanout>')");
      }
      if (phase != "INV" && phase != "NONINV" && phase != "UNKNOWN") {
        fail("gate '" + g.name + "': PIN " + pin_name + ": bad phase '" +
             phase + "' (expected INV, NONINV or UNKNOWN)");
      }
      if (pin_name != "*" &&
          std::find(g.pins.begin(), g.pins.end(), pin_name) ==
              g.pins.end()) {
        fail("gate '" + g.name + "': PIN names unknown pin '" + pin_name +
             "'");
      }
      g.delay = std::max({g.delay, rb, fb});
      (void)rf;
      (void)ff;
    }
    if (g.delay == 0.0) g.delay = 1.0;
    lib.gates.push_back(std::move(g));
  }
  if (lib.gates.empty()) {
    throw ParseError("genlib: no GATE definitions found");
  }
  return lib;
}

const Library& mcnc_like_library() {
  static const Library lib = [] {
    Library l = parse_genlib(R"(
# MCNC-like library: same gate families as mcnc.genlib, lambda^2-scale
# areas and ns-scale block delays.
GATE inv1   8  O=!a;              PIN * INV 1 999 0.20 0.02 0.20 0.02
GATE nand2  16 O=!(a*b);          PIN * INV 1 999 0.35 0.04 0.35 0.04
GATE nand3  24 O=!(a*b*c);        PIN * INV 1 999 0.45 0.05 0.45 0.05
GATE nand4  32 O=!(a*b*c*d);      PIN * INV 1 999 0.55 0.06 0.55 0.06
GATE nor2   16 O=!(a+b);          PIN * INV 1 999 0.40 0.05 0.40 0.05
GATE nor3   24 O=!(a+b+c);        PIN * INV 1 999 0.55 0.06 0.55 0.06
GATE nor4   32 O=!(a+b+c+d);      PIN * INV 1 999 0.70 0.07 0.70 0.07
GATE and2   24 O=a*b;             PIN * NONINV 1 999 0.50 0.04 0.50 0.04
GATE or2    24 O=a+b;             PIN * NONINV 1 999 0.55 0.05 0.55 0.05
GATE aoi21  24 O=!(a*b+c);        PIN * INV 1 999 0.50 0.05 0.50 0.05
GATE aoi22  32 O=!(a*b+c*d);      PIN * INV 1 999 0.60 0.06 0.60 0.06
GATE oai21  24 O=!((a+b)*c);      PIN * INV 1 999 0.50 0.05 0.50 0.05
GATE oai22  32 O=!((a+b)*(c+d));  PIN * INV 1 999 0.60 0.06 0.60 0.06
GATE xor2   40 O=a*!b+!a*b;       PIN * UNKNOWN 1 999 0.70 0.07 0.70 0.07
GATE xnor2  40 O=a*b+!a*!b;       PIN * UNKNOWN 1 999 0.70 0.07 0.70 0.07
GATE mux21  40 O=s*a+!s*b;        PIN * UNKNOWN 1 999 0.65 0.07 0.65 0.07
GATE zero   0  O=CONST0;
GATE one    0  O=CONST1;
)");
    l.name = "mcnc_like";
    return l;
  }();
  return lib;
}

}  // namespace bds::map
