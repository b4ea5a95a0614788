// Gate library support: a genlib-subset parser and the embedded MCNC-like
// library both flows are mapped onto. The original experiments used
// mcnc.genlib; we ship a library with the same gate families (inverter,
// NAND/NOR in several widths, AND/OR, AOI/OAI, XOR/XNOR, MUX) and
// lambda^2-scale areas / ns-scale pin delays (see DESIGN.md §4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sop/sop.hpp"

namespace bds::map {

struct Library;

/// Boolean expression AST node for gate functions (as written in genlib).
/// Nodes live in the owning Gate's `expr` arena; `a`/`b` are arena indices.
struct Expr {
  /// Operator (or leaf) of this AST node.
  enum class Kind : std::uint8_t { kConst0, kConst1, kVar, kNot, kAnd, kOr };
  Kind kind = Kind::kConst0;  ///< node operator/leaf kind
  std::int32_t a = -1;        ///< first operand (kNot/kAnd/kOr), else -1
  std::int32_t b = -1;        ///< second operand (kAnd/kOr), else -1
  std::string pin;            ///< referenced input pin, for kVar
};

/// One library gate: a named cell with an area, a single-output Boolean
/// function over formal pins, and a block delay taken as the worst
/// rise/fall block delay over its PIN lines.
struct Gate {
  std::string name;     ///< cell name (the `.gate` instance keyword)
  double area = 0.0;    ///< area cost used by the covering DP
  std::string output;   ///< formal output name (left of `=` in genlib)
  std::vector<Expr> expr;       ///< AST arena; root is expr_root
  std::int32_t expr_root = -1;  ///< index of the root Expr in `expr`
  std::vector<std::string> pins;  ///< formal input pins, in first-use order
  double delay = 0.0;             ///< block delay (worst pin, rise/fall max)

  /// Gate function as an SOP over pin indices, derived from `expr` once,
  /// when the library is parsed.
  const sop::Sop& function() const { return function_; }

 private:
  friend Library parse_genlib(const std::string& text);
  sop::Sop function_;
};

/// A parsed gate library: the target of the `map` pass and the tree
/// mapper (map/mapper.hpp).
struct Library {
  std::string name;         ///< library name, for reports
  std::vector<Gate> gates;  ///< all gates, in declaration order

  /// The gate named `gate_name`, or nullptr if the library has none.
  const Gate* find(const std::string& gate_name) const;
  /// Smallest inverter and smallest 2-input NAND (used as mapper anchors).
  const Gate* inverter() const;
  /// See inverter().
  const Gate* nand2() const;
};

/// Parses a genlib-subset description:
///   GATE <name> <area> <out>=<expr>;  [PIN <name|*> <phase> <in_load>
///     <max_load> <rise_block> <rise_fanout> <fall_block> <fall_fanout>]*
/// Throws bds::ParseError on malformed input, with a two-part diagnostic
/// in the BLIF parser's style -- `genlib line N: <what>` -- naming the
/// offending gate: bad GATE headers, a gate name already defined (the
/// message names both lines), malformed expressions, malformed PIN lines,
/// and PIN phases other than INV/NONINV/UNKNOWN are all rejected.
Library parse_genlib(const std::string& text);

/// The embedded MCNC-like library (see header comment); also available to
/// every surface by the library spec "mcnc" (opt/map_passes.hpp).
const Library& mcnc_like_library();

}  // namespace bds::map
