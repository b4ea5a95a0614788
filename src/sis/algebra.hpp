// Sparse algebraic representation for the SIS-style baseline.
//
// Extraction and resubstitution operate across nodes, over the space of all
// network signals; a dense 2-bit-per-variable cube would be quadratically
// large there, so the baseline uses the classic sparse form: a cube is a
// sorted vector of literals, a literal is 2*signal + phase.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sop/sop.hpp"

namespace bds::sis {

using Lit = std::uint32_t;
inline constexpr Lit lit(std::uint32_t signal, bool negated) {
  return 2 * signal + (negated ? 1u : 0u);
}
inline constexpr std::uint32_t lit_signal(Lit l) { return l / 2; }
inline constexpr bool lit_negated(Lit l) { return (l & 1) != 0; }

/// A product term: sorted, duplicate-free literal vector. The empty cube is
/// the constant-1 product.
using SparseCube = std::vector<Lit>;

/// Sum of products over network signals. An empty cover is constant 0.
struct SparseSop {
  std::vector<SparseCube> cubes;

  bool is_zero() const { return cubes.empty(); }
  bool has_const_cube() const {
    for (const SparseCube& c : cubes) {
      if (c.empty()) return true;
    }
    return false;
  }
  std::size_t literal_count() const {
    std::size_t n = 0;
    for (const SparseCube& c : cubes) n += c.size();
    return n;
  }
  /// Canonical form: cubes sorted and deduplicated (no containment check).
  void normalize();
  /// Serialized canonical key, usable as a hash-map key for divisors.
  std::string key() const;
  /// Distinct signals used.
  std::vector<std::uint32_t> support() const;

  bool operator==(const SparseSop&) const = default;
};

/// The sparse form of a dense SOP cover whose variable i is the signal
/// `signal[i]`: a node's fanin list for the network-wide signal space, or
/// `std::views::iota(0u)` for the cover's own variable positions. Each cube
/// comes out sorted and the cover normalized.
template <class Signals>
SparseSop to_sparse(const sop::Sop& cover, const Signals& signal) {
  SparseSop f;
  for (const sop::Cube& c : cover.cubes()) {
    SparseCube sc;
    for (unsigned i = 0; i < c.num_vars(); ++i) {
      const sop::Literal l = c.get(i);
      if (l == sop::Literal::kAbsent) continue;
      sc.push_back(lit(signal[i], l == sop::Literal::kNeg));
    }
    std::sort(sc.begin(), sc.end());
    f.cubes.push_back(std::move(sc));
  }
  f.normalize();
  return f;
}

// ---- cube algebra --------------------------------------------------------------

/// True if a (as a literal set) contains all of b's literals.
bool cube_contains(const SparseCube& a, const SparseCube& b);
/// a \ b; requires cube_contains(a, b).
SparseCube cube_divide(const SparseCube& a, const SparseCube& b);
/// Union of literal sets; returns nullopt-like empty optional semantics via
/// `ok` when the product is empty (x & !x).
bool cube_product(const SparseCube& a, const SparseCube& b, SparseCube& out);
/// Literals common to both cubes.
SparseCube cube_intersect(const SparseCube& a, const SparseCube& b);

// ---- cover algebra --------------------------------------------------------------

/// Largest cube dividing every cube of f (empty for a cube-free cover).
SparseCube common_cube(const SparseSop& f);
/// Weak division f / d: returns {quotient, remainder}.
std::pair<SparseSop, SparseSop> divide(const SparseSop& f, const SparseSop& d);
/// Division by one cube.
SparseSop divide_by_cube(const SparseSop& f, const SparseCube& d);
/// Algebraic product d * q (drops empty cube products).
SparseSop product(const SparseSop& a, const SparseSop& b);

// ---- kernels (Brayton/McMullen) --------------------------------------------------

struct KernelPair {
  SparseCube cokernel;
  SparseSop kernel;  ///< cube-free quotient f / cokernel
};

/// All kernels of f (the cover itself included when cube-free), under a
/// fixed cap on their number as a safety valve.
std::vector<KernelPair> all_kernels(const SparseSop& f);

}  // namespace bds::sis
