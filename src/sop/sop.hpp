// Sum-of-products covers and the algebraic ("weak") division they support.
// This is the node representation of the Boolean network frontend and the
// data structure the SIS-style baseline optimizes.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sop/cube.hpp"

namespace bds::sop {

class Sop {
 public:
  explicit Sop(unsigned num_vars = 0) : num_vars_(num_vars) {}
  Sop(unsigned num_vars, std::vector<Cube> cubes)
      : num_vars_(num_vars), cubes_(std::move(cubes)) {}

  static Sop constant(unsigned num_vars, bool value);
  /// The single-literal function v or !v.
  static Sop literal(unsigned num_vars, unsigned v, bool positive);

  unsigned num_vars() const { return num_vars_; }
  const std::vector<Cube>& cubes() const { return cubes_; }
  std::size_t cube_count() const { return cubes_.size(); }
  bool is_constant_zero() const { return cubes_.empty(); }
  /// True if some cube is the universal cube (sufficient, not necessary,
  /// condition for tautology).
  bool has_full_cube() const;

  void add_cube(Cube c);
  bool eval(const std::vector<bool>& assignment) const;

  /// Total literal count over all cubes -- the classic SIS cost metric.
  unsigned literal_count() const;
  /// How many cubes contain the given literal.
  unsigned literal_occurrences(unsigned v, bool positive) const;

  /// Removes empty cubes and cubes contained in other cubes, and sorts
  /// cubes canonically.
  void minimize_scc();
  /// Repeatedly merges distance-1 cube pairs that join into a single cube
  /// covering exactly their union, then re-runs minimize_scc().
  void merge_adjacent();

  // ---- algebraic structure --------------------------------------------------

  /// Largest cube dividing every cube of the cover (the "common cube").
  Cube common_cube() const;
  bool is_cube_free() const;
  /// Divides out the common cube, returning it.
  Cube make_cube_free();

  /// Weak (algebraic) division: returns {quotient, remainder} with
  /// *this = divisor * quotient + remainder and quotient maximal.
  std::pair<Sop, Sop> divide(const Sop& divisor) const;
  /// Division by a single cube.
  Sop divide_by_cube(const Cube& d) const;

  /// Algebraic product (assumes disjoint supports for true algebra, but is
  /// computed as the Boolean AND of cube pairs with empty cubes dropped).
  Sop times(const Sop& o) const;
  /// Disjunction: concatenation followed by minimize_scc().
  Sop plus(const Sop& o) const;

  /// All variables appearing in some cube.
  std::vector<unsigned> support() const;

  /// Cofactor with respect to one variable.
  Sop cofactor(unsigned v, bool value) const;
  /// Complement by recursive Shannon expansion (exponential worst case;
  /// meant for the node-sized covers of a Boolean network).
  Sop complement() const;

  bool operator==(const Sop&) const = default;
  std::string to_string(const std::vector<std::string>& var_names = {}) const;

 private:
  unsigned num_vars_;
  std::vector<Cube> cubes_;
};

/// The cover's function in any Boolean algebra whose values support `&`,
/// `|` and `!`: the OR over cubes of the AND of their literals, `in(i)`
/// giving the value of variable i. This is how every global or local BDD
/// is built from a network node's cover -- with `in` mapping a fanin
/// position to that fanin's BDD -- and, being a template, it costs this
/// library no dependency on the BDD package.
template <class T, class In>
T eval_cover(const Sop& cover, T zero, const T& one, In&& in) {
  T f = std::move(zero);
  for (const Cube& c : cover.cubes()) {
    T term = one;
    for (unsigned i = 0; i < c.num_vars(); ++i) {
      const Literal l = c.get(i);
      if (l == Literal::kAbsent) continue;
      term = term & (l == Literal::kPos ? in(i) : !in(i));
    }
    f = f | term;
  }
  return f;
}

}  // namespace bds::sop
