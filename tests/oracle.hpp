// Truth-table oracle used by property tests: every BDD / SOP / network
// operation is checked against brute-force enumeration over up to 20 inputs.
// Also the guard tests use to run without the suite's node ceiling.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace bds::test {

/// Dense truth table over `n` variables (row index bit i = variable i).
class TruthTable {
 public:
  explicit TruthTable(unsigned n) : n_(n), bits_(std::size_t{1} << n, false) {}

  static TruthTable constant(unsigned n, bool v) {
    TruthTable t(n);
    for (std::size_t i = 0; i < t.bits_.size(); ++i) t.bits_[i] = v;
    return t;
  }
  static TruthTable var(unsigned n, unsigned v) {
    TruthTable t(n);
    for (std::size_t i = 0; i < t.bits_.size(); ++i)
      t.bits_[i] = ((i >> v) & 1) != 0;
    return t;
  }
  static TruthTable random(unsigned n, Rng& rng) {
    TruthTable t(n);
    for (std::size_t i = 0; i < t.bits_.size(); ++i) t.bits_[i] = rng.coin();
    return t;
  }

  unsigned num_vars() const { return n_; }
  std::size_t rows() const { return bits_.size(); }
  bool at(std::size_t row) const { return bits_[row]; }
  void set(std::size_t row, bool v) { bits_[row] = v; }

  TruthTable operator~() const {
    TruthTable t(n_);
    for (std::size_t i = 0; i < bits_.size(); ++i) t.bits_[i] = !bits_[i];
    return t;
  }
  TruthTable operator&(const TruthTable& o) const { return zip(o, [](bool a, bool b) { return a && b; }); }
  TruthTable operator|(const TruthTable& o) const { return zip(o, [](bool a, bool b) { return a || b; }); }
  TruthTable operator^(const TruthTable& o) const { return zip(o, [](bool a, bool b) { return a != b; }); }
  bool operator==(const TruthTable& o) const { return n_ == o.n_ && bits_ == o.bits_; }

  TruthTable cofactor(unsigned v, bool value) const {
    TruthTable t(n_);
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      std::size_t row = i;
      if (value)
        row |= (std::size_t{1} << v);
      else
        row &= ~(std::size_t{1} << v);
      t.bits_[i] = bits_[row];
    }
    return t;
  }
  TruthTable exists(unsigned v) const { return cofactor(v, false) | cofactor(v, true); }
  TruthTable compose(unsigned v, const TruthTable& g) const {
    TruthTable t(n_);
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      t.bits_[i] = g.bits_[i] ? cofactor_bit(i, v, true) : cofactor_bit(i, v, false);
    }
    return t;
  }
  std::size_t count_ones() const {
    std::size_t c = 0;
    for (bool b : bits_) c += b ? 1 : 0;
    return c;
  }
  std::vector<bool> assignment(std::size_t row) const {
    std::vector<bool> a(n_);
    for (unsigned v = 0; v < n_; ++v) a[v] = ((row >> v) & 1) != 0;
    return a;
  }

 private:
  template <typename F>
  TruthTable zip(const TruthTable& o, F f) const {
    assert(n_ == o.n_);
    TruthTable t(n_);
    for (std::size_t i = 0; i < bits_.size(); ++i) t.bits_[i] = f(bits_[i], o.bits_[i]);
    return t;
  }
  bool cofactor_bit(std::size_t row, unsigned v, bool value) const {
    if (value)
      row |= (std::size_t{1} << v);
    else
      row &= ~(std::size_t{1} << v);
    return bits_[row];
  }

  unsigned n_;
  std::vector<bool> bits_;
};

/// Unsets BDS_NODE_LIMIT for its lifetime and restores it after, so a run
/// that sets no ceiling has none at all (the variable is the suite's
/// safety net, and CI runs the suite under it). Tests that pin unbudgeted
/// output scope one.
class NoEnvNodeLimit {
 public:
  NoEnvNodeLimit() {
    if (const char* v = std::getenv("BDS_NODE_LIMIT")) saved_ = v;
    unsetenv("BDS_NODE_LIMIT");
  }
  ~NoEnvNodeLimit() {
    if (saved_) setenv("BDS_NODE_LIMIT", saved_->c_str(), 1);
  }
  NoEnvNodeLimit(const NoEnvNodeLimit&) = delete;
  NoEnvNodeLimit& operator=(const NoEnvNodeLimit&) = delete;

 private:
  std::optional<std::string> saved_;
};

}  // namespace bds::test
