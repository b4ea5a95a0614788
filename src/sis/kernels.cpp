// Sparse cube/cover algebra and recursive kernel extraction.
#include <algorithm>
#include <map>

#include "sis/algebra.hpp"

namespace bds::sis {

void SparseSop::normalize() {
  for (SparseCube& c : cubes) std::sort(c.begin(), c.end());
  std::sort(cubes.begin(), cubes.end());
  cubes.erase(std::unique(cubes.begin(), cubes.end()), cubes.end());
}

std::string SparseSop::key() const {
  SparseSop copy = *this;
  copy.normalize();
  std::string k;
  for (const SparseCube& c : copy.cubes) {
    for (const Lit l : c) {
      k += std::to_string(l);
      k += ',';
    }
    k += ';';
  }
  return k;
}

std::vector<std::uint32_t> SparseSop::support() const {
  std::vector<std::uint32_t> s;
  for (const SparseCube& c : cubes) {
    for (const Lit l : c) s.push_back(lit_signal(l));
  }
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
  return s;
}

bool cube_contains(const SparseCube& a, const SparseCube& b) {
  return std::includes(a.begin(), a.end(), b.begin(), b.end());
}

SparseCube cube_divide(const SparseCube& a, const SparseCube& b) {
  SparseCube out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

bool cube_product(const SparseCube& a, const SparseCube& b, SparseCube& out) {
  out.clear();
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  // Empty product iff both phases of some signal are present (adjacent
  // after sorting).
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    if (lit_signal(out[i]) == lit_signal(out[i + 1])) return false;
  }
  return true;
}

SparseCube cube_intersect(const SparseCube& a, const SparseCube& b) {
  SparseCube out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

SparseCube common_cube(const SparseSop& f) {
  if (f.cubes.empty()) return {};
  SparseCube common = f.cubes.front();
  for (std::size_t i = 1; i < f.cubes.size() && !common.empty(); ++i) {
    common = cube_intersect(common, f.cubes[i]);
  }
  return common;
}

SparseSop divide_by_cube(const SparseSop& f, const SparseCube& d) {
  SparseSop q;
  for (const SparseCube& c : f.cubes) {
    if (cube_contains(c, d)) q.cubes.push_back(cube_divide(c, d));
  }
  return q;
}

std::pair<SparseSop, SparseSop> divide(const SparseSop& f,
                                       const SparseSop& d) {
  if (d.cubes.empty()) return {SparseSop{}, f};
  SparseSop quotient = divide_by_cube(f, d.cubes.front());
  quotient.normalize();
  for (std::size_t i = 1; i < d.cubes.size() && !quotient.cubes.empty(); ++i) {
    SparseSop qi = divide_by_cube(f, d.cubes[i]);
    qi.normalize();
    std::vector<SparseCube> inter;
    std::set_intersection(quotient.cubes.begin(), quotient.cubes.end(),
                          qi.cubes.begin(), qi.cubes.end(),
                          std::back_inserter(inter));
    quotient.cubes = std::move(inter);
  }
  const SparseSop prod = product(d, quotient);
  SparseSop remainder;
  for (const SparseCube& c : f.cubes) {
    if (std::find(prod.cubes.begin(), prod.cubes.end(), c) ==
        prod.cubes.end()) {
      remainder.cubes.push_back(c);
    }
  }
  return {std::move(quotient), std::move(remainder)};
}

SparseSop product(const SparseSop& a, const SparseSop& b) {
  SparseSop result;
  SparseCube tmp;
  for (const SparseCube& ca : a.cubes) {
    for (const SparseCube& cb : b.cubes) {
      if (cube_product(ca, cb, tmp)) result.cubes.push_back(tmp);
    }
  }
  result.normalize();
  return result;
}

namespace {

/// Occurrence count per literal.
std::map<Lit, unsigned> literal_counts(const SparseSop& f) {
  std::map<Lit, unsigned> counts;
  for (const SparseCube& c : f.cubes) {
    for (const Lit l : c) ++counts[l];
  }
  return counts;
}

/// Kernel cap per cover: a safety valve on covers with many literals.
constexpr std::size_t kMaxKernels = 64;

void kernels_rec(const SparseSop& f, Lit min_lit,
                 std::vector<KernelPair>& out, const SparseCube& cokernel) {
  if (out.size() >= kMaxKernels) return;
  const auto counts = literal_counts(f);
  for (const auto& [l, count] : counts) {
    if (count < 2 || l < min_lit) continue;
    SparseSop sub = divide_by_cube(f, {l});
    SparseCube cc = common_cube(sub);
    // Largest co-kernel cube for this branch includes l itself.
    SparseCube full_cc;
    cube_product(cc, {l}, full_cc);
    // Prune duplicate enumeration: if the common cube contains a literal
    // smaller than l, this kernel was found on an earlier branch.
    bool duplicate = false;
    for (const Lit x : cc) {
      if (x < l) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    // Make the quotient cube-free.
    if (!cc.empty()) {
      for (SparseCube& c : sub.cubes) c = cube_divide(c, cc);
    }
    sub.normalize();
    SparseCube branch_cokernel;
    cube_product(cokernel, full_cc, branch_cokernel);
    kernels_rec(sub, l + 1, out, branch_cokernel);
    if (out.size() < kMaxKernels) {
      out.push_back({branch_cokernel, std::move(sub)});
    }
  }
}

}  // namespace

std::vector<KernelPair> all_kernels(const SparseSop& f) {
  std::vector<KernelPair> out;
  SparseSop g = f;
  g.normalize();
  const SparseCube cc = common_cube(g);
  if (!cc.empty()) {
    for (SparseCube& c : g.cubes) c = cube_divide(c, cc);
    g.normalize();
  }
  kernels_rec(g, 0, out, cc);
  if (g.cubes.size() > 1) out.push_back({cc, std::move(g)});
  return out;
}

}  // namespace bds::sis
