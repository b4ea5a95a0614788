// Tests for the baseline's sparse algebra: cube operations, weak division,
// kernel extraction (textbook examples), and algebraic factoring.
#include <gtest/gtest.h>

#include "sis/algebra.hpp"
#include "sis/factor.hpp"
#include "util/rng.hpp"

namespace bds::sis {
namespace {

SparseCube cube(std::initializer_list<Lit> ls) {
  SparseCube c(ls);
  std::sort(c.begin(), c.end());
  return c;
}

// Positive literals for signals 0..9 named a..j for readability.
constexpr Lit a = 0, b = 2, c = 4, d = 6, e = 8, g = 12;

TEST(SparseAlgebra, CubeContainsAndDivide) {
  EXPECT_TRUE(cube_contains(cube({a, b, c}), cube({a, c})));
  EXPECT_FALSE(cube_contains(cube({a, b}), cube({c})));
  EXPECT_EQ(cube_divide(cube({a, b, c}), cube({b})), cube({a, c}));
}

TEST(SparseAlgebra, CubeProductDetectsComplementClash) {
  SparseCube out;
  EXPECT_TRUE(cube_product(cube({a}), cube({b}), out));
  EXPECT_EQ(out, cube({a, b}));
  // a & !a == 0  (literal 1 is !a).
  EXPECT_FALSE(cube_product(cube({a}), cube({1}), out));
}

TEST(SparseAlgebra, WeakDivisionTextbook) {
  // F = ac + ad + bc + bd + e ; D = a + b ; Q = c + d ; R = e.
  SparseSop f{{cube({a, c}), cube({a, d}), cube({b, c}), cube({b, d}),
               cube({e})}};
  SparseSop dv{{cube({a}), cube({b})}};
  const auto [q, r] = divide(f, dv);
  SparseSop expect_q{{cube({c}), cube({d})}};
  expect_q.normalize();
  SparseSop got_q = q;
  got_q.normalize();
  EXPECT_EQ(got_q, expect_q);
  ASSERT_EQ(r.cubes.size(), 1u);
  EXPECT_EQ(r.cubes[0], cube({e}));
}

TEST(SparseAlgebra, KernelsOfTextbookCover) {
  // F = adf + aef + bdf + bef + cdf + cef + g  (Brayton's classic):
  // kernels include (a+b+c), (d+e) and F/f = (a+b+c)(d+e) and F itself.
  const Lit f_ = 10, g_ = g;
  SparseSop F{{cube({a, d, f_}), cube({a, e, f_}), cube({b, d, f_}),
               cube({b, e, f_}), cube({c, d, f_}), cube({c, e, f_}),
               cube({g_})}};
  const auto kernels = all_kernels(F);
  SparseSop k1{{cube({a}), cube({b}), cube({c})}};
  k1.normalize();
  SparseSop k2{{cube({d}), cube({e})}};
  k2.normalize();
  bool found1 = false, found2 = false, found_self = false;
  for (const KernelPair& kp : kernels) {
    SparseSop k = kp.kernel;
    k.normalize();
    if (k == k1) found1 = true;
    if (k == k2) found2 = true;
    if (k.cubes.size() == 7) found_self = true;
  }
  EXPECT_TRUE(found1);
  EXPECT_TRUE(found2);
  EXPECT_TRUE(found_self);
}

TEST(SparseAlgebra, CubeFreeCoverIsItsOwnKernel) {
  SparseSop f{{cube({a, b}), cube({c, d})}};
  const auto kernels = all_kernels(f);
  ASSERT_FALSE(kernels.empty());
  bool self = false;
  for (const KernelPair& kp : kernels) {
    if (kp.cokernel.empty() && kp.kernel.cubes.size() == 2) self = true;
  }
  EXPECT_TRUE(self);
}

// ---- factoring -----------------------------------------------------------------

bool eval_sop(const SparseSop& f, const std::vector<bool>& sig) {
  for (const SparseCube& cc : f.cubes) {
    bool all = true;
    for (const Lit l : cc) {
      if (sig[lit_signal(l)] == lit_negated(l)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

TEST(Factor, TextbookFactoredForm) {
  // F = ac + ad + bc + bd + e factors to (a+b)(c+d) + e: 5 literals.
  SparseSop f{{cube({a, c}), cube({a, d}), cube({b, c}), cube({b, d}),
               cube({e})}};
  const FactoredForm form = factor(f);
  EXPECT_EQ(form.literal_count(), 5u);
  for (unsigned row = 0; row < 32; ++row) {
    std::vector<bool> sig(5);
    for (unsigned v = 0; v < 5; ++v) sig[v] = ((row >> v) & 1) != 0;
    EXPECT_EQ(form.eval(sig), eval_sop(f, sig)) << "row " << row;
  }
}

TEST(Factor, ConstantsAndSingleCubes) {
  EXPECT_EQ(factor(SparseSop{}).literal_count(), 0u);
  const FactoredForm one = factor(SparseSop{{SparseCube{}}});
  EXPECT_TRUE(one.eval({false, false}));
  const FactoredForm cube3 = factor(SparseSop{{cube({a, b, c})}});
  EXPECT_EQ(cube3.literal_count(), 3u);
}

TEST(Factor, RandomCoversRoundTrip) {
  Rng rng(321);
  for (int iter = 0; iter < 20; ++iter) {
    constexpr unsigned ns = 6;
    SparseSop f;
    const unsigned ncubes = 1 + static_cast<unsigned>(rng.below(8));
    for (unsigned i = 0; i < ncubes; ++i) {
      SparseCube cc;
      for (std::uint32_t s = 0; s < ns; ++s) {
        switch (rng.below(3)) {
          case 0:
            cc.push_back(lit(s, false));
            break;
          case 1:
            cc.push_back(lit(s, true));
            break;
          default:
            break;
        }
      }
      std::sort(cc.begin(), cc.end());
      f.cubes.push_back(std::move(cc));
    }
    f.normalize();
    const FactoredForm form = factor(f);
    for (unsigned row = 0; row < (1u << ns); ++row) {
      std::vector<bool> sig(ns);
      for (unsigned v = 0; v < ns; ++v) sig[v] = ((row >> v) & 1) != 0;
      ASSERT_EQ(form.eval(sig), eval_sop(f, sig))
          << "iter " << iter << " row " << row;
    }
    // Factoring never increases literal count.
    EXPECT_LE(form.literal_count(), f.literal_count());
  }
}

}  // namespace
}  // namespace bds::sis
