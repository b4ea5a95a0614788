#include "sis/factor.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>

namespace bds::sis {

std::size_t FactoredForm::literal_count() const {
  std::size_t n = 0;
  for (const FactorNode& fn : nodes) {
    if (fn.kind == FactorKind::kLit) ++n;
  }
  return n;
}

bool FactoredForm::eval(const std::vector<bool>& signal_values) const {
  const std::function<bool(std::int32_t)> go = [&](std::int32_t i) -> bool {
    const FactorNode& n = nodes[static_cast<std::size_t>(i)];
    switch (n.kind) {
      case FactorKind::kConst0:
        return false;
      case FactorKind::kConst1:
        return true;
      case FactorKind::kLit:
        return signal_values[lit_signal(n.literal)] != lit_negated(n.literal);
      case FactorKind::kAnd:
        return go(n.a) && go(n.b);
      case FactorKind::kOr:
        return go(n.a) || go(n.b);
    }
    return false;
  };
  return root >= 0 && go(root);
}

std::string FactoredForm::to_string(
    const std::vector<std::string>& signal_names) const {
  const auto name = [&](std::uint32_t s) {
    return s < signal_names.size() ? signal_names[s]
                                   : "s" + std::to_string(s);
  };
  const std::function<std::string(std::int32_t)> go =
      [&](std::int32_t i) -> std::string {
    const FactorNode& n = nodes[static_cast<std::size_t>(i)];
    switch (n.kind) {
      case FactorKind::kConst0:
        return "0";
      case FactorKind::kConst1:
        return "1";
      case FactorKind::kLit:
        return (lit_negated(n.literal) ? "!" : "") + name(lit_signal(n.literal));
      case FactorKind::kAnd:
        return "(" + go(n.a) + " " + go(n.b) + ")";
      case FactorKind::kOr:
        return "(" + go(n.a) + " + " + go(n.b) + ")";
    }
    return "?";
  };
  return root >= 0 ? go(root) : "0";
}

namespace {

class Builder {
 public:
  explicit Builder(FactoredForm& form) : form_(form) {}

  std::int32_t constant(bool v) {
    return push({v ? FactorKind::kConst1 : FactorKind::kConst0, 0, -1, -1});
  }
  std::int32_t literal(Lit l) { return push({FactorKind::kLit, l, -1, -1}); }
  std::int32_t and_(std::int32_t a, std::int32_t b) {
    return push({FactorKind::kAnd, 0, a, b});
  }
  std::int32_t or_(std::int32_t a, std::int32_t b) {
    return push({FactorKind::kOr, 0, a, b});
  }

  /// Balanced AND over a cube's literals.
  std::int32_t cube_tree(const SparseCube& c) {
    if (c.empty()) return constant(true);
    std::vector<std::int32_t> layer;
    layer.reserve(c.size());
    for (const Lit l : c) layer.push_back(literal(l));
    return reduce(layer, /*is_and=*/true);
  }

  std::int32_t reduce(std::vector<std::int32_t> layer, bool is_and) {
    while (layer.size() > 1) {
      std::vector<std::int32_t> next;
      for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
        next.push_back(is_and ? and_(layer[i], layer[i + 1])
                              : or_(layer[i], layer[i + 1]));
      }
      if (layer.size() % 2 == 1) next.push_back(layer.back());
      layer = std::move(next);
    }
    return layer[0];
  }

  std::int32_t factor_rec(SparseSop f) {
    f.normalize();
    if (f.cubes.empty()) return constant(false);
    if (f.has_const_cube()) return constant(true);
    if (f.cubes.size() == 1) return cube_tree(f.cubes[0]);

    // GOOD_FACTOR-style: pick the kernel divisor with the best literal
    // saving. (Skip the cover itself, which is always its own kernel.)
    const SparseSop* best_kernel = nullptr;
    long long best_saving = 0;
    std::pair<SparseSop, SparseSop> best_qr;
    const auto kernels = all_kernels(f);
    for (const KernelPair& kp : kernels) {
      if (kp.kernel.cubes.size() < 2 ||
          kp.kernel.cubes.size() >= f.cubes.size()) {
        continue;
      }
      auto qr = divide(f, kp.kernel);
      if (qr.first.is_zero()) continue;
      const long long saving =
          static_cast<long long>(f.literal_count()) -
          static_cast<long long>(kp.kernel.literal_count() +
                                 qr.first.literal_count() +
                                 qr.second.literal_count());
      if (saving > best_saving) {
        best_saving = saving;
        best_kernel = &kp.kernel;
        best_qr = std::move(qr);
      }
    }
    if (best_kernel != nullptr) {
      const std::int32_t dq = and_(factor_rec(*best_kernel),
                                   factor_rec(std::move(best_qr.first)));
      if (best_qr.second.cubes.empty()) return dq;
      return or_(dq, factor_rec(std::move(best_qr.second)));
    }

    // No beneficial kernel: fall back to the most frequent literal.
    std::map<Lit, unsigned> counts;
    for (const SparseCube& c : f.cubes) {
      for (const Lit l : c) ++counts[l];
    }
    Lit best = 0;
    unsigned best_count = 1;
    for (const auto& [l, cnt] : counts) {
      if (cnt > best_count) {
        best = l;
        best_count = cnt;
      }
    }
    if (best_count < 2) {
      std::vector<std::int32_t> terms;
      terms.reserve(f.cubes.size());
      for (const SparseCube& c : f.cubes) terms.push_back(cube_tree(c));
      return reduce(std::move(terms), /*is_and=*/false);
    }

    // F = d * (Q / cc) + R where d = best literal extended by the common
    // cube cc of the quotient (pulling the whole co-kernel out).
    SparseSop q = divide_by_cube(f, {best});
    SparseSop r;
    for (const SparseCube& c : f.cubes) {
      if (!cube_contains(c, {best})) r.cubes.push_back(c);
    }
    SparseCube d{best};
    const SparseCube cc = common_cube(q);
    if (!cc.empty()) {
      SparseCube extended;
      cube_product(d, cc, extended);
      d = std::move(extended);
      for (SparseCube& c : q.cubes) c = cube_divide(c, cc);
    }
    const std::int32_t dq = and_(cube_tree(d), factor_rec(std::move(q)));
    if (r.cubes.empty()) return dq;
    return or_(dq, factor_rec(std::move(r)));
  }

 private:
  std::int32_t push(FactorNode n) {
    form_.nodes.push_back(n);
    return static_cast<std::int32_t>(form_.nodes.size() - 1);
  }
  FactoredForm& form_;
};

}  // namespace

FactoredForm factor(const SparseSop& f) {
  FactoredForm form;
  Builder b(form);
  form.root = b.factor_rec(f);
  return form;
}

}  // namespace bds::sis
