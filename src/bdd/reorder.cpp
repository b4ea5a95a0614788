// Dynamic variable reordering: Rudell sifting built on in-place adjacent
// level swaps. BDS reorders each supernode BDD before decomposition
// (Section IV-C, citing [30]).
//
// The swap rewrites the nodes of the upper variable in place, so node
// identities -- and therefore all outstanding `Bdd` handles and cached
// results -- remain valid: a node keeps denoting the same Boolean function
// throughout reordering. Between sifts the manager collects only the nodes
// the swaps killed (collect_killed), not the whole table.
#include <algorithm>
#include <cassert>
#include <numeric>

#include "bdd/bdd.hpp"

namespace bds::bdd {

std::uint32_t Manager::subtable_live(Var v) const {
  std::uint32_t live = 0;
  const Subtable& st = subtables_[v];
  for (std::uint32_t head : st.buckets) {
    for (std::uint32_t i = head; i != kNil; i = nexts_[i]) {
      if (refs_[i] > 0) ++live;
    }
  }
  return live;
}

void Manager::release_child(Edge e) {
  deref(e);
  if (refs_[e.node()] == 0) killed_.push_back(e.node());
}

void Manager::collect_killed() {
  // Between sifts the nodes swap_levels() killed are the only dead nodes
  // (reorder_sift() starts from a full gc()), so they are exactly the seeds
  // a bucket walk would find. Filtered to the ones still dead and chained
  // (about half were revived by later swaps), sorted and deduplicated, they are
  // the same sorted seed list, and the collection frees the same nodes in
  // the same order as gc().
  std::vector<std::uint32_t>& dead = node_scratch_;
  dead.clear();
  for (const std::uint32_t i : killed_) {
    if (vars_[i] != kVarTerminal && refs_[i] == 0) dead.push_back(i);
  }
  killed_.clear();
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  reclaim(dead);
}

void Manager::swap_levels(std::uint32_t level) {
  assert(level + 1 < num_vars());
  const Var x = level2var_[level];      // upper variable, moves down
  const Var y = level2var_[level + 1];  // lower variable, moves up

  // Unlink the x-nodes that have a y child: they are rewritten below, and
  // the x-nodes mk() re-creates must not collide with their stale chains.
  // The other x-nodes keep their structure and simply end up below y; their
  // (x, hi, lo) triple, hence their bucket, is unchanged, so they stay
  // chained where they are and mk() finds them during the rewrite.
  std::vector<std::uint32_t>& xs = node_scratch_;
  xs.clear();
  {
    Subtable& st = subtables_[x];
    for (std::uint32_t& head : st.buckets) {
      for (std::uint32_t* link = &head; *link != kNil;) {
        const std::uint32_t i = *link;
        if (top_var(thens_[i]) == y || top_var(elses_[i]) == y) {
          *link = nexts_[i];
          nexts_[i] = kNil;
          --st.count;
          xs.push_back(i);
        } else {
          link = &nexts_[i];
        }
      }
    }
  }

  // Rewrite each dependent node (x, F1, F0) into
  // (y, mk(x, F11, F01), mk(x, F10, F00)) in place.
  for (const std::uint32_t i : xs) {
    const Edge hi = thens_[i];  // regular by canonical form
    const Edge lo = elses_[i];
    Edge f11, f10, f01, f00;
    if (top_var(hi) == y) {
      f11 = hi_of(hi);
      f10 = lo_of(hi);
    } else {
      f11 = f10 = hi;
    }
    if (top_var(lo) == y) {
      f01 = hi_of(lo);
      f00 = lo_of(lo);
    } else {
      f01 = f00 = lo;
    }
    // f11 is regular (hi edge of a regular edge), so new_hi is regular and
    // the rewritten node stays canonical without flipping its polarity --
    // which is what keeps outside references valid.
    const Edge new_hi = mk(x, f11, f01);
    const Edge new_lo = mk(x, f10, f00);
    assert(!new_hi.complemented());
    assert(!(new_hi == new_lo) && "swap produced a redundant node");
    ref(new_hi);
    ref(new_lo);
    release_child(thens_[i]);
    release_child(elses_[i]);
    vars_[i] = y;
    thens_[i] = new_hi;
    elses_[i] = new_lo;
    unique_insert(i);
  }

  level2var_[level] = y;
  level2var_[level + 1] = x;
  var2level_[x] = level + 1;
  var2level_[y] = level;
}

void Manager::sift_var(Var v) {
  // A variable stops moving in one direction once the manager has grown
  // past 1.2x its size at the start of this sift.
  constexpr double kMaxGrowth = 1.2;
  const std::size_t start_size = stats_.live_nodes;
  const std::size_t limit =
      static_cast<std::size_t>(static_cast<double>(start_size) * kMaxGrowth) + 4;
  const std::uint32_t n = num_vars();
  const std::uint32_t start_level = var2level_[v];

  std::uint32_t best_level = start_level;
  std::size_t best_size = start_size;

  // Sift toward the nearer end first, then sweep to the other end.
  const bool down_first = (n - start_level) <= start_level;

  const auto move_down = [&]() {
    while (var2level_[v] + 1 < n) {
      swap_levels(var2level_[v]);
      if (stats_.live_nodes < best_size) {
        best_size = stats_.live_nodes;
        best_level = var2level_[v];
      }
      if (stats_.live_nodes > limit) break;
    }
  };
  const auto move_up = [&]() {
    while (var2level_[v] > 0) {
      swap_levels(var2level_[v] - 1);
      if (stats_.live_nodes < best_size) {
        best_size = stats_.live_nodes;
        best_level = var2level_[v];
      }
      if (stats_.live_nodes > limit) break;
    }
  };

  if (down_first) {
    move_down();
    move_up();
  } else {
    move_up();
    move_down();
  }
  // Return to the best position seen.
  while (var2level_[v] < best_level) swap_levels(var2level_[v]);
  while (var2level_[v] > best_level) swap_levels(var2level_[v] - 1);
}

void Manager::reorder_sift() {
  ++stats_.reorderings;
  gc();
  const std::uint32_t n = num_vars();
  if (n < 2) return;

  for (int pass = 0; pass < 2; ++pass) {
    const std::size_t before = stats_.live_nodes;
    // Process variables from the largest subtable down, as Rudell does.
    std::vector<Var> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::vector<std::uint32_t> weight(n);
    for (Var v = 0; v < n; ++v) weight[v] = subtable_live(v);
    std::stable_sort(order.begin(), order.end(),
                     [&](Var a, Var b) { return weight[a] > weight[b]; });
    for (Var v : order) {
      if (weight[v] == 0) continue;
      // Safe point between sifts: each sift_var() completes its restore
      // walk, so aborting here leaves a canonical manager (in a possibly
      // suboptimal order). The deadline is checked unamortized -- one
      // sift can be long, and reordering is where runaway time goes.
      if (budget_) {
        budget_->check_deadline();
        budget_check_slow();
      }
      sift_var(v);
      collect_killed();
    }
    const std::size_t after = stats_.live_nodes;
    if (after * 50 >= before * 49) break;  // < 2% improvement: stop
  }
  update_memory_stats();
}

void Manager::set_order(const std::vector<Var>& order) {
  // Validate up front, release builds included: a non-permutation would
  // silently scramble var2level_ mid-way through the bubble swaps, leaving
  // the manager corrupted far from the misuse site. Because validation
  // completes before any swap, rejection is recoverable -- the manager is
  // untouched -- so it throws a typed error instead of aborting.
  if (order.size() != num_vars()) {
    throw Error(
        "Manager::set_order: order must list every variable exactly once "
        "(size differs from num_vars)");
  }
  std::vector<bool> seen(num_vars(), false);
  for (const Var v : order) {
    if (v >= num_vars()) {
      throw Error(
          "Manager::set_order: order names a variable that does not exist");
    }
    if (seen[v]) {
      throw Error(
          "Manager::set_order: order repeats a variable (not a permutation)");
    }
    seen[v] = true;
  }
  gc();
  for (std::uint32_t target = 0; target < order.size(); ++target) {
    std::uint32_t cur = var2level_[order[target]];
    assert(cur >= target && "level invariant broken during reorder");
    while (cur > target) {
      swap_levels(cur - 1);
      --cur;
    }
  }
  // The nodes the swaps killed wait for the next gc(), which finds them by
  // its own walk.
  killed_.clear();
}

}  // namespace bds::bdd
