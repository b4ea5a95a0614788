#include "opt/manager_pool.hpp"

#include <algorithm>
#include <iterator>

namespace bds::opt {

void ManagerPool::Lease::release() {
  if (mgr_ == nullptr) return;
  // Strip the per-run budget before parking: a pooled manager must not
  // throb the next lease's work against a finished request's ceilings.
  mgr_->set_budget(nullptr);
  mgr_->reset();
  if (pool_ != nullptr) pool_->put_back(std::move(mgr_));
  pool_ = nullptr;
  mgr_ = nullptr;
}

ManagerPool::Lease ManagerPool::acquire(std::uint32_t num_vars,
                                       std::size_t cache_entries) {
  std::unique_ptr<bdd::Manager> mgr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      // Most recently parked manager of the requested size, else the most
      // recently parked one (resized below).
      auto it = std::find_if(idle_.rbegin(), idle_.rend(), [&](const auto& m) {
        return m->initial_cache_entries() == cache_entries;
      });
      if (it == idle_.rend()) it = idle_.rbegin();
      mgr = std::move(*it);
      idle_.erase(std::next(it).base());
    } else {
      ++constructed_;
    }
  }
  if (mgr == nullptr) {
    mgr = std::make_unique<bdd::Manager>(num_vars, cache_entries);
  } else {
    if (mgr->initial_cache_entries() != cache_entries) {
      mgr->reset(cache_entries);
    }
    mgr->ensure_vars(num_vars);  // reset() left it at 0 vars
  }
  return Lease(this, std::move(mgr));
}

std::size_t ManagerPool::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_.size();
}

std::size_t ManagerPool::constructed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return constructed_;
}

ManagerPool& ManagerPool::global() {
  static ManagerPool pool;
  return pool;
}

void ManagerPool::put_back(std::unique_ptr<bdd::Manager> mgr) {
  std::lock_guard<std::mutex> lock(mu_);
  idle_.push_back(std::move(mgr));
}

}  // namespace bds::opt
