#include "txn/deadlock.h"

#include <algorithm>
#include <utility>

namespace argus {

bool DeadlockDetector::reachable_locked(ActivityId from, ActivityId to) const {
  std::vector<ActivityId> stack{from};
  std::unordered_set<ActivityId> seen{from};
  while (!stack.empty()) {
    const ActivityId cur = stack.back();
    stack.pop_back();
    if (cur == to) return true;
    auto it = edges_.find(cur);
    if (it == edges_.end()) continue;
    for (ActivityId next : it->second) {
      if (seen.insert(next).second) stack.push_back(next);
    }
  }
  return false;
}

std::shared_ptr<Transaction> DeadlockDetector::add_wait(
    const std::shared_ptr<Transaction>& waiter,
    const std::vector<std::shared_ptr<Transaction>>& holders) {
  const std::scoped_lock lock(mu_);
  txns_[waiter->id()] = waiter;
  auto& out = edges_[waiter->id()];
  for (const auto& h : holders) {
    if (h->id() == waiter->id()) continue;
    txns_[h->id()] = h;
    out.insert(h->id());
  }

  // A cycle through the new edges exists iff waiter is reachable from one
  // of its holders.
  std::vector<ActivityId> cycle_entry;
  for (const auto& h : holders) {
    if (h->id() != waiter->id() && reachable_locked(h->id(), waiter->id())) {
      cycle_entry.push_back(h->id());
    }
  }
  if (cycle_entry.empty()) return nullptr;

  // Collect cycle members: waiter plus everything on a holder->waiter
  // path. For victim selection it is enough to consider nodes reachable
  // from waiter that can reach waiter.
  std::shared_ptr<Transaction> victim;
  auto consider = [&](ActivityId id) {
    auto it = txns_.find(id);
    if (it == txns_.end()) return;
    auto t = it->second.lock();
    if (!t || !t->active() || t->doomed()) return;
    const auto age = [](const Transaction& x) {
      return std::make_pair(x.priority(), x.id().value);
    };
    if (!victim || age(*t) > age(*victim)) victim = std::move(t);
  };
  consider(waiter->id());
  for (const auto& [id, edges] : edges_) {
    if (reachable_locked(waiter->id(), id) &&
        reachable_locked(id, waiter->id())) {
      consider(id);
    }
  }
  if (!victim) return nullptr;  // cycle already being torn down

  ++resolved_;
  victim->doom(AbortReason::kDeadlock);
  // Break the cycle in the graph immediately so concurrent add_wait calls
  // do not re-detect and doom further victims.
  edges_.erase(victim->id());
  return victim;
}

void DeadlockDetector::clear_wait(ActivityId waiter) {
  const std::scoped_lock lock(mu_);
  edges_.erase(waiter);
}

void DeadlockDetector::remove(ActivityId txn) {
  const std::scoped_lock lock(mu_);
  edges_.erase(txn);
  txns_.erase(txn);
  for (auto& [id, out] : edges_) out.erase(txn);
}

std::uint64_t DeadlockDetector::deadlocks_resolved() const {
  const std::scoped_lock lock(mu_);
  return resolved_;
}

}  // namespace argus
