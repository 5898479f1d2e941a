#include "dist/decision_log.h"

#include <utility>

#include "fault/fault.h"

namespace argus {

bool DecisionLog::force_decision(ActivityId gid, Timestamp decision,
                                 const std::vector<std::size_t>& parts) {
  if (FaultInjector* inj = fault_.load(std::memory_order_acquire)) {
    if (inj->on_decision_force()) {
      const std::scoped_lock lock(mu_);
      ++stats_.force_failures;
      return false;
    }
  }
  CommitLogRecord rec;
  rec.txn = gid;
  rec.commit_ts = decision;
  rec.start_ts = kNoTimestamp;
  rec.entries.reserve(parts.size());
  for (const std::size_t site : parts) {
    rec.entries.push_back({ObjectId{site}, {}});
  }
  log_.append(std::move(rec));
  const std::scoped_lock lock(mu_);
  ++stats_.logged;
  return true;
}

void DecisionLog::ack(ActivityId gid, std::size_t site_index) {
  const std::scoped_lock lock(mu_);
  if (acks_[gid].insert(site_index).second) ++stats_.acks;
}

std::size_t DecisionLog::checkpoint() {
  std::size_t removed = 0;
  for (const Decision& d : replay()) {
    bool complete = true;
    {
      const std::scoped_lock lock(mu_);
      const auto it = acks_.find(d.gid);
      for (const std::size_t site : d.participants) {
        if (it == acks_.end() || !it->second.contains(site)) {
          complete = false;
          break;
        }
      }
    }
    // Concurrent checkpoints can both find a decision fully acked; only
    // the caller whose remove_record actually removed it counts it.
    if (!complete || !log_.remove_record(d.gid)) continue;
    ++removed;
    const std::scoped_lock lock(mu_);
    acks_.erase(d.gid);
    ++stats_.truncated;
  }
  return removed;
}

std::optional<Timestamp> DecisionLog::lookup(ActivityId gid) const {
  return log_.committed_ts(gid);
}

std::vector<DecisionLog::Decision> DecisionLog::replay() const {
  std::vector<Decision> out;
  for (const CommitLogRecord& rec : log_.records()) {
    Decision d;
    d.gid = rec.txn;
    d.decision = rec.commit_ts;
    d.participants.reserve(rec.entries.size());
    for (const auto& entry : rec.entries) {
      d.participants.push_back(static_cast<std::size_t>(entry.object.value));
    }
    out.push_back(std::move(d));
  }
  return out;
}

void DecisionLog::crash() {
  const std::scoped_lock lock(mu_);
  acks_.clear();
}

DecisionLog::Stats DecisionLog::stats() const {
  const std::scoped_lock lock(mu_);
  return stats_;
}

}  // namespace argus
