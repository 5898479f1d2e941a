// Snapshot reads over a timestamp-ordered committed log (§4.3.3).
//
// HybridAtomicObject, HybridBag, HybridFifoQueue and the MVCC mode of
// OccAtomicObject keep the same two pieces of committed state: the
// current committed state, and every committed operation in a log sorted
// by commit timestamp (applies run in commit-timestamp order, recovery
// replays the timestamp-sorted stable log). A read-only activity with
// timestamp t must observe the state the log prefix strictly below t
// produces. The manager's watermark guarantees every commit below t had
// fully applied before the activity's begin returned, so that prefix is
// final.
//
// Usually the log holds nothing at or above t — no update committed at
// this object since the activity began — and the snapshot is simply the
// committed state: O(1), no replay. Otherwise the prefix below t is
// replayed from the initial state, in place.
#pragma once

#include <utility>
#include <vector>

#include "common/errors.h"
#include "common/ids.h"
#include "core/validation.h"
#include "spec/adt_spec.h"
#include "txn/stable_log.h"

namespace argus {

/// Committed operations tagged with their commit timestamps, sorted.
using CommittedLog = std::vector<std::pair<Timestamp, LoggedOp>>;

/// The state below timestamp `t`: `committed` itself when no entry of
/// `log` is at or above `t`, else the replay of the prefix below `t`
/// (written into `scratch`). `committed` must be the state `log`
/// produces. Throws UsageError if the prefix is not replayable.
template <AdtTraits A>
[[nodiscard]] const typename A::State& snapshot_state(
    const typename A::State& committed, const CommittedLog& log, Timestamp t,
    typename A::State& scratch) {
  if (log.empty() || log.back().first < t) return committed;
  std::vector<typename A::State> candidates{A::initial()};
  for (auto it = log.begin(); it != log.end() && it->first < t; ++it) {
    candidates = replay_one<A>(candidates, it->second);
    if (candidates.empty()) throw UsageError("committed log not replayable");
  }
  scratch = std::move(candidates.front());
  return scratch;
}

}  // namespace argus
