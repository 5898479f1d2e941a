// VersionedState<A>: an object's committed state and, for objects that
// serve snapshot reads (§4.3.3), every committed operation in a log
// sorted by commit timestamp.
//
// Applies run in commit-timestamp order and recovery replays the
// timestamp-sorted stable log, so the log grows sorted. Both paths fold
// by spec replay (A::redo where the ADT has it, else core/validation.h):
// an operation reaches the state only if its recorded result reproduces
// there. A read-only activity with timestamp t must observe the state
// the log prefix strictly below t produces; the manager's watermark
// guarantees every commit below t had fully applied before the
// activity's begin returned, so that prefix is final. Usually the log
// holds nothing at or above t — no update committed here since the
// activity began — and the snapshot is simply the current state: O(1),
// no replay. Otherwise the prefix below t is replayed from the initial
// state.
//
// Objects without snapshot reads (dynamic atomicity, single-version OCC)
// keep no log: their VersionedState is just the committed state.
#pragma once

#include <concepts>
#include <utility>
#include <vector>

#include "common/errors.h"
#include "common/ids.h"
#include "core/validation.h"
#include "spec/adt_spec.h"
#include "txn/stable_log.h"

namespace argus {

/// An ADT that folds committed operations in place (spec/adt_spec.h).
template <typename A>
concept HasRedo = requires(typename A::State& s, const Operation& op,
                           const Value& result) {
  { A::redo(s, op, result) } -> std::same_as<bool>;
};

template <AdtTraits A>
class VersionedState {
 public:
  using State = typename A::State;

  explicit VersionedState(bool keeps_log) : keeps_log_(keeps_log) {}

  /// Whether committed operations are logged for snapshot reads.
  [[nodiscard]] bool keeps_log() const { return keeps_log_; }

  /// The state every committed operation so far produces.
  [[nodiscard]] const State& current() const { return state_; }

  /// Folds a committing transaction's operations, in execution order,
  /// into the state and moves them into the log at `commit_ts`. Returns
  /// false, logging nothing, if some recorded result does not reproduce —
  /// which admission rules out. The fold then stops at that operation:
  /// an ADT with redo() keeps the operations ahead of it (it folds in
  /// place), any other ADT keeps none.
  [[nodiscard]] bool apply(Timestamp commit_ts, std::vector<LoggedOp> ops) {
    if (!fold(state_, ops)) return false;
    if (keeps_log_) {
      for (LoggedOp& logged : ops) {
        log_.emplace_back(commit_ts, std::move(logged));
      }
    }
    return true;
  }

  /// Recovery: re-applies one operation of the stable log. Throws
  /// UsageError if its recorded result does not reproduce.
  void replay(Timestamp commit_ts, const LoggedOp& logged) {
    if (!apply(commit_ts, {logged})) {
      throw UsageError("recovery replay diverged for " + to_string(logged.op) +
                       " -> " + to_string(logged.result));
    }
  }

  /// The state below timestamp `t`: current() when no logged operation
  /// is at or above `t`, else the replay of the prefix below `t`
  /// (written into `scratch`). Only meaningful when keeps_log().
  [[nodiscard]] const State& at(Timestamp t, State& scratch) const {
    if (log_.empty() || log_.back().first < t) return state_;
    std::vector<State> candidates{A::initial()};
    for (auto it = log_.begin(); it != log_.end() && it->first < t; ++it) {
      candidates = replay_one<A>(candidates, it->second);
      if (candidates.empty()) throw UsageError("committed log not replayable");
    }
    scratch = std::move(candidates.front());
    return scratch;
  }

  /// Crash: back to the initial state with an empty log.
  void reset() {
    state_ = A::initial();
    log_.clear();
  }

 private:
  /// Replays `ops` onto `s`: in place through A::redo where the ADT has
  /// it, else through the candidate states of step(), all or nothing.
  static bool fold(State& s, const std::vector<LoggedOp>& ops) {
    if constexpr (HasRedo<A>) {
      for (const LoggedOp& logged : ops) {
        if (!A::redo(s, logged.op, logged.result)) return false;
      }
      return true;
    } else {
      auto states = replay_logged<A>({s}, ops);
      if (states.empty()) return false;
      s = std::move(states.front());
      return true;
    }
  }

  bool keeps_log_;
  State state_ = A::initial();
  std::vector<std::pair<Timestamp, LoggedOp>> log_;  // sorted by timestamp
};

}  // namespace argus
