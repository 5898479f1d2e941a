// DynamicAtomicObject<Adt>: an online implementation of dynamic atomicity
// (§4.1) for an arbitrary ADT.
//
// Protocol (intentions lists + data-dependent admission):
//   * Each active transaction's executed operations are buffered in an
//     intentions list (core/intentions.h); its view is the committed
//     state plus its own intentions. Nothing tentative is ever visible to
//     other transactions, which is what makes aborts free (discard the
//     list) — the [Lampson & Sturgis]-style recovery the paper pairs with
//     locking.
//   * A new operation is admitted only if every recorded result stays
//     reproducible under *every* subset and ordering of the concurrently
//     active transactions (core/validation.h) — the §4.1 requirement that
//     perm(h) be serializable in every precedes-consistent order,
//     restricted to what can still change. Otherwise the caller blocks
//     until conflicting transactions commit or abort (lock-style waiting,
//     with deadlock detection).
//   * Commit folds the intentions into the committed state; the commit
//     event is recorded inside the same critical section, so any response
//     that observed the commit is ordered after it in the history —
//     making the recorded precedes relation faithful.
//
// The admission test subsumes commutativity locking: a fast path admits
// operations that statically commute with everything pending; the exact
// test additionally admits the §5.1 interleavings (concurrent covered
// withdraws, equal-value enqueues) that conflict tables must reject.
//
// AdmissionObject is that admission, shared with HybridAtomicObject,
// which processes updates exactly this way (§4.3).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/intentions.h"
#include "core/validation.h"
#include "spec/adt_spec.h"

namespace argus {

/// How much data-dependent information the admission test may use — the
/// ablation axis of bench_ablation. kConflictTableOnly reduces the object
/// to classical commutativity locking (the §5.1 comparators) while
/// keeping everything else identical; kExact adds the state-dependent
/// all-orders validation on top of the fast path.
enum class AdmissionMode {
  kExact,
  kConflictTableOnly,
  /// Admits every enabled operation without any validation — a
  /// deliberately broken protocol. Exists only as a seeded regression for
  /// the deterministic-schedule explorer: runs under it must produce
  /// atomicity violations that the checkers catch and the explorer
  /// minimizes to a replayable schedule. Never use outside tests.
  kChaosAdmitAll,
};

/// Generic data-dependent admission over an intentions table.
template <AdtTraits A>
class AdmissionObject : public IntentionsObject<A> {
 protected:
  using Entry = typename IntentionsObject<A>::Entry;

  AdmissionObject(ObjectId oid, std::string name, TransactionManager& tm,
                  EventSink* recorder, AdmissionMode mode, bool versioned)
      : IntentionsObject<A>(oid, std::move(name), tm, recorder, versioned),
        mode_(mode) {}

 private:
  std::optional<Value> try_admit(Transaction& txn, Entry& mine,
                                 const Operation& op) final {
    const auto& committed = this->committed_.current();
    // The transaction's own view: committed state plus own intentions.
    auto view = replay_logged<A>({committed}, mine.ops);
    if (view.empty()) return std::nullopt;  // cannot happen if admission is sound

    std::vector<const std::vector<LoggedOp>*> others;
    bool all_static_commute = true;
    for (const auto& [aid, entry] : this->intentions_) {
      if (aid == txn.id() || entry.ops.empty()) continue;
      others.push_back(&entry.ops);
      for (const LoggedOp& held : entry.ops) {
        if (!A::static_commutes(op, held.op)) all_static_commute = false;
      }
    }

    // Candidate results from the view (deterministic ADTs give exactly
    // one; nondeterministic ones are tried in turn). An empty outcome set
    // means the operation is not enabled yet (e.g. dequeue on an empty
    // queue): block until commits change the picture.
    for (const auto& [result, next] : A::step(view.front(), op)) {
      bool admit = others.empty() || all_static_commute;
      std::vector<LoggedOp> self = mine.ops;
      self.push_back(LoggedOp{op, result});
      if (!admit && mode_ == AdmissionMode::kExact &&
          others.size() <= kMaxExactValidation) {
        admit = validate_all_orders<A>(committed, others, self);
      }
      if (mode_ == AdmissionMode::kChaosAdmitAll) admit = true;
      if (admit) {
        mine.ops = std::move(self);  // mu_ is held
        return result;
      }
    }
    return std::nullopt;
  }

  const AdmissionMode mode_;
};

template <AdtTraits A>
class DynamicAtomicObject final : public AdmissionObject<A> {
 public:
  DynamicAtomicObject(ObjectId oid, std::string name, TransactionManager& tm,
                      EventSink* recorder,
                      AdmissionMode mode = AdmissionMode::kExact)
      : AdmissionObject<A>(oid, std::move(name), tm, recorder, mode,
                           /*versioned=*/false) {}

 private:
  /// Dynamic atomicity has no timestamps: a plain <commit,x,a>.
  [[nodiscard]] Event commit_event(const Transaction& txn,
                                   Timestamp /*commit_ts*/) const override {
    return argus::commit(this->id(), txn.id());
  }
};

}  // namespace argus
