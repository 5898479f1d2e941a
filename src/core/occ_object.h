// OccAtomicObject<Adt>: optimistic concurrency control over the paper's
// ADT framework, the conflict-based foil for §5.1's comparison.
//
// Invocations never block and never consult other transactions: each
// transaction executes against the committed state plus its own buffered
// operations and receives optimistic results immediately (read/write-set
// capture rides along on the transaction). The admission decision the
// data-dependent protocols make online is deferred wholesale to commit:
// the manager's pipeline takes the transaction's commit turn *before* the
// log force and calls validate_serial(), which replays the buffered
// operations against the now-current committed state. If every recorded
// result reproduces, the transaction serializes at its commit timestamp;
// otherwise an earlier committer won (first-committer-wins) and the
// transaction aborts with AbortReason::kValidation for the executor to
// retry. A fast path skips the replay when the object's committed version
// counter has not moved since the transaction's first access.
//
// The buffers are an intentions table (core/intentions.h) whose admission
// rule admits at once. kMultiVersion storage (the MVCC/snapshot-read
// mode) additionally keeps the committed operations as a timestamp-keyed
// version log, exactly like HybridAtomicObject's: read-only transactions
// read the committed state strictly below their initiation timestamp
// (core/snapshot.h) — they take no buffers, never validate, never abort
// and commit without the update pipeline, the same audit fast path
// hybrid atomicity provides (§4.3.3), here grafted onto an OCC update
// path.
//
// Either way the committed history is hybrid atomic by construction:
// updates carry <commit(t),x,a> at their commit timestamp and serialize
// in timestamp order (validation happened at that very point), read-only
// activities carry <initiate(t),x,a> at their begin timestamp — so the
// standard hybrid checkers certify both modes unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/intentions.h"
#include "core/validation.h"
#include "spec/adt_spec.h"

namespace argus {

enum class OccStorage {
  kSingleVersion,  // OCC proper: one committed state
  kMultiVersion,   // MVCC: + timestamp-keyed version log for snapshot reads
};

/// An OCC buffer's extra state: the committed version it was read from.
struct OccReadVersion {
  std::uint64_t version{0};
};

template <AdtTraits A>
class OccAtomicObject final : public IntentionsObject<A, OccReadVersion> {
  using Base = IntentionsObject<A, OccReadVersion>;
  using typename Base::Entry;
  using Base::committed_;
  using Base::intentions_;
  using Base::mu_;

 public:
  OccAtomicObject(ObjectId oid, std::string name, TransactionManager& tm,
                  EventSink* recorder, OccStorage storage)
      : Base(oid, std::move(name), tm, recorder,
             /*versioned=*/storage == OccStorage::kMultiVersion) {}

  /// Preliminary backward validation: a cheap early reject for
  /// transactions that have already lost, saving them the timestamp draw
  /// and the serial turn. Sound to skip (validate_serial re-checks at the
  /// serialization point), never admits unsoundly (it only aborts).
  void prepare(Transaction& txn) override {
    txn.ensure_active();
    const std::scoped_lock lock(mu_);
    if (!still_valid(txn)) {
      txn.doom(AbortReason::kValidation);
      throw TransactionAborted(txn.id(), AbortReason::kValidation);
    }
  }

  /// Optimistic objects admit every invocation at once and settle
  /// conflicts at commit: they never wait.
  [[nodiscard]] bool can_block() const override { return false; }

  [[nodiscard]] bool needs_serial_validation(
      const Transaction& txn) const override {
    // Snapshot readers are abort-free by construction; everyone else
    // must survive validate-at-commit.
    return !this->reads_snapshot(txn);
  }

  void validate_serial(Transaction& txn) override {
    const std::scoped_lock lock(mu_);
    if (!still_valid(txn)) {
      throw TransactionAborted(txn.id(), AbortReason::kValidation);
    }
  }

  void reset_for_recovery() override {
    Base::reset_for_recovery();
    const std::scoped_lock lock(mu_);
    version_ = 0;
  }

  void replay(const ReplayContext& ctx, const LoggedOp& logged) override {
    Base::replay(ctx, logged);
    const std::scoped_lock lock(mu_);
    if (!A::is_read_only(logged.op)) ++version_;
  }

  /// Committed mutations so far (the validation fast path's clock).
  [[nodiscard]] std::uint64_t committed_version() const {
    const std::scoped_lock lock(mu_);
    return version_;
  }

 private:
  /// Whether txn's buffered results still reproduce at the committed
  /// state; skips the replay when nothing committed since its first
  /// buffered operation. Called with mu_ held.
  [[nodiscard]] bool still_valid(const Transaction& txn) const {
    const Entry* mine = intentions_.find(txn.id());
    return mine == nullptr || mine->extra.version == version_ ||
           !replay_logged<A>({committed_.current()}, mine->ops).empty();
  }

  std::optional<Value> try_admit(Transaction& txn, Entry& mine,
                                 const Operation& op) override {
    if (mine.ops.empty()) mine.extra.version = version_;

    // The optimistic view: committed state + this transaction's buffer.
    // Results handed out here are provisional until validate_serial.
    auto view = replay_logged<A>({committed_.current()}, mine.ops);
    if (view.empty()) {
      // A committed mutation already invalidated the buffer mid-run; no
      // result we hand out can survive validation, so fail fast.
      txn.doom(AbortReason::kValidation);
      throw TransactionAborted(txn.id(), AbortReason::kValidation);
    }
    const auto outcomes = A::step(view.front(), op);
    if (outcomes.empty()) {
      // Not enabled at the optimistic view (e.g. dequeue on empty). OCC
      // cannot block for enabledness the way intentions-list admission
      // does — abort and let the executor retry after someone commits.
      txn.doom(AbortReason::kValidation);
      throw TransactionAborted(txn.id(), AbortReason::kValidation);
    }
    const Value result = outcomes.front().first;
    mine.ops.push_back(LoggedOp{op, result});
    txn.note_access(this->id(), !A::is_read_only(op));
    return result;
  }

  /// Validation ran at this very serialization point, so the fold must
  /// reproduce.
  void fold(Timestamp commit_ts, std::vector<LoggedOp> ops) override {
    const bool wrote = std::any_of(ops.begin(), ops.end(), [](const auto& l) {
      return !A::is_read_only(l.op);
    });
    if (!committed_.apply(commit_ts, std::move(ops))) {
      throw UsageError("validated OCC commit diverged at " + this->name());
    }
    if (wrote) ++version_;
  }

  std::uint64_t version_{0};  // committed mutations; guarded by mu_
};

}  // namespace argus
