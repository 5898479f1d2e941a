// Intentions-list objects (§4): the half every buffering protocol object
// shares.
//
// Each active transaction's executed operations sit in its entry of the
// object's IntentionsTable; nothing tentative is visible to any other
// transaction, so an abort just drops the entry, and a commit folds the
// entry's operations into the object's VersionedState — the
// [Lampson & Sturgis]-style recovery the paper pairs with its protocols.
// Recovery rebuilds the VersionedState by replaying the stable log.
//
// IntentionsObject<A, Extra> is that machinery, written once: the update
// invocation (record, wait in await() until the protocol admits the
// operation, respond), commit, abort, intentions_of, crash reset and
// recovery replay. A protocol object derives from it and supplies its
// admission rule, try_admit(), overriding the rest only where its
// protocol differs (the commit event, OCC's validation). Extra is the
// per-transaction state the rule keeps beside the operations (bag claims,
// escrow bounds, ...).
//
// When the VersionedState keeps its log, read-only activities never
// reach try_admit: they read the committed state below their timestamp
// (ObjectBase::read_snapshot), hold no intentions, never wait and never
// abort, and commit without the update pipeline (reads_snapshot). That is
// hybrid atomicity's treatment of read-only activities (§4.3.3), and the
// MVCC mode's.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/object_base.h"
#include "core/snapshot.h"
#include "spec/adt_spec.h"
#include "txn/stable_log.h"

namespace argus {

/// The per-transaction state of an object whose admission needs none.
struct NoExtra {};

/// The active transactions' intentions at one object, by activity.
template <typename Extra>
class IntentionsTable {
 public:
  struct Entry {
    std::weak_ptr<Transaction> owner;
    std::vector<LoggedOp> ops;  // executed operations, in order
    [[no_unique_address]] Extra extra{};
  };

  /// txn's entry, created empty on first use.
  Entry& entry_for(Transaction& txn) {
    Entry& entry = entries_[txn.id()];
    entry.owner = txn.weak_from_this();
    return entry;
  }

  /// Removes txn's entry and hands it over (nullopt if it has none).
  std::optional<Entry> take(ActivityId txn) {
    auto node = entries_.extract(txn);
    if (node.empty()) return std::nullopt;
    return std::move(node.mapped());
  }

  void erase(ActivityId txn) { entries_.erase(txn); }
  void clear() { entries_.clear(); }

  /// txn's entry, or nullptr if it has none.
  [[nodiscard]] const Entry* find(ActivityId txn) const {
    auto it = entries_.find(txn);
    return it == entries_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::vector<LoggedOp> ops_of(ActivityId txn) const {
    const Entry* entry = find(txn);
    return entry == nullptr ? std::vector<LoggedOp>{} : entry->ops;
  }

  /// The active transactions other than `self` holding intentions: the
  /// ones a waiter here waits for.
  [[nodiscard]] std::vector<std::shared_ptr<Transaction>> blockers(
      ActivityId self) const {
    std::vector<std::shared_ptr<Transaction>> out;
    for (const auto& [aid, entry] : entries_) {
      if (aid == self || entry.ops.empty()) continue;
      if (auto t = entry.owner.lock(); t && t->active()) {
        out.push_back(std::move(t));
      }
    }
    return out;
  }

  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

 private:
  std::map<ActivityId, Entry> entries_;
};

template <AdtTraits A, typename Extra = NoExtra>
class IntentionsObject : public ObjectBase {
 public:
  Value invoke(Transaction& txn, const Operation& op) final {
    txn.ensure_active();
    if (txn.read_only() && !A::is_read_only(op)) {
      throw UsageError("read-only transaction invoked mutator " +
                       to_string(op) + " on " + name());
    }
    txn.touch(this);
    sched_point(op);
    if (reads_snapshot(txn)) return read_snapshot<A>(txn, op, committed_);

    std::unique_lock lock(mu_);
    record(argus::invoke(id(), txn.id(), op));
    auto admit = [&] { return try_admit(txn, intentions_.entry_for(txn), op); };
    // Admitted at once is the common case; only a refusal pays for await's
    // predicate and blocker callbacks.
    std::optional<Value> result = admit();
    if (!result) {
      await(
          lock, txn, [&] { return (result = admit()).has_value(); },
          [&] { return intentions_.blockers(txn.id()); });
    }
    record(respond(id(), txn.id(), *result));
    return *result;
  }

  void prepare(Transaction& txn) override { txn.ensure_active(); }

  [[nodiscard]] bool reads_snapshot(const Transaction& txn) const final {
    return committed_.keeps_log() && txn.read_only();
  }

  void commit(Transaction& txn, Timestamp commit_ts) final {
    const std::scoped_lock lock(mu_);
    if (reads_snapshot(txn)) {
      record(argus::commit(id(), txn.id()));
      return;
    }
    if (auto mine = intentions_.take(txn.id())) {
      fold(commit_ts, std::move(mine->ops));
    }
    record(commit_event(txn, commit_ts));
    notify_object();
  }

  void abort(Transaction& txn) final {
    const std::scoped_lock lock(mu_);
    intentions_.erase(txn.id());
    record(argus::abort(id(), txn.id()));
    notify_object();
  }

  [[nodiscard]] std::vector<LoggedOp> intentions_of(
      const Transaction& txn) const final {
    const std::scoped_lock lock(mu_);
    return intentions_.ops_of(txn.id());
  }

  void reset_for_recovery() override {
    const std::scoped_lock lock(mu_);
    committed_.reset();
    intentions_.clear();
    initiated_.clear();
    notify_object();
  }

  void replay(const ReplayContext& ctx, const LoggedOp& logged) override {
    const std::scoped_lock lock(mu_);
    committed_.replay(ctx.commit_ts, logged);
  }

  /// Test hook: the committed state (no tentative effects).
  [[nodiscard]] typename A::State committed_state() const {
    const std::scoped_lock lock(mu_);
    return committed_.current();
  }

 protected:
  using Entry = typename IntentionsTable<Extra>::Entry;

  /// `versioned`: whether committed operations are logged for snapshot
  /// reads, which read-only activities then take.
  IntentionsObject(ObjectId oid, std::string name, TransactionManager& tm,
                   EventSink* recorder, bool versioned)
      : ObjectBase(oid, std::move(name), tm, recorder), committed_(versioned) {}

  /// The protocol's admission rule for update invocations: executes `op`
  /// for `txn` — appending it with its result to mine.ops — and returns
  /// the result, or returns nullopt to wait until a commit or abort here
  /// changes the picture. May throw (usage errors, an optimistic doom).
  /// Called with mu_ held.
  virtual std::optional<Value> try_admit(Transaction& txn, Entry& mine,
                                         const Operation& op) = 0;

  /// The event a commit records: <commit(t),x,a> by default, the form of
  /// every protocol that stamps updates at commit.
  [[nodiscard]] virtual Event commit_event(const Transaction& txn,
                                           Timestamp commit_ts) const {
    return commit_at(id(), txn.id(), commit_ts);
  }

  /// Folds a committing transaction's operations into the committed
  /// state. Admission keeps them reproducible there; under an unvalidated
  /// admission (AdmissionMode::kChaosAdmitAll) they may not be, and the
  /// fold stops where they stop reproducing (VersionedState::apply).
  virtual void fold(Timestamp commit_ts, std::vector<LoggedOp> ops) {
    (void)committed_.apply(commit_ts, std::move(ops));
  }

  IntentionsTable<Extra> intentions_;  // guarded by mu_
  VersionedState<A> committed_;        // guarded by mu_
};

}  // namespace argus
