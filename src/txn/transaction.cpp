#include "txn/transaction.h"

#include <algorithm>

namespace argus {

Transaction::Transaction(ActivityId id, TxnKind kind, Timestamp start_ts)
    : id_(id), kind_(kind), start_ts_(start_ts), priority_(id.value) {}

void Transaction::doom(AbortReason reason) {
  {
    const std::scoped_lock lock(mu_);
    if (doomed_.load(std::memory_order_relaxed)) return;  // first reason wins
    doom_reason_ = reason;
  }
  doomed_.store(true, std::memory_order_release);
}

AbortReason Transaction::doom_reason() const {
  const std::scoped_lock lock(mu_);
  return doom_reason_;
}

void Transaction::ensure_active() const {
  if (doomed()) throw TransactionAborted(id_, doom_reason());
  if (state() != TxnState::kActive) {
    throw UsageError("operation on finished transaction " + to_string(id_));
  }
}

void Transaction::touch(ManagedObject* o) {
  const std::scoped_lock lock(mu_);
  if (std::find(touched_.begin(), touched_.end(), o) == touched_.end()) {
    touched_.push_back(o);
  }
}

std::vector<ManagedObject*> Transaction::touched() const {
  const std::scoped_lock lock(mu_);
  return touched_;
}

void Transaction::note_access(ObjectId object, bool write) {
  (write ? writes_ : reads_).fetch_add(1, std::memory_order_relaxed);
  const std::scoped_lock lock(mu_);
  auto& set = write ? write_set_ : read_set_;
  if (std::find(set.begin(), set.end(), object) == set.end()) {
    set.push_back(object);
  }
}

std::vector<ObjectId> Transaction::read_set() const {
  const std::scoped_lock lock(mu_);
  return read_set_;
}

std::vector<ObjectId> Transaction::write_set() const {
  const std::scoped_lock lock(mu_);
  return write_set_;
}

}  // namespace argus
