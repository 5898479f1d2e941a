#include "core/hybrid_queue.h"

namespace argus {

HybridFifoQueue::HybridFifoQueue(ObjectId oid, std::string name,
                                 TransactionManager& tm,
                                 EventSink* recorder)
    : IntentionsObject(oid, std::move(name), tm, recorder,
                       /*versioned=*/true) {}

std::optional<Value> HybridFifoQueue::try_admit(Transaction& txn,
                                                Entry& mine,
                                                const Operation& op) {
  if (op.name == "enqueue" && op.args.size() == 1 && op.args[0].is_int()) {
    // Enqueues never conflict: ordering is fixed at commit.
    mine.ops.push_back(LoggedOp{op, ok()});
    return ok();
  }
  if (op.name == "dequeue" && op.args.empty()) {
    // A dequeue may only consume a *committed* item: the transaction's
    // own tentative enqueues cannot be served, because another
    // transaction's enqueue could commit first and would then precede
    // them in the queue. While the visible committed remainder is empty,
    // or another transaction holds tentative dequeues (its abort would
    // restore the front), wait. `mine.extra` counts the committed items
    // this transaction already holds.
    const auto& committed = committed_.current();
    if (other_has_tentative_dequeue(txn.id()) ||
        mine.extra >= committed.size()) {
      return std::nullopt;
    }
    const Value result{committed[mine.extra++]};
    mine.ops.push_back(LoggedOp{op, result});
    return result;
  }
  if (op.name == "size" && op.args.empty()) {
    // A size result pins the whole queue contents at this transaction's
    // commit position, which later committers could invalidate; the
    // commit-order queue therefore only offers size to read-only
    // transactions (which evaluate it against a timestamp snapshot).
    throw UsageError(
        "HybridFifoQueue: size is only available to read-only "
        "transactions; use Runtime::begin_read_only");
  }
  throw UsageError("unknown queue operation " + to_string(op));
}

bool HybridFifoQueue::other_has_tentative_dequeue(ActivityId self) const {
  for (const auto& [aid, entry] : intentions_) {
    if (aid != self && entry.extra > 0) return true;
  }
  return false;
}

}  // namespace argus
