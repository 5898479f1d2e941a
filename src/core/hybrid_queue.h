// HybridFifoQueue: a type-specific hybrid-atomic FIFO queue exploiting
// commit-time serialization.
//
// This is the object the generic machinery cannot match. Under hybrid
// atomicity the serialization order of updates is the commit order, fixed
// only when transactions commit. The queue exploits that:
//
//   * enqueue never conflicts with anything: tentative enqueues sit in the
//     enqueuing transaction's intentions list and are appended to the
//     committed queue *at commit*, in commit order. Two transactions may
//     interleave enqueues of different values — inadmissible under any
//     conflict-table protocol (enqueue(1) vs enqueue(2) don't commute,
//     §5.1) and not even expressible in the scheduler model of Fig 5-1,
//     because the storage module would fix the interleaved order.
//   * dequeue takes the committed front (beyond the caller's own
//     tentative operations). It must wait while any *other* transaction
//     has tentative dequeues (if that transaction aborted, the front
//     would change) and while the visible queue is empty (the eventual
//     front depends on who commits first).
//
// Benchmark E1 measures the resulting concurrency gap on a
// producer/consumer workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/intentions.h"
#include "spec/adts/fifo_queue.h"

namespace argus {

/// Each intentions entry's extra state counts the committed items its
/// transaction has dequeued tentatively (from the front, in order).
class HybridFifoQueue final
    : public IntentionsObject<FifoQueueAdt, std::size_t> {
 public:
  HybridFifoQueue(ObjectId oid, std::string name, TransactionManager& tm,
                  EventSink* recorder);

  /// Test hook: the committed queue contents.
  [[nodiscard]] std::vector<std::int64_t> committed_items() const {
    return committed_state();
  }

 private:
  std::optional<Value> try_admit(Transaction& txn, Entry& mine,
                                 const Operation& op) override;

  [[nodiscard]] bool other_has_tentative_dequeue(ActivityId self) const;
};

}  // namespace argus
