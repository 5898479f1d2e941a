// HybridBag: a type-specific hybrid-atomic bag ("semiqueue") exploiting
// nondeterminism for concurrency.
//
// §1 of the paper (citing [Weihl & Liskov 83]): "non-determinism may be
// needed to achieve a reasonable level of concurrency among actions" —
// and conventional models "require operations to be functions, precluding
// the description of non-deterministic operations". The bag's remove
// returns *some* element, and precisely because the specification does
// not say which, concurrent removers need not conflict: each claims a
// different committed instance. Contrast the FIFO queue, whose
// deterministic dequeue forces concurrent consumers to serialize on the
// front (bench_nondeterminism measures the gap).
//
// Protocol (commit-order, like HybridFifoQueue):
//   insert(v)  — never conflicts; buffered in the intentions list and
//                folded in at commit.
//   remove     — claims any committed instance not claimed by an active
//                transaction; waits only when none is available. The
//                claimed element exists at every possible serialization
//                position (inserts only add, claims are disjoint), so
//                the nondeterministic result is valid in every order.
//   size       — read-only transactions only (timestamp snapshot of the
//                committed operation log).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "core/intentions.h"
#include "spec/adts/bag.h"

namespace argus {

/// Committed instances a transaction has claimed: element -> count.
using BagClaims = std::map<std::int64_t, std::int64_t>;

class HybridBag final : public IntentionsObject<BagAdt, BagClaims> {
 public:
  HybridBag(ObjectId oid, std::string name, TransactionManager& tm,
            EventSink* recorder);

  /// Test hook: committed contents (element -> multiplicity).
  [[nodiscard]] BagAdt::State committed_contents() const {
    return committed_state();
  }

 private:
  std::optional<Value> try_admit(Transaction& txn, Entry& mine,
                                 const Operation& op) override;

  /// Smallest committed element with an unclaimed instance; nullopt when
  /// every instance is claimed or the bag is empty. Called with mu_ held.
  [[nodiscard]] std::optional<std::int64_t> unclaimed_element() const;
};

}  // namespace argus
