// EscrowAccount: a type-specific dynamic-atomic bank account.
//
// The generic DynamicAtomicObject decides admission by brute-force
// all-orders validation (factorial in concurrent transactions, capped at
// kMaxExactValidation). For the bank account the same information can be
// tracked in O(1) with escrow bounds — the style of type-specific
// implementation the paper's framework licenses ("In many applications
// … the locking protocols will be more than adequate"; here the
// opposite: the type's algebra admits a *better* protocol):
//
//   low  = committed − Σ pending-successful-withdrawals(others) + own net
//   high = committed + Σ pending-deposits(others)               + own net
//
//   withdraw(n) → ok            admissible iff n ≤ low and no other
//                               transaction holds an exact balance
//                               observation (a balance result our state
//                               change would invalidate);
//   withdraw(n) → insufficient  admissible iff n > high (fails in every
//                               serialization; no state change);
//   deposit(n)                  admissible iff no other transaction holds
//                               an exact observation (balance or
//                               insufficient result — a deposit could
//                               flip either);
//   balance                     admissible iff no other transaction has
//                               pending state changes; pins an exact
//                               observation.
//
// Anything not admissible blocks, with the usual deadlock detection.
// Every admitted result is valid under every subset and ordering of the
// concurrently active transactions, so histories are dynamic atomic —
// the property tests check this against the formal definition.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/intentions.h"
#include "spec/adts/bank_account.h"

namespace argus {

/// A transaction's escrow bounds and exact observations at one account.
struct EscrowHold {
  std::int64_t in{0};   // pending deposits
  std::int64_t out{0};  // pending successful withdrawals
  bool balance_exact{false};       // holds a balance result
  bool insufficient_exact{false};  // holds an insufficient_funds result
};

class EscrowAccount final
    : public IntentionsObject<BankAccountAdt, EscrowHold> {
 public:
  EscrowAccount(ObjectId oid, std::string name, TransactionManager& tm,
                EventSink* recorder);

  /// Test hook.
  [[nodiscard]] std::int64_t committed_balance() const {
    return committed_state();
  }

 private:
  std::optional<Value> try_admit(Transaction& txn, Entry& mine,
                                 const Operation& op) override;

  /// Dynamic atomicity has no timestamps: a plain <commit,x,a>.
  [[nodiscard]] Event commit_event(const Transaction& txn,
                                   Timestamp commit_ts) const override;
};

}  // namespace argus
