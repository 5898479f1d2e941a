#include "core/escrow_account.h"

namespace argus {

EscrowAccount::EscrowAccount(ObjectId oid, std::string name,
                             TransactionManager& tm, EventSink* recorder)
    : IntentionsObject(oid, std::move(name), tm, recorder,
                       /*versioned=*/false) {}

std::optional<Value> EscrowAccount::try_admit(Transaction& txn, Entry& mine,
                                              const Operation& op) {
  // Aggregate the other active transactions' pending effects.
  std::int64_t others_out = 0;
  std::int64_t others_in = 0;
  bool others_balance_exact = false;
  bool others_any_exact = false;
  bool others_state_change = false;
  for (const auto& [aid, entry] : intentions_) {
    if (aid == txn.id()) continue;
    const EscrowHold& hold = entry.extra;
    others_out += hold.out;
    others_in += hold.in;
    others_balance_exact |= hold.balance_exact;
    others_any_exact |= hold.balance_exact || hold.insufficient_exact;
    others_state_change |= hold.in > 0 || hold.out > 0;
  }
  EscrowHold& own = mine.extra;
  const std::int64_t own_net = own.in - own.out;
  const std::int64_t committed = committed_.current();

  if (op.name == "balance" && op.args.empty()) {
    // An exact observation: valid in every order only while no other
    // transaction has pending state changes. (Pending *failed*
    // withdrawals don't change state and don't disturb us.)
    if (others_state_change) return std::nullopt;
    own.balance_exact = true;
    const Value result{committed + own_net};
    mine.ops.push_back(LoggedOp{account::balance(), result});
    return result;
  }

  if (op.args.size() != 1 || !op.args[0].is_int()) {
    throw UsageError("unknown account operation " + to_string(op));
  }
  const std::int64_t n = op.args[0].as_int();
  if (n < 0) throw UsageError("negative amount: " + to_string(op));

  if (op.name == "deposit") {
    // A deposit raises the balance: it would invalidate any exact
    // observation held by another active transaction (a balance result,
    // or an insufficient_funds result it could flip to success).
    if (others_any_exact) return std::nullopt;
    own.in += n;
    mine.ops.push_back(LoggedOp{account::deposit(n), ok()});
    return ok();
  }

  if (op.name == "withdraw") {
    const std::int64_t low = committed - others_out + own_net;
    const std::int64_t high = committed + others_in + own_net;
    if (n <= low && !others_balance_exact) {
      // Covered in every serialization; lowering the balance cannot flip
      // another's insufficient result, but would invalidate a balance
      // observation.
      own.out += n;
      mine.ops.push_back(LoggedOp{account::withdraw(n), ok()});
      return ok();
    }
    if (n > high) {
      // Fails in every serialization; no state change, so nothing held
      // by others is disturbed. Pin as an exact observation so later
      // deposits can't invalidate it.
      own.insufficient_exact = true;
      const Value result{kInsufficientFunds};
      mine.ops.push_back(LoggedOp{account::withdraw(n), result});
      return result;
    }
    return std::nullopt;  // outcome depends on in-flight transactions: wait
  }

  throw UsageError("unknown account operation " + to_string(op));
}

Event EscrowAccount::commit_event(const Transaction& txn,
                                  Timestamp /*commit_ts*/) const {
  return argus::commit(id(), txn.id());
}

}  // namespace argus
