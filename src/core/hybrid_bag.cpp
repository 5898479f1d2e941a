#include "core/hybrid_bag.h"

namespace argus {

HybridBag::HybridBag(ObjectId oid, std::string name, TransactionManager& tm,
                     EventSink* recorder)
    : IntentionsObject(oid, std::move(name), tm, recorder,
                       /*versioned=*/true) {}

std::optional<Value> HybridBag::try_admit(Transaction& /*txn*/, Entry& mine,
                                          const Operation& op) {
  if (op.name == "insert" && op.args.size() == 1 && op.args[0].is_int()) {
    mine.ops.push_back(LoggedOp{op, ok()});
    return ok();
  }
  if (op.name == "remove" && op.args.empty()) {
    // Claim any committed unclaimed instance; the nondeterministic
    // specification makes any choice serially acceptable, and claims
    // are disjoint so concurrent removers never conflict.
    const std::optional<std::int64_t> pick = unclaimed_element();
    if (!pick) return std::nullopt;
    ++mine.extra[*pick];
    mine.ops.push_back(LoggedOp{op, Value{*pick}});
    return Value{*pick};
  }
  if (op.name == "size" && op.args.empty()) {
    throw UsageError(
        "HybridBag: size is only available to read-only transactions; use "
        "Runtime::begin_read_only");
  }
  throw UsageError("unknown bag operation " + to_string(op));
}

std::optional<std::int64_t> HybridBag::unclaimed_element() const {
  for (const auto& [elem, count] : committed_.current()) {
    std::int64_t claimed = 0;
    for (const auto& [aid, entry] : intentions_) {
      auto it = entry.extra.find(elem);
      if (it != entry.extra.end()) claimed += it->second;
    }
    if (claimed < count) return elem;
  }
  return std::nullopt;
}

}  // namespace argus
