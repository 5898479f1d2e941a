// Serialization validation for intentions-list protocols.
//
// A dynamic-atomic object must keep its history serializable in *every*
// total order consistent with precedes (§4.1). Among concurrently active
// transactions no precedes pairs exist, and any of them may still abort;
// so when transaction A asks to perform a new operation, the object checks
// that for every subset S of the other active transactions and every
// ordering of S ∪ {A} (each transaction's operations as a contiguous
// block, A's block including the new operation), replaying from the
// committed state reproduces every recorded result.
//
// This is the data-dependent admission test that static conflict tables
// approximate: it admits the §5.1 bank-account and equal-value-enqueue
// interleavings that commutativity locking rejects. Exponential in the
// number of concurrently active transactions *at this object*; a fast
// path (pairwise static commutativity) covers the common case, and
// kMaxExactValidation bounds the exact search (beyond it the object falls
// back to the conservative fast path only, i.e. blocks).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "spec/adt_spec.h"
#include "txn/stable_log.h"

namespace argus {

inline constexpr std::size_t kMaxExactValidation = 6;

/// Advances every candidate state by one logged operation, keeping the
/// successors that reproduce its recorded result (deduplicated). Empty
/// means the recorded result is impossible from every candidate.
template <AdtTraits A>
[[nodiscard]] std::vector<typename A::State> replay_one(
    const std::vector<typename A::State>& candidates, const LoggedOp& logged) {
  std::vector<typename A::State> next;
  for (const auto& s : candidates) {
    for (auto& [result, successor] : A::step(s, logged.op)) {
      if (result != logged.result) continue;
      // Dedupe: nondeterministic branches often reconverge.
      bool dup = false;
      for (const auto& u : next) {
        if (u == successor) {
          dup = true;
          break;
        }
      }
      if (!dup) next.push_back(std::move(successor));
    }
  }
  return next;
}

/// Replays `ops` over every candidate state, pruning by recorded results
/// (subset simulation, as in spec/serial.h but over value states).
/// Returns the surviving candidate set; empty means some recorded result
/// is impossible.
template <AdtTraits A>
[[nodiscard]] std::vector<typename A::State> replay_logged(
    std::vector<typename A::State> candidates,
    const std::vector<LoggedOp>& ops) {
  for (const LoggedOp& logged : ops) {
    candidates = replay_one<A>(candidates, logged);
    if (candidates.empty()) return {};
  }
  return candidates;
}

/// The final-state set reached by replaying the blocks in order from
/// `start`; empty iff some recorded result cannot be reproduced.
template <AdtTraits A>
[[nodiscard]] std::vector<typename A::State> blocks_final_states(
    const typename A::State& start,
    const std::vector<const std::vector<LoggedOp>*>& blocks) {
  std::vector<typename A::State> candidates{start};
  for (const auto* block : blocks) {
    candidates = replay_logged<A>(std::move(candidates), *block);
    if (candidates.empty()) return {};
  }
  return candidates;
}

template <AdtTraits A>
[[nodiscard]] bool same_state_set(const std::vector<typename A::State>& xs,
                                  const std::vector<typename A::State>& ys) {
  auto subset = [](const auto& as, const auto& bs) {
    for (const auto& a : as) {
      bool found = false;
      for (const auto& b : bs) {
        if (a == b) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  };
  return subset(xs, ys) && subset(ys, xs);
}

/// The full §4.1 admission check: every subset of `others`, every
/// ordering, with `self` in every position. `self` already includes the
/// operation being admitted. Two conditions per subset:
///   1. every ordering reproduces every recorded result, and
///   2. every ordering reaches the same final-state set — without this,
///      two order-insensitive *results* (e.g. two "ok" enqueues of
///      different values) could hide order-dependent *states* that a
///      later observer would expose, retroactively breaking
///      serializability in the other orders.
/// Assumes others.size() <= kMaxExactValidation.
template <AdtTraits A>
[[nodiscard]] bool validate_all_orders(
    const typename A::State& committed,
    const std::vector<const std::vector<LoggedOp>*>& others,
    const std::vector<LoggedOp>& self) {
  const std::size_t n = others.size();
  // Enumerate subsets of others by bitmask, then permutations of the
  // chosen blocks plus the self block.
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::vector<const std::vector<LoggedOp>*> chosen;
    chosen.push_back(&self);
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1U) chosen.push_back(others[i]);
    }
    std::sort(chosen.begin(), chosen.end());
    std::optional<std::vector<typename A::State>> reference;
    do {
      auto finals = blocks_final_states<A>(committed, chosen);
      if (finals.empty()) return false;
      if (!reference) {
        reference = std::move(finals);
      } else if (!same_state_set<A>(*reference, finals)) {
        return false;
      }
    } while (std::next_permutation(chosen.begin(), chosen.end()));
  }
  return true;
}

}  // namespace argus
