// Snapshot reads (core/snapshot.h) against a full prefix replay.
//
// VersionedState::at answers from the current state when the log holds
// nothing at or above the reader's timestamp t, and replays the prefix
// below t otherwise. Both paths must agree with the reference: the
// candidate states reached by replaying a copy of the prefix below t from
// the initial state. Random committed histories over every ADT, applied
// transaction by transaction, with t below, between, on and above the
// entries; then the same differential through the objects that keep a
// VersionedState, where the reference prefix comes from the stable log.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/random_history.h"
#include "common/rng.h"
#include "core/runtime.h"
#include "core/snapshot.h"
#include "spec/adts/bag.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/counter.h"
#include "spec/adts/fifo_queue.h"
#include "spec/adts/int_set.h"
#include "spec/adts/kv_store.h"
#include "spec/adts/registry.h"
#include "spec/adts/rw_register.h"

namespace argus {
namespace {

template <typename A>
class SnapshotStateTest : public ::testing::Test {};

using AllAdts = ::testing::Types<BagAdt, BankAccountAdt, CounterAdt,
                                 FifoQueueAdt, IntSetAdt, KVStoreAdt,
                                 RWRegisterAdt>;
TYPED_TEST_SUITE(SnapshotStateTest, AllAdts);

TYPED_TEST(SnapshotStateTest, MatchesFullPrefixReplay) {
  using A = TypeParam;
  SplitMix64 rng(0x5eed + A::type_name().size());
  int fast = 0;
  int replayed = 0;
  for (int round = 0; round < 200; ++round) {
    // A random committed history: each operation a serially valid step
    // from the state so far, with a random outcome where the ADT is
    // nondeterministic. Timestamps grow with gaps; the operations sharing
    // one timestamp form one transaction, applied together.
    VersionedState<A> store(/*keeps_log=*/true);
    std::vector<std::pair<Timestamp, LoggedOp>> history;
    std::vector<LoggedOp> txn;
    typename A::State committed = A::initial();
    Timestamp ts = 1;
    const int length = static_cast<int>(rng.below(16));
    for (int i = 0; i < length; ++i) {
      const Operation o = random_operation(A::type_name(), rng);
      auto outcomes = A::step(committed, o);
      if (outcomes.empty()) continue;
      auto& [result, next] = outcomes[rng.below(outcomes.size())];
      const Timestamp at = ts + rng.below(3);
      if (at != ts && !txn.empty()) {
        ASSERT_TRUE(store.apply(ts, std::move(txn)));
        txn.clear();
      }
      ts = at;
      txn.push_back(LoggedOp{o, result});
      history.emplace_back(ts, txn.back());
      committed = std::move(next);
    }
    if (!txn.empty()) {
      ASSERT_TRUE(store.apply(ts, std::move(txn)));
    }
    ASSERT_EQ(store.current(), committed) << A::describe(store.current());

    for (Timestamp t = 0; t <= ts + 2; ++t) {
      std::vector<LoggedOp> prefix;
      for (const auto& [entry_ts, logged] : history) {
        if (entry_ts < t) prefix.push_back(logged);
      }
      const auto expected = replay_logged<A>({A::initial()}, prefix);
      ASSERT_FALSE(expected.empty());

      typename A::State scratch = A::initial();
      const typename A::State& got = store.at(t, scratch);
      EXPECT_NE(std::find(expected.begin(), expected.end(), got),
                expected.end())
          << A::type_name() << " snapshot at t=" << t << " is "
          << A::describe(got) << ", not a replay candidate";
      const bool nothing_at_or_above_t =
          history.empty() || history.back().first < t;
      // The fast path answers from the current state itself, without a
      // copy; the other path answers from the replay.
      EXPECT_EQ(&got == &store.current(), nothing_at_or_above_t);
      (nothing_at_or_above_t ? fast : replayed)++;
    }
  }
  EXPECT_GT(fast, 0);
  EXPECT_GT(replayed, 0);
}

TYPED_TEST(SnapshotStateTest, UnreplayablePrefixThrows) {
  // An operation whose recorded result no outcome reproduces: apply
  // refuses it and changes nothing, and recovery replay throws. The bag
  // and the queue fold through their redo(), the others through step().
  using A = TypeParam;
  SplitMix64 rng(0xbad + A::type_name().size());
  Operation o = random_operation(A::type_name(), rng);
  while (A::step(A::initial(), o).empty()) {
    o = random_operation(A::type_name(), rng);
  }
  const LoggedOp bad{o, Value{"no such result"}};

  VersionedState<A> store(/*keeps_log=*/true);
  EXPECT_FALSE(store.apply(1, {bad}));
  EXPECT_EQ(store.current(), A::initial());
  typename A::State scratch = A::initial();
  EXPECT_EQ(&store.at(1, scratch), &store.current());  // nothing logged
  EXPECT_THROW(store.replay(1, bad), UsageError);
  EXPECT_EQ(store.current(), A::initial());

  // Behind a valid operation: still refused and not logged. A redo()
  // fold has applied the valid one in place; a candidate fold has not.
  const auto [result, after_good] = A::step(A::initial(), o).front();
  EXPECT_FALSE(store.apply(1, {LoggedOp{o, result}, bad}));
  EXPECT_EQ(&store.at(1, scratch), &store.current());
  EXPECT_EQ(store.current(), HasRedo<A> ? after_good : A::initial());
}

/// `update(rng, committed, first)` draws an update operation. Blocking
/// operations (remove, dequeue) may only be drawn as a transaction's
/// first operation and when `committed` holds an element, so they never
/// wait.
template <AdtTraits A>
using UpdateGen = std::function<Operation(
    SplitMix64&, const typename A::State& committed, bool first)>;

/// Drives one object with random single-threaded update transactions,
/// crashes and recovers it halfway, and checks read-only reads at every
/// timestamp from the start of the run to its end against the stable
/// log's prefix below that timestamp.
template <AdtTraits A>
void check_object(Runtime& rt, ManagedObject& object,
                  const UpdateGen<A>& update,
                  const std::vector<Operation>& reads, std::uint64_t seed) {
  SplitMix64 rng(seed);
  typename A::State model = A::initial();
  for (int i = 0; i < 60; ++i) {
    if (i == 30) {
      rt.crash();
      rt.recover();
    }
    auto t = rt.begin();
    typename A::State mine = model;
    try {
      const int ops = 1 + static_cast<int>(rng.below(3));
      for (int k = 0; k < ops; ++k) {
        const Operation o = update(rng, model, k == 0);
        const Value result = object.invoke(*t, o);
        auto next = replay_one<A>({mine}, LoggedOp{o, result});
        ASSERT_FALSE(next.empty())
            << to_string(o) << " -> " << to_string(result);
        mine = std::move(next.front());
      }
      rt.commit(t);
      model = std::move(mine);
    } catch (const TransactionAborted&) {
      rt.abort(t);
    }
  }

  const auto records = rt.tm().log().records();
  const Timestamp end = rt.tm().clock().now() + 1;
  for (Timestamp t = 1; t <= end; ++t) {
    std::vector<LoggedOp> prefix;
    for (const CommitLogRecord& record : records) {
      if (record.commit_ts >= t) continue;
      for (const auto& entry : record.entries) {
        if (entry.object != object.id()) continue;
        prefix.insert(prefix.end(), entry.ops.begin(), entry.ops.end());
      }
    }
    const auto expected = replay_logged<A>({A::initial()}, prefix);
    ASSERT_FALSE(expected.empty());
    auto audit = rt.tm().begin_with_timestamp(TxnKind::kReadOnly, t);
    for (const Operation& read : reads) {
      const Value got = object.invoke(*audit, read);
      bool possible = false;
      for (const auto& state : expected) {
        for (const auto& [result, next] : A::step(state, read)) {
          possible = possible || result == got;
        }
      }
      EXPECT_TRUE(possible) << object.name() << ": " << to_string(read)
                            << " at t=" << t << " returned " << to_string(got);
    }
    rt.commit(audit);
  }
}

TEST(SnapshotObjects, HybridAccountMatchesStableLogPrefix) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto account = rt.create_hybrid<BankAccountAdt>("account");
  check_object<BankAccountAdt>(
      rt, *account,
      [](SplitMix64& rng, const std::int64_t&, bool) {
        return rng.chance(1, 2) ? account::deposit(rng.range(1, 9))
                                : account::withdraw(rng.range(1, 9));
      },
      {account::balance()}, 11);
}

TEST(SnapshotObjects, HybridBagMatchesStableLogPrefix) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto bag = rt.create_hybrid_bag("bag");
  check_object<BagAdt>(
      rt, *bag,
      [](SplitMix64& rng, const BagAdt::State& committed, bool first) {
        return first && !committed.empty() && rng.chance(1, 2)
                   ? bag::remove()
                   : bag::insert(rng.range(1, 3));
      },
      {bag::size()}, 12);
}

TEST(SnapshotObjects, HybridQueueMatchesStableLogPrefix) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto queue = rt.create_hybrid_queue("queue");
  check_object<FifoQueueAdt>(
      rt, *queue,
      [](SplitMix64& rng, const FifoQueueAdt::State& committed, bool first) {
        return first && !committed.empty() && rng.chance(1, 2)
                   ? fifo::dequeue()
                   : fifo::enqueue(rng.range(1, 3));
      },
      {fifo::size()}, 13);
}

TEST(SnapshotObjects, MvccMatchesStableLogPrefix) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto store = rt.create_mvcc<KVStoreAdt>("store");
  check_object<KVStoreAdt>(
      rt, *store,
      [](SplitMix64& rng, const KVStoreAdt::State&, bool) {
        const std::int64_t k = rng.range(0, 2);
        return rng.chance(2, 3) ? kv::put(k, rng.range(0, 5)) : kv::remove(k);
      },
      {kv::get(0), kv::get(1), kv::get(2)}, 14);
}

}  // namespace
}  // namespace argus
