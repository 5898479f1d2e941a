// Recovery tests: write-ahead intentions logging, crash simulation, and
// all-or-nothing replay across all protocols (recoverability is half of
// atomicity — §1, §3).
#include <gtest/gtest.h>

#include "core/runtime.h"
#include "sched/factory.h"
#include "spec/adts/bag.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/fifo_queue.h"
#include "spec/adts/int_set.h"
#include "test_util.h"

namespace argus {
namespace {

using namespace testutil;

TEST(Recovery, CommittedEffectsSurviveCrash) {
  Runtime rt;
  auto set = rt.create_dynamic<IntSetAdt>("s");
  auto t1 = rt.begin();
  set->invoke(*t1, intset::insert(3));
  rt.commit(t1);
  auto t2 = rt.begin();
  set->invoke(*t2, intset::insert(4));  // active at crash time

  rt.crash();
  EXPECT_TRUE(t2->doomed());
  rt.recover();

  auto t3 = rt.begin();
  EXPECT_EQ(set->invoke(*t3, intset::member(3)), Value{true});
  EXPECT_EQ(set->invoke(*t3, intset::member(4)), Value{false});
  rt.commit(t3);
}

TEST(Recovery, AbortedEffectsNeverReplayed) {
  Runtime rt;
  auto acct = rt.create_dynamic<BankAccountAdt>("a");
  auto t1 = rt.begin();
  acct->invoke(*t1, account::deposit(100));
  rt.commit(t1);
  auto t2 = rt.begin();
  acct->invoke(*t2, account::withdraw(40));
  rt.abort(t2);

  rt.crash();
  rt.recover();
  EXPECT_EQ(acct->committed_state(), 100);
}

TEST(Recovery, MultiObjectAtomicity) {
  // A transfer across two accounts: after crash+recover, either both
  // effects exist or neither.
  Runtime rt;
  auto a1 = rt.create_dynamic<BankAccountAdt>("a1");
  auto a2 = rt.create_dynamic<BankAccountAdt>("a2");
  auto setup = rt.begin();
  a1->invoke(*setup, account::deposit(100));
  rt.commit(setup);

  auto transfer = rt.begin();
  a1->invoke(*transfer, account::withdraw(30));
  a2->invoke(*transfer, account::deposit(30));
  rt.commit(transfer);

  auto in_flight = rt.begin();
  a1->invoke(*in_flight, account::withdraw(50));  // never commits

  rt.crash();
  rt.recover();
  EXPECT_EQ(a1->committed_state(), 70);
  EXPECT_EQ(a2->committed_state(), 30);
}

TEST(Recovery, ReplayPreservesOrderWithinObject) {
  Runtime rt;
  auto q = rt.create_hybrid_queue("q");
  for (int i = 1; i <= 3; ++i) {
    auto t = rt.begin();
    q->invoke(*t, fifo::enqueue(i));
    rt.commit(t);
  }
  auto t = rt.begin();
  EXPECT_EQ(q->invoke(*t, fifo::dequeue()), Value{1});
  rt.commit(t);

  rt.crash();
  rt.recover();
  EXPECT_EQ(q->committed_items(), (std::vector<std::int64_t>{2, 3}));
}

TEST(Recovery, StaticObjectReplaysInTimestampOrder) {
  // Transactions committing out of timestamp order: recovery must
  // rebuild the *timestamp-ordered* log (start_ts in the commit record).
  Runtime rt;
  auto acct = rt.create_static<BankAccountAdt>("a");
  auto t1 = rt.begin();  // smaller ts
  auto t2 = rt.begin();  // larger ts
  acct->invoke(*t1, account::deposit(10));
  rt.commit(t1);
  acct->invoke(*t2, account::withdraw(4));
  rt.commit(t2);

  rt.crash();
  rt.recover();
  ASSERT_TRUE(acct->committed_state().has_value());
  EXPECT_EQ(*acct->committed_state(), 6);
}

TEST(Recovery, CrashDuringBlockedInvocationUnwinds) {
  Runtime rt;
  auto q = rt.create_dynamic<FifoQueueAdt>("q");
  auto consumer = rt.begin();
  auto blocked = std::async(std::launch::async, [&] {
    try {
      q->invoke(*consumer, fifo::dequeue());  // waits forever
      ADD_FAILURE() << "dequeue should have been aborted by crash";
    } catch (const TransactionAborted& e) {
      EXPECT_EQ(e.reason(), AbortReason::kCrash);
      rt.abort(consumer);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  rt.crash();
  blocked.get();
  rt.recover();
}

TEST(Recovery, RepeatedCrashesIdempotent) {
  Runtime rt;
  auto set = rt.create_dynamic<IntSetAdt>("s");
  auto t = rt.begin();
  set->invoke(*t, intset::insert(1));
  rt.commit(t);
  for (int i = 0; i < 3; ++i) {
    rt.crash();
    rt.recover();
  }
  EXPECT_TRUE(set->committed_state().contains(1));
}

TEST(Recovery, BagAndQueueReplayRejectsResultsThatDoNotReproduce) {
  // Recovery replays the type-specific objects through their
  // specification: a remove or dequeue record whose recorded result is
  // not what the replayed state yields is a corrupt log, not a no-op.
  Runtime rt(Runtime::RecorderMode::kOff);
  auto bag = rt.create_hybrid_bag("bag");
  auto queue = rt.create_hybrid_queue("queue");
  const ReplayContext ctx{ActivityId{1}, 1, 1};
  bag->reset_for_recovery();
  queue->reset_for_recovery();
  bag->replay(ctx, LoggedOp{bag::insert(1), ok()});
  queue->replay(ctx, LoggedOp{fifo::enqueue(1), ok()});
  queue->replay(ctx, LoggedOp{fifo::enqueue(2), ok()});

  EXPECT_THROW(bag->replay(ctx, LoggedOp{bag::remove(), Value{2}}),
               UsageError);  // the bag holds no 2
  EXPECT_THROW(queue->replay(ctx, LoggedOp{fifo::dequeue(), Value{2}}),
               UsageError);  // the front is 1
  EXPECT_EQ(bag->committed_contents(), (BagAdt::State{{1, 1}}));
  EXPECT_EQ(queue->committed_items(), (std::vector<std::int64_t>{1, 2}));

  // Records that do reproduce still replay.
  bag->replay(ctx, LoggedOp{bag::remove(), Value{1}});
  queue->replay(ctx, LoggedOp{fifo::dequeue(), Value{1}});
  EXPECT_TRUE(bag->committed_contents().empty());
  EXPECT_EQ(queue->committed_items(), (std::vector<std::int64_t>{2}));
}

TEST(Recovery, LogRecordsCarryResults) {
  Runtime rt;
  auto acct = rt.create_dynamic<BankAccountAdt>("a");
  auto t = rt.begin();
  acct->invoke(*t, account::deposit(7));
  acct->invoke(*t, account::withdraw(99));  // insufficient: result logged
  rt.commit(t);
  const auto records = rt.tm().log().records();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].entries.size(), 1u);
  ASSERT_EQ(records[0].entries[0].ops.size(), 2u);
  EXPECT_EQ(records[0].entries[0].ops[1].result, Value{kInsufficientFunds});
}

class RecoveryAcrossProtocols : public ::testing::TestWithParam<Protocol> {};

TEST_P(RecoveryAcrossProtocols, CommittedBalancePreserved) {
  Runtime rt;
  auto acct = make_object<BankAccountAdt>(rt, GetParam(), "a");
  auto t1 = rt.begin();
  acct->invoke(*t1, account::deposit(50));
  rt.commit(t1);
  auto t2 = rt.begin();
  acct->invoke(*t2, account::withdraw(20));
  rt.commit(t2);
  auto t3 = rt.begin();
  acct->invoke(*t3, account::deposit(5));
  rt.abort(t3);

  rt.crash();
  rt.recover();

  auto check = rt.begin();
  EXPECT_EQ(acct->invoke(*check, account::balance()), Value{30});
  rt.commit(check);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, RecoveryAcrossProtocols,
                         ::testing::Values(Protocol::kDynamic,
                                           Protocol::kStatic,
                                           Protocol::kHybrid,
                                           Protocol::kTwoPhase,
                                           Protocol::kCommutativity,
                                           Protocol::kTimestamp));

}  // namespace
}  // namespace argus
