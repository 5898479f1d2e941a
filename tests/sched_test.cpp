// Scheduler-model baseline tests: strict 2PL, static-commutativity
// locking, strict timestamp ordering — including the behaviours that
// separate them from the data-dependent protocols (§5.1).
#include <gtest/gtest.h>

#include "check/atomicity.h"
#include "core/runtime.h"
#include "sched/factory.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/fifo_queue.h"
#include "spec/adts/int_set.h"
#include "test_util.h"

namespace argus {
namespace {

using namespace testutil;

TEST(TwoPhaseLocking, SerialUseWorks) {
  Runtime rt;
  auto set = make_object<IntSetAdt>(rt, Protocol::kTwoPhase, "s");
  auto t1 = rt.begin();
  EXPECT_EQ(set->invoke(*t1, intset::insert(3)), ok());
  rt.commit(t1);
  auto t2 = rt.begin();
  EXPECT_EQ(set->invoke(*t2, intset::member(3)), Value{true});
  rt.commit(t2);
}

TEST(TwoPhaseLocking, SharedReadLocks) {
  Runtime rt;
  auto set = make_object<IntSetAdt>(rt, Protocol::kTwoPhase, "s");
  auto t1 = rt.begin();
  auto t2 = rt.begin();
  EXPECT_EQ(set->invoke(*t1, intset::member(1)), Value{false});
  EXPECT_EQ(set->invoke(*t2, intset::member(2)), Value{false});  // no block
  rt.commit(t1);
  rt.commit(t2);
}

TEST(TwoPhaseLocking, WriteLocksExclusiveEvenWhenCommuting) {
  // 2PL cannot see that insert(1) and insert(2) commute.
  Runtime rt;
  auto set = make_object<IntSetAdt>(rt, Protocol::kTwoPhase, "s");
  auto t1 = rt.begin();
  auto t2 = rt.begin();
  set->invoke(*t1, intset::insert(1));
  auto blocked = expect_blocks([&] {
    set->invoke(*t2, intset::insert(2));
    rt.commit(t2);
  });
  rt.commit(t1);
  join_within(blocked);
}

TEST(TwoPhaseLocking, AbortRollsBackStorage) {
  Runtime rt;
  auto acct = make_object<BankAccountAdt>(rt, Protocol::kTwoPhase, "a");
  auto t1 = rt.begin();
  acct->invoke(*t1, account::deposit(10));
  rt.abort(t1);
  auto t2 = rt.begin();
  EXPECT_EQ(acct->invoke(*t2, account::balance()), Value{0});
  rt.commit(t2);
}

TEST(CommutativityLocking, CommutingWritesOverlap) {
  Runtime rt;
  auto set = make_object<IntSetAdt>(rt, Protocol::kCommutativity, "s");
  auto t1 = rt.begin();
  auto t2 = rt.begin();
  set->invoke(*t1, intset::insert(1));
  set->invoke(*t2, intset::insert(2));  // commutes: no block
  rt.commit(t1);
  rt.commit(t2);
  auto t3 = rt.begin();
  EXPECT_EQ(set->invoke(*t3, intset::member(1)), Value{true});
  EXPECT_EQ(set->invoke(*t3, intset::member(2)), Value{true});
  rt.commit(t3);
}

TEST(CommutativityLocking, WithdrawsAlwaysConflict) {
  // §5.1: the conflict table cannot see the balance; two withdraws
  // serialize even when covered.
  Runtime rt;
  auto acct = make_object<BankAccountAdt>(rt, Protocol::kCommutativity, "a");
  auto setup = rt.begin();
  acct->invoke(*setup, account::deposit(10));
  rt.commit(setup);

  auto t1 = rt.begin();
  auto t2 = rt.begin();
  EXPECT_EQ(acct->invoke(*t1, account::withdraw(4)), ok());
  auto blocked = expect_blocks([&] {
    EXPECT_EQ(acct->invoke(*t2, account::withdraw(3)), ok());
    rt.commit(t2);
  });
  rt.commit(t1);
  join_within(blocked);
}

TEST(CommutativityLocking, DistinctEnqueuesConflict) {
  Runtime rt;
  auto q = make_object<FifoQueueAdt>(rt, Protocol::kCommutativity, "q");
  auto t1 = rt.begin();
  auto t2 = rt.begin();
  q->invoke(*t1, fifo::enqueue(1));
  auto blocked = expect_blocks([&] {
    q->invoke(*t2, fifo::enqueue(2));
    rt.commit(t2);
  });
  rt.commit(t1);
  join_within(blocked);
}

TEST(CommutativityLocking, EqualEnqueuesOverlap) {
  Runtime rt;
  auto q = make_object<FifoQueueAdt>(rt, Protocol::kCommutativity, "q");
  auto t1 = rt.begin();
  auto t2 = rt.begin();
  q->invoke(*t1, fifo::enqueue(1));
  q->invoke(*t2, fifo::enqueue(1));  // equal values commute in the table
  rt.commit(t1);
  rt.commit(t2);
}

TEST(CommutativityLocking, HistoryDynamicAtomic) {
  // Locking is a (suboptimal) implementation of dynamic atomicity: its
  // histories must pass the dynamic checker.
  Runtime rt;
  auto set = make_object<IntSetAdt>(rt, Protocol::kCommutativity, "s");
  auto t1 = rt.begin();
  auto t2 = rt.begin();
  set->invoke(*t1, intset::insert(1));
  set->invoke(*t2, intset::insert(2));
  rt.commit(t2);
  rt.commit(t1);
  auto t3 = rt.begin();
  set->invoke(*t3, intset::member(1));
  rt.commit(t3);

  const auto verdict = check_dynamic_atomic(rt.system(), rt.history());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(TimestampOrdering, SerialUseWorks) {
  Runtime rt;
  auto acct = make_object<BankAccountAdt>(rt, Protocol::kTimestamp, "a");
  auto t1 = rt.begin();
  acct->invoke(*t1, account::deposit(10));
  rt.commit(t1);
  auto t2 = rt.begin();
  EXPECT_EQ(acct->invoke(*t2, account::balance()), Value{10});
  rt.commit(t2);
}

TEST(TimestampOrdering, LateWriteAborts) {
  // t_old (smaller ts) writes after t_new read: classic wts/rts abort.
  Runtime rt;
  auto acct = make_object<BankAccountAdt>(rt, Protocol::kTimestamp, "a");
  auto t_old = rt.begin();
  auto t_new = rt.begin();
  EXPECT_EQ(acct->invoke(*t_new, account::balance()), Value{0});
  rt.commit(t_new);
  try {
    acct->invoke(*t_old, account::deposit(5));
    FAIL() << "expected timestamp-order abort";
  } catch (const TransactionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kTimestampOrder);
    rt.abort(t_old);
  }
}

TEST(TimestampOrdering, LateReadAbortsWithoutVersions) {
  // Unlike the multi-version StaticAtomicObject, single-version TO must
  // abort a reader below a committed writer.
  Runtime rt;
  auto acct = make_object<BankAccountAdt>(rt, Protocol::kTimestamp, "a");
  auto t_old = rt.begin();
  auto t_new = rt.begin();
  acct->invoke(*t_new, account::deposit(5));
  rt.commit(t_new);
  try {
    acct->invoke(*t_old, account::balance());
    FAIL() << "expected timestamp-order abort";
  } catch (const TransactionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kTimestampOrder);
    rt.abort(t_old);
  }
}

TEST(TimestampOrdering, InOrderProceeds) {
  Runtime rt;
  auto acct = make_object<BankAccountAdt>(rt, Protocol::kTimestamp, "a");
  auto t1 = rt.begin();
  auto t2 = rt.begin();
  acct->invoke(*t1, account::deposit(5));
  rt.commit(t1);
  EXPECT_EQ(acct->invoke(*t2, account::balance()), Value{5});
  rt.commit(t2);
}

TEST(TimestampOrdering, StrictnessBlocksOnUncommitted) {
  Runtime rt;
  auto acct = make_object<BankAccountAdt>(rt, Protocol::kTimestamp, "a");
  auto t1 = rt.begin();
  auto t2 = rt.begin();
  acct->invoke(*t1, account::deposit(5));  // uncommitted
  auto blocked = expect_blocks([&] {
    EXPECT_EQ(acct->invoke(*t2, account::balance()), Value{5});
    rt.commit(t2);
  });
  rt.commit(t1);
  join_within(blocked);
}

TEST(Factory, ProtocolNames) {
  EXPECT_EQ(to_string(Protocol::kDynamic), "dynamic");
  EXPECT_EQ(to_string(Protocol::kStatic), "static");
  EXPECT_EQ(to_string(Protocol::kHybrid), "hybrid");
  EXPECT_EQ(to_string(Protocol::kTwoPhase), "2pl");
  EXPECT_EQ(to_string(Protocol::kCommutativity), "comm-lock");
  EXPECT_EQ(to_string(Protocol::kTimestamp), "timestamp");
}

TEST(Factory, AllProtocolsConstructible) {
  Runtime rt;
  int i = 0;
  for (Protocol p : kAllProtocols) {
    auto obj = make_object<IntSetAdt>(rt, p, "s" + std::to_string(i++));
    ASSERT_NE(obj, nullptr);
    auto t = rt.begin();
    EXPECT_EQ(obj->invoke(*t, intset::insert(1)), ok());
    rt.commit(t);
  }
}

TEST(Factory, SnapshotReadSupport) {
  EXPECT_TRUE(supports_snapshot_reads(Protocol::kHybrid));
  EXPECT_TRUE(supports_snapshot_reads(Protocol::kStatic));
  EXPECT_FALSE(supports_snapshot_reads(Protocol::kDynamic));
  EXPECT_FALSE(supports_snapshot_reads(Protocol::kTwoPhase));
}

}  // namespace
}  // namespace argus
