// Typed-handle and TransactionScope API tests.
#include <gtest/gtest.h>

#include "core/handles.h"
#include "sched/factory.h"
#include "test_util.h"

namespace argus {
namespace {

TEST(TransactionScope, CommitsExplicitly) {
  Runtime rt;
  AtomicAccount acct(rt.create_dynamic<BankAccountAdt>("a"));
  {
    TransactionScope tx(rt);
    acct.deposit(tx, 50);
    tx.commit();
    EXPECT_TRUE(tx.committed());
  }
  TransactionScope check(rt);
  EXPECT_EQ(acct.balance(check), 50);
}

TEST(TransactionScope, AbortsOnScopeExit) {
  Runtime rt;
  AtomicAccount acct(rt.create_dynamic<BankAccountAdt>("a"));
  {
    TransactionScope tx(rt);
    acct.deposit(tx, 50);
    // no commit: destructor aborts
  }
  TransactionScope check(rt);
  EXPECT_EQ(acct.balance(check), 0);
}

TEST(TransactionScope, AbortsOnException) {
  Runtime rt;
  AtomicAccount acct(rt.create_dynamic<BankAccountAdt>("a"));
  try {
    TransactionScope tx(rt);
    acct.deposit(tx, 50);
    throw std::runtime_error("application failure");
  } catch (const std::runtime_error&) {
  }
  TransactionScope check(rt);
  EXPECT_EQ(acct.balance(check), 0);
}

TEST(TransactionScope, ExplicitAbort) {
  Runtime rt;
  AtomicIntSet set(rt.create_dynamic<IntSetAdt>("s"));
  TransactionScope tx(rt);
  set.insert(tx, 3);
  tx.abort();
  EXPECT_FALSE(tx.committed());
  TransactionScope check(rt);
  EXPECT_FALSE(set.contains(check, 3));
}

TEST(TransactionScope, ReadOnlyKind) {
  Runtime rt;
  AtomicAccount acct(rt.create_hybrid<BankAccountAdt>("a"));
  {
    TransactionScope setup(rt);
    acct.deposit(setup, 10);
    setup.commit();
  }
  TransactionScope tx(rt, TxnKind::kReadOnly);
  EXPECT_TRUE(tx.txn().read_only());
  EXPECT_EQ(acct.balance(tx), 10);
  tx.commit();
}

TEST(Handles, AccountWithdrawResult) {
  Runtime rt;
  AtomicAccount acct(rt.create_dynamic<BankAccountAdt>("a"));
  TransactionScope tx(rt);
  acct.deposit(tx, 5);
  EXPECT_TRUE(acct.withdraw(tx, 3));
  EXPECT_FALSE(acct.withdraw(tx, 3));  // only 2 left
  EXPECT_EQ(acct.balance(tx), 2);
  tx.commit();
}

TEST(Handles, KVStoreOptionalGet) {
  Runtime rt;
  AtomicKVStore store(rt.create_dynamic<KVStoreAdt>("kv"));
  TransactionScope tx(rt);
  EXPECT_EQ(store.get(tx, 1), std::nullopt);
  store.put(tx, 1, 99);
  EXPECT_EQ(store.get(tx, 1), std::optional<std::int64_t>(99));
  EXPECT_TRUE(store.contains(tx, 1));
  store.erase(tx, 1);
  EXPECT_FALSE(store.contains(tx, 1));
  tx.commit();
}

TEST(Handles, QueueRoundTrip) {
  Runtime rt;
  AtomicQueue q(rt.create_hybrid_queue("q"));
  {
    TransactionScope tx(rt);
    q.enqueue(tx, 4);
    q.enqueue(tx, 5);
    tx.commit();
  }
  TransactionScope tx(rt);
  EXPECT_EQ(q.dequeue(tx), 4);
  EXPECT_EQ(q.dequeue(tx), 5);
  tx.commit();
}

TEST(Handles, CounterIncrement) {
  Runtime rt;
  AtomicCounter c(rt.create_dynamic<CounterAdt>("c"));
  TransactionScope tx(rt);
  EXPECT_EQ(c.increment(tx), 1);
  EXPECT_EQ(c.increment(tx), 2);
  tx.commit();
}

TEST(Handles, BagNondeterministicRemove) {
  Runtime rt;
  AtomicBag b(rt.create_dynamic<BagAdt>("b"));
  TransactionScope tx(rt);
  b.insert(tx, 7);
  b.insert(tx, 7);
  EXPECT_EQ(b.size(tx), 2);
  EXPECT_EQ(b.remove_any(tx), 7);
  EXPECT_EQ(b.size(tx), 1);
  tx.commit();
}

TEST(Handles, WorkAcrossProtocols) {
  // The same application code runs against any protocol's objects.
  for (Protocol p : kAllProtocols) {
    Runtime rt;
    AtomicAccount acct(make_object<BankAccountAdt>(rt, p, "a"));
    TransactionScope tx(rt);
    acct.deposit(tx, 7);
    EXPECT_EQ(acct.balance(tx), 7) << to_string(p);
    tx.commit();
  }
}

TEST(Handles, RawTransactionOverloads) {
  // Handles also accept a bare Transaction& (driver-style code).
  Runtime rt;
  AtomicAccount acct(rt.create_dynamic<BankAccountAdt>("a"));
  auto txn = rt.begin();
  acct.deposit(*txn, 3);
  EXPECT_EQ(acct.balance(*txn), 3);
  rt.commit(txn);
}

TEST(TransactionScope, DoomedCommitThrowsButFinishes) {
  Runtime rt;
  AtomicAccount acct(rt.create_dynamic<BankAccountAdt>("a"));
  TransactionScope tx(rt);
  acct.deposit(tx, 5);
  tx.txn().doom(AbortReason::kUser);
  EXPECT_THROW(tx.commit(), TransactionAborted);
  EXPECT_FALSE(tx.committed());
  // Destructor must not double-abort (covered by not crashing here).
}

}  // namespace
}  // namespace argus
