// Read-only commits under hybrid atomicity (§4.3.3): an audit that every
// object served from a snapshot commits without the update pipeline —
// no commit timestamp, no log record, no force, no apply turn — so it
// neither costs the log anything nor waits behind an update's force.
// Readers whose objects need the pipeline (dynamic, static and
// single-version OCC) keep it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/runtime.h"
#include "spec/adts/bag.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/fifo_queue.h"

namespace argus {
namespace {

using namespace std::chrono_literals;

struct PipelineSnapshot {
  std::uint64_t commits;
  std::uint64_t log_records;
  std::uint64_t log_forces;
  std::size_t log_size;
  std::size_t inflight;

  explicit PipelineSnapshot(Runtime& rt)
      : commits(rt.tm().pipeline_stats().commits),
        log_records(rt.tm().pipeline_stats().log_records),
        log_forces(rt.tm().pipeline_stats().log_forces),
        log_size(rt.tm().log().size()),
        inflight(rt.tm().clock().inflight()) {}
};

TEST(ReadOnlyCommit, SnapshotReadersSkipThePipeline) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto account = rt.create_hybrid<BankAccountAdt>("account");
  auto bag = rt.create_hybrid_bag("bag");
  auto queue = rt.create_hybrid_queue("queue");
  auto mvcc = rt.create_mvcc<BankAccountAdt>("mvcc");
  {
    auto t = rt.begin();
    account->invoke(*t, account::deposit(5));
    bag->invoke(*t, bag::insert(1));
    queue->invoke(*t, fifo::enqueue(2));
    mvcc->invoke(*t, account::deposit(7));
    rt.commit(t);
  }

  const PipelineSnapshot before(rt);
  const std::uint64_t committed_before = rt.tm().stats().committed;
  auto audit = rt.begin_read_only();
  const Timestamp clock_after_begin = rt.tm().clock().now();
  EXPECT_EQ(account->invoke(*audit, account::balance()), Value{5});
  EXPECT_EQ(bag->invoke(*audit, bag::size()), Value{1});
  EXPECT_EQ(queue->invoke(*audit, fifo::size()), Value{1});
  EXPECT_EQ(mvcc->invoke(*audit, account::balance()), Value{7});
  rt.commit(audit);

  const PipelineSnapshot after(rt);
  EXPECT_EQ(audit->state(), TxnState::kCommitted);
  EXPECT_EQ(rt.tm().stats().committed, committed_before + 1);
  EXPECT_EQ(after.commits, before.commits);
  EXPECT_EQ(after.log_records, before.log_records);
  EXPECT_EQ(after.log_forces, before.log_forces);
  EXPECT_EQ(after.log_size, before.log_size);
  EXPECT_EQ(after.inflight, 0u);
  EXPECT_EQ(audit->commit_ts(), kNoTimestamp);
  // No commit timestamp was drawn: the clock has not moved since begin.
  EXPECT_EQ(rt.tm().clock().now(), clock_after_begin);
}

TEST(ReadOnlyCommit, ReadOnlyWithoutObjectsSkipsThePipeline) {
  Runtime rt(Runtime::RecorderMode::kOff);
  const PipelineSnapshot before(rt);
  auto audit = rt.begin_read_only();
  rt.commit(audit);
  EXPECT_EQ(audit->state(), TxnState::kCommitted);
  EXPECT_EQ(PipelineSnapshot(rt).log_records, before.log_records);
}

TEST(ReadOnlyCommit, AuditCommitsWhileAnUpdateForceIsHeld) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto a = rt.create_hybrid<BankAccountAdt>("a");
  auto b = rt.create_hybrid<BankAccountAdt>("b");
  {
    auto t = rt.begin();
    a->invoke(*t, account::deposit(100));
    b->invoke(*t, account::deposit(100));
    rt.commit(t);
  }

  auto audit = rt.begin_read_only();
  rt.tm().log().hold_flushes();
  auto update = std::async(std::launch::async, [&] {
    auto t = rt.begin();
    a->invoke(*t, account::withdraw(10));
    b->invoke(*t, account::deposit(10));
    rt.commit(t);
  });
  // The update has drawn its commit timestamp; the held flush keeps its
  // record from ever becoming stable.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (rt.tm().clock().inflight() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(rt.tm().clock().inflight(), 1u);

  std::int64_t total = 0;
  auto audit_done = std::async(std::launch::async, [&] {
    total = a->invoke(*audit, account::balance()).as_int() +
            b->invoke(*audit, account::balance()).as_int();
    rt.commit(audit);
  });
  const bool committed_while_held =
      audit_done.wait_for(5s) == std::future_status::ready;
  const std::size_t inflight_at_audit_commit = rt.tm().clock().inflight();
  rt.tm().log().release_flushes();
  update.get();
  audit_done.get();

  EXPECT_TRUE(committed_while_held)
      << "a read-only commit waited behind an update's log force";
  EXPECT_EQ(inflight_at_audit_commit, 1u);
  EXPECT_EQ(total, 200);
  EXPECT_EQ(audit->state(), TxnState::kCommitted);
  EXPECT_EQ(a->committed_state(), 90);
  EXPECT_EQ(b->committed_state(), 110);
}

TEST(ReadOnlyCommit, ReadersThatNeedThePipelineKeepIt) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto hybrid = rt.create_hybrid<BankAccountAdt>("hybrid");
  std::vector<std::shared_ptr<ManagedObject>> pipelined = {
      rt.create_dynamic<BankAccountAdt>("dynamic"),
      rt.create_static<BankAccountAdt>("static"),
      rt.create_occ<BankAccountAdt>("occ"),
  };
  // Each pipelined reader alone, then beside a snapshot reader: one
  // object that needs the pipeline is enough to keep it.
  for (const bool with_hybrid : {false, true}) {
    for (const auto& object : pipelined) {
      const PipelineSnapshot before(rt);
      auto audit = rt.begin_read_only();
      if (with_hybrid) hybrid->invoke(*audit, account::balance());
      object->invoke(*audit, account::balance());
      rt.commit(audit);
      const PipelineSnapshot after(rt);
      EXPECT_EQ(audit->state(), TxnState::kCommitted);
      EXPECT_EQ(after.commits, before.commits + 1) << object->name();
      EXPECT_EQ(after.log_records, before.log_records + 1) << object->name();
      EXPECT_NE(audit->commit_ts(), kNoTimestamp) << object->name();
    }
  }
}

TEST(ReadOnlyCommit, StableLogHoldsExactlyTheCommittedUpdates) {
  Runtime rt(Runtime::RecorderMode::kOff);
  constexpr int kAccounts = 8;
  constexpr std::int64_t kInitial = 100;
  std::vector<std::shared_ptr<HybridAtomicObject<BankAccountAdt>>> accounts;
  for (int i = 0; i < kAccounts; ++i) {
    accounts.push_back(
        rt.create_hybrid<BankAccountAdt>("acct" + std::to_string(i)));
  }
  rt.set_wait_timeout_all(500ms);

  std::mutex ids_mu;
  std::set<ActivityId> updates;
  std::set<ActivityId> audits;
  {
    auto setup = rt.begin();
    for (auto& a : accounts) a->invoke(*setup, account::deposit(kInitial));
    rt.commit(setup);
    updates.insert(setup->id());
  }

  std::atomic<int> bad_totals{0};
  auto updater = [&](int index) {
    SplitMix64 rng(977 * static_cast<std::uint64_t>(index) + 3);
    for (int i = 0; i < 60; ++i) {
      auto t = rt.begin();
      try {
        const std::size_t from = rng.below(kAccounts);
        const std::size_t to =
            (from + 1 + rng.below(kAccounts - 1)) % kAccounts;
        const std::int64_t amount = rng.range(1, 20);
        if (accounts[from]->invoke(*t, account::withdraw(amount)).is_unit()) {
          accounts[to]->invoke(*t, account::deposit(amount));
        }
        rt.commit(t);
        const std::scoped_lock lock(ids_mu);
        updates.insert(t->id());
      } catch (const TransactionAborted&) {
        rt.abort(t);
      }
    }
  };
  auto auditor = [&] {
    for (int i = 0; i < 40; ++i) {
      auto t = rt.begin_read_only();
      std::int64_t total = 0;
      for (auto& a : accounts) {
        total += a->invoke(*t, account::balance()).as_int();
      }
      rt.commit(t);
      if (total != kAccounts * kInitial) ++bad_totals;
      const std::scoped_lock lock(ids_mu);
      audits.insert(t->id());
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(updater, i);
  for (int i = 0; i < 2; ++i) threads.emplace_back(auditor);
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_totals.load(), 0) << "an audit saw a non-serializable total";

  // The stable log holds one record per committed update and nothing for
  // the audits.
  const auto records = rt.tm().log().records();
  std::set<ActivityId> logged;
  for (const CommitLogRecord& record : records) logged.insert(record.txn);
  EXPECT_EQ(records.size(), updates.size());
  EXPECT_EQ(logged, updates);
  EXPECT_EQ(audits.size(), 80u);

  std::vector<std::int64_t> balances;
  for (auto& a : accounts) balances.push_back(a->committed_state());
  rt.crash();
  rt.recover();
  for (std::size_t i = 0; i < accounts.size(); ++i) {
    EXPECT_EQ(accounts[i]->committed_state(), balances[i]) << "acct" << i;
  }
  // Audits after recovery read the rebuilt snapshot.
  auto audit = rt.begin_read_only();
  std::int64_t total = 0;
  for (auto& a : accounts) {
    total += a->invoke(*audit, account::balance()).as_int();
  }
  rt.commit(audit);
  EXPECT_EQ(total, kAccounts * kInitial);
}

}  // namespace
}  // namespace argus
