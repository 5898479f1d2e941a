// Staged commit pipeline: the read-only watermark invariant under
// concurrency, group-commit crash semantics, and mode parity.
//
// The load-bearing invariant (§4.3.3, preserved by the watermark): a
// read-only activity with start timestamp t observes exactly the
// committed updates with commit timestamps below t. The stress test
// checks it exactly — the stable log is forced before anything applies,
// so "the committed updates below t" can be recomputed after the run
// from the log alone and compared against what each scanner saw live.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "check/atomicity.h"
#include "common/rng.h"
#include "core/runtime.h"
#include "hist/wellformed.h"
#include "spec/adts/bank_account.h"
#include "test_util.h"

namespace argus {
namespace {

/// Sum of deposit amounts at `object` across records with commit_ts < t.
std::int64_t committed_below(const std::vector<CommitLogRecord>& records,
                             ObjectId object, Timestamp t) {
  std::int64_t total = 0;
  for (const CommitLogRecord& record : records) {
    if (record.commit_ts >= t) continue;
    for (const CommitLogRecord::Entry& entry : record.entries) {
      if (entry.object != object) continue;
      for (const LoggedOp& logged : entry.ops) {
        if (logged.op.name == "deposit") total += logged.op.args[0].as_int();
      }
    }
  }
  return total;
}

TEST(CommitPipeline, ReadOnlyScannersSeeExactlyTheCommittedPrefix) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto account = rt.create_hybrid<BankAccountAdt>("a");
  rt.set_wait_timeout_all(std::chrono::milliseconds(500));

  constexpr int kUpdaters = 4;
  constexpr int kTxnsPerUpdater = 150;
  constexpr int kScanners = 3;

  std::atomic<bool> stop{false};
  auto updater = [&](int index) {
    SplitMix64 rng(31 * static_cast<std::uint64_t>(index) + 7);
    for (int i = 0; i < kTxnsPerUpdater; ++i) {
      auto t = rt.begin();
      try {
        account->invoke(*t, account::deposit(rng.range(1, 5)));
        rt.commit(t);
      } catch (const TransactionAborted&) {
        rt.abort(t);
      }
    }
  };

  struct Observation {
    Timestamp start_ts;
    std::int64_t balance;
  };
  std::mutex observations_mu;
  std::vector<Observation> observations;
  auto scanner = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto t = rt.begin_read_only();
      const Value v = account->invoke(*t, account::balance());
      rt.commit(t);
      const std::scoped_lock lock(observations_mu);
      observations.push_back({t->start_ts(), v.as_int()});
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kUpdaters; ++i) threads.emplace_back(updater, i);
  for (int i = 0; i < kScanners; ++i) threads.emplace_back(scanner);
  for (int i = 0; i < kUpdaters; ++i) threads[static_cast<std::size_t>(i)].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t i = kUpdaters; i < threads.size(); ++i) threads[i].join();

  // Every scanner's view must equal the committed prefix below its start
  // timestamp, recomputed from the write-ahead log.
  const auto records = rt.tm().log().records();
  ASSERT_FALSE(observations.empty());
  for (const Observation& obs : observations) {
    EXPECT_EQ(obs.balance,
              committed_below(records, account->id(), obs.start_ts))
        << "scanner at t=" << obs.start_ts
        << " saw a view that is not the committed prefix below t";
  }
}

TEST(CommitPipeline, ConcurrentHistoryIsHybridAtomic) {
  Runtime rt;  // record history
  auto account = rt.create_hybrid<BankAccountAdt>("a");
  rt.set_wait_timeout_all(std::chrono::milliseconds(500));

  auto updater = [&](int index) {
    for (int i = 0; i < 5; ++i) {
      auto t = rt.begin();
      try {
        account->invoke(*t, account::deposit(index + 1));
        rt.commit(t);
      } catch (const TransactionAborted&) {
        rt.abort(t);
      }
    }
  };
  auto scanner = [&] {
    for (int i = 0; i < 5; ++i) {
      auto t = rt.begin_read_only();
      account->invoke(*t, account::balance());
      rt.commit(t);
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(updater, i);
  threads.emplace_back(scanner);
  for (auto& t : threads) t.join();

  const History h = rt.history();
  const auto wf = check_well_formed_hybrid(h, h.initiated());
  EXPECT_TRUE(wf.ok()) << wf.summary();
  const auto verdict = check_hybrid_atomic(rt.system(), h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(CommitPipeline, CrashDuringGroupCommitBatchLosesOnlyUnforcedRecords) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto account = rt.create_hybrid<BankAccountAdt>("a");

  // Two transactions force normally and must survive.
  for (int i = 0; i < 2; ++i) {
    auto t = rt.begin();
    account->invoke(*t, account::deposit(100));
    rt.commit(t);
  }
  const std::size_t forced_before = rt.tm().log().size();
  ASSERT_EQ(forced_before, 2u);

  // Three committers pile into a held flush: their records are queued or
  // claimed but never stable.
  rt.tm().log().hold_flushes();
  std::atomic<int> crash_aborts{0};
  auto committer = [&] {
    auto t = rt.begin();
    try {
      account->invoke(*t, account::deposit(7));
      rt.commit(t);
    } catch (const TransactionAborted& e) {
      rt.abort(t);
      if (e.reason() == AbortReason::kCrash) ++crash_aborts;
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back(committer);
  // Wait until all three are blocked inside the commit pipeline.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  rt.crash();
  rt.tm().log().release_flushes();
  for (auto& t : threads) t.join();
  rt.recover();

  // Recovery replayed exactly the forced prefix: the held batch is gone,
  // its committers unwound with crash aborts, and no partial effects
  // survive.
  EXPECT_EQ(rt.tm().log().size(), forced_before);
  EXPECT_EQ(crash_aborts.load(), 3);
  EXPECT_EQ(account->committed_state(), 200);

  // The pipeline is drained, not wedged: normal commits work again.
  auto t = rt.begin();
  account->invoke(*t, account::deposit(1));
  rt.commit(t);
  EXPECT_EQ(account->committed_state(), 201);
  EXPECT_EQ(rt.tm().log().size(), forced_before + 1);
}

TEST(CommitPipeline, CommitTimestampsStayMonotoneAndLogStaysSorted) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto account = rt.create_hybrid<BankAccountAdt>("a");
  auto worker = [&] {
    for (int i = 0; i < 200; ++i) {
      auto t = rt.begin();
      try {
        account->invoke(*t, account::deposit(1));
        rt.commit(t);
      } catch (const TransactionAborted&) {
        rt.abort(t);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  const auto records = rt.tm().log().records();
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].commit_ts, records[i].commit_ts);
  }
  // The watermark caught up: every commit has published.
  EXPECT_GE(rt.tm().clock().watermark(), records.back().commit_ts);
  EXPECT_EQ(rt.tm().clock().inflight(), 0u);
}

TEST(CommitPipeline, PipelineStatsAreObservable) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto account = rt.create_hybrid<BankAccountAdt>("a");
  auto worker = [&] {
    for (int i = 0; i < 50; ++i) {
      auto t = rt.begin();
      account->invoke(*t, account::deposit(1));
      rt.commit(t);
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  const CommitPipelineStats stats = rt.tm().pipeline_stats();
  EXPECT_EQ(stats.commits, 200u);
  EXPECT_GT(stats.log_forces, 0u);
  EXPECT_EQ(stats.log_records, 200u);
  EXPECT_GE(stats.max_batch, 1u);
  EXPECT_GE(stats.avg_batch(), 1.0);
  EXPECT_GE(stats.clock_now, stats.watermark);
}

TEST(CommitPipeline, SingleMutexModeMatchesPipelinedSemantics) {
  for (const CommitMode mode :
       {CommitMode::kSingleMutex, CommitMode::kPipelined}) {
    Runtime rt(Runtime::RecorderMode::kOff);
    rt.tm().set_commit_mode(mode);
    auto account = rt.create_hybrid<BankAccountAdt>("a");
    auto worker = [&] {
      for (int i = 0; i < 50; ++i) {
        auto t = rt.begin();
        try {
          account->invoke(*t, account::deposit(2));
          rt.commit(t);
        } catch (const TransactionAborted&) {
          rt.abort(t);
        }
      }
    };
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i) threads.emplace_back(worker);
    for (auto& t : threads) t.join();

    const std::uint64_t committed = rt.tm().stats().committed;
    EXPECT_EQ(account->committed_state(),
              static_cast<std::int64_t>(2 * committed));
    rt.crash();
    rt.recover();
    EXPECT_EQ(account->committed_state(),
              static_cast<std::int64_t>(2 * committed));
  }
}

}  // namespace
}  // namespace argus
