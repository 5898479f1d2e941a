// StableLog failure semantics under fault injection: torn forces
// stabilize exactly a prefix, the requeued tail either restabilizes or is
// failed by drop_pending (never silently lost, never half-applied),
// transient force failures retry then surface as I/O errors, and the
// crash path is idempotent. Concurrency here is real (committer threads),
// so these tests double as TSan coverage for the injector hooks. The 2PC
// prepare round (StableLog::force_prepared) overlaps one force per log:
// one sleep of the longest per-log total, the same fault decisions as
// one lone force per log, and a failure on one log that leaves the
// others' records stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>

#include "core/runtime.h"
#include "dsched/schedule_source.h"
#include "dsched/task_lane.h"
#include "fault/fault.h"
#include "spec/adts/bank_account.h"
#include "txn/stable_log.h"

namespace argus {
namespace {

CommitLogRecord record_with_ts(std::uint64_t ts) {
  CommitLogRecord r;
  r.txn = ActivityId{ts};
  r.commit_ts = ts;
  r.start_ts = ts;
  return r;
}

std::vector<Timestamp> forced_timestamps(const StableLog& log) {
  std::vector<Timestamp> out;
  for (const auto& r : log.records()) out.push_back(r.commit_ts);
  return out;
}

TEST(StableLogFaults, SingleRecordTornForceRequeuesThenRestabilizes) {
  // A torn force over a batch of one stabilizes prefix 0: the record goes
  // back to the queue and the next (budget-exhausted, clean) force lands
  // it. The committer never observes the tear — only the stats do.
  FaultPlan plan;
  plan.seed = 11;
  plan.torn_batch_permille = 1000;
  plan.max_faults = 1;
  FaultInjector injector(plan);

  StableLog log;
  log.set_fault_injector(&injector);
  EXPECT_EQ(log.append_group(record_with_ts(1)), AppendResult::kForced);

  const auto stats = log.group_stats();
  EXPECT_EQ(stats.torn_forces, 1u);
  EXPECT_EQ(stats.records_requeued, 1u);
  EXPECT_EQ(stats.forces, 2u);  // the torn attempt + the clean retry
  EXPECT_EQ(stats.records_forced, 1u);
  EXPECT_EQ(log.size(), 1u);
  log.set_fault_injector(nullptr);
}

TEST(StableLogFaults, TornForceStabilizesExactlyThePrefix) {
  // Build a three-record batch deterministically: the first committer
  // parks as flush leader on hold_flushes (its clean decision predates
  // the injector), three more enqueue behind it, and the injector is
  // attached before release — so the *second* force (the full
  // three-record batch) is injector arrival 1. Pick a seed whose arrival
  // 1 tears at prefix 1 by asking a scratch injector.
  FaultPlan plan;
  plan.torn_batch_permille = 1000;
  plan.max_faults = 1;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 512 && !found; ++seed) {
    plan.seed = seed;
    FaultInjector scratch(plan);
    const auto d = scratch.on_force(3);
    found = d.torn && d.stable_prefix == 1;
  }
  ASSERT_TRUE(found) << "no seed tears a 3-batch at prefix 1";
  FaultInjector injector(plan);

  StableLog log;
  log.hold_flushes();
  std::array<AppendResult, 4> results{};
  std::thread leader(
      [&] { results[0] = log.append_group(record_with_ts(1)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::vector<std::thread> followers;
  for (std::uint64_t i = 2; i <= 4; ++i) {
    followers.emplace_back(
        [&, i] { results[i - 1] = log.append_group(record_with_ts(i)); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  log.set_fault_injector(&injector);
  log.release_flushes();
  leader.join();
  for (auto& t : followers) t.join();

  // Every committer eventually stabilized: the torn tail was requeued and
  // the next (clean) leader landed it.
  for (const auto r : results) EXPECT_EQ(r, AppendResult::kForced);
  const auto stats = log.group_stats();
  EXPECT_EQ(stats.torn_forces, 1u);
  EXPECT_EQ(stats.records_requeued, 2u);  // 3-batch minus prefix 1
  EXPECT_EQ(stats.forces, 3u);  // [r1], torn 3-batch, requeued pair
  EXPECT_EQ(stats.records_forced, 4u);
  EXPECT_EQ(stats.max_batch, 2u);
  EXPECT_EQ(log.size(), 4u);
  log.set_fault_injector(nullptr);
}

TEST(StableLogFaults, DropPendingAfterTornForceFailsExactlyTheUnstabilized) {
  // Torn forces forever (every leader tears, every force pays a latency
  // spike). Once the first tear completes, the requeued tail sits behind
  // a leader sleeping its latency out — drop_pending lands in that window
  // and must fail exactly the committers whose records never stabilized.
  FaultPlan plan;
  plan.seed = 23;
  plan.torn_batch_permille = 1000;
  plan.leader_latency_permille = 1000;
  plan.leader_latency_us = 50000;
  plan.max_faults = 10;  // livelock backstop: eventually forces go clean
  FaultInjector injector(plan);

  StableLog log;
  log.set_fault_injector(&injector);

  std::array<AppendResult, 4> results{};
  std::vector<std::thread> committers;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    committers.emplace_back(
        [&, i] { results[i - 1] = log.append_group(record_with_ts(i)); });
  }
  while (log.group_stats().torn_forces == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  log.drop_pending();
  for (auto& t : committers) t.join();

  std::vector<Timestamp> forced_ts;
  std::size_t dropped = 0;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    switch (results[i - 1]) {
      case AppendResult::kForced:
        forced_ts.push_back(i);
        break;
      case AppendResult::kDropped:
        ++dropped;
        break;
      case AppendResult::kIoError:
        ADD_FAILURE() << "no force failures were planned";
    }
  }
  // Exactness: the committers told "forced" are exactly the records the
  // log holds; everyone else was told "dropped"; nobody is missing.
  auto in_log = forced_timestamps(log);
  std::sort(in_log.begin(), in_log.end());
  EXPECT_EQ(forced_ts, in_log);
  EXPECT_EQ(forced_ts.size() + dropped, 4u);
  EXPECT_GE(dropped, 1u);  // the requeued tail was pending at the drop
  EXPECT_GE(log.group_stats().torn_forces, 1u);
  EXPECT_GE(log.group_stats().records_requeued, 1u);
  log.set_fault_injector(nullptr);
}

TEST(StableLogFaults, ExhaustedForceRetriesFailTheBatchAsIoError) {
  FaultPlan plan;
  plan.seed = 31;
  plan.force_fail_permille = 1000;  // every attempt fails
  plan.force_max_retries = 2;
  plan.force_retry_backoff_us = 1;
  FaultInjector injector(plan);

  StableLog log;
  log.set_fault_injector(&injector);
  EXPECT_EQ(log.append_group(record_with_ts(1)), AppendResult::kIoError);
  const auto stats = log.group_stats();
  EXPECT_EQ(stats.force_failures, 3u);  // initial attempt + 2 retries
  EXPECT_EQ(stats.forces, 0u);          // nothing ever reached storage
  EXPECT_EQ(log.size(), 0u);
  log.set_fault_injector(nullptr);
}

TEST(StableLogFaults, TransientForceFailureRecoversOnRetry) {
  FaultPlan plan;
  plan.seed = 31;
  plan.force_fail_permille = 1000;
  plan.force_max_retries = 3;
  plan.force_retry_backoff_us = 1;
  plan.max_faults = 1;  // only the first attempt fails
  FaultInjector injector(plan);

  StableLog log;
  log.set_fault_injector(&injector);
  EXPECT_EQ(log.append_group(record_with_ts(1)), AppendResult::kForced);
  const auto stats = log.group_stats();
  EXPECT_EQ(stats.force_failures, 1u);
  EXPECT_EQ(stats.forces, 1u);
  EXPECT_EQ(log.size(), 1u);
  log.set_fault_injector(nullptr);
}

TEST(StableLogFaults, DropPendingIsIdempotent) {
  StableLog log;
  EXPECT_EQ(log.append_group(record_with_ts(1)), AppendResult::kForced);
  log.drop_pending();
  log.drop_pending();  // second crash on an already-drained log: no-op
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.append_group(record_with_ts(2)), AppendResult::kForced);
  EXPECT_EQ(log.size(), 2u);
}

TEST(StableLogFaults, DoubleRuntimeCrashIsIdempotent) {
  Runtime rt(Runtime::RecorderMode::kOff);
  auto acct = rt.create_dynamic<BankAccountAdt>("a");
  {
    auto t = rt.begin();
    acct->invoke(*t, account::deposit(100));
    rt.commit(t);
  }
  rt.crash();
  rt.crash();  // a crash while already down changes nothing
  rt.recover();
  EXPECT_EQ(acct->committed_state(), 100);
}

TEST(StableLogFaults, SetForceDelayRacesInFlightLeadersSafely) {
  // The knob is read under the log mutex per force; flipping it from
  // another thread mid-traffic must neither tear a read (TSan) nor lose a
  // record.
  StableLog log;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 32;
  std::atomic<int> forced{0};
  std::vector<std::thread> committers;
  for (int w = 0; w < kThreads; ++w) {
    committers.emplace_back([&, w] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto ts =
            static_cast<std::uint64_t>(w * kPerThread + i + 1);
        if (log.append_group(record_with_ts(ts)) == AppendResult::kForced) {
          forced.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 100; ++i) {
    log.set_force_delay(std::chrono::microseconds(i % 2 == 0 ? 0 : 20));
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  for (auto& t : committers) t.join();
  EXPECT_EQ(forced.load(), kThreads * kPerThread);
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

std::vector<AppendResult> force_round(StableLog& a, StableLog& b,
                                      std::uint64_t ts) {
  std::vector<StableLog::PreparedForce> round;
  round.push_back({&a, record_with_ts(ts)});
  round.push_back({&b, record_with_ts(ts)});
  return StableLog::force_prepared(std::move(round));
}

AppendResult force_alone(StableLog& log, std::uint64_t ts) {
  std::vector<StableLog::PreparedForce> round;
  round.push_back({&log, record_with_ts(ts)});
  return StableLog::force_prepared(std::move(round)).at(0);
}

TEST(PreparedRound, SleepsOnceForTheLongestPerLogTotal) {
  // Log a: a 40 us force that fails once, backs off 30 us and retries —
  // 110 us in total. Log b: one clean 100 us force. Forced one after the
  // other they would take 210 us of virtual time; the round takes the
  // longest total, plus the scheduler's per-decision quanta.
  FaultPlan plan;
  plan.seed = 5;
  plan.force_fail_permille = 1000;
  plan.force_max_retries = 3;
  plan.force_retry_backoff_us = 30;
  plan.max_faults = 1;
  FaultInjector injector(plan);

  RandomScheduleSource source(1);
  DeterministicScheduler sched(source);
  StableLog a;
  StableLog b;
  a.set_force_delay(std::chrono::microseconds(40));
  b.set_force_delay(std::chrono::microseconds(100));
  a.set_fault_injector(&injector);
  a.set_wait_policy(&sched);
  b.set_wait_policy(&sched);
  std::uint64_t elapsed = 0;
  std::vector<AppendResult> results;
  sched.spawn("round", [&] {
    const std::uint64_t start = sched.now_us();
    results = force_round(a, b, 1);
    elapsed = sched.now_us() - start;
  });
  sched.run();

  EXPECT_EQ(results, (std::vector<AppendResult>{AppendResult::kForced,
                                                AppendResult::kForced}));
  EXPECT_GE(elapsed, 110u);
  EXPECT_LT(elapsed, 120u) << "the round slept more than once";
  EXPECT_EQ(a.group_stats().force_failures, 1u);
  EXPECT_EQ(a.prepared_records().size(), 1u);
  EXPECT_EQ(b.prepared_records().size(), 1u);
  a.set_fault_injector(nullptr);
}

TEST(PreparedRound, DrawsTheSameFaultStreamAsOneForcePerLog) {
  // Each log's injector sees exactly the on_force(1) calls a lone force
  // would make, in the same order: rounds over two logs and one lone
  // force per log, round after round, agree on every outcome, every
  // injected fault and every counter.
  FaultPlan plan;
  plan.force_fail_permille = 300;
  plan.force_max_retries = 1;
  plan.force_retry_backoff_us = 0;
  plan.leader_latency_permille = 300;
  plan.leader_latency_us = 5;
  FaultPlan plan_b = plan;
  plan.seed = 17;
  plan_b.seed = 18;
  FaultInjector round_a(plan);
  FaultInjector round_b(plan_b);
  FaultInjector alone_a(plan);
  FaultInjector alone_b(plan_b);
  StableLog ra;
  StableLog rb;
  StableLog sa;
  StableLog sb;
  ra.set_fault_injector(&round_a);
  rb.set_fault_injector(&round_b);
  sa.set_fault_injector(&alone_a);
  sb.set_fault_injector(&alone_b);

  std::size_t io_errors = 0;
  for (std::uint64_t ts = 1; ts <= 40; ++ts) {
    const std::vector<AppendResult> round = force_round(ra, rb, ts);
    const std::vector<AppendResult> alone{force_alone(sa, ts),
                                          force_alone(sb, ts)};
    EXPECT_EQ(round, alone) << "round " << ts;
    for (const AppendResult r : round) {
      if (r == AppendResult::kIoError) ++io_errors;
    }
  }
  EXPECT_GT(io_errors, 0u) << "the plan never exhausted a retry budget";
  EXPECT_EQ(round_a.trace_to_string(), alone_a.trace_to_string());
  EXPECT_EQ(round_b.trace_to_string(), alone_b.trace_to_string());
  const auto same_stats = [](const StableLog& x, const StableLog& y) {
    const auto sx = x.group_stats();
    const auto sy = y.group_stats();
    EXPECT_EQ(sx.forces, sy.forces);
    EXPECT_EQ(sx.prepared_forces, sy.prepared_forces);
    EXPECT_EQ(sx.force_failures, sy.force_failures);
    EXPECT_EQ(x.prepared_records().size(), y.prepared_records().size());
  };
  same_stats(ra, sa);
  same_stats(rb, sb);
  for (StableLog* log : {&ra, &rb, &sa, &sb}) log->set_fault_injector(nullptr);
}

TEST(PreparedRound, IoErrorOnOneLogLeavesTheOtherRecordStable) {
  FaultPlan plan;
  plan.seed = 31;
  plan.force_fail_permille = 1000;  // every attempt on log a fails
  plan.force_max_retries = 1;
  plan.force_retry_backoff_us = 1;
  FaultInjector injector(plan);
  StableLog a;
  StableLog b;
  a.set_fault_injector(&injector);

  EXPECT_EQ(force_round(a, b, 7),
            (std::vector<AppendResult>{AppendResult::kIoError,
                                       AppendResult::kForced}));
  const auto sa = a.group_stats();
  EXPECT_EQ(sa.force_failures, 2u);  // initial attempt + 1 retry
  EXPECT_EQ(sa.forces, 0u);
  EXPECT_EQ(sa.prepared_forces, 0u);
  EXPECT_TRUE(a.prepared_records().empty());
  const auto sb = b.group_stats();
  EXPECT_EQ(sb.force_failures, 0u);
  EXPECT_EQ(sb.forces, 1u);
  EXPECT_EQ(sb.prepared_forces, 1u);
  ASSERT_EQ(b.prepared_records().size(), 1u);
  EXPECT_EQ(b.prepared_records()[0].txn, ActivityId{7});
  // The stable prepared record survives a crash of its log.
  b.drop_pending();
  EXPECT_EQ(b.prepared_records().size(), 1u);
  a.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace argus
