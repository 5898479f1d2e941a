// Deterministic scheduler tier (satellite of the interleaving explorer):
//
//   * the scheduler itself — same source, same schedule, byte-equal lane
//     orders; lane exceptions collected; all-blocked runs terminate;
//   * schedule strings — round-trip, error cases, replay semantics;
//   * the explorer — same (seed, schedule) replays to an identical
//     flight-recorder trace; exhaustive DFS on the 2-txn/1-object
//     dynamic-atomicity case visits every non-pruned interleaving and
//     certifies all of them; sleep sets prune commuting steps on
//     disjoint objects; the seeded chaos-admission regression is caught
//     and auto-minimized to a replayable schedule string;
//   * SchedMode::kOs stays the default and carries no policy.
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/runtime.h"
#include "dsched/task_lane.h"
#include "sim/sched_explore.h"

namespace argus {
namespace {

// ---------------------------------------------------------------------------
// Schedule strings

TEST(ScheduleString, RoundTripsSmallLaneIds) {
  const std::vector<std::uint32_t> choices{0, 1, 2, 35, 7, 0};
  const std::string text = to_schedule_string(choices);
  EXPECT_EQ(text.substr(0, 3), "s1:");
  std::vector<std::uint32_t> back;
  std::string error;
  ASSERT_TRUE(parse_schedule_string(text, &back, &error)) << error;
  EXPECT_EQ(back, choices);
}

TEST(ScheduleString, RoundTripsLargeLaneIds) {
  const std::vector<std::uint32_t> choices{0, 36, 1, 999};
  const std::string text = to_schedule_string(choices);
  EXPECT_EQ(text.substr(0, 3), "s2:");
  std::vector<std::uint32_t> back;
  std::string error;
  ASSERT_TRUE(parse_schedule_string(text, &back, &error)) << error;
  EXPECT_EQ(back, choices);
}

TEST(ScheduleString, EmptyRoundTrips) {
  const std::string text = to_schedule_string({});
  std::vector<std::uint32_t> back{1, 2, 3};
  std::string error;
  ASSERT_TRUE(parse_schedule_string(text, &back, &error)) << error;
  EXPECT_TRUE(back.empty());
  // The empty string is also accepted (an absent schedule).
  ASSERT_TRUE(parse_schedule_string("", &back, &error)) << error;
  EXPECT_TRUE(back.empty());
}

TEST(ScheduleString, RejectsMalformedInput) {
  std::vector<std::uint32_t> out;
  std::string error;
  EXPECT_FALSE(parse_schedule_string("x9:012", &out, &error));
  EXPECT_FALSE(parse_schedule_string("s1:01!", &out, &error));
  EXPECT_FALSE(parse_schedule_string("s2:1,,2", &out, &error));
  EXPECT_FALSE(parse_schedule_string("s2:1,2,", &out, &error));
  EXPECT_FALSE(parse_schedule_string("s2:abc", &out, &error));
}

// ---------------------------------------------------------------------------
// The scheduler itself (no runtime)

std::pair<std::vector<int>, std::string> run_counter_lanes(
    std::uint64_t seed) {
  RandomScheduleSource source(seed);
  source.begin_run();
  DeterministicScheduler sched(source);
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 3; ++i) {
    sched.spawn("w" + std::to_string(i), [&sched, &order, &mu, i] {
      for (int k = 0; k < 4; ++k) {
        {
          const std::scoped_lock lock(mu);
          order.push_back(i);
        }
        sched.yield(LaneHint{WaitPoint::kTxnBegin});
      }
    });
  }
  sched.run();
  return {order, sched.schedule_string()};
}

TEST(DeterministicScheduler, SameSeedSameOrder) {
  const auto a = run_counter_lanes(11);
  const auto b = run_counter_lanes(11);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(a.first.size(), 12u);  // 3 lanes x 4 increments, none lost
}

TEST(DeterministicScheduler, DifferentSeedsDiverge) {
  // Not guaranteed for any one pair, but across a few seeds at least one
  // must differ — otherwise the source is ignored.
  const auto base = run_counter_lanes(1);
  bool diverged = false;
  for (std::uint64_t seed = 2; seed <= 6 && !diverged; ++seed) {
    diverged = run_counter_lanes(seed).first != base.first;
  }
  EXPECT_TRUE(diverged);
}

TEST(DeterministicScheduler, ReplaySourcePinsTheOrder) {
  const auto recorded = run_counter_lanes(11);
  std::vector<std::uint32_t> choices;
  std::string error;
  ASSERT_TRUE(parse_schedule_string(recorded.second, &choices, &error));

  ReplayScheduleSource source(choices);
  source.begin_run();
  DeterministicScheduler sched(source);
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 3; ++i) {
    sched.spawn("w" + std::to_string(i), [&sched, &order, &mu, i] {
      for (int k = 0; k < 4; ++k) {
        {
          const std::scoped_lock lock(mu);
          order.push_back(i);
        }
        sched.yield(LaneHint{WaitPoint::kTxnBegin});
      }
    });
  }
  sched.run();
  EXPECT_EQ(order, recorded.first);
  EXPECT_FALSE(source.diverged());
}

TEST(DeterministicScheduler, LaneExceptionsAreCollected) {
  RandomScheduleSource source(1);
  source.begin_run();
  DeterministicScheduler sched(source);
  sched.spawn("boom", [] { throw std::runtime_error("lane exploded"); });
  sched.run();
  ASSERT_EQ(sched.lane_errors().size(), 1u);
  EXPECT_NE(sched.lane_errors()[0].find("lane exploded"), std::string::npos);
}

TEST(DeterministicScheduler, AllLanesBlockedForeverStillTerminates) {
  RandomScheduleSource source(1);
  source.begin_run();
  DeterministicScheduler sched(source);
  std::mutex mu;
  std::condition_variable cv;
  sched.spawn("stuck", [&] {
    std::unique_lock lock(mu);
    // No deadline, nobody will notify: a deadlock from the scheduler's
    // point of view. run() must detect it and return (the lane is then
    // released into free-running mode and unwinds).
    sched.wait_round(LaneHint{WaitPoint::kObjectWait}, &cv, lock, cv,
                     std::chrono::microseconds(-1));
  });
  sched.run();  // must not hang
  SUCCEED();
}

TEST(DeterministicScheduler, VirtualTimeAdvancesTimeouts) {
  RandomScheduleSource source(1);
  source.begin_run();
  DeterministicScheduler sched(source);
  std::uint64_t woke_at = 0;
  sched.spawn("sleeper", [&] {
    sched.sleep_us(WaitPoint::kLogSleep, 500);
    woke_at = sched.now_us();
  });
  sched.run();
  // The sleeping lane can only resume after virtual time passed its
  // deadline — and virtual time only moves with schedule decisions.
  EXPECT_GE(woke_at, 500u);
  EXPECT_LT(woke_at, 10'000u);  // discrete-event jump, not busy stepping
}

// ---------------------------------------------------------------------------
// Runtime modes

TEST(SchedMode, OsIsTheDefaultAndCarriesNoPolicy) {
  Runtime rt(Runtime::RecorderMode::kFlight);
  EXPECT_EQ(rt.sched_mode(), SchedMode::kOs);
  EXPECT_EQ(rt.wait_policy(), nullptr);
}

TEST(SchedMode, DeterministicRequiresAPolicy) {
  EXPECT_THROW(Runtime(Runtime::RecorderMode::kFlight,
                       SchedMode::kDeterministic, nullptr),
               UsageError);
}

// ---------------------------------------------------------------------------
// Explorer cases: replay determinism

TEST(SchedCase, ConfigStringRoundTrips) {
  SchedCase c;
  c.kind = ScheduleKind::kPct;
  c.seed = 12345;
  c.pct_change_points = 5;
  c.protocol = Protocol::kHybrid;
  c.adt = "queue";
  c.objects = 3;
  c.lanes = 4;
  c.txns_per_lane = 1;
  c.initial_balance = 7;
  c.live_sentinel = false;
  c.weaken_admission = true;
  c.max_retries = 2;
  c.fault.force_fail_permille = 120;
  c.fault.crash_point = FaultSite::kMidApply;
  c.fault.crash_at_arrival = 3;
  c.schedule = "s1:0120";

  SchedCase back;
  std::string error;
  ASSERT_TRUE(parse_sched_case(to_config_string(c), &back, &error)) << error;
  EXPECT_EQ(back, c);
}

TEST(SchedCase, ParseRejectsGarbage) {
  SchedCase out;
  std::string error;
  EXPECT_FALSE(parse_sched_case("kind sideways\n", &out, &error));
  EXPECT_FALSE(parse_sched_case("adt heap\n", &out, &error));
  EXPECT_FALSE(parse_sched_case("lanes 0\n", &out, &error));
  EXPECT_FALSE(parse_sched_case("schedule s9:01\n", &out, &error));
  EXPECT_FALSE(parse_sched_case("seed 1 2\n", &out, &error));
  EXPECT_FALSE(parse_sched_case("no_such_key 1\n", &out, &error));
  // Comments and blank lines are fine.
  EXPECT_TRUE(parse_sched_case("# note\n\nseed 9\n", &out, &error)) << error;
  EXPECT_EQ(out.seed, 9u);
}

TEST(SchedExplore, SameSeedReplaysByteForByte) {
  SchedCase c;
  c.kind = ScheduleKind::kRandom;
  c.seed = 42;
  const SchedCaseResult first = run_sched_case(c);
  EXPECT_TRUE(first.ok) << first.failure;
  ASSERT_FALSE(first.trace.empty());
  ASSERT_FALSE(first.schedule.empty());

  const SchedCaseResult second = run_sched_case(c);
  EXPECT_EQ(first.trace, second.trace)
      << "same (seed, schedule source) must reproduce the flight-recorder "
         "trace byte for byte";
  EXPECT_EQ(first.schedule, second.schedule);
  EXPECT_EQ(first.steps, second.steps);
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.faults_injected, second.faults_injected);
}

TEST(SchedExplore, RecordedScheduleReplaysByteForByte) {
  SchedCase c;
  c.kind = ScheduleKind::kRandom;
  c.seed = 43;
  const SchedCaseResult recorded = run_sched_case(c);
  ASSERT_TRUE(recorded.ok) << recorded.failure;

  SchedCase replay = c;
  replay.kind = ScheduleKind::kReplay;
  replay.schedule = recorded.schedule;
  const SchedCaseResult replayed = run_sched_case(replay);
  EXPECT_TRUE(replayed.ok) << replayed.failure;
  EXPECT_EQ(replayed.trace, recorded.trace)
      << "replaying the recorded schedule string must pin the interleaving";
  EXPECT_EQ(replayed.schedule, recorded.schedule);
}

TEST(SchedExplore, OccReplaysByteForByte) {
  // The optimistic path under the cooperative scheduler: serial
  // validation takes the commit turn before the log force, and the
  // executor-queue handoff routes through the WaitPolicy — the whole run
  // must still replay from its recorded schedule.
  SchedCase c;
  c.kind = ScheduleKind::kRandom;
  c.seed = 44;
  c.protocol = Protocol::kOcc;
  const SchedCaseResult recorded = run_sched_case(c);
  EXPECT_TRUE(recorded.ok) << recorded.failure;
  ASSERT_FALSE(recorded.schedule.empty());

  SchedCase replay = c;
  replay.kind = ScheduleKind::kReplay;
  replay.schedule = recorded.schedule;
  const SchedCaseResult replayed = run_sched_case(replay);
  EXPECT_TRUE(replayed.ok) << replayed.failure;
  EXPECT_EQ(replayed.trace, recorded.trace);
}

TEST(SchedExplore, MvccReplaysByteForByte) {
  SchedCase c;
  c.kind = ScheduleKind::kRandom;
  c.seed = 45;
  c.protocol = Protocol::kMvcc;
  const SchedCaseResult recorded = run_sched_case(c);
  EXPECT_TRUE(recorded.ok) << recorded.failure;

  SchedCase replay = c;
  replay.kind = ScheduleKind::kReplay;
  replay.schedule = recorded.schedule;
  const SchedCaseResult replayed = run_sched_case(replay);
  EXPECT_TRUE(replayed.ok) << replayed.failure;
  EXPECT_EQ(replayed.trace, recorded.trace);
}

TEST(DfsExplore, OccExhaustsTheTwoTxnOneObjectCase) {
  // Exhaustive DFS over the optimistic protocol: every non-pruned
  // interleaving of two transactions on one account — including every
  // placement of the validate-at-turn step — must certify hybrid atomic.
  SchedCase base;
  base.adt = "bank";
  base.protocol = Protocol::kOcc;
  base.objects = 1;
  base.lanes = 2;
  base.txns_per_lane = 1;
  base.seed = 3;
  const DfsExploreResult dfs = run_dfs_explore(base, /*max_runs=*/4096);
  EXPECT_TRUE(dfs.exhausted)
      << "the 2-txn/1-object tree must fit the run budget";
  EXPECT_EQ(dfs.certified, dfs.runs)
      << (dfs.failures.empty() ? "" : dfs.failures.front().failure);
  EXPECT_TRUE(dfs.failures.empty());
}

TEST(SchedExplore, PctIsDeterministicToo) {
  SchedCase c;
  c.kind = ScheduleKind::kPct;
  c.seed = 7;
  c.pct_change_points = 3;
  const SchedCaseResult first = run_sched_case(c);
  const SchedCaseResult second = run_sched_case(c);
  EXPECT_TRUE(first.ok) << first.failure;
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.schedule, second.schedule);
}

TEST(SchedExplore, FaultsAndScheduleShareOneSeed) {
  // A case with faults enabled replays byte-for-byte from its seed too:
  // the injector's decisions are part of the same decision stream.
  SchedCase c;
  c.kind = ScheduleKind::kRandom;
  c.seed = 77;
  c.fault.force_fail_permille = 200;
  c.fault.force_max_retries = 2;
  c.fault.torn_batch_permille = 200;
  const SchedCaseResult first = run_sched_case(c);
  const SchedCaseResult second = run_sched_case(c);
  EXPECT_TRUE(first.ok) << first.failure;
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.faults_injected, second.faults_injected);
}

// ---------------------------------------------------------------------------
// Exhaustive DFS

TEST(DfsExplore, ExhaustsTheTwoTxnOneObjectDynamicCase) {
  SchedCase base;
  base.adt = "bank";
  base.protocol = Protocol::kDynamic;
  base.objects = 1;
  base.lanes = 2;
  base.txns_per_lane = 1;
  base.seed = 3;
  const DfsExploreResult dfs = run_dfs_explore(base, /*max_runs=*/4096);
  EXPECT_TRUE(dfs.exhausted)
      << "the 2-txn/1-object tree must fit the run budget";
  EXPECT_GT(dfs.runs, 50u) << "suspiciously few interleavings explored";
  EXPECT_EQ(dfs.certified, dfs.runs)
      << (dfs.failures.empty() ? "" : dfs.failures.front().failure);
  EXPECT_TRUE(dfs.failures.empty());
}

TEST(DfsExplore, SleepSetsPruneCommutingStepsOnDisjointObjects) {
  SchedCase base;
  base.adt = "bank";
  base.protocol = Protocol::kDynamic;
  base.objects = 2;
  base.lanes = 2;
  base.txns_per_lane = 1;
  base.seed = 5;
  const DfsExploreResult dfs = run_dfs_explore(base, /*max_runs=*/4096);
  EXPECT_TRUE(dfs.exhausted);
  EXPECT_EQ(dfs.certified, dfs.runs)
      << (dfs.failures.empty() ? "" : dfs.failures.front().failure);
  EXPECT_GT(dfs.pruned_branches, 0u)
      << "invocations on disjoint objects commute; sleep sets must prune "
         "at least one equivalent branch";
}

TEST(DfsExplore, QueueFamilyExhaustsToo) {
  SchedCase base;
  base.adt = "queue";
  base.protocol = Protocol::kDynamic;
  base.objects = 1;
  base.lanes = 2;
  base.txns_per_lane = 1;
  base.seed = 3;
  const DfsExploreResult dfs = run_dfs_explore(base, /*max_runs=*/4096);
  EXPECT_TRUE(dfs.exhausted);
  EXPECT_GT(dfs.runs, 10u);
  EXPECT_EQ(dfs.certified, dfs.runs)
      << (dfs.failures.empty() ? "" : dfs.failures.front().failure);
}

// ---------------------------------------------------------------------------
// The seeded regression: chaos admission must be caught and minimized

TEST(SchedExplore, WeakenedAdmissionIsCaughtAndMinimized) {
  SchedExploreOptions options;
  options.seeds_per_cell = 4;
  options.weaken_admission = true;
  const SchedExploreSummary summary = run_sched_explore(options);
  ASSERT_GT(summary.cases, 0u);
  ASSERT_FALSE(summary.failures.empty())
      << "admit-everything must produce atomicity violations somewhere in "
      << summary.cases << " cases";

  // Every failure was auto-minimized to a replayable schedule that still
  // reproduces it — the contract a corpus entry is promoted under.
  const SchedExploreFailure& f = summary.failures.front();
  EXPECT_EQ(f.minimized.kind, ScheduleKind::kReplay);
  const SchedCaseResult again = run_sched_case(f.minimized);
  EXPECT_FALSE(again.ok)
      << "minimized schedule no longer reproduces the violation";
  // Minimization never grows the schedule.
  EXPECT_LE(f.minimized.schedule.size(), f.schedule.size() + 3);
}

TEST(DfsExplore, WeakenedAdmissionFailsUnderExhaustiveSearch) {
  // DFS over the smallest broken configuration that can actually corrupt
  // state: admit-everything over TWO accounts with two transferring
  // lanes. Two objects matter — on a single account each transfer is
  // net-zero (the deposit refunds the withdraw), so every recorded
  // result replays in any commit order and chaos admission is
  // unobservable. With a cross-account transfer, two withdraws admitted
  // from stale views overdraw the source account and recovery replay
  // diverges. The tree contains that interleaving by construction, so
  // DFS must find it without any seed luck.
  SchedCase base;
  base.adt = "bank";
  base.protocol = Protocol::kDynamic;
  base.objects = 2;
  base.lanes = 2;
  base.txns_per_lane = 1;
  base.initial_balance = 3;
  base.weaken_admission = true;
  base.seed = 3;
  const DfsExploreResult dfs = run_dfs_explore(base, /*max_runs=*/4096);
  EXPECT_TRUE(dfs.exhausted) << "tree did not fit in the run budget";
  EXPECT_FALSE(dfs.failures.empty())
      << "exhaustive search over a broken protocol found no violation in "
      << dfs.runs << " runs";
  // Every failure DFS reports must carry a replayable schedule string.
  for (const auto& f : dfs.failures) {
    EXPECT_FALSE(f.schedule.empty());
  }
}

}  // namespace
}  // namespace argus
