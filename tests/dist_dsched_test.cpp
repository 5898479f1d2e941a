// Concurrent 2PC under the deterministic scheduler: lanes of crossing
// cross-site transfers drive one DistRuntime whose sites (and coordinator
// waits) run under a DeterministicScheduler, through DistOptions'
// wait_policy seam. With no coordinator mutex, 2PCs from different lanes
// interleave their prepares, decision forces and deliveries — and the
// delivery turn waits that ascending site order keeps acyclic — so this
// is the new class of interleavings the explorer must certify.
//
// Every run is certified three ways — the hybrid-atomicity checker on the
// merged cross-site history, money conservation, and a drained decision
// log after run_termination_protocol() — and its schedule string must
// replay to a byte-equal merged trace. Sources: seeded random and PCT
// over 2-3 lanes, the same with a site recovering under the lanes' 2PCs
// (the catch-up barrier), exhaustive DFS over the 2-lane x 1-txn tree,
// one pinned seed whose coordinator crash lands while another lane's 2PC
// is in flight, and a churn lane that fails a participant site while
// another lane's 2PC is inside its overlapped prepare round.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/scope_guard.h"
#include "dist/dist_runtime.h"
#include "dsched/task_lane.h"
#include "sim/dist_sweep.h"
#include "sim/sched_explore.h"
#include "spec/adts/bank_account.h"

namespace argus {
namespace {

constexpr std::int64_t kBalance = 10;
// The schedule seed that puts the pinned coordinator crash under another
// lane's in-flight 2PC (found by scanning seeds; the test asserts it).
constexpr std::uint64_t kCrashSeed = 2;

struct DistLaneCase {
  int lanes{2};
  int txns_per_lane{1};
  /// A pinned coordinator crash at this 2PC step and arrival (0 = none).
  FaultSite crash_step{FaultSite::kCoordPostPrepare};
  std::uint64_t crash_at{0};
  /// Adds a third site holding only a replicated account r, and a churn
  /// lane: fail site 2, move money x0 -> r (a 2PC over sites 0 and 1;
  /// site 2's copy misses it), recover site 2 — whose catch-up waits for
  /// the in-flight 2PCs and bars new ones — then transfer x1 -> x0.
  bool churn{false};
  /// Gives every site log a simulated force latency and adds a churn
  /// lane that fails participant site 0, then recovers it — landing, in
  /// some schedules, inside another lane's prepare round.
  bool fail_in_round{false};
};

/// Forwards every call to the scheduler and counts the lanes asleep in a
/// simulated log force. In the fail_in_round runs the only site-log
/// forces the transfer lanes make are prepare rounds (every transfer is
/// a 2PC; the decision log has no latency), so a nonzero count seen from
/// the churn lane means another lane is inside a round.
class ForceSpy final : public WaitPolicy {
 public:
  explicit ForceSpy(WaitPolicy& inner) : inner_(inner) {}

  [[nodiscard]] int in_force() const {
    return in_force_.load(std::memory_order_acquire);
  }

  std::uint64_t now_us() override { return inner_.now_us(); }
  void yield(const LaneHint& hint) override { inner_.yield(hint); }
  void wait_round(const LaneHint& hint, const void* channel,
                  std::unique_lock<std::mutex>& lock,
                  std::condition_variable& cv,
                  std::chrono::microseconds timeout) override {
    inner_.wait_round(hint, channel, lock, cv, timeout);
  }
  void notify(const void* channel) override { inner_.notify(channel); }
  void sleep_us(WaitPoint point, std::uint64_t us) override {
    const bool force = point == WaitPoint::kLogSleep;
    if (force) in_force_.fetch_add(1, std::memory_order_acq_rel);
    inner_.sleep_us(point, us);
    if (force) in_force_.fetch_sub(1, std::memory_order_acq_rel);
  }
  void adopt_daemon(std::string name) override {
    inner_.adopt_daemon(std::move(name));
  }
  void retire_daemon() override { inner_.retire_daemon(); }

 private:
  WaitPolicy& inner_;
  std::atomic<int> in_force_{0};
};

struct DistLaneRun : CaseResult {  // trace: the merged cross-site trace
  std::string schedule;
  DistStats stats;
  /// The churn lane recovered site 2 while another lane's 2PC was in
  /// flight, so the catch-up was deferred behind it.
  bool deferred_catchup{false};
  /// The fail_in_round lane failed site 0 while another lane was inside
  /// a prepare round.
  bool failed_in_round{false};
};

// One run of `c` under `source`: two single-copy accounts, x0 at site 0
// and x1 at site 1; even lanes move money x0 -> x1, odd lanes x1 -> x0,
// so every transfer is a 2PC and neighbouring lanes cross.
DistLaneRun run_lanes(const DistLaneCase& c, ScheduleSource& source) {
  DistLaneRun out;
  Probes probes;

  source.begin_run();
  DschedOptions sched_options;
  sched_options.max_steps = 200'000;
  DeterministicScheduler sched(source, sched_options);
  ForceSpy spy(sched);
  DistOptions options;
  options.sites = c.churn ? 3 : 2;
  options.protocol = Protocol::kHybrid;
  options.recorder = Runtime::RecorderMode::kFlight;
  options.wait_policy = &spy;
  DistRuntime dist(options);
  // Released before the runtime is torn down, whatever unwinds.
  const auto release_guard = on_scope_exit([&] { sched.release(); });

  std::vector<std::string> names{"x0", "x1"};
  for (const auto& name : names) dist.create_sharded<BankAccountAdt>(name);
  if (c.churn) {
    names.push_back("r");
    dist.create_replicated<BankAccountAdt>("r");
  }
  for (std::size_t s = 0; s < dist.site_count(); ++s) {
    // Virtual time: timeouts are decided by the schedule.
    dist.site(s).runtime().set_wait_timeout_all(std::chrono::milliseconds(50));
    if (c.fail_in_round) {
      dist.site(s).tm().log().set_force_delay(std::chrono::microseconds(20));
    }
  }
  {
    // Setup on the control thread (not a lane: a pass-through).
    const auto setup = dist.begin();
    for (const auto& name : names) {
      dist.write(*setup, name, account::deposit(kBalance));
    }
    dist.commit(setup);
  }
  if (c.crash_at > 0) {
    FaultPlan plan;
    plan.coord_crash_point = c.crash_step;
    plan.coord_crash_at_arrival = c.crash_at;
    dist.set_fault_plan(plan);
  }

  const auto transfer = [&dist](const std::string& from,
                                const std::string& to, std::int64_t amount) {
    const auto t = dist.begin();
    try {
      if (dist.write(*t, from, account::withdraw(amount)).is_unit()) {
        dist.write(*t, to, account::deposit(amount));
      }
      dist.commit(t);
    } catch (const TransactionAborted&) {
      dist.abort(t);
    }
  };
  for (int lane = 0; lane < c.lanes; ++lane) {
    sched.spawn("lane" + std::to_string(lane), [&, lane] {
      for (int i = 0; i < c.txns_per_lane; ++i) {
        transfer(names[static_cast<std::size_t>(lane % 2)],
                 names[static_cast<std::size_t>(1 - lane % 2)], 1 + lane);
      }
    });
  }
  if (c.churn) {
    sched.spawn("churn", [&] {
      dist.fail(2);
      transfer("x0", "r", 1);
      out.deferred_catchup = dist.in_flight_2pcs() > 0;
      probes.check(dist.recover(2), "churn: site 2 refused to recover");
      transfer("x1", "x0", 1);
    });
  }
  if (c.fail_in_round) {
    sched.spawn("fail", [&] {
      out.failed_in_round = spy.in_force() > 0;
      probes.check(dist.fail(0), "fail: site 0 was already down");
      probes.check(dist.recover(0), "fail: site 0 refused to recover");
    });
  }
  sched.await_lanes(static_cast<std::size_t>(c.lanes + (c.churn ? 1 : 0) +
                                             (c.fail_in_round ? 1 : 0)));
  sched.run();
  out.schedule = sched.schedule_string();
  probes.check(!sched.overflowed(), "scheduler: run exceeded max_steps");
  for (const std::string& e : sched.lane_errors()) {
    probes.fail("lane error: " + e);
  }

  // Recovery runs fault-free, after the lanes (the scheduler is released:
  // every wait is a pass-through now).
  for (std::size_t s = 0; s < dist.site_count(); ++s) {
    dist.site(s).runtime().set_fault_injector(nullptr);
  }
  if (!dist.coordinator_up()) {
    probes.check(dist.recover_coordinator(), "recover: coordinator refused");
  }
  dist.run_termination_protocol();
  for (std::size_t s = 0; s < dist.site_count(); ++s) {
    if (!dist.site(s).up()) {
      probes.check(dist.recover(s), "recover: site " + std::to_string(s));
    }
  }
  dist.run_termination_protocol();
  out.trace = dist.merged_trace();
  out.stats = dist.stats();

  // (1) Hybrid atomicity of the merged history.
  probes.check(certify(Protocol::kHybrid, dist.merged_system(),
                       dist.merged_history(), dist.read_only_activities()));
  // (2) Money conservation, and every copy of r agrees.
  probe_dist_bank(dist, names.size(), kBalance, probes);
  // (3) Every decision acknowledged and truncated.
  const std::size_t outstanding = dist.decision_log().outstanding();
  probes.check(outstanding == 0, "decision log: " +
                                     std::to_string(outstanding) +
                                     " outstanding after the termination "
                                     "protocol");

  probes.settle(out);
  return out;
}

// Runs `c` under `source`, then replays the recorded schedule and expects
// the same merged trace; returns the first run.
DistLaneRun run_and_replay(const DistLaneCase& c, ScheduleSource& source) {
  DistLaneRun first = run_lanes(c, source);
  std::vector<std::uint32_t> choices;
  std::string error;
  EXPECT_TRUE(parse_schedule_string(first.schedule, &choices, &error))
      << error;
  ReplayScheduleSource replay(std::move(choices));
  const DistLaneRun second = run_lanes(c, replay);
  EXPECT_FALSE(replay.diverged()) << first.schedule;
  EXPECT_EQ(second.schedule, first.schedule);
  EXPECT_EQ(second.trace, first.trace) << "schedule " << first.schedule;
  return first;
}

TEST(DistDsched, RandomSchedulesCertifyAndReplay) {
  for (const int lanes : {2, 3}) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      SCOPED_TRACE("lanes " + std::to_string(lanes) + " seed " +
                   std::to_string(seed));
      RandomScheduleSource source(seed);
      const DistLaneRun run =
          run_and_replay({.lanes = lanes, .txns_per_lane = 2}, source);
      EXPECT_TRUE(run.failure.empty()) << run.failure;
      EXPECT_GT(run.stats.two_pc_commits, 1u);
    }
  }
}

TEST(DistDsched, PctSchedulesCertifyAndReplay) {
  for (const int lanes : {2, 3}) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      SCOPED_TRACE("lanes " + std::to_string(lanes) + " seed " +
                   std::to_string(seed));
      PctScheduleSource source(seed, /*change_points=*/3);
      const DistLaneRun run =
          run_and_replay({.lanes = lanes, .txns_per_lane = 2}, source);
      EXPECT_TRUE(run.failure.empty()) << run.failure;
    }
  }
}

TEST(DistDsched, SiteRecoveryUnderInFlightTwoPcsCatchesUpBehindThem) {
  // A site recovers while other lanes' 2PCs run: its catch-up waits for
  // the in-flight table to drain and new 2PCs wait for the catch-up, so
  // the recovered copy of r agrees with the others and every run
  // certifies.
  std::uint64_t deferred = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const bool pct : {false, true}) {
      RandomScheduleSource random(seed);
      PctScheduleSource priority(seed, /*change_points=*/3);
      ScheduleSource& source =
          pct ? static_cast<ScheduleSource&>(priority) : random;
      const DistLaneRun run = run_and_replay(
          {.lanes = 2, .txns_per_lane = 2, .churn = true}, source);
      EXPECT_TRUE(run.failure.empty()) << run.failure;
      EXPECT_EQ(run.stats.catchup_txns, 1u);
      if (run.deferred_catchup) ++deferred;
    }
  }
  EXPECT_GT(deferred, 0u) << "no run deferred a catch-up behind a 2PC";
}

TEST(DistDsched, ParticipantFailureInsideTheOverlappedPrepareRound) {
  // A churn lane fails participant site 0 and recovers it while the
  // transfer lanes run their 2PCs. Whether the failure lands before a
  // round (a clean veto), inside one (the record stabilizes at a site
  // that lost its volatile state: recovery or delivery resolves it) or
  // after it, every run certifies with a drained decision log and
  // replays byte for byte — and some runs land inside a round.
  std::uint64_t in_round = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const bool pct : {false, true}) {
      RandomScheduleSource random(seed);
      PctScheduleSource priority(seed, /*change_points=*/3);
      ScheduleSource& source =
          pct ? static_cast<ScheduleSource&>(priority) : random;
      const DistLaneRun run = run_and_replay(
          {.lanes = 2, .txns_per_lane = 2, .fail_in_round = true}, source);
      EXPECT_TRUE(run.failure.empty()) << run.failure;
      EXPECT_EQ(run.stats.site_fails, 1u);
      if (run.failed_in_round) ++in_round;
    }
  }
  EXPECT_GT(in_round, 0u) << "no failure landed inside a prepare round";
}

TEST(DistDsched, DfsExhaustsTheTwoLaneOneTxnTree) {
  DfsOptions options;
  options.max_runs = 20'000;
  options.independent = sched_independence("bank");
  DfsScheduleSource source(options);
  std::uint64_t runs = 0;
  std::uint64_t both_committed = 0;
  do {
    const DistLaneRun run = run_lanes({.lanes = 2, .txns_per_lane = 1}, source);
    ++runs;
    EXPECT_TRUE(run.failure.empty())
        << "schedule " << run.schedule << ":\n" << run.failure;
    if (run.stats.two_pc_commits == 3) ++both_committed;  // setup + 2 lanes
  } while (source.next_run());
  EXPECT_TRUE(source.exhausted()) << runs << " runs";
  EXPECT_GT(runs, 1000u) << "suspiciously few interleavings explored";
  EXPECT_GT(both_committed, 0u) << "no interleaving committed both transfers";
}

TEST(DistDsched, CoordinatorCrashUnderAnotherInFlightTwoPc) {
  // Pinned: the coordinator crashes at the second post-prepare step —
  // one lane's 2PC — while the other lane's 2PC waits to decide; that one
  // sees the epoch move and ends through the coordinator-death path (a
  // presumed abort) instead of forcing a decision.
  const DistLaneCase c{.lanes = 2,
                       .txns_per_lane = 1,
                       .crash_step = FaultSite::kCoordPostPrepare,
                       .crash_at = 2};
  RandomScheduleSource source(kCrashSeed);
  const DistLaneRun run = run_and_replay(c, source);
  EXPECT_TRUE(run.failure.empty()) << run.failure;
  EXPECT_EQ(run.stats.coord_crashes, 1u);
  EXPECT_GE(run.stats.coord_epoch_ends, 1u)
      << "the crash no longer lands under another in-flight 2PC";
  EXPECT_EQ(run.stats.coord_recovers, 1u);
  // Neither lane's transfer was decided: a dead coordinator forces no
  // decision, so only the setup 2PC is on the log.
  EXPECT_EQ(run.stats.two_pc_commits, 1u);
  EXPECT_EQ(run.stats.decisions_logged, 1u);
}

}  // namespace
}  // namespace argus
