// AtomicitySentinel: clean traces and real workloads pass with zero
// violations; an injected non-serializable trace is flagged; the
// checkpointing (bounded-memory) path stays clean.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/vc_atomicity.h"
#include "core/dynamic_object.h"
#include "obs/sentinel.h"
#include "sim/scenarios.h"
#include "sim/workload.h"
#include "spec/adts/counter.h"
#include "test_util.h"
#include "txn/clock.h"

namespace argus {
namespace {

using namespace testutil;

SystemSpec one_set() {
  SystemSpec sys;
  sys.add_object(X, "int_set");
  return sys;
}

TEST(Sentinel, CleanTracePassesAndCountsActivities) {
  LamportClock clock;
  FlightRecorder rec(clock);
  const auto sys = one_set();
  // b inserts 3 and commits; a then observes it. Canonical order (first
  // commit sequence) is b before a — serializable.
  rec.record(invoke(X, B, op("insert", 3)));
  rec.record(respond(X, B, ok()));
  rec.record(commit(X, B));
  rec.record(invoke(X, A, op("member", 3)));
  rec.record(respond(X, A, Value{true}));
  rec.record(commit(X, A));

  AtomicitySentinel sentinel(rec, sys);
  sentinel.poll();
  EXPECT_EQ(sentinel.violations(), 0u);
  EXPECT_EQ(sentinel.activities_checked(), 2u);
  EXPECT_EQ(sentinel.events_seen(), 6u);
  EXPECT_EQ(sentinel.last_violation(), "");
}

TEST(Sentinel, InjectedNonSerializableTraceIsFlagged) {
  LamportClock clock;
  FlightRecorder rec(clock);
  const auto sys = one_set();
  // b's insert(3) commits *before* a commits, yet a observed
  // member(3)=false — in the canonical order (b, then a) there is no
  // acceptable replay: a genuine atomicity violation.
  rec.record(invoke(X, B, op("insert", 3)));
  rec.record(respond(X, B, ok()));
  rec.record(invoke(X, A, op("member", 3)));
  rec.record(respond(X, A, Value{false}));
  rec.record(commit(X, B));
  rec.record(commit(X, A));

  std::vector<std::string> hook_reports;
  SentinelOptions options;
  options.on_violation = [&hook_reports](const std::string& e) {
    hook_reports.push_back(e);
  };
  AtomicitySentinel sentinel(rec, sys, options);
  sentinel.poll();
  EXPECT_GE(sentinel.violations(), 1u);
  EXPECT_NE(sentinel.last_violation().find("not serializable"),
            std::string::npos);
  ASSERT_EQ(hook_reports.size(), sentinel.violations());
  // The offender is quarantined: further windows do not re-report it.
  sentinel.poll();
  EXPECT_EQ(hook_reports.size(), sentinel.violations());
}

TEST(Sentinel, AbortedActivityEffectsAreExcluded) {
  LamportClock clock;
  FlightRecorder rec(clock);
  const auto sys = one_set();
  // b's insert aborted, so a's member(3)=false is consistent.
  rec.record(invoke(X, B, op("insert", 3)));
  rec.record(respond(X, B, ok()));
  rec.record(abort(X, B));
  rec.record(invoke(X, A, op("member", 3)));
  rec.record(respond(X, A, Value{false}));
  rec.record(commit(X, A));

  AtomicitySentinel sentinel(rec, sys);
  sentinel.poll();
  EXPECT_EQ(sentinel.violations(), 0u);
  EXPECT_EQ(sentinel.activities_checked(), 1u);
}

TEST(Sentinel, WorkloadSweepAcrossProtocolsHasNoViolations) {
  for (const Protocol protocol :
       {Protocol::kDynamic, Protocol::kStatic, Protocol::kHybrid}) {
    Runtime rt;  // flight recording on
    auto bank = BankScenario::create(rt, protocol, 4, 10000);
    SentinelOptions options;
    options.window = std::chrono::milliseconds(2);
    auto& sentinel = rt.start_sentinel(options);

    WorkloadOptions wo;
    wo.threads = 4;
    wo.transactions_per_thread = 50;
    wo.seed = 11;
    WorkloadDriver driver(rt, wo);
    const bool read_only_audit = protocol == Protocol::kHybrid;
    (void)driver.run(
        {bank.transfer_mix(1, 3), bank.audit_mix(read_only_audit, 1)});

    sentinel.stop();  // final flush window runs before stop returns
    EXPECT_EQ(sentinel.violations(), 0u)
        << "protocol " << static_cast<int>(protocol) << ": "
        << sentinel.last_violation();
    EXPECT_GT(sentinel.activities_checked(), 0u);
    EXPECT_NE(rt.metrics().json().find("argus_sentinel_windows_total"),
              std::string::npos);
    rt.stop_sentinel();
  }
}

TEST(Sentinel, CheckpointingPathStaysCleanUnderBoundedMemory) {
  Runtime rt;
  auto bank = BankScenario::create(rt, Protocol::kHybrid, 4, 10000);
  SentinelOptions options;
  options.window = std::chrono::milliseconds(1);
  options.checkpoint_threshold = 64;  // fold aggressively
  auto& sentinel = rt.start_sentinel(options);

  WorkloadOptions wo;
  wo.threads = 2;
  wo.transactions_per_thread = 150;
  wo.seed = 23;
  WorkloadDriver driver(rt, wo);
  (void)driver.run({bank.transfer_mix(1, 3), bank.audit_mix(true, 1)});

  sentinel.stop();
  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  EXPECT_GT(sentinel.activities_checked(), 0u);
  rt.stop_sentinel();
}

TEST(Sentinel, RequiresFlightMode) {
  Runtime rt(Runtime::RecorderMode::kOff);
  EXPECT_THROW(rt.start_sentinel(), UsageError);
}

TEST(Sentinel, CheckModeSweepOnRealWorkloadStaysClean) {
  for (const CheckMode mode :
       {CheckMode::kExact, CheckMode::kVectorClock, CheckMode::kEscalating}) {
    Runtime rt;
    auto bank = BankScenario::create(rt, Protocol::kHybrid, 4, 10000);
    SentinelOptions options;
    options.window = std::chrono::milliseconds(2);
    options.mode = mode;
    auto& sentinel = rt.start_sentinel(options);
    EXPECT_EQ(sentinel.mode(), mode);

    WorkloadOptions wo;
    wo.threads = 4;
    wo.transactions_per_thread = 50;
    wo.seed = 29;
    WorkloadDriver driver(rt, wo);
    (void)driver.run({bank.transfer_mix(1, 3), bank.audit_mix(true, 1)});

    sentinel.stop();
    EXPECT_EQ(sentinel.violations(), 0u)
        << to_string(mode) << ": " << sentinel.last_violation();
    EXPECT_GT(sentinel.activities_checked(), 0u) << to_string(mode);
    if (mode == CheckMode::kExact) {
      EXPECT_EQ(sentinel.fastpath_windows(), 0u);
      EXPECT_EQ(sentinel.vc_ops(), 0u);
    } else {
      // The commuting transfer/audit mix must keep most windows on the
      // fast path; the new metrics ride the registry like the rest.
      EXPECT_GT(sentinel.fastpath_windows(), 0u) << to_string(mode);
      const std::string json = rt.metrics().json();
      EXPECT_NE(json.find("argus_sentinel_fastpath_windows_total"),
                std::string::npos);
      EXPECT_NE(json.find("argus_sentinel_escalations_total"),
                std::string::npos);
      EXPECT_NE(json.find("argus_sentinel_vc_ops_total"), std::string::npos);
    }
    rt.stop_sentinel();
  }
}

TEST(Sentinel, EscalatingModeFlagsTheInjectedTrace) {
  LamportClock clock;
  FlightRecorder rec(clock);
  const auto sys = one_set();
  rec.record(invoke(X, B, op("insert", 3)));
  rec.record(respond(X, B, ok()));
  rec.record(invoke(X, A, op("member", 3)));
  rec.record(respond(X, A, Value{false}));
  rec.record(commit(X, B));
  rec.record(commit(X, A));

  std::vector<std::string> hook_reports;
  SentinelOptions options;
  options.mode = CheckMode::kEscalating;
  options.on_violation = [&hook_reports](const std::string& e) {
    hook_reports.push_back(e);
  };
  AtomicitySentinel sentinel(rec, sys, options);
  sentinel.poll();
  sentinel.finalize();  // escalation resolves suspicion at the flush
  EXPECT_GE(sentinel.violations(), 1u);
  EXPECT_GE(sentinel.escalations(), 1u);
  EXPECT_NE(sentinel.last_violation().find("not serializable"),
            std::string::npos);
  EXPECT_EQ(hook_reports.size(), sentinel.violations());
}

TEST(Sentinel, VectorClockModeQuarantinesWithoutClaimingViolation) {
  LamportClock clock;
  FlightRecorder rec(clock);
  const auto sys = one_set();
  rec.record(invoke(X, B, op("insert", 3)));
  rec.record(respond(X, B, ok()));
  rec.record(invoke(X, A, op("member", 3)));
  rec.record(respond(X, A, Value{false}));
  rec.record(commit(X, B));
  rec.record(commit(X, A));

  SentinelOptions options;
  options.mode = CheckMode::kVectorClock;
  AtomicitySentinel sentinel(rec, sys, options);
  sentinel.poll();
  sentinel.finalize();
  // Monitoring-only: the suspect is quarantined and surfaced as
  // suspicious, but no violation is claimed without exact replay.
  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  EXPECT_GE(sentinel.suspicious(), 1u);
  EXPECT_EQ(sentinel.escalations(), 0u);
}

TEST(Sentinel, CleanTracePassesInVectorClockModes) {
  for (const CheckMode mode :
       {CheckMode::kVectorClock, CheckMode::kEscalating}) {
    LamportClock clock;
    FlightRecorder rec(clock);
    const auto sys = one_set();
    rec.record(invoke(X, B, op("insert", 3)));
    rec.record(respond(X, B, ok()));
    rec.record(commit(X, B));
    rec.record(invoke(X, A, op("member", 3)));
    rec.record(respond(X, A, Value{true}));
    rec.record(commit(X, A));

    SentinelOptions options;
    options.mode = mode;
    AtomicitySentinel sentinel(rec, sys, options);
    sentinel.poll();
    sentinel.finalize();
    EXPECT_EQ(sentinel.violations(), 0u) << to_string(mode);
    EXPECT_EQ(sentinel.suspicious(), 0u) << to_string(mode);
    EXPECT_EQ(sentinel.activities_checked(), 2u) << to_string(mode);
  }
}

std::shared_ptr<DynamicAtomicObject<CounterAdt>> chaos_counter(
    Runtime& rt, const std::string& name) {
  auto obj = std::make_shared<DynamicAtomicObject<CounterAdt>>(
      rt.allocate_object_id(), name, rt.tm(), rt.recorder(),
      AdmissionMode::kChaosAdmitAll);
  rt.adopt(obj, std::make_shared<AdtSpec<CounterAdt>>());
  return obj;
}

TEST(Sentinel, ChaosAdmissionViolationIsCaughtDeterministically) {
  // The adversarial injection path: kChaosAdmitAll admits every
  // operation without validation, so nothing blocks and one thread can
  // interleave two transactions by hand. Each transaction's view is the
  // committed state plus its own intentions only, so both increments
  // return 1 — and no serial order allows two increments to both return
  // 1. A genuinely non-atomic history, every run.
  Runtime rt;  // flight recording on
  auto counter = chaos_counter(rt, "c0");
  SentinelOptions options;
  options.mode = CheckMode::kEscalating;
  auto& sentinel = rt.start_sentinel(options);

  auto t1 = rt.begin();
  auto t2 = rt.begin();
  EXPECT_EQ(counter->invoke(*t1, counter::increment()).as_int(), 1);
  EXPECT_EQ(counter->invoke(*t2, counter::increment()).as_int(), 1);
  rt.commit(t2);
  rt.commit(t1);

  sentinel.stop();
  ASSERT_FALSE(check_canonical_atomic(rt.system(), rt.history()).ok);
  EXPECT_GE(sentinel.violations(), 1u);
  EXPECT_NE(sentinel.last_violation(), "");
  rt.stop_sentinel();

  // The monitoring-only mode must flag the same history — as suspicion,
  // never as a certified PASS.
  const VcReport vc =
      check_vc_atomic(rt.system(), rt.history(), {.escalate = false});
  EXPECT_NE(vc.verdict, VcVerdict::kPass);
}

TEST(Sentinel, ChaosWorkloadSweepAgreesWithOfflineJudgement) {
  // Concurrent chaos traffic: whatever histories the races produce, the
  // online escalating sentinel must agree with the offline exact
  // judgement of the recorded history (the deterministic test above
  // guarantees the violating side is exercised; here the interleaving —
  // and hence the verdict — is the scheduler's choice).
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Runtime rt;
    std::vector<std::shared_ptr<ManagedObject>> counters;
    counters.push_back(chaos_counter(rt, "c0"));
    counters.push_back(chaos_counter(rt, "c1"));
    SentinelOptions options;
    options.window = std::chrono::milliseconds(1);
    options.mode = CheckMode::kEscalating;
    auto& sentinel = rt.start_sentinel(options);

    WorkloadOptions wo;
    wo.threads = 4;
    wo.transactions_per_thread = 50;
    wo.seed = seed;
    WorkloadDriver driver(rt, wo);
    // Two increments per transaction: the window between the first
    // invocation and the commit is where unvalidated interleavings slip
    // in (a single-invoke transaction commits too fast to race).
    (void)driver.run({MixItem{
        "increment", TxnKind::kUpdate, 1,
        [&](Transaction& txn, SplitMix64& rng) {
          const std::size_t first = rng.below(counters.size());
          counters[first]->invoke(txn, counter::increment());
          counters[1 - first]->invoke(txn, counter::increment());
        }}});
    sentinel.stop();

    const CheckResult exact = check_canonical_atomic(rt.system(), rt.history());
    // A straggler (a shard stalling for two full windows) is quarantined
    // rather than judged, so the online verdict can legitimately diverge
    // from the offline one; only straggler-free runs are compared.
    if (sentinel.stragglers() == 0) {
      if (exact.ok) {
        EXPECT_EQ(sentinel.violations(), 0u) << "seed " << seed << ": "
                                             << sentinel.last_violation();
      } else {
        EXPECT_GE(sentinel.violations(), 1u)
            << "seed " << seed
            << ": offline check rejects but the sentinel stayed quiet: "
            << exact.explanation;
      }
    }
    rt.stop_sentinel();
  }
}

TEST(Sentinel, StartOptionsApplyAndKnobsAdjustWhileRunning) {
  Runtime rt;
  auto bank = BankScenario::create(rt, Protocol::kHybrid, 4, 10000);
  SentinelOptions options;
  options.mode = CheckMode::kEscalating;
  options.window = std::chrono::milliseconds(2);
  options.checkpoint_threshold = 128;

  auto& sentinel = rt.start_sentinel(options);
  EXPECT_EQ(sentinel.mode(), CheckMode::kEscalating);

  WorkloadOptions wo;
  wo.threads = 2;
  wo.transactions_per_thread = 40;
  wo.seed = 31;
  WorkloadDriver driver(rt, wo);
  (void)driver.run({bank.transfer_mix(1, 3), bank.audit_mix(true, 1)});

  // Both knobs are adjustable while the sentinel runs.
  sentinel.set_window(std::chrono::milliseconds(5));
  sentinel.set_checkpoint_threshold(64);
  (void)driver.run({bank.transfer_mix(1, 3)});

  sentinel.stop();
  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  EXPECT_GT(sentinel.activities_checked(), 0u);
  rt.stop_sentinel();
}

TEST(Sentinel, EscalatingBoundedMemoryPathStaysClean) {
  Runtime rt;
  auto bank = BankScenario::create(rt, Protocol::kHybrid, 4, 10000);
  SentinelOptions options;
  options.window = std::chrono::milliseconds(1);
  options.checkpoint_threshold = 64;  // seal aggressively
  options.mode = CheckMode::kEscalating;
  auto& sentinel = rt.start_sentinel(options);

  WorkloadOptions wo;
  wo.threads = 2;
  wo.transactions_per_thread = 150;
  wo.seed = 37;
  WorkloadDriver driver(rt, wo);
  (void)driver.run({bank.transfer_mix(1, 3), bank.audit_mix(true, 1)});

  sentinel.stop();
  EXPECT_EQ(sentinel.violations(), 0u) << sentinel.last_violation();
  EXPECT_GT(sentinel.activities_checked(), 0u);
  rt.stop_sentinel();
}

}  // namespace
}  // namespace argus
