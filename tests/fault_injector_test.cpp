// FaultInjector unit tests: the determinism contract (same plan, same
// arrival order => same decisions, same trace), the fault budget, and
// the crash latch. Everything downstream — byte-equal sweep replay,
// corpus minimization — rests on these properties.
#include <gtest/gtest.h>

#include "fault/fault.h"
#include "sim/case.h"

namespace argus {
namespace {

// A plan aggressive enough that every site fires within a few arrivals.
FaultPlan chaos_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.force_fail_permille = 300;
  plan.torn_batch_permille = 300;
  plan.leader_latency_permille = 300;
  plan.leader_latency_us = 1;  // decisions matter here, not the sleep
  plan.spurious_timeout_permille = 300;
  plan.delayed_wakeup_permille = 300;
  plan.delayed_wakeup_us = 1;
  return plan;
}

TEST(FaultInjector, SamePlanSameArrivalsSameDecisionsAndTrace) {
  const FaultPlan plan = chaos_plan(42);
  FaultInjector a(plan);
  FaultInjector b(plan);

  for (int i = 0; i < 64; ++i) {
    const auto fa = a.on_force(static_cast<std::size_t>(1 + i % 5));
    const auto fb = b.on_force(static_cast<std::size_t>(1 + i % 5));
    EXPECT_EQ(fa.fail, fb.fail) << "force " << i;
    EXPECT_EQ(fa.torn, fb.torn) << "force " << i;
    EXPECT_EQ(fa.stable_prefix, fb.stable_prefix) << "force " << i;
    EXPECT_EQ(fa.latency_us, fb.latency_us) << "force " << i;

    const auto wa = a.on_wait();
    const auto wb = b.on_wait();
    EXPECT_EQ(wa.spurious_timeout, wb.spurious_timeout) << "wait " << i;
    EXPECT_EQ(wa.extra_delay_us, wb.extra_delay_us) << "wait " << i;
  }

  EXPECT_GT(a.faults_injected(), 0u);
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_EQ(a.trace(), b.trace());
  EXPECT_EQ(a.trace_to_string(), b.trace_to_string());
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjector a(chaos_plan(1));
  FaultInjector b(chaos_plan(2));
  bool diverged = false;
  for (int i = 0; i < 64 && !diverged; ++i) {
    const auto fa = a.on_force(4);
    const auto fb = b.on_force(4);
    diverged = fa.fail != fb.fail || fa.torn != fb.torn ||
               fa.stable_prefix != fb.stable_prefix ||
               fa.latency_us != fb.latency_us;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, DecisionsDependOnArrivalIndexNotHistory) {
  // The decision at arrival n is a pure function of (seed, site, n):
  // skipping ahead does not change what arrival n decides.
  const FaultPlan plan = chaos_plan(7);
  FaultInjector fresh(plan);
  FaultInjector warmed(plan);
  (void)warmed.on_wait();  // consume wait arrivals only
  const auto f1 = fresh.on_force(4);
  const auto f2 = warmed.on_force(4);
  EXPECT_EQ(f1.fail, f2.fail);
  EXPECT_EQ(f1.torn, f2.torn);
  EXPECT_EQ(f1.stable_prefix, f2.stable_prefix);
}

TEST(FaultInjector, BudgetCapsProbabilisticFaults) {
  FaultPlan plan;
  plan.seed = 3;
  plan.torn_batch_permille = 1000;  // every force would tear...
  plan.max_faults = 2;              // ...but only two faults may fire
  FaultInjector injector(plan);

  int torn = 0;
  for (int i = 0; i < 10; ++i) {
    if (injector.on_force(4).torn) ++torn;
  }
  EXPECT_EQ(torn, 2);
  EXPECT_EQ(injector.faults_injected(), 2u);
  EXPECT_EQ(injector.injected_at(FaultSite::kLogForce), 2u);
  EXPECT_EQ(injector.arrivals_at(FaultSite::kLogForce), 10u);
}

TEST(FaultInjector, ZeroBudgetDisablesProbabilisticFaultsButNotCrash) {
  FaultPlan plan;
  plan.seed = 3;
  plan.torn_batch_permille = 1000;
  plan.spurious_timeout_permille = 1000;
  plan.max_faults = 0;  // minimization's lower bound: nothing probabilistic
  plan.crash_point = FaultSite::kMidApply;
  plan.crash_at_arrival = 1;  // the pinned crash is configuration, not budget
  FaultInjector injector(plan);

  EXPECT_FALSE(injector.on_force(4).torn);
  EXPECT_FALSE(injector.on_wait().spurious_timeout);
  EXPECT_TRUE(injector.maybe_crash(FaultSite::kMidApply));
  EXPECT_EQ(injector.crashes_fired(), 1u);
}

TEST(FaultInjector, CrashFiresOnceAtExactlyTheNamedArrival) {
  FaultPlan plan;
  plan.seed = 9;
  plan.crash_point = FaultSite::kPostForcePreApply;
  plan.crash_at_arrival = 3;
  FaultInjector injector(plan);
  int hook_runs = 0;
  injector.set_crash_hook([&] { ++hook_runs; });

  EXPECT_FALSE(injector.maybe_crash(FaultSite::kPostForcePreApply));  // 1
  EXPECT_FALSE(injector.maybe_crash(FaultSite::kPreForce));  // other site
  EXPECT_FALSE(injector.maybe_crash(FaultSite::kPostForcePreApply));  // 2
  EXPECT_TRUE(injector.maybe_crash(FaultSite::kPostForcePreApply));   // 3
  EXPECT_FALSE(injector.maybe_crash(FaultSite::kPostForcePreApply));  // 4
  EXPECT_EQ(hook_runs, 1);
  EXPECT_EQ(injector.crashes_fired(), 1u);
  EXPECT_EQ(injector.arrivals_at(FaultSite::kPostForcePreApply), 4u);
}

TEST(FaultInjector, CrashAtArrivalZeroMeansNever) {
  FaultPlan plan;
  plan.crash_point = FaultSite::kPreForce;
  plan.crash_at_arrival = 0;
  FaultInjector injector(plan);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(injector.maybe_crash(FaultSite::kPreForce));
  }
  EXPECT_EQ(injector.crashes_fired(), 0u);
}

TEST(FaultInjector, TraceIsStampedFromTheSequenceSource) {
  FaultPlan plan;
  plan.seed = 5;
  plan.torn_batch_permille = 1000;
  FaultInjector injector(plan);
  std::uint64_t clock = 100;
  injector.set_sequence_source([&] { return clock++; });

  (void)injector.on_force(2);
  (void)injector.on_force(2);
  const auto trace = injector.trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].seq, 100u);
  EXPECT_EQ(trace[1].seq, 101u);
  EXPECT_EQ(trace[0].action, FaultAction::kTornTail);
  EXPECT_LT(trace[0].detail, 2u);  // prefix is strictly below batch size
}

TEST(FaultInjector, TraceLinesAreParseHComments) {
  FaultPlan plan;
  plan.seed = 5;
  plan.torn_batch_permille = 1000;
  FaultInjector injector(plan);
  (void)injector.on_force(3);
  const std::string text = injector.trace_to_string();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.rfind("# fault ", 0), 0u);  // '#' so parse.h skips it
  EXPECT_NE(text.find("site=log-force"), std::string::npos);
  EXPECT_NE(text.find("action=torn-tail"), std::string::npos);
}

TEST(FaultSite, NamesRoundTrip) {
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    const auto back =
        enum_from_string<FaultSite>(to_string(site), kFaultSiteCount);
    ASSERT_TRUE(back.has_value()) << to_string(site);
    EXPECT_EQ(*back, site);
  }
  EXPECT_FALSE(
      enum_from_string<FaultSite>("no-such-site", kFaultSiteCount).has_value());
}

}  // namespace
}  // namespace argus
