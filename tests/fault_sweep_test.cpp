// The crash-point sweep: every {crash point x fault mix x seed}
// configuration must come through crash + recovery with the atomicity
// checker and every invariant probe green — and any single configuration
// must replay from its seed to a byte-equal trace. Labeled `faultsweep`
// (its own CI job) on top of the tier-1 suite.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/fault_sweep.h"

namespace argus {
namespace {

TEST(FaultSweepConfig, RoundTripsThroughConfigString) {
  FaultSweepCase c;
  c.protocol = Protocol::kHybrid;
  c.accounts = 3;
  c.transactions = 17;
  c.initial_balance = 250;
  c.plan.seed = 987654321;
  c.plan.force_fail_permille = 120;
  c.plan.force_max_retries = 5;
  c.plan.force_retry_backoff_us = 7;
  c.plan.torn_batch_permille = 333;
  c.plan.leader_latency_permille = 44;
  c.plan.leader_latency_us = 55;
  c.plan.crash_point = FaultSite::kMidApply;
  c.plan.crash_at_arrival = 2;
  c.plan.spurious_timeout_permille = 66;
  c.plan.delayed_wakeup_permille = 77;
  c.plan.delayed_wakeup_us = 88;
  c.plan.max_faults = 9;

  FaultSweepCase back;
  std::string error;
  ASSERT_TRUE(parse_case(to_config_string(c), &back, &error)) << error;
  EXPECT_EQ(back, c);
}

TEST(FaultSweepConfig, RejectsMalformedInput) {
  FaultSweepCase c;
  std::string error;
  EXPECT_FALSE(parse_case("no_such_key 1\n", &c, &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(parse_case("seed banana\n", &c, &error));
  EXPECT_NE(error.find("not a number"), std::string::npos);
  EXPECT_FALSE(parse_case("protocol vaporware\n", &c, &error));
  EXPECT_NE(error.find("unknown protocol"), std::string::npos);
  EXPECT_FALSE(parse_case("crash_point nowhere\n", &c, &error));
  EXPECT_NE(error.find("unknown crash point"), std::string::npos);
  EXPECT_FALSE(parse_case("seed 1 2\n", &c, &error));
  EXPECT_FALSE(parse_case("accounts -1\n", &c, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos);
  // Counts are plain decimal digits: no suffix, sign or hex.
  for (const char* bad : {"accounts 3x\n", "accounts +3\n", "accounts 0x3\n",
                          "transactions 1e3\n", "seed 5.\n"}) {
    EXPECT_FALSE(parse_case(bad, &c, &error)) << bad;
    EXPECT_NE(error.find("not a number"), std::string::npos) << bad;
  }
  EXPECT_FALSE(parse_case("seed 18446744073709551616\n", &c, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos);
  // A case sizes its run: the account count is bounded.
  EXPECT_FALSE(parse_case("accounts 100000\n", &c, &error));
  EXPECT_NE(error.find("accounts must be <="), std::string::npos) << error;
  EXPECT_TRUE(parse_case("accounts " + std::to_string(kMaxCaseObjects) + "\n",
                         &c, &error))
      << error;
  // Comments and blank lines are fine.
  EXPECT_TRUE(parse_case("# comment\n\n  seed 5\n", &c, &error))
      << error;
  EXPECT_EQ(c.plan.seed, 5u);
}

TEST(FaultSweepConfig, ParseCountTakesOnlyPlainDigits) {
  std::uint32_t n = 7;
  EXPECT_EQ(parse_count("42", &n), "");
  EXPECT_EQ(n, 42u);
  EXPECT_EQ(parse_count("0", &n), "");
  EXPECT_EQ(n, 0u);
  // The line lexer splits on whitespace, so only a direct caller can pass
  // these; they must not parse either.
  for (const char* bad : {" 4", "4 ", "\t4", "", "-", "+4", "4x", "--4"}) {
    EXPECT_NE(parse_count(bad, &n), "") << "'" << bad << "'";
  }
  EXPECT_NE(parse_count("4294967296", &n), "");  // one past uint32 max
  EXPECT_NE(parse_count("-1", &n).find("out of range"), std::string::npos);
  int lanes = 0;
  EXPECT_EQ(parse_bounded("lanes", "3", kMaxCaseLanes, &lanes), "");
  EXPECT_EQ(lanes, 3);
  EXPECT_NE(parse_bounded("lanes", "0", kMaxCaseLanes, &lanes), "");
  EXPECT_NE(parse_bounded("lanes", "100000", kMaxCaseLanes, &lanes), "");
}

TEST(FaultSweep, EnumeratesTheFullGrid) {
  const auto cases = enumerate_fault_cases();
  // 5 crash placements (none + 4 pipeline stages) x 5 mixes x 2 protocols
  // x 4 seeds.
  EXPECT_EQ(cases.size(), 200u);
  // No two cells share a decision stream.
  std::set<std::uint64_t> seeds;
  for (const auto& c : cases) seeds.insert(c.plan.seed);
  EXPECT_EQ(seeds.size(), cases.size());
}

TEST(FaultSweep, EveryConfigurationCertifiesCleanAfterCrashRecover) {
  const FaultSweepSummary summary = run_fault_sweep();
  EXPECT_EQ(summary.cases, 200u);
  std::string report;
  for (const auto& f : summary.failures) {
    report += "---- failing config ----\n" + to_config_string(f.config) +
              f.failure + "\n";
  }
  EXPECT_TRUE(summary.all_ok()) << report;
  // The sweep genuinely exercised the fault machinery: pinned crashes
  // fired mid-workload and probabilistic faults were injected.
  EXPECT_GT(summary.crashed_mid_run, 0u);
  EXPECT_GT(summary.faults_injected, 0u);
  EXPECT_GT(summary.committed, 0u);
}

TEST(FaultSweep, OccAndMvccComeThroughTheSweepClean) {
  // The optimistic modes against the same crash-point grid the
  // data-dependent protocols face: versioned storage must recover from
  // the timestamp-sorted stable log, and serial validation must never
  // leave a half-admitted record behind a crash. Separate from the
  // default sweep so its 200-case shape stays pinned.
  FaultSweepOptions options;
  options.protocols = {Protocol::kOcc, Protocol::kMvcc};
  options.seeds_per_cell = 2;
  const FaultSweepSummary summary = run_fault_sweep(options);
  // 5 crash placements x 5 mixes x 2 protocols x 2 seeds.
  EXPECT_EQ(summary.cases, 100u);
  std::string report;
  for (const auto& f : summary.failures) {
    report += "---- failing config ----\n" + to_config_string(f.config) +
              f.failure + "\n";
  }
  EXPECT_TRUE(summary.all_ok()) << report;
  EXPECT_GT(summary.crashed_mid_run, 0u);
  EXPECT_GT(summary.committed, 0u);
}

TEST(FaultSweep, ReplayingASeedReproducesTheTraceByteForByte) {
  // The chaos mix with a mid-apply pinned crash — the nastiest cell —
  // under dynamic admission, and its log faults under OCC.
  FaultSweepCase chaos;
  chaos.protocol = Protocol::kDynamic;
  chaos.plan.seed = 1234567;
  chaos.plan.force_fail_permille = 120;
  chaos.plan.force_max_retries = 2;
  chaos.plan.force_retry_backoff_us = 10;
  chaos.plan.torn_batch_permille = 150;
  chaos.plan.leader_latency_permille = 100;
  chaos.plan.leader_latency_us = 50;
  chaos.plan.crash_point = FaultSite::kMidApply;
  chaos.plan.crash_at_arrival = 1;
  FaultSweepCase occ = chaos;
  occ.protocol = Protocol::kOcc;
  occ.plan.seed = 7654321;
  occ.plan.leader_latency_permille = 0;
  occ.plan.leader_latency_us = FaultPlan{}.leader_latency_us;

  for (const FaultSweepCase& c : {chaos, occ}) {
    const FaultCaseResult first = run_case(c);
    const FaultCaseResult second = run_case(c);
    EXPECT_TRUE(first.ok) << to_string(c.protocol) << ": " << first.failure;
    ASSERT_FALSE(first.trace.empty());
    EXPECT_EQ(first.trace, second.trace) << to_string(c.protocol);
    EXPECT_EQ(first.faults_injected, second.faults_injected);
    EXPECT_EQ(first.committed, second.committed);
    EXPECT_EQ(first.log_records, second.log_records);
  }
}

TEST(FaultSweep, MinimizeFindsTheSmallestReproducingBudget) {
  // Stand-in failure predicate: "at least three faults were injected".
  // Monotone in the budget, so the bisection must land exactly on 3.
  FaultSweepCase c;
  c.plan.seed = 99;
  c.plan.torn_batch_permille = 600;
  c.plan.force_fail_permille = 200;
  c.plan.force_max_retries = 1;
  c.plan.force_retry_backoff_us = 1;

  const auto full = run_case(c);
  ASSERT_GE(full.faults_injected, 3u) << "pick a hotter seed";
  const auto still_fails = [](const FaultSweepCase& probe) {
    return run_case(probe).faults_injected >= 3;
  };
  const FaultSweepCase minimized = minimize_fault_budget(c, still_fails);
  EXPECT_EQ(minimized.plan.max_faults, 3u);
  EXPECT_TRUE(still_fails(minimized));
}

TEST(FaultSweep, MinimizeReturnsZeroWhenNoFaultsAreNeeded) {
  FaultSweepCase c;
  c.plan.seed = 5;
  c.plan.torn_batch_permille = 500;
  const auto always_fails = [](const FaultSweepCase&) { return true; };
  const FaultSweepCase minimized = minimize_fault_budget(c, always_fails);
  EXPECT_EQ(minimized.plan.max_faults, 0u);
}

}  // namespace
}  // namespace argus
