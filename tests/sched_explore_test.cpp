// The model-checking tier's main gate: enumerate {schedule source x
// object family x fault mix x seed}, run every cell under the
// deterministic scheduler, and certify each explored interleaving with
// the formal checkers plus the live sentinel.
//
//   * Default: exactly 768 configurations (2 sources x 6 families x 4
//     mixes x 16 seeds), all of which must certify with zero atomicity
//     violations.
//   * ARGUS_DSCHED_DEEP=<n> scales seeds_per_cell to n (the nightly /
//     workflow-input CI mode).
//   * ARGUS_DSCHED_ARTIFACT_DIR=<dir>: on failure, every auto-minimized
//     failing configuration is written there as a replayable config file
//     (uploaded by CI as the minimized-schedule artifact; replay with
//     examples/case_replay sched <file>).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/sched_explore.h"

namespace argus {
namespace {

std::uint64_t deep_seeds_or(std::uint64_t fallback) {
  const char* deep = std::getenv("ARGUS_DSCHED_DEEP");
  if (deep == nullptr || *deep == '\0') return fallback;
  const unsigned long long n = std::strtoull(deep, nullptr, 10);
  return n > 0 ? n : fallback;
}

void write_failure_artifacts(const SchedExploreSummary& summary) {
  const char* dir = std::getenv("ARGUS_DSCHED_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  int index = 0;
  for (const SchedExploreFailure& f : summary.failures) {
    write_case_artifact(dir, index++, f.failure, to_config_string(f.minimized));
  }
}

TEST(SchedExplore, EveryEnumeratedConfigurationCertifies) {
  SchedExploreOptions options;
  options.seeds_per_cell = deep_seeds_or(16);
  const auto cases = enumerate_sched_cases(options);
  // 2 schedule kinds x 6 object families x 4 fault mixes per seed: 768
  // cases at the default depth.
  ASSERT_EQ(cases.size(), 48 * options.seeds_per_cell);

  const SchedExploreSummary summary = run_sched_explore(options);
  write_failure_artifacts(summary);

  EXPECT_EQ(summary.cases, cases.size());
  EXPECT_EQ(summary.certified, summary.cases);
  std::string report;
  for (const SchedExploreFailure& f : summary.failures) {
    report += "\n--- " + to_string(f.config.kind) + "/" +
              to_string(f.config.protocol) + "/" + f.config.adt + " seed " +
              std::to_string(f.config.seed) + ":\n" + f.failure +
              "\nminimized replay:\n" + to_config_string(f.minimized);
  }
  EXPECT_TRUE(summary.all_ok()) << report;

  // The sweep must actually exercise both dimensions: schedules moved
  // (steps accrued) and the fault mixes injected faults somewhere.
  EXPECT_GT(summary.schedule_steps, summary.cases * 10);
  EXPECT_GT(summary.faults_injected, 0u);
  EXPECT_GT(summary.crashed_mid_run, 0u)
      << "the pinned-crash mix never fired";
  EXPECT_GT(summary.committed, summary.cases)
      << "workloads barely committed anything — scheduler starvation?";
}

TEST(SchedExplore, EnumerationIsDeterministic) {
  const auto a = enumerate_sched_cases();
  const auto b = enumerate_sched_cases();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "case " << i;
  }
  // Seeds are pairwise distinct: no two cells share a decision stream.
  for (std::size_t i = 1; i < a.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      ASSERT_NE(a[i].seed, a[j].seed) << "cases " << i << " and " << j;
    }
  }
}

}  // namespace
}  // namespace argus
