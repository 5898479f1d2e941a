// Schedule-corpus replay: the checked-in configs in tests/corpus/sched/
// are minimized schedules worth pinning forever, of two kinds:
//
//   * violation pins (weaken_admission 1) — interleavings on which a
//     deliberately broken protocol (chaos admission) produces an
//     atomicity violation. Each must still reproduce its violation: if
//     one starts *passing*, the replay machinery lost the interleaving.
//   * regression pins (weaken_admission 0) — interleavings on which the
//     runtime itself once failed certification (e.g. deadlock-retry
//     starvation). Each must now certify.
//
// Either way a second run must reproduce the flight-recorder trace byte
// for byte; if it drifts, determinism broke.
//
// The binary doubles as the schedule minimization tool:
//
//   sched_corpus_test --minimize <config-file>
//
// replays a failing config, bisects its recorded schedule to the
// shortest reproducing prefix, and prints the shrunken config (ready to
// check back into the corpus). Mirrors fault_corpus_test --minimize.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sched_explore.h"

namespace argus {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(ARGUS_SCHED_CORPUS_DIR)) {
    if (entry.path().extension() == ".txt") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

class SchedCorpus : public ::testing::TestWithParam<std::filesystem::path> {};

TEST_P(SchedCorpus, PinnedVerdictHoldsAndReplaysByteEqual) {
  const auto path = GetParam();
  SchedCase c;
  std::string error;
  ASSERT_TRUE(parse_sched_case(read_file(path), &c, &error))
      << path << ": " << error;

  const SchedCaseResult first = run_sched_case(c);
  if (c.weaken_admission) {
    EXPECT_FALSE(first.ok)
        << path << ": the pinned interleaving no longer reproduces its "
                   "atomicity violation";
  } else {
    EXPECT_TRUE(first.ok)
        << path << ": the pinned regression is back:\n" << first.failure;
  }
  ASSERT_FALSE(first.trace.empty());

  const SchedCaseResult second = run_sched_case(c);
  EXPECT_EQ(first.trace, second.trace)
      << path << ": same config must reproduce the trace byte for byte";
  EXPECT_EQ(first.schedule, second.schedule);
  EXPECT_EQ(first.failure, second.failure);
}

INSTANTIATE_TEST_SUITE_P(Corpus, SchedCorpus,
                         ::testing::ValuesIn(corpus_files()),
                         [](const auto& info) {
                           std::string name = info.param.stem().string();
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           }
                           return name;
                         });

TEST(SchedCorpus, CorpusIsNotEmpty) { EXPECT_GE(corpus_files().size(), 4u); }

int minimize_main(const std::string& file) {
  SchedCase c;
  std::string error;
  if (!parse_sched_case(read_file(file), &c, &error)) {
    std::cerr << "cannot parse " << file << ": " << error << "\n";
    return 2;
  }
  const SchedCaseResult full = run_sched_case(c);
  if (full.ok) {
    std::cout << "config passes (schedule " << full.schedule
              << "); nothing to minimize\n";
    return 0;
  }
  std::cout << "config fails:\n"
            << full.failure << "\n\nminimizing over " << full.schedule.size()
            << " schedule bytes...\n";
  const SchedCase minimized = minimize_failing_schedule(
      c, full.schedule,
      [](const SchedCase& probe) { return !run_sched_case(probe).ok; });
  const SchedCaseResult shrunk = run_sched_case(minimized);
  std::cout << "\nshortest reproducing prefix: " << minimized.schedule
            << "\n\n"
            << to_config_string(minimized) << "\nfailure at that prefix:\n"
            << shrunk.failure << "\n";
  return 1;  // the config still fails — that is the point of the tool
}

}  // namespace
}  // namespace argus

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--minimize") {
    return argus::minimize_main(argv[2]);
  }
  if (argc == 2 && std::string(argv[1]) == "--minimize") {
    std::cerr << "usage: " << argv[0] << " --minimize <config-file>\n";
    return 2;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
