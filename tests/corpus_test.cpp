// Corpus replay: every checked-in case under tests/corpus/ is a
// configuration worth pinning forever. Its subdirectory names its domain
// — sched/, dist/ and vc/; the corpus root holds fault-sweep cases — and
// every file must
//
//   * replay to its pinned verdict. Fault and dist cases, and sched
//     regression pins (weaken_admission 0, e.g. deadlock-retry
//     starvation), certify. Sched violation pins (weaken_admission 1:
//     chaos admission) still fail — if one starts passing, the replay
//     machinery lost the interleaving. Vc histories get the verdict on
//     their `# expect:` line;
//   * replay byte for byte: a second run reproduces the trace and the
//     failure text; if either drifts, determinism broke;
//   * round-trip: parse, print and parse again to an equal case, so the
//     shared FaultPlan key table cannot drop or rename a key a checked-in
//     file uses.
//
// ctest runs this binary once per tier, filtered to one domain (see
// tests/CMakeLists.txt). To replay or shrink one file by hand, use
// examples/case_replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/dist_sweep.h"
#include "sim/fault_sweep.h"
#include "sim/sched_explore.h"
#include "sim/vc_case.h"

namespace argus {
namespace {

namespace fs = std::filesystem;

struct CorpusFile {
  std::string domain;  // "fault", "sched", "dist" or "vc"
  fs::path path;
};

void PrintTo(const CorpusFile& f, std::ostream* os) { *os << f.path; }

std::vector<CorpusFile> corpus_files() {
  const fs::path root = ARGUS_CORPUS_DIR;
  std::vector<CorpusFile> out;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.path().extension() != ".txt") continue;
    const fs::path rel = entry.path().lexically_relative(root);
    out.push_back({rel.has_parent_path() ? rel.parent_path().string()
                                         : std::string("fault"),
                   entry.path()});
  }
  std::sort(out.begin(), out.end(),
            [](const CorpusFile& a, const CorpusFile& b) {
              return a.path < b.path;
            });
  return out;
}

template <typename Case>
Case parse_file(const fs::path& path) {
  Case c;
  std::string error;
  EXPECT_TRUE(load_case(path.string(), &c, &error)) << path << ": " << error;
  return c;
}

template <typename Case>
void expect_pinned_replay(const fs::path& path) {
  const Case c = parse_file<Case>(path);
  if (::testing::Test::HasFailure()) return;
  bool pinned_ok = true;
  if constexpr (std::is_same_v<Case, SchedCase>) {
    pinned_ok = !c.weaken_admission;
  }

  const auto first = run_case(c);
  EXPECT_EQ(first.ok, pinned_ok)
      << path
      << (pinned_ok ? ": the pinned case no longer certifies:\n"
                    : ": the pinned violation no longer reproduces\n")
      << first.failure;
  ASSERT_FALSE(first.trace.empty());

  const auto second = run_case(c);
  EXPECT_EQ(first.trace, second.trace)
      << path << ": same case must reproduce the trace byte for byte";
  EXPECT_EQ(first.failure, second.failure);
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.faults_injected, second.faults_injected);
  if constexpr (std::is_same_v<Case, SchedCase>) {
    EXPECT_EQ(first.schedule, second.schedule);
  }
}

template <typename Case>
void expect_round_trip(const fs::path& path) {
  const Case c = parse_file<Case>(path);
  Case back;
  std::string error;
  ASSERT_TRUE(parse_case(to_config_string(c), &back, &error))
      << path << ": " << error;
  EXPECT_EQ(back, c) << path << " printed as\n" << to_config_string(c);
}

std::string param_name(const CorpusFile& f) {
  std::string name = f.domain + "_" + f.path.stem().string();
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

class CorpusFileTest : public ::testing::TestWithParam<CorpusFile> {};

TEST_P(CorpusFileTest, ReplaysToItsPinnedVerdict) {
  const auto& [domain, path] = GetParam();
  if (domain == "fault") {
    expect_pinned_replay<FaultSweepCase>(path);
  } else if (domain == "sched") {
    expect_pinned_replay<SchedCase>(path);
  } else if (domain == "dist") {
    expect_pinned_replay<DistSweepCase>(path);
  } else if (domain == "vc") {
    expect_pinned_replay<VcCase>(path);
  } else {
    FAIL() << "no corpus domain named " << domain << " (" << path << ")";
  }
}

TEST_P(CorpusFileTest, RoundTripsThroughTheConfigFormat) {
  const auto& [domain, path] = GetParam();
  if (domain == "fault") {
    expect_round_trip<FaultSweepCase>(path);
  } else if (domain == "sched") {
    expect_round_trip<SchedCase>(path);
  } else if (domain == "dist") {
    expect_round_trip<DistSweepCase>(path);
  } else {
    expect_round_trip<VcCase>(path);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusFileTest,
                         ::testing::ValuesIn(corpus_files()),
                         [](const auto& info) {
                           return param_name(info.param);
                         });

struct DomainMinimum {
  const char* domain;
  std::size_t files;
};

class CorpusDomainTest : public ::testing::TestWithParam<DomainMinimum> {};

TEST_P(CorpusDomainTest, HoldsItsMinimumCount) {
  const auto [domain, minimum] = GetParam();
  const auto files = corpus_files();
  const auto n = std::count_if(
      files.begin(), files.end(),
      [domain](const CorpusFile& f) { return f.domain == domain; });
  EXPECT_GE(static_cast<std::size_t>(n), minimum) << domain;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusDomainTest,
                         ::testing::Values(DomainMinimum{"fault", 3},
                                           DomainMinimum{"sched", 4},
                                           DomainMinimum{"dist", 3},
                                           DomainMinimum{"vc", 3}),
                         [](const auto& info) {
                           return std::string(info.param.domain);
                         });

}  // namespace
}  // namespace argus
