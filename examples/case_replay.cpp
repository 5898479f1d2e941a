// Replays or shrinks one replayable case — a tests/corpus/ file or a
// minimized failure a sweep wrote out:
//
//   case_replay <domain> <case-file>              run + certify, summarize
//   case_replay <domain> <case-file> --trace      also dump the trace
//   case_replay <domain> <case-file> --minimize   shrink a failing case
//
// <domain> is fault, sched, dist (the sweep drivers' `key value` cases)
// or vc (a history pinned to a vector-clock checker verdict) — the
// subdirectory of tests/corpus/ the file belongs in. A case "fails" when
// its run does not certify (vc: does not reach its `# expect:` verdict).
// --minimize bisects the fault budget (fault, dist) or the recorded
// schedule's prefix (sched), or drops whole activities (vc), and prints
// the smallest reproducing case, ready to check into the corpus.
//
// Exit status: replay 0 iff the case certifies; --minimize 0 if there is
// nothing to shrink, 1 once it printed the still-failing minimum; 2 on a
// usage or parse error.
#include <iostream>
#include <string>
#include <type_traits>

#include "sim/dist_sweep.h"
#include "sim/fault_sweep.h"
#include "sim/sched_explore.h"
#include "sim/vc_case.h"

namespace argus {
namespace {

template <typename Case>
int replay(const Case& c, bool trace) {
  const auto result = run_case(c);
  if constexpr (!std::is_same_v<Case, VcCase>) {  // vc runs no workload
    std::cout << "committed:       " << result.committed << "\n"
              << "aborted:         " << result.aborted << "\n"
              << "faults injected: " << result.faults_injected << "\n";
  }
  std::cout << "verdict:         " << (result.ok ? "CERTIFIED" : "FAILED")
            << "\n";
  if (!result.ok) std::cout << result.failure << "\n";
  if (trace) std::cout << "\n" << result.trace;
  return result.ok ? 0 : 1;
}

template <typename Case>
int minimize(const Case& c) {
  const auto full = run_case(c);
  if (full.ok) {
    std::cout << "case certifies; nothing to minimize\n";
    return 0;
  }
  std::cout << "case fails:\n" << full.failure << "\n\nminimizing...\n";
  const auto still_fails = [](const Case& probe) {
    return !run_case(probe).ok;
  };
  Case shrunk = c;
  if constexpr (std::is_same_v<Case, VcCase>) {
    shrunk.history = minimize_history(c.history, [&](const History& h) {
      Case probe = c;
      probe.history = h;
      return still_fails(probe);
    });
    std::cout << "\nsmallest disagreeing history: "
              << shrunk.history.activities().size() << " activities\n\n";
  } else if constexpr (std::is_same_v<Case, SchedCase>) {
    shrunk = minimize_failing_schedule(c, full.schedule, still_fails);
    std::cout << "\nshortest reproducing prefix: " << shrunk.schedule
              << "\n\n";
  } else {
    shrunk = minimize_fault_budget(c, still_fails);
    std::cout << "\nsmallest reproducing budget: max_faults "
              << shrunk.plan.max_faults << "\n\n";
  }
  std::cout << to_config_string(shrunk) << "\nfailure at that size:\n"
            << run_case(shrunk).failure << "\n";
  return 1;  // the case still fails — that is the point of the tool
}

template <typename Case>
int run(const std::string& file, const std::string& mode) {
  Case c;
  std::string error;
  if (!load_case(file, &c, &error)) {
    std::cerr << file << ": " << error << "\n";
    return 2;
  }
  return mode == "--minimize" ? minimize(c) : replay(c, mode == "--trace");
}

}  // namespace
}  // namespace argus

int main(int argc, char** argv) {
  const std::string domain = argc > 1 ? argv[1] : "";
  const std::string mode = argc > 3 ? argv[3] : "";
  if (argc < 3 || argc > 4 ||
      (argc == 4 && mode != "--trace" && mode != "--minimize")) {
    std::cerr << "usage: " << argv[0]
              << " fault|sched|dist|vc <case-file> [--trace | --minimize]\n";
    return 2;
  }
  using namespace argus;
  if (domain == "fault") return run<FaultSweepCase>(argv[2], mode);
  if (domain == "sched") return run<SchedCase>(argv[2], mode);
  if (domain == "dist") return run<DistSweepCase>(argv[2], mode);
  if (domain == "vc") return run<VcCase>(argv[2], mode);
  std::cerr << "unknown domain " << domain << " (fault, sched, dist or vc)\n";
  return 2;
}
