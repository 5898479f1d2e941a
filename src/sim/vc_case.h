// Pinned vector-clock checker cases: the tests/corpus/vc/ format.
//
// A vc case is a recorded history in the parse.h notation plus two kinds
// of '#' directives the history parser skips:
//
//   # expect: pass|violation|suspicious   — the kEscalating verdict
//   # object <name> <type>                — one per object (adts/registry)
//
// Unlike the sweep drivers' cases it runs no workload: "running" it
// replays the pinned verdict through the checker, and a case that
// disagrees shrinks by greedy activity removal (minimize_history) rather
// than bisection.
#pragma once

#include <functional>
#include <string>

#include "check/vc_atomicity.h"
#include "sim/case.h"

namespace argus {

struct VcCase {
  SystemSpec system;
  History history;
  VcVerdict expect{VcVerdict::kPass};

  /// Same verdict, same history, same objects of the same types.
  friend bool operator==(const VcCase& a, const VcCase& b);
};

/// Renders a case in the corpus format: the directives, then the history.
[[nodiscard]] std::string to_config_string(const VcCase& c);

/// Parses the directives and the history body; on failure returns false
/// and sets *error.
[[nodiscard]] bool parse_case(const std::string& text, VcCase* out,
                              std::string* error);

/// Replays the pinned verdict: the escalating checker must answer
/// `expect` at windows 0, 2 and 4, and the monitoring-only mode must stay
/// sound on the same history (never pass a pinned violation, never claim
/// one on a pinned pass). ok iff all hold; the trace is the history.
[[nodiscard]] CaseResult run_case(const VcCase& c);

/// Greedy activity removal: drops whole activities from `h` while
/// `disagrees` still holds, and returns the smallest history reached.
[[nodiscard]] History minimize_history(
    const History& h, const std::function<bool(const History&)>& disagrees);

/// The `# object <name> <type>` directives declaring `system`'s objects.
[[nodiscard]] std::string describe_system(const SystemSpec& system);

}  // namespace argus
