// Replayable cases: the machinery the three sweep drivers share
// (sim/fault_sweep.h, sim/sched_explore.h, sim/dist_sweep.h).
//
// A case is a plain struct that prints as `key value` lines ('#'
// comments and blank lines allowed) and parses back to an equal struct —
// the format checked into tests/corpus/. Unknown keys and malformed lines
// are errors: a corpus file that silently half-applies would defeat the
// point of replay. Running a case is deterministic, and a failing case
// shrinks by bisection to a smallest reproducing one.
//
// This header holds what every driver needs for that: the line lexer and
// value parsers, the FaultPlan field table (one list of its keys, used to
// print and to parse), the common result fields, the probe collector and
// the probes the drivers share (conservation, sentinel, stable log), the
// failing-case artifact writer, and the bisection both minimizers run.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "check/certify.h"
#include "common/rng.h"
#include "core/runtime.h"
#include "fault/fault.h"

namespace argus {

// ---------------------------------------------------------------------------
// Case text

/// Reads a whole file; false if it cannot be opened.
[[nodiscard]] bool read_case_file(const std::string& path, std::string* text);

/// Reads and parses a case file (any domain's parse_case); on failure
/// returns false and sets *error.
template <typename Case>
[[nodiscard]] bool load_case(const std::string& path, Case* out,
                             std::string* error) {
  std::string text;
  if (!read_case_file(path, &text)) {
    *error = "cannot open " + path;
    return false;
  }
  return parse_case(text, out, error);
}

/// Applies one `key value` line to the case being parsed: returns "" on
/// success, else why the line is rejected.
using CaseFieldParser =
    std::function<std::string(const std::string& key,
                              const std::string& value)>;

/// Lexes `text` into `key value` lines (trimmed; blank lines and '#'
/// comments skipped) and feeds each to `field`. On the first malformed
/// or rejected line returns false with "line N: why" in *error.
[[nodiscard]] bool parse_case_lines(const std::string& text,
                                    const CaseFieldParser& field,
                                    std::string* error);

/// Parses an unsigned decimal — plain digits, nothing else: no sign, no
/// whitespace, no suffix — into *out ("" on success). A negative count
/// or one that does not fit T is "out of range", anything else that is
/// not all digits "not a number".
template <typename T>
[[nodiscard]] std::string parse_count(const std::string& value, T* out) {
  // from_chars takes no whitespace or '+'; a '-' in front makes a
  // number, but never a count.
  const bool negative = value.size() > 1 && value[0] == '-';
  const char* last = value.data() + value.size();
  std::uint64_t n = 0;
  const auto [end, ec] =
      std::from_chars(value.data() + (negative ? 1 : 0), last, n);
  if (ec == std::errc::invalid_argument || end != last) {
    return "not a number: " + value;
  }
  if (negative || ec == std::errc::result_out_of_range ||
      n > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return "out of range: " + value;
  }
  *out = static_cast<T>(n);
  return "";
}

/// parse_count for a field that must be > 0 (`key` names it).
template <typename T>
[[nodiscard]] std::string parse_positive(const std::string& key,
                                         const std::string& value, T* out) {
  std::string why = parse_count(value, out);
  if (why.empty() && *out == 0) why = key + " must be > 0";
  return why;
}

/// parse_positive for a field that sizes the run — lanes (threads),
/// sites or objects — and must also be at most `max`, so a corpus or
/// artifact file cannot ask for thousands of them.
template <typename T>
[[nodiscard]] std::string parse_bounded(const std::string& key,
                                        const std::string& value, T max,
                                        T* out) {
  std::string why = parse_positive(key, value, out);
  if (why.empty() && *out > max) {
    why = key + " must be <= " + std::to_string(max) + ": " + value;
  }
  return why;
}

/// Upper bounds for the fields parse_bounded guards.
inline constexpr int kMaxCaseLanes = 16;
inline constexpr int kMaxCaseSites = 16;
inline constexpr int kMaxCaseObjects = 64;

/// Looks `name` up among the to_string forms of the enum's first `count`
/// values (Protocol, FaultSite and ScheduleKind are all dense from 0).
template <typename Enum>
[[nodiscard]] std::optional<Enum> enum_from_string(const std::string& name,
                                                   std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto e = static_cast<Enum>(i);
    if (to_string(e) == name) return e;
  }
  return std::nullopt;
}

/// enum_from_string into *out ("" on success; `what` names the field in
/// the error).
template <typename Enum>
[[nodiscard]] std::string parse_name(const std::string& what,
                                     const std::string& value,
                                     std::size_t count, Enum* out) {
  const std::optional<Enum> e = enum_from_string<Enum>(value, count);
  if (!e) return "unknown " + what + ": " + value;
  *out = *e;
  return "";
}

/// Writes a minimized failing case to `dir`/minimized_<index>.txt: the
/// failure text as '#' comment lines, then the case's config — a file
/// examples/case_replay (and the corpus) reads back.
void write_case_artifact(const std::string& dir, int index,
                         const std::string& failure,
                         const std::string& config);

// ---------------------------------------------------------------------------
// FaultPlan fields

/// Which FaultPlan keys a case format carries. Every format has the
/// single-site pipeline, log and wait keys plus max_faults; fault and
/// dist cases also carry the plan seed (a sched case's own seed
/// overrides it), and dist cases the site-churn, coordinator and message
/// keys.
enum class PlanKeys { kFault, kSched, kDist };

/// Prints the plan's keys for `keys`, one `key value` line each, in the
/// table's fixed order.
void print_plan(std::ostream& out, const FaultPlan& plan, PlanKeys keys);

/// Applies one plan key ("" on success); "unknown key: <key>" for a key
/// this format does not carry.
[[nodiscard]] std::string parse_plan_field(const std::string& key,
                                           const std::string& value,
                                           PlanKeys keys, FaultPlan* plan);

// ---------------------------------------------------------------------------
// Running and certifying

/// What every case run reports; each driver's result extends it.
struct CaseResult {
  bool ok{false};
  std::string failure;  // every failed probe/checker, newline-separated
  std::string trace;    // parse.h history dump + '#' fault-trace lines
  std::uint64_t committed{0};
  std::uint64_t aborted{0};
  std::uint64_t faults_injected{0};
};

/// Collects the failed probes of one run.
class Probes {
 public:
  /// Records `what` as a failure unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  /// Records a certification failure, `tag` in front.
  void check(const Certification& c, const std::string& tag = "") {
    if (!c.ok) failures_.push_back(tag + c.failure);
  }
  void fail(std::string what) { failures_.push_back(std::move(what)); }

  /// Sets result.ok and result.failure from what was collected.
  void settle(CaseResult& result) const;

 private:
  std::vector<std::string> failures_;
};

/// Deposits `amount` into every bank account in one transaction: the
/// known, quiescent starting state the conservation probe measures from.
void seed_accounts(Runtime& rt,
                   const std::vector<std::shared_ptr<ManagedObject>>& accounts,
                   std::int64_t amount);

/// One random transfer inside `txn`: withdraw 1..max_amount from one
/// account and, if that succeeded, deposit it into another (the same
/// one when there is only one). Returns the debited account's index.
std::size_t random_transfer(
    Transaction& txn,
    const std::vector<std::shared_ptr<ManagedObject>>& accounts,
    SplitMix64& rng, std::int64_t max_amount);

/// Probes conservation: the accounts' summed balance, read in one fresh
/// transaction, equals `expected`. Transfers move money or do nothing,
/// so any other total means a partial commit survived (or a committed
/// one was lost).
void probe_conservation(
    Runtime& rt, const std::vector<std::shared_ptr<ManagedObject>>& accounts,
    std::int64_t expected, Probes& probes);

/// Stops `rt`'s online sentinel, if one runs, and probes that it saw no
/// violation at any point (crash windows included).
void probe_sentinel(Runtime& rt, Probes& probes, const std::string& tag = "");

/// Probes `rt`'s stable log: records in commit-timestamp order (recovery
/// replays in serialization order) and every forced timestamp covered by
/// the visibility watermark (nothing stable is invisible). Failures carry
/// `tag` in front. Returns the number of records.
std::size_t probe_stable_log(Runtime& rt, Probes& probes,
                             const std::string& tag = "");

// ---------------------------------------------------------------------------
// Minimizing

/// The least n in [0, hi] for which fails(n) holds, by binary search:
/// fails must be monotone and is assumed true at hi (the full failing
/// run). n = 0 is tried first — a failure that needs nothing is the
/// cheapest answer.
[[nodiscard]] std::uint64_t bisect_smallest_failing(
    std::uint64_t hi, const std::function<bool(std::uint64_t)>& fails);

/// Shrinks a failing fault or dist case to the smallest fault budget
/// that still reproduces it: bisection on plan.max_faults in [0, F], F
/// the fault count of the full failing run (any fault past the last
/// injected one is irrelevant). `still_fails` decides reproduction
/// (normally !run_case(c).ok). If even budget 0 fails, the failure needs
/// no probabilistic faults at all and that is the answer.
template <typename Case>
[[nodiscard]] Case minimize_fault_budget(
    const Case& failing,
    const std::function<bool(const std::type_identity_t<Case>&)>&
        still_fails) {
  Case probe = failing;
  probe.plan.max_faults = bisect_smallest_failing(
      run_case(failing).faults_injected, [&](std::uint64_t budget) {
        probe.plan.max_faults = budget;
        return still_fails(probe);
      });
  return probe;
}

}  // namespace argus
