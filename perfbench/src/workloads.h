// The three benchmark workloads and the closed-loop client they share.
//
// A round is one fixed-size run of a workload: set-up (fresh deployment,
// every client's task list generated from the round seed), a measured
// load phase with kClients closed-loop client threads, an optional
// read-only audit phase, the correctness gates, and a timed
// crash + recovery. main.cpp repeats rounds for the requested
// number of seconds and reports medians, so a round's length is a
// transaction count, never a duration.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/errors.h"
#include "trace.h"

namespace perfbench {

inline constexpr int kClients = 3;
/// Same retry budget as TxnExecutor's default max_retries.
inline constexpr int kMaxRetries = 100;

/// One client thread's tally for one phase of one round.
struct Client {
  explicit Client(bool traced) : trace(traced) {}

  SpanLog trace;
  std::vector<double> update_us;  // first begin to final commit, committed
  std::vector<double> ro_us;
  std::uint64_t attempted{0};   // logical transactions started
  std::uint64_t committed{0};
  std::uint64_t gave_up{0};     // retry budget exhausted
  std::uint64_t attempts{0};    // begins, retries included
  std::uint64_t bad_audits{0};  // audits that saw a wrong total
  std::map<argus::AbortReason, std::uint64_t> aborts;
  std::string error;  // an unexpected exception, if any
};

/// Library counters read before and after the load phase.
struct LayerCounters {
  double pipeline_commits{0};
  double validate_us{0};
  double timestamp_us{0};
  double log_us{0};
  double apply_us{0};
  double log_forces{0};
  double log_records{0};
  double waits{0};
  double wait_timeouts{0};
  double deadlock_dooms{0};
};

/// What a workload reports after its load phase.
struct FinishResult {
  double recover_s{0};
  double recovered_records{0};
  double sentinel_stop_ms{0};
  std::vector<std::string> gate_failures;
  std::map<std::string, double> counts;  // per-layer counts of the round
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds a fresh deployment and every client's task list from `seed`.
  virtual void setup(std::uint64_t seed) = 0;
  /// Client `c`'s share of the measured load phase.
  virtual void load(int c, Client& client) = 0;
  /// Whether the deployment runs a background sentinel thread.
  [[nodiscard]] virtual bool runs_sentinel() const { return false; }
  /// Whether a read-only audit phase follows the load phase.
  [[nodiscard]] virtual bool has_audit_phase() const { return false; }
  virtual void audit(int /*c*/, Client& /*client*/) {}
  [[nodiscard]] virtual LayerCounters counters() = 0;
  /// Called when the load phase ends: finishes the background work that
  /// trails it (the sentinel's final flush), so that the heap is read at
  /// a point that does not depend on where the sentinel's last window
  /// fell.
  virtual void settle() {}
  /// Runs the correctness gates and times a crash + recovery (whose
  /// result is gated too).
  virtual FinishResult finish() = 0;
  /// Releases the deployment.
  virtual void teardown() = 0;
};

/// Workloads: "bank-audit", "hot-withdraw", "dist-transfer". `chaos` swaps hot-withdraw's accounts for DynamicAtomicObjects built
/// with AdmissionMode::kChaosAdmitAll (the negative control). Returns
/// nullptr for an unknown name or a chaos request on another workload.
std::unique_ptr<Workload> make_workload(const std::string& name, bool chaos);

}  // namespace perfbench
