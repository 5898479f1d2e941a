// Deterministic fault injection: seeded chaos for the stable log, the
// staged commit pipeline, and the scheduler wait paths.
//
// The paper's central claim is that recoverability belongs to the object
// specification, so the reproduction must demonstrate atomicity *through*
// failures, not just in their absence. This subsystem turns "imagine a
// failure" into an enumerable, replayable schedule: a FaultPlan names the
// fault mix (probabilities, pinned crash points, budgets) and a seed; a
// FaultInjector answers every injection-site query as a pure function of
// (seed, site, per-site arrival index). Same plan, same arrival order =>
// same fault schedule => (for single-threaded drivers) the same trace,
// byte for byte — which is what lets the sweep in sim/fault_sweep.h
// certify hundreds of {crash point x fault mix x seed} configurations
// with the atomicity checker and replay any failing one from its seed.
//
// Injection sites (see DESIGN.md "Fault model" for the full table):
//
//   * StableLog group commit — transient force failures (the leader
//     retries with backoff, then fails the batch as an I/O error), torn
//     batch tails (a force stabilizes only a prefix of the batch; the
//     tail is requeued, so a crash that follows loses exactly the
//     unstabilized committers — write-ahead is preserved because an
//     unstabilized record is never applied), and leader latency spikes.
//   * Commit pipeline — whole-node crashes pinned to a named stage:
//     pre-force, post-force-pre-apply, mid-apply,
//     post-apply-pre-watermark. The crash is delivered through a hook
//     (normally Runtime::crash()), so a pinned crash exercises exactly
//     the same doom-all + drop-pending path as a spontaneous one.
//   * Scheduler wait paths — spurious timeouts (a waiter dooms itself as
//     if its timeout expired) and delayed wakeups (a wait round blocks
//     longer than the notification would suggest).
//
// Every injected fault is appended to an in-memory trace stamped with a
// sequence drawn from the runtime's Lamport clock (the same counter the
// flight recorder stamps events with), so fault lines interleave
// faithfully with the event trace; trace_to_string() renders them as
// '#'-comment lines that hist/parse.h ignores, keeping combined dumps
// replayable through examples/check_history_file.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"

namespace argus {

/// Named injection sites. The first group lives in StableLog, the middle
/// four are the commit pipeline's crash points (txn/manager.cpp), the
/// last two are the blocking-wait path (core/object_base.cpp).
enum class FaultSite : int {
  kLogForce = 0,            // a flush leader's force attempt
  kLogLeaderLatency,        // extra leader latency per force
  kPreForce,                // commit: after timestamp, before log force
  kPostForcePreApply,       // commit: record stable, nothing applied yet
  kMidApply,                // commit: between two objects' applies
  kPostApplyPreWatermark,   // commit: applied, watermark not yet advanced
  kWaitSpuriousTimeout,     // await(): doom as if the wait timed out
  kWaitDelayedWakeup,       // await(): stretch one wait round
  kSiteFail,                // multi-site: a whole Site fails (crash)
  kSiteRecover,             // multi-site: a failed Site recovers
  kCoordPrePrepare,         // 2PC: coordinator dies before any prepare
  kCoordPostPrepare,        // 2PC: dies after prepares, before the decision
  kCoordPostDecision,       // 2PC: dies post-decision, pre-delivery
  kCoordMidDelivery,        // 2PC: dies between two deliveries
  kCoordRecover,            // a failed coordinator restarts
  kDecisionForce,           // coordinator decision-log force attempt
  kMsgPrepare,              // coordinator->participant prepare message
  kMsgDecide,               // coordinator->participant decision message
  kMsgAck,                  // participant->coordinator delivery ack
};

inline constexpr std::size_t kFaultSiteCount = 19;

[[nodiscard]] std::string to_string(FaultSite site);

/// What the injector did at one arrival (trace vocabulary).
enum class FaultAction {
  kForceFail,
  kTornTail,
  kLeaderLatency,
  kCrash,
  kSpuriousTimeout,
  kDelayedWakeup,
  kSiteFail,
  kSiteRecover,
  kCoordRecover,
  kMsgLoss,
  kMsgLatency,
};

[[nodiscard]] std::string to_string(FaultAction action);

/// One injected fault, stamped with a sequence from the runtime clock so
/// it is ordered against the flight-recorder events.
struct FaultEvent {
  std::uint64_t seq{0};
  FaultSite site{FaultSite::kLogForce};
  std::uint64_t arrival{0};  // per-site arrival index, 1-based
  FaultAction action{FaultAction::kForceFail};
  std::uint64_t detail{0};   // prefix length / delay us / crash point

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// One fault as a '#'-comment line (what trace_to_string emits per
/// event); hist/parse.h skips it, so dumps stay replayable.
[[nodiscard]] std::string to_trace_line(const FaultEvent& e);

inline constexpr std::uint64_t kUnlimitedFaults = ~0ULL;

/// A deterministic fault schedule. Probabilities are permille (0..1000)
/// per arrival; every decision is a pure function of
/// (seed, site, arrival index), so the schedule does not depend on which
/// thread reaches a site — only on how many times the site was reached.
struct FaultPlan {
  std::uint64_t seed{1};

  // Stable-log faults.
  std::uint32_t force_fail_permille{0};     // transient force failure
  std::uint32_t force_max_retries{3};       // leader retries before giving up
  std::uint32_t force_retry_backoff_us{50}; // linear backoff per attempt
  std::uint32_t torn_batch_permille{0};     // stabilize only a prefix
  std::uint32_t leader_latency_permille{0}; // latency spike probability
  std::uint32_t leader_latency_us{200};     // spike magnitude

  // Pipeline crash: fire the crash hook at the Nth arrival at
  // `crash_point`. 0 = never.
  FaultSite crash_point{FaultSite::kPreForce};
  std::uint64_t crash_at_arrival{0};

  // Wait-path faults.
  std::uint32_t spurious_timeout_permille{0};
  std::uint32_t delayed_wakeup_permille{0};
  std::uint32_t delayed_wakeup_us{200};

  // Multi-site faults (dist/DistRuntime's coordinator injector): per
  // liveness tick, the chance that an up site fails, and that a down
  // site recovers. Both count against max_faults, so budget bisection
  // shrinks site churn like any other fault class.
  std::uint32_t site_fail_permille{0};
  std::uint32_t site_recover_permille{0};

  // Coordinator faults (dist 2PC). The pinned coordinator crash mirrors
  // the pipeline crash: it fires at the Nth arrival at
  // `coord_crash_point` (one of the four kCoord* protocol steps);
  // 0 = never, and it is configuration, not budget. Recovery is rolled
  // per liveness tick while the coordinator is down.
  // decision_force_fail_permille fails the decision-log force (the
  // coordinator still knows the outcome, so it aborts globally); the
  // msg_* knobs model per-message loss and latency on the
  // prepare/decide/ack channels, with lost prepare messages resent up to
  // msg_retries times before the coordinator treats the site as
  // unreachable.
  FaultSite coord_crash_point{FaultSite::kCoordPrePrepare};
  std::uint64_t coord_crash_at_arrival{0};
  std::uint32_t coord_recover_permille{0};
  std::uint32_t decision_force_fail_permille{0};
  std::uint32_t msg_loss_permille{0};
  std::uint32_t msg_latency_permille{0};
  std::uint32_t msg_latency_us{100};
  std::uint32_t msg_retries{2};

  // Probabilistic faults injected after this many have fired are
  // suppressed (the pinned crash is configuration, not budget).
  // kUnlimitedFaults = no cap; 0 = probabilistic faults off. Plan
  // minimization bisects this to the smallest reproducing prefix.
  std::uint64_t max_faults{kUnlimitedFaults};

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Answers injection-site queries per a FaultPlan. Thread-safe; decisions
/// are lock-free apart from the trace append. Wire one to a Runtime with
/// Runtime::set_fault_injector() — that threads it through the stable
/// log, the commit pipeline and every object's wait path, points the
/// sequence source at the runtime clock, and makes the crash hook
/// Runtime::crash().
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(plan) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Sequence source for trace stamps (normally the runtime's Lamport
  /// clock). Unset = all stamps 0.
  void set_sequence_source(std::function<std::uint64_t()> source) {
    seq_source_ = std::move(source);
  }

  /// Invoked (once, latched) when the pinned pipeline crash fires.
  void set_crash_hook(std::function<void()> hook) {
    crash_hook_ = std::move(hook);
  }

  /// Decision for one force attempt by a flush leader.
  struct ForceDecision {
    bool fail{false};               // transient failure: retry, then give up
    bool torn{false};               // only `stable_prefix` records stabilize
    std::size_t stable_prefix{0};   // valid when torn; < batch_size
    std::uint32_t latency_us{0};    // extra leader latency
    std::uint32_t max_retries{0};   // from the plan, for the caller's loop
    std::uint32_t retry_backoff_us{0};
  };
  [[nodiscard]] ForceDecision on_force(std::size_t batch_size);

  /// Fires the pinned crash if this arrival at `point` is the one the
  /// plan names. Returns true when the hook ran (exactly once ever).
  bool maybe_crash(FaultSite point);

  /// Liveness decisions for the multi-site runtime, rolled once per
  /// (tick, site) by the coordinator in a fixed order. `site_index` is
  /// recorded as the event detail. Both respect the fault budget.
  [[nodiscard]] bool on_site_fail(std::size_t site_index);
  [[nodiscard]] bool on_site_recover(std::size_t site_index);

  /// Fires the pinned coordinator crash if this arrival at `step` (one
  /// of the four kCoord* 2PC protocol steps) is the one the plan names.
  /// Latched separately from the pipeline crash, so a plan can pin both.
  /// Returns true exactly once ever.
  bool on_coord_crash(FaultSite step);

  /// Coordinator recovery roll, once per liveness tick while the
  /// coordinator is down. Respects the fault budget.
  [[nodiscard]] bool on_coord_recover();

  /// Decision-log force roll: true = this force fails and the
  /// coordinator must abort the transaction globally (nothing stable).
  [[nodiscard]] bool on_decision_force();

  /// Fate of one coordinator<->participant message. `channel` is
  /// kMsgPrepare, kMsgDecide or kMsgAck — each channel is its own
  /// arrival stream, so loss on one never perturbs the others.
  struct MsgDecision {
    bool lost{false};
    std::uint32_t latency_us{0};
  };
  [[nodiscard]] MsgDecision on_message(FaultSite channel);

  /// Decision for one blocking-wait round.
  struct WaitDecision {
    bool spurious_timeout{false};
    std::uint32_t extra_delay_us{0};
  };
  [[nodiscard]] WaitDecision on_wait();

  [[nodiscard]] std::uint64_t faults_injected() const {
    return injected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t crashes_fired() const {
    return crashes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t arrivals_at(FaultSite site) const {
    return arrivals_[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t injected_at(FaultSite site) const {
    return injected_by_site_[static_cast<std::size_t>(site)].load(
        std::memory_order_relaxed);
  }

  /// Every injected fault, in injection order.
  [[nodiscard]] std::vector<FaultEvent> trace() const;

  /// The trace as '#'-comment lines (one per fault) that hist/parse.h
  /// skips, so a history dump with the trace appended stays replayable.
  [[nodiscard]] std::string trace_to_string() const;

 private:
  /// The deterministic decision stream for (site, arrival).
  [[nodiscard]] SplitMix64 decision_rng(FaultSite site,
                                        std::uint64_t arrival) const {
    return SplitMix64(plan_.seed ^
                      (0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(site) + 1)) ^
                      (0xbf58476d1ce4e5b9ULL * arrival));
  }

  [[nodiscard]] bool budget_open() const {
    return injected_.load(std::memory_order_relaxed) < plan_.max_faults;
  }

  std::uint64_t next_arrival(FaultSite site) {
    return arrivals_[static_cast<std::size_t>(site)].fetch_add(
               1, std::memory_order_relaxed) +
           1;
  }

  void emit(FaultSite site, std::uint64_t arrival, FaultAction action,
            std::uint64_t detail);

  const FaultPlan plan_;
  std::function<std::uint64_t()> seq_source_;
  std::function<void()> crash_hook_;

  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> arrivals_{};
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> injected_by_site_{};
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<bool> crash_fired_{false};
  std::atomic<bool> coord_crash_fired_{false};

  mutable std::mutex mu_;  // guards trace_
  std::vector<FaultEvent> trace_;
};

}  // namespace argus
