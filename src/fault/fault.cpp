#include "fault/fault.h"

#include <sstream>

namespace argus {

std::string to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kLogForce:
      return "log-force";
    case FaultSite::kLogLeaderLatency:
      return "log-leader-latency";
    case FaultSite::kPreForce:
      return "pre-force";
    case FaultSite::kPostForcePreApply:
      return "post-force-pre-apply";
    case FaultSite::kMidApply:
      return "mid-apply";
    case FaultSite::kPostApplyPreWatermark:
      return "post-apply-pre-watermark";
    case FaultSite::kWaitSpuriousTimeout:
      return "wait-spurious-timeout";
    case FaultSite::kWaitDelayedWakeup:
      return "wait-delayed-wakeup";
    case FaultSite::kSiteFail:
      return "site-fail";
    case FaultSite::kSiteRecover:
      return "site-recover";
    case FaultSite::kCoordPrePrepare:
      return "coord-pre-prepare";
    case FaultSite::kCoordPostPrepare:
      return "coord-post-prepare";
    case FaultSite::kCoordPostDecision:
      return "coord-post-decision";
    case FaultSite::kCoordMidDelivery:
      return "coord-mid-delivery";
    case FaultSite::kCoordRecover:
      return "coord-recover";
    case FaultSite::kDecisionForce:
      return "decision-force";
    case FaultSite::kMsgPrepare:
      return "msg-prepare";
    case FaultSite::kMsgDecide:
      return "msg-decide";
    case FaultSite::kMsgAck:
      return "msg-ack";
  }
  return "?";
}

std::string to_string(FaultAction action) {
  switch (action) {
    case FaultAction::kForceFail:
      return "force-fail";
    case FaultAction::kTornTail:
      return "torn-tail";
    case FaultAction::kLeaderLatency:
      return "leader-latency";
    case FaultAction::kCrash:
      return "crash";
    case FaultAction::kSpuriousTimeout:
      return "spurious-timeout";
    case FaultAction::kDelayedWakeup:
      return "delayed-wakeup";
    case FaultAction::kSiteFail:
      return "site-fail";
    case FaultAction::kSiteRecover:
      return "site-recover";
    case FaultAction::kCoordRecover:
      return "coord-recover";
    case FaultAction::kMsgLoss:
      return "msg-loss";
    case FaultAction::kMsgLatency:
      return "msg-latency";
  }
  return "?";
}

FaultInjector::ForceDecision FaultInjector::on_force(std::size_t batch_size) {
  ForceDecision out;
  out.max_retries = plan_.force_max_retries;
  out.retry_backoff_us = plan_.force_retry_backoff_us;

  const std::uint64_t arrival = next_arrival(FaultSite::kLogForce);
  const std::uint64_t latency_arrival =
      next_arrival(FaultSite::kLogLeaderLatency);

  if (plan_.leader_latency_permille > 0 && budget_open()) {
    SplitMix64 rng =
        decision_rng(FaultSite::kLogLeaderLatency, latency_arrival);
    if (rng.chance(plan_.leader_latency_permille, 1000)) {
      out.latency_us = plan_.leader_latency_us;
      emit(FaultSite::kLogLeaderLatency, latency_arrival,
           FaultAction::kLeaderLatency, out.latency_us);
    }
  }

  if (budget_open()) {
    SplitMix64 rng = decision_rng(FaultSite::kLogForce, arrival);
    if (plan_.force_fail_permille > 0 &&
        rng.chance(plan_.force_fail_permille, 1000)) {
      out.fail = true;
      emit(FaultSite::kLogForce, arrival, FaultAction::kForceFail, 0);
      return out;  // a failed force cannot also be torn
    }
    if (plan_.torn_batch_permille > 0 && batch_size > 0 &&
        rng.chance(plan_.torn_batch_permille, 1000)) {
      out.torn = true;
      out.stable_prefix = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(batch_size)));
      emit(FaultSite::kLogForce, arrival, FaultAction::kTornTail,
           out.stable_prefix);
    }
  }
  return out;
}

bool FaultInjector::maybe_crash(FaultSite point) {
  const std::uint64_t arrival = next_arrival(point);
  if (plan_.crash_at_arrival == 0 || point != plan_.crash_point ||
      arrival != plan_.crash_at_arrival) {
    return false;
  }
  if (crash_fired_.exchange(true, std::memory_order_acq_rel)) return false;
  crashes_.fetch_add(1, std::memory_order_relaxed);
  emit(point, arrival, FaultAction::kCrash,
       static_cast<std::uint64_t>(point));
  if (crash_hook_) crash_hook_();
  return true;
}

bool FaultInjector::on_site_fail(std::size_t site_index) {
  const std::uint64_t arrival = next_arrival(FaultSite::kSiteFail);
  if (plan_.site_fail_permille == 0 || !budget_open()) return false;
  SplitMix64 rng = decision_rng(FaultSite::kSiteFail, arrival);
  if (!rng.chance(plan_.site_fail_permille, 1000)) return false;
  emit(FaultSite::kSiteFail, arrival, FaultAction::kSiteFail, site_index);
  return true;
}

bool FaultInjector::on_site_recover(std::size_t site_index) {
  const std::uint64_t arrival = next_arrival(FaultSite::kSiteRecover);
  if (plan_.site_recover_permille == 0 || !budget_open()) return false;
  SplitMix64 rng = decision_rng(FaultSite::kSiteRecover, arrival);
  if (!rng.chance(plan_.site_recover_permille, 1000)) return false;
  emit(FaultSite::kSiteRecover, arrival, FaultAction::kSiteRecover,
       site_index);
  return true;
}

bool FaultInjector::on_coord_crash(FaultSite step) {
  const std::uint64_t arrival = next_arrival(step);
  if (plan_.coord_crash_at_arrival == 0 || step != plan_.coord_crash_point ||
      arrival != plan_.coord_crash_at_arrival) {
    return false;
  }
  if (coord_crash_fired_.exchange(true, std::memory_order_acq_rel)) {
    return false;
  }
  crashes_.fetch_add(1, std::memory_order_relaxed);
  emit(step, arrival, FaultAction::kCrash, static_cast<std::uint64_t>(step));
  return true;
}

bool FaultInjector::on_coord_recover() {
  const std::uint64_t arrival = next_arrival(FaultSite::kCoordRecover);
  if (plan_.coord_recover_permille == 0 || !budget_open()) return false;
  SplitMix64 rng = decision_rng(FaultSite::kCoordRecover, arrival);
  if (!rng.chance(plan_.coord_recover_permille, 1000)) return false;
  emit(FaultSite::kCoordRecover, arrival, FaultAction::kCoordRecover, 0);
  return true;
}

bool FaultInjector::on_decision_force() {
  const std::uint64_t arrival = next_arrival(FaultSite::kDecisionForce);
  if (plan_.decision_force_fail_permille == 0 || !budget_open()) return false;
  SplitMix64 rng = decision_rng(FaultSite::kDecisionForce, arrival);
  if (!rng.chance(plan_.decision_force_fail_permille, 1000)) return false;
  emit(FaultSite::kDecisionForce, arrival, FaultAction::kForceFail, 0);
  return true;
}

FaultInjector::MsgDecision FaultInjector::on_message(FaultSite channel) {
  MsgDecision out;
  const std::uint64_t arrival = next_arrival(channel);
  if (!budget_open()) return out;
  SplitMix64 rng = decision_rng(channel, arrival);
  if (plan_.msg_loss_permille > 0 &&
      rng.chance(plan_.msg_loss_permille, 1000)) {
    out.lost = true;
    emit(channel, arrival, FaultAction::kMsgLoss, 0);
    return out;  // a lost message has no latency
  }
  if (plan_.msg_latency_permille > 0 &&
      rng.chance(plan_.msg_latency_permille, 1000)) {
    out.latency_us = plan_.msg_latency_us;
    emit(channel, arrival, FaultAction::kMsgLatency, out.latency_us);
  }
  return out;
}

FaultInjector::WaitDecision FaultInjector::on_wait() {
  WaitDecision out;
  const std::uint64_t timeout_arrival =
      next_arrival(FaultSite::kWaitSpuriousTimeout);
  const std::uint64_t delay_arrival =
      next_arrival(FaultSite::kWaitDelayedWakeup);

  if (plan_.spurious_timeout_permille > 0 && budget_open()) {
    SplitMix64 rng =
        decision_rng(FaultSite::kWaitSpuriousTimeout, timeout_arrival);
    if (rng.chance(plan_.spurious_timeout_permille, 1000)) {
      out.spurious_timeout = true;
      emit(FaultSite::kWaitSpuriousTimeout, timeout_arrival,
           FaultAction::kSpuriousTimeout, 0);
      return out;  // the waiter dooms itself; no point also delaying
    }
  }
  if (plan_.delayed_wakeup_permille > 0 && budget_open()) {
    SplitMix64 rng =
        decision_rng(FaultSite::kWaitDelayedWakeup, delay_arrival);
    if (rng.chance(plan_.delayed_wakeup_permille, 1000)) {
      out.extra_delay_us = plan_.delayed_wakeup_us;
      emit(FaultSite::kWaitDelayedWakeup, delay_arrival,
           FaultAction::kDelayedWakeup, out.extra_delay_us);
    }
  }
  return out;
}

void FaultInjector::emit(FaultSite site, std::uint64_t arrival,
                         FaultAction action, std::uint64_t detail) {
  injected_.fetch_add(1, std::memory_order_relaxed);
  injected_by_site_[static_cast<std::size_t>(site)].fetch_add(
      1, std::memory_order_relaxed);
  FaultEvent e;
  e.seq = seq_source_ ? seq_source_() : 0;
  e.site = site;
  e.arrival = arrival;
  e.action = action;
  e.detail = detail;
  const std::scoped_lock lock(mu_);
  trace_.push_back(e);
}

std::vector<FaultEvent> FaultInjector::trace() const {
  const std::scoped_lock lock(mu_);
  return trace_;
}

std::string to_trace_line(const FaultEvent& e) {
  std::ostringstream out;
  out << "# fault seq=" << e.seq << " site=" << to_string(e.site)
      << " arrival=" << e.arrival << " action=" << to_string(e.action)
      << " detail=" << e.detail;
  return out.str();
}

std::string FaultInjector::trace_to_string() const {
  std::ostringstream out;
  for (const FaultEvent& e : trace()) out << to_trace_line(e) << "\n";
  return out.str();
}

}  // namespace argus
