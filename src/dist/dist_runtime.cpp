#include "dist/dist_runtime.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/errors.h"
#include "common/scope_guard.h"
#include "dsched/wait_policy.h"
#include "obs/metrics_registry.h"

namespace argus {

namespace {

/// FNV-1a over the transaction id and variable name: the deterministic
/// replica pick for reads with no site affinity yet. Purely a routing
/// choice — any live readable replica is correct — but it must be a pure
/// function of the transaction so sweep runs replay byte-for-byte.
std::uint64_t replica_hash(ActivityId gid, const std::string& var) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(gid.value);
  for (const char c : var) mix(static_cast<unsigned char>(c));
  return h;
}

}  // namespace

std::vector<std::size_t> DistTxn::participants() const {
  std::vector<std::size_t> out;
  out.reserve(parts_.size());
  for (const auto& [site, part] : parts_) out.push_back(site);
  return out;
}

DistRuntime::DistRuntime(DistOptions options) : options_(options) {
  if (options_.sites == 0) {
    throw UsageError("DistRuntime needs at least one site");
  }
  if (options_.protocol != Protocol::kDynamic &&
      options_.protocol != Protocol::kHybrid) {
    throw UsageError(
        "DistRuntime supports the dynamic and hybrid local atomicity "
        "properties (validate-at-commit protocols cannot hold a 2PC "
        "decision open)");
  }
  sites_.reserve(options_.sites);
  for (std::size_t i = 0; i < options_.sites; ++i) {
    sites_.push_back(std::make_unique<Site>(i, options_.sites,
                                            options_.recorder,
                                            options_.object_id_stride,
                                            options_.wait_policy));
  }
  decision_log_.set_wait_policy(options_.wait_policy);
}

DistRuntime::~DistRuntime() = default;

void DistRuntime::index_replicas(LogicalVar& var) {
  for (const auto& r : var.replicas) {
    replica_by_oid_.emplace(r->object->id(), std::make_pair(&var, r.get()));
  }
}

// --- transactions ------------------------------------------------------

std::shared_ptr<DistTxn> DistRuntime::begin(TxnKind kind) {
  if (kind == TxnKind::kReadOnly &&
      !supports_snapshot_reads(options_.protocol)) {
    // Dynamic atomicity has no snapshot timestamp; audits run as update
    // transactions there, exactly as in the single-site sweeps.
    throw UsageError(
        "read-only distributed transactions require snapshot reads "
        "(hybrid protocol)");
  }
  auto t = std::make_shared<DistTxn>();
  t->gid_ = next_gid();
  t->kind_ = kind;
  t->stamp_ = global_stamp_.load(std::memory_order_acquire);
  begun_.fetch_add(1, std::memory_order_relaxed);
  if (kind == TxnKind::kReadOnly) {
    const std::scoped_lock lock(ro_mu_);
    read_only_gids_.insert(t->gid_);
  }
  return t;
}

void DistRuntime::observe_into(DistTxn& t, Site& s) {
  s.tm().clock().observe(t.stamp_);
}

void DistRuntime::absorb_from(DistTxn& t, Site& s) {
  t.stamp_ = std::max(t.stamp_, s.tm().clock().now());
}

DistTxn::Part& DistRuntime::ensure_part(DistTxn& t, Site& s) {
  const auto it = t.parts_.find(s.index());
  if (it != t.parts_.end()) return it->second;
  // Lamport carry: the site's clock absorbs everything this transaction
  // has seen before the participant begins, so cross-site causality is
  // reflected in every timestamp the participant draws.
  observe_into(t, s);
  std::shared_ptr<Transaction> txn;
  if (t.kind_ == TxnKind::kReadOnly) {
    if (t.snapshot_ts_ == kNoTimestamp) {
      // First participant fixes the global snapshot: a fresh timestamp,
      // watermark-covered locally.
      txn = s.tm().begin_as(t.gid_, TxnKind::kReadOnly);
      t.snapshot_ts_ = txn->start_ts();
    } else {
      // Later participants adopt it (begin_as waits until this site's
      // watermark covers it, preserving §4.3.3's snapshot invariant at
      // every site the activity visits).
      txn = s.tm().begin_as(t.gid_, TxnKind::kReadOnly, t.snapshot_ts_);
    }
  } else {
    txn = s.tm().begin_as(t.gid_, TxnKind::kUpdate);
  }
  absorb_from(t, s);
  const auto [ins, inserted] =
      t.parts_.emplace(s.index(), DistTxn::Part{std::move(txn)});
  return ins->second;
}

Value DistRuntime::read(DistTxn& t, const std::string& var,
                        const Operation& op) {
  if (t.finished_) {
    throw UsageError("read on finished distributed transaction " +
                     to_string(t.gid_));
  }
  LogicalVar* v = placement_.find(var);
  if (v == nullptr) throw UsageError("unknown logical variable '" + var + "'");

  // Available copies: any live replica whose readable flag is set.
  std::vector<Replica*> candidates;
  for (const auto& r : v->replicas) {
    if (r->site->up() && r->readable.load(std::memory_order_acquire)) {
      candidates.push_back(r.get());
    }
  }
  if (candidates.empty()) abort_unavailable(t);

  // Routing preference: a replica this transaction already wrote (so its
  // own intentions are visible), then a site it already runs on, then a
  // deterministic hash pick.
  Replica* pick = nullptr;
  if (const auto wt = t.write_targets_.find(v); wt != t.write_targets_.end()) {
    for (Replica* r : candidates) {
      if (wt->second.contains(r->site->index())) {
        pick = r;
        break;
      }
    }
  }
  if (pick == nullptr) {
    for (Replica* r : candidates) {
      if (t.parts_.contains(r->site->index())) {
        pick = r;
        break;
      }
    }
  }
  if (pick == nullptr) {
    pick = candidates[replica_hash(t.gid_, var) % candidates.size()];
  }

  Site& s = *pick->site;
  DistTxn::Part& part = ensure_part(t, s);
  observe_into(t, s);
  const Value result = pick->object->invoke(*part.txn, op);
  absorb_from(t, s);
  return result;
}

Value DistRuntime::write(DistTxn& t, const std::string& var,
                         const Operation& op) {
  if (t.finished_) {
    throw UsageError("write on finished distributed transaction " +
                     to_string(t.gid_));
  }
  if (t.kind_ == TxnKind::kReadOnly) {
    throw UsageError("read-only distributed transaction invoked a write");
  }
  LogicalVar* v = placement_.find(var);
  if (v == nullptr) throw UsageError("unknown logical variable '" + var + "'");

  // Write all available copies. The target set is pinned at the first
  // write to this variable: a site that recovers mid-transaction must not
  // receive only a suffix of the variable's operations. If a pinned
  // target has since failed, its participant is doomed and the invoke
  // below unwinds the transaction — the failure rule.
  std::vector<Replica*> targets;
  if (const auto wt = t.write_targets_.find(v); wt != t.write_targets_.end()) {
    for (const std::size_t idx : wt->second) {
      if (Replica* r = v->replica_at(idx)) targets.push_back(r);
    }
  } else {
    for (const auto& r : v->replicas) {
      if (r->site->up()) targets.push_back(r.get());
    }
    if (targets.empty()) abort_unavailable(t);
    auto& pinned = t.write_targets_[v];
    for (Replica* r : targets) pinned.insert(r->site->index());
  }

  std::optional<Value> first;
  for (Replica* r : targets) {
    Site& s = *r->site;
    DistTxn::Part& part = ensure_part(t, s);
    observe_into(t, s);
    const Value result = r->object->invoke(*part.txn, op);
    absorb_from(t, s);
    if (!first.has_value()) {
      first = result;
    } else if (!(*first == result)) {
      replica_divergence_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (v->replicated) {
    t.replicated_writes_.emplace_back(v, LoggedOp{op, *first});
  }
  return *first;
}

void DistRuntime::abort(const std::shared_ptr<DistTxn>& t) {
  if (t->finished_) return;
  abort_parts(*t, AbortReason::kUser);
  aborts_.fetch_add(1, std::memory_order_relaxed);
}

void DistRuntime::abort_parts(DistTxn& t, AbortReason reason) {
  t.finished_ = true;
  for (auto& [idx, part] : t.parts_) {
    Site& s = *sites_[idx];
    // Same Lamport carry as the commit paths: the abort event at each
    // site must sequence after every invoke the activity made anywhere,
    // or the merged history shows an operation after the abort.
    if (s.up()) observe_into(t, s);
    if (part.prepared) {
      const bool healthy =
          s.up() && part.txn->active() && !part.txn->doomed();
      if (healthy) {
        s.tm().abort_prepared(part.txn, reason);
      } else {
        // The site crashed after preparing. Retire the volatile state
        // silently; if the site has already recovered the in-doubt record
        // is resolvable now (the global outcome is abort), otherwise it
        // stays in the stable log for recovery's presumed abort.
        s.tm().detach_prepared(part.txn);
        if (s.up()) s.tm().log().drop_prepared(t.gid_);
      }
    } else {
      s.tm().abort(part.txn, reason);
    }
    if (s.up()) absorb_from(t, s);
  }
}

void DistRuntime::abort_unavailable(DistTxn& t) {
  abort_parts(t, AbortReason::kUnavailable);
  count_abort(AbortReason::kUnavailable);
  throw TransactionAborted(t.gid_, AbortReason::kUnavailable);
}

void DistRuntime::count_abort(AbortReason reason) {
  aborts_.fetch_add(1, std::memory_order_relaxed);
  if (reason == AbortReason::kUnavailable) {
    unavailable_aborts_.fetch_add(1, std::memory_order_relaxed);
  }
}

void DistRuntime::bump_global_stamp(std::uint64_t v) {
  std::uint64_t cur = global_stamp_.load(std::memory_order_relaxed);
  while (cur < v && !global_stamp_.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

void DistRuntime::commit(const std::shared_ptr<DistTxn>& t) {
  if (t->finished_) {
    throw UsageError("commit of finished distributed transaction " +
                     to_string(t->gid_));
  }
  if (t->parts_.empty()) {
    t->finished_ = true;
    return;
  }
  if (t->kind_ == TxnKind::kReadOnly) {
    commit_read_only(*t);
    return;
  }

  // The failure rule: a transaction that ran at a site which has since
  // failed cannot commit — its participant there was doomed by the
  // crash, so its intentions are gone. Abort globally before any
  // participant records a commit event.
  for (auto& [idx, part] : t->parts_) {
    Site& s = *sites_[idx];
    if (!s.up() || !part.txn->active() || part.txn->doomed()) {
      AbortReason reason = AbortReason::kUnavailable;
      if (s.up() && part.txn->doomed() &&
          part.txn->doom_reason() != AbortReason::kCrash) {
        reason = part.txn->doom_reason();
      }
      abort_parts(*t, reason);
      count_abort(reason);
      throw TransactionAborted(t->gid_, reason);
    }
  }

  if (t->parts_.size() == 1) {
    const auto it = t->parts_.begin();
    commit_one_phase(*t, it->first, it->second);
  } else {
    commit_two_phase(*t);
  }
}

void DistRuntime::commit_read_only(DistTxn& t) {
  // A cross-site read-only commit must be all-or-nothing too: commit and
  // abort events are tracked per activity across the merged history, so
  // committing at one site and aborting at another would make it
  // ill-formed. Check every participant first (nothing recorded yet, so
  // a global abort is still clean), then run the no-fail commit phase —
  // a read-only commit is pure event recording, with no log force, no
  // timestamp and no crash window.
  t.finished_ = true;
  for (auto& [idx, part] : t.parts_) {
    Site& s = *sites_[idx];
    if (!s.up() || !part.txn->active() || part.txn->doomed()) {
      AbortReason reason = AbortReason::kUnavailable;
      if (s.up() && part.txn->doomed() &&
          part.txn->doom_reason() != AbortReason::kCrash) {
        reason = part.txn->doom_reason();
      }
      abort_parts(t, reason);
      count_abort(reason);
      throw TransactionAborted(t.gid_, reason);
    }
  }
  for (auto& [idx, part] : t.parts_) {
    // Lamport carry into the commit events too: the stamp has absorbed
    // every site this activity read at, so each site's commit event
    // sequences after every invoke of the activity — otherwise a commit
    // recorded at a lagging clock could sort before an invoke made at a
    // busier site and the merged history would be ill-formed.
    observe_into(t, *sites_[idx]);
    sites_[idx]->tm().commit_read_only(part.txn);
    absorb_from(t, *sites_[idx]);
  }
  read_only_commits_.fetch_add(1, std::memory_order_relaxed);
}

void DistRuntime::commit_one_phase(DistTxn& t, std::size_t site_index,
                                   DistTxn::Part& part) {
  // A single participant commits through its site's ordinary pipeline —
  // no coordinator step at all, which is what keeps disjoint per-site
  // workloads scaling with the site count.
  t.finished_ = true;
  Site& s = *sites_[site_index];
  try {
    s.tm().commit(part.txn);
  } catch (const TransactionAborted& e) {
    count_abort(e.reason());
    throw;
  }
  const Timestamp decided = part.txn->commit_ts();
  bump_global_stamp(decided);
  register_commit(t, decided, {site_index});
  one_phase_commits_.fetch_add(1, std::memory_order_relaxed);
}

void DistRuntime::commit_two_phase(DistTxn& t) {
  coord_yield();
  // No coordinator, no 2PC: presumed abort only works while there is a
  // decision list to ask. Refuse up front, before any participant
  // prepares — an unprepared abort leaves nothing in doubt.
  const std::optional<std::uint64_t> epoch = enter_2pc(t.gid_);
  if (!epoch.has_value()) {
    coord_unavailable_aborts_.fetch_add(1, std::memory_order_relaxed);
    abort_parts(t, AbortReason::kUnavailable);
    count_abort(AbortReason::kUnavailable);
    throw TransactionAborted(t.gid_, AbortReason::kUnavailable);
  }
  // However this 2PC ends, it leaves the in-flight table (and, if it is
  // the last one out, runs the catch-ups deferred behind it).
  const auto leave = on_scope_exit([&] { leave_2pc(t.gid_); });
  FaultInjector* coord = coordinator_injector_.get();

  // A pinned coordinator crash before any prepare: a clean global abort
  // (no participant holds anything stable yet).
  if (coord != nullptr && coord->on_coord_crash(FaultSite::kCoordPrePrepare)) {
    coordinator_died(t, std::nullopt);  // throws
  }

  // Phase 1: prepare at every participant, in ascending site order. Each
  // prepare validates locally, registers a proposed commit timestamp in
  // the site clock's in-flight table, and forces a prepared record.
  // tick_site_faults() between protocol steps puts mid-commit site
  // failures inside the sweep's search space.
  Timestamp decision = kNoTimestamp;
  std::optional<AbortReason> veto;
  for (auto& [idx, part] : t.parts_) {
    tick_site_faults();
    Site& s = *sites_[idx];
    if (!s.up() || !part.txn->active() || part.txn->doomed()) {
      veto = AbortReason::kUnavailable;
      break;
    }
    if (!send_message(FaultSite::kMsgPrepare)) {
      // Every prepare attempt to this participant was lost: treat it as
      // unreachable and abort globally — it never prepared, so nothing
      // is in doubt.
      veto = AbortReason::kUnavailable;
      break;
    }
    const std::optional<Timestamp> proposal = s.tm().prepare_2pc(part.txn);
    if (!proposal.has_value()) {
      // The local transaction is already aborted (validation veto, log
      // force failure, or a pinned crash downed the site mid-prepare).
      veto = s.up() ? AbortReason::kValidation : AbortReason::kUnavailable;
      break;
    }
    part.prepared = true;
    part.proposal = *proposal;
    decision = std::max(decision, *proposal);
  }

  if (veto.has_value()) {
    abort_parts(t, *veto);
    count_abort(*veto);
    throw TransactionAborted(t.gid_, *veto);
  }

  // A pinned coordinator crash after every prepare but before the
  // decision: the classic in-doubt window. Nothing stable names the gid
  // yet, so the global outcome is (presumed) abort — but no participant
  // can learn that until the coordinator returns.
  if (coord != nullptr && coord->on_coord_crash(FaultSite::kCoordPostPrepare)) {
    coordinator_died(t, std::nullopt);  // throws
  }

  // Decision: commit at G = max(proposals). Disjoint clock residue
  // classes make G globally unique, and G >= every local proposal, so
  // each participant's re-stamp is an order-preserving move. The
  // decision is force-written to the DecisionLog *before* any delivery
  // (write-ahead for the decision itself): that is what lets a
  // participant — or the coordinator — that fails from here on resolve
  // the in-doubt record later (presumed abort for everything not
  // logged). A coordinator that died since this 2PC entered (another
  // 2PC's crash) must not decide: the outcome is presumed abort.
  tick_site_faults();
  coord_yield();
  if (!epoch_current(*epoch)) coordinator_died(t, std::nullopt);  // throws
  if (options_.durable_decisions &&
      !decision_log_.force_decision(t.gid_, decision, t.participants())) {
    // The decision force failed: nothing stable names the gid, so the
    // only safe outcome is a global abort — the coordinator must never
    // deliver a commit it could not remember.
    abort_parts(t, AbortReason::kIoError);
    count_abort(AbortReason::kIoError);
    throw TransactionAborted(t.gid_, AbortReason::kIoError);
  }
  {
    // A crash between the epoch check and here loses the cache entry
    // with the rest of the commit list; the stable decision survives
    // for recover_coordinator() to replay.
    const std::scoped_lock lock(decisions_mu_);
    if (epoch_current(*epoch)) decisions_.emplace(t.gid_, decision);
  }

  // From here the transaction IS committed — the decision is stable
  // (and cached on the commit list): whatever fails below, recovery and
  // the termination protocol deliver it everywhere eventually. The
  // catalog entry is registered now; delivery is marked per site as
  // phase 2 actually reaches each one.
  t.finished_ = true;
  bump_global_stamp(decision);
  register_commit(t, decision, {});

  if (coord != nullptr && coord->on_coord_crash(FaultSite::kCoordPostDecision)) {
    // Crash post-decision, pre-delivery: committed, and nobody was told.
    // Every prepared participant is stranded in doubt.
    coordinator_died(t, decision);
    two_pc_commits_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Phase 2: deliver, in ascending site order — the order that keeps
  // concurrent deliveries' turn waits acyclic (DESIGN.md §4.10). A
  // participant that failed keeps its prepared record for recovery; one
  // that failed and already recovered is resolved right here.
  bool crashed_mid_delivery = false;
  std::size_t delivered = 0;
  for (auto& [idx, part] : t.parts_) {
    if (delivered > 0 && coord != nullptr &&
        coord->on_coord_crash(FaultSite::kCoordMidDelivery)) {
      crashed_mid_delivery = true;
      break;
    }
    coord_yield();
    if (!epoch_current(*epoch)) {
      // Another 2PC's coordinator crash: stop delivering, exactly as if
      // the crash had fired here.
      crashed_mid_delivery = true;
      break;
    }
    tick_site_faults();
    Site& s = *sites_[idx];
    if (s.up() && part.txn->active() && !part.txn->doomed()) {
      if (!send_message(FaultSite::kMsgDecide)) {
        // Every decide retry was lost: the participant is unreachable
        // while holding prepared volatile state — fence it (it is a
        // participant failure); recovery promotes its record from the
        // decision list.
        fence(idx);
        s.tm().detach_prepared(part.txn);
        continue;
      }
      s.tm().commit_prepared(part.txn, decision);
      // A pinned crash can down the site mid-apply; the promoted record
      // is stable and the apply completes, so the commit is delivered
      // here either way (recovery replays the same record).
      part.delivered = true;
      ++delivered;
      mark_delivered_site(t, decision, idx);
      if (options_.durable_decisions && send_message(FaultSite::kMsgAck)) {
        decision_log_.ack(t.gid_, idx);
      }
    } else if (s.up()) {
      // Failed after preparing, recovered before delivery.
      s.tm().detach_prepared(part.txn);
      resolve_in_doubt_commit(s, t.gid_, decision);
      part.delivered = true;
      ++delivered;
      mark_delivered_site(t, decision, idx);
      // Its stable log now carries the promoted record, which is exactly
      // what an ack certifies.
      if (options_.durable_decisions && send_message(FaultSite::kMsgAck)) {
        decision_log_.ack(t.gid_, idx);
      }
    } else {
      // Still down: silent retire; the prepared record waits for
      // recovery, which finds the decision on the commit list.
      s.tm().detach_prepared(part.txn);
    }
  }
  if (crashed_mid_delivery) {
    // Crash between two deliveries: some participants committed, the
    // rest are in doubt — the showcase for cooperative termination
    // (surviving peers' stable logs carry the promoted record).
    coordinator_died(t, decision);
    two_pc_commits_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  if (options_.durable_decisions) decision_log_.checkpoint();
  two_pc_commits_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<std::uint64_t> DistRuntime::enter_2pc(ActivityId gid) {
  std::unique_lock lock(decisions_mu_);
  // Catch-ups pending behind the in-flight 2PCs bar new entries until the
  // table drains, so a continuous 2PC stream cannot starve them.
  while (barrier_ || !deferred_catchup_.empty()) coord_wait(lock);
  if (!coordinator_up()) return std::nullopt;
  const std::uint64_t epoch = coord_epoch_.load(std::memory_order_relaxed);
  inflight_.emplace(gid, epoch);
  return epoch;
}

std::size_t DistRuntime::in_flight_2pcs() const {
  const std::scoped_lock lock(decisions_mu_);
  return inflight_.size();
}

void DistRuntime::leave_2pc(ActivityId gid) {
  std::set<std::size_t> pending;
  {
    const std::scoped_lock lock(decisions_mu_);
    inflight_.erase(gid);
    if (inflight_.empty() && !barrier_) {
      pending.swap(deferred_catchup_);
      barrier_ = !pending.empty();
    }
  }
  coord_notify();
  if (pending.empty()) return;
  run_catchups(pending);
  release_exclusive();
}

void DistRuntime::acquire_exclusive() {
  std::set<std::size_t> pending;
  {
    std::unique_lock lock(decisions_mu_);
    while (barrier_) coord_wait(lock);
    barrier_ = true;
    while (!inflight_.empty()) coord_wait(lock);
    pending.swap(deferred_catchup_);
  }
  run_catchups(pending);
}

void DistRuntime::release_exclusive() {
  {
    const std::scoped_lock lock(decisions_mu_);
    barrier_ = false;
  }
  coord_notify();
}

void DistRuntime::run_catchups(const std::set<std::size_t>& pending) {
  for (const std::size_t idx : pending) {
    Site& s = *sites_[idx];
    if (!s.up()) continue;  // failed again; its next recovery catches up
    if (!catch_up(s)) s.set_up(false);
  }
}

void DistRuntime::coord_wait(std::unique_lock<std::mutex>& lock) {
  // Bounded rounds, like every other wait in the runtime; the callers
  // loop on their own predicates.
  if (WaitPolicy* policy = options_.wait_policy) {
    policy->wait_round(LaneHint{WaitPoint::kCoordinator}, &coord_cv_, lock,
                       coord_cv_, std::chrono::microseconds(2000));
  } else {
    coord_cv_.wait_for(lock, std::chrono::milliseconds(2));
  }
}

void DistRuntime::coord_notify() {
  coord_cv_.notify_all();
  if (WaitPolicy* policy = options_.wait_policy) policy->notify(&coord_cv_);
}

void DistRuntime::coord_yield() {
  if (WaitPolicy* policy = options_.wait_policy) {
    policy->yield(LaneHint{WaitPoint::kCoordinator});
  }
}

void DistRuntime::coordinator_died(DistTxn& t,
                                   std::optional<Timestamp> decided) {
  if (!crash_coordinator()) {
    // Already down: another 2PC's crash (or an external one) ended this
    // run.
    coord_epoch_ends_.fetch_add(1, std::memory_order_relaxed);
  }
  t.finished_ = true;
  for (auto& [idx, part] : t.parts_) {
    if (part.delivered) continue;  // already committed locally
    Site& s = *sites_[idx];
    if (part.prepared) {
      if (s.up() && part.txn->active() && !part.txn->doomed()) {
        // A live participant stranded while prepared: fence it. Its
        // volatile intentions must not serve reads, and nothing short of
        // a crash can retire them without a decision.
        fence(idx);
      }
      s.tm().detach_prepared(part.txn);
    } else {
      // Never prepared: a plain local abort is safe and clean.
      if (s.up()) observe_into(t, s);
      s.tm().abort(part.txn, AbortReason::kUnavailable);
      if (s.up()) absorb_from(t, s);
    }
  }
  if (!decided.has_value()) {
    count_abort(AbortReason::kUnavailable);
    throw TransactionAborted(t.gid_, AbortReason::kUnavailable);
  }
}

bool DistRuntime::send_message(FaultSite channel) {
  FaultInjector* inj = coordinator_injector_.get();
  if (inj == nullptr) return true;
  // Prepare and decide messages are resent on loss; an ack is not (a
  // lost ack merely leaves the decision on the log until the next
  // ack-table sync re-derives it from the participant's stable log).
  const std::uint32_t retries =
      channel == FaultSite::kMsgAck ? 0 : inj->plan().msg_retries;
  for (std::uint32_t attempt = 0; attempt <= retries; ++attempt) {
    const FaultInjector::MsgDecision d = inj->on_message(channel);
    if (d.latency_us > 0) msg_delays_.fetch_add(1, std::memory_order_relaxed);
    if (!d.lost) return true;
    msgs_lost_.fetch_add(1, std::memory_order_relaxed);
  }
  return false;
}

void DistRuntime::register_commit(DistTxn& t, Timestamp decided,
                                  const std::set<std::size_t>& delivered_sites) {
  if (t.replicated_writes_.empty()) return;
  const std::scoped_lock lock(catalog_mu_);
  for (auto& [var, logged] : t.replicated_writes_) {
    var->writes[decided].push_back(logged);
  }
  // A replica received this commit iff its site was a pinned write
  // target *and* the commit was delivered there. Delivery makes the
  // copy provably current for the variable, which also restores
  // readability after a recovery (the stale-read rule's exit).
  for (const auto& [var, targets] : t.write_targets_) {
    if (!var->replicated) continue;
    for (const auto& r : var->replicas) {
      const std::size_t idx = r->site->index();
      if (targets.contains(idx) && delivered_sites.contains(idx)) {
        r->delivered.insert(decided);
        r->readable.store(true, std::memory_order_release);
      }
    }
  }
}

void DistRuntime::mark_delivered_site(DistTxn& t, Timestamp G,
                                      std::size_t site_index) {
  const std::scoped_lock lock(catalog_mu_);
  for (const auto& [var, targets] : t.write_targets_) {
    if (!var->replicated || !targets.contains(site_index)) continue;
    if (Replica* r = var->replica_at(site_index)) {
      r->delivered.insert(G);
      r->readable.store(true, std::memory_order_release);
    }
  }
}

void DistRuntime::resolve_in_doubt_commit(Site& s, ActivityId gid,
                                          Timestamp decided) {
  CommitLogRecord rec;
  bool found = false;
  for (auto& r : s.tm().log().prepared_records()) {
    if (r.txn == gid) {
      rec = std::move(r);
      found = true;
      break;
    }
  }
  // Recovery may have resolved it already (the decision was recorded
  // before phase 2 began); promote_prepared returning false means the
  // effects are present.
  if (!found || !s.tm().log().promote_prepared(gid, decided)) return;
  s.tm().clock().observe_committed(decided);
  const ReplayContext ctx{rec.txn, decided, rec.start_ts};
  for (const auto& entry : rec.entries) {
    const auto obj = s.runtime().object(entry.object);
    if (obj == nullptr) continue;
    for (const LoggedOp& logged : entry.ops) obj->replay(ctx, logged);
  }
  synthesize_commit_events(s, rec, decided);
  mark_promoted_delivered(rec, decided);
  promoted_commits_.fetch_add(1, std::memory_order_relaxed);
}

void DistRuntime::synthesize_commit_events(Site& s,
                                           const CommitLogRecord& rec,
                                           Timestamp ts) {
  // The record's invoke/respond events were recorded before the crash
  // and survive in the flight recorder; only the commit events are
  // missing (the participant was detached before delivery). Synthesizing
  // them late is safe: a commit event may appear anywhere after the
  // responses, and the timestamp is the activity's decision timestamp at
  // every object. Without them the merged history would show a committed
  // transaction's effects with no commit — exactly the violation the
  // checkers exist to catch.
  EventSink* sink = s.runtime().recorder();
  if (sink == nullptr) return;
  for (const auto& entry : rec.entries) {
    sink->record(options_.protocol == Protocol::kHybrid
                     ? commit_at(entry.object, rec.txn, ts)
                     : argus::commit(entry.object, rec.txn));
  }
}

void DistRuntime::mark_promoted_delivered(const CommitLogRecord& rec,
                                          Timestamp ts) {
  const std::scoped_lock lock(catalog_mu_);
  for (const auto& entry : rec.entries) {
    const auto it = replica_by_oid_.find(entry.object);
    if (it == replica_by_oid_.end()) continue;
    if (!it->second.first->replicated) continue;
    it->second.second->delivered.insert(ts);
  }
}

// --- liveness ----------------------------------------------------------

bool DistRuntime::fail(std::size_t site_index) {
  Site& s = *sites_.at(site_index);
  if (!s.up()) return false;
  s.set_up(false);
  site_fails_.fetch_add(1, std::memory_order_relaxed);
  // Whole-node failure: dooms every local participant (the failure rule)
  // and discards un-forced log records. Prepared records survive — they
  // are what recovery resolves against the coordinator.
  s.runtime().crash();
  return true;
}

bool DistRuntime::recover(std::size_t site_index) {
  Site& s = *sites_.at(site_index);
  if (s.up()) return false;
  bool fenced = false;
  {
    const std::scoped_lock lock(catalog_mu_);
    fenced = fenced_sites_.contains(site_index);
  }

  // (1a) Determine the outcome of every in-doubt prepared record first —
  // read-only, so recovery can refuse atomically. The coordinator's
  // commit list is decisive while it is up: promote what it committed,
  // presume abort for the rest — except a record of a 2PC in flight under
  // the live coordinator, whose outcome is genuinely still open (a 2PC
  // from before a coordinator crash can only end in coordinator_died).
  // With the coordinator down, the cooperative termination protocol
  // queries surviving peers' stable logs instead; a record nobody can
  // resolve blocks the whole recovery — the site stays down and a later
  // recover() retries (normally after the coordinator returns) — because
  // recovering with an undecided record would let the catch-up copier
  // apply catalog writes that a later promotion would replay a second
  // time.
  struct Resolution {
    CommitLogRecord rec;
    std::optional<Timestamp> decided;
    bool in_flight{false};
    bool via_peer{false};
  };
  std::vector<Resolution> resolutions;
  std::size_t unresolved = 0;
  for (auto& rec : s.tm().log().prepared_records()) {
    Resolution r{std::move(rec), std::nullopt, false, false};
    {
      const std::scoped_lock lock(decisions_mu_);
      const auto it = decisions_.find(r.rec.txn);
      if (it != decisions_.end()) {
        r.decided = it->second;
      } else if (const auto open = inflight_.find(r.rec.txn);
                 open != inflight_.end() && epoch_current(open->second)) {
        r.in_flight = true;
      }
    }
    if (!r.decided.has_value() && !r.in_flight && !coordinator_up()) {
      r.decided = query_peers(site_index, r.rec.txn);
      if (r.decided.has_value()) {
        r.via_peer = true;
      } else {
        ++unresolved;
      }
    }
    resolutions.push_back(std::move(r));
  }
  if (unresolved > 0) {
    termination_blocked_.fetch_add(unresolved, std::memory_order_relaxed);
    return false;
  }

  // (1b) Apply the resolutions. Either way each proposal's entry in the
  // clock's in-flight table is released (idempotent), or it would stall
  // every later commit turn at this site forever.
  std::vector<std::pair<CommitLogRecord, Timestamp>> promoted;
  for (auto& r : resolutions) {
    s.tm().clock().finish_commit(r.rec.commit_ts);
    if (r.in_flight) continue;
    if (r.decided.has_value()) {
      if (s.tm().log().promote_prepared(r.rec.txn, *r.decided)) {
        s.tm().clock().observe_committed(*r.decided);
        promoted_commits_.fetch_add(1, std::memory_order_relaxed);
        if (r.via_peer) {
          termination_peer_promotions_.fetch_add(1,
                                                 std::memory_order_relaxed);
        } else if (fenced) {
          termination_promoted_.fetch_add(1, std::memory_order_relaxed);
        }
        // The promoted record in this site's stable log doubles as the
        // delivery ack the coordinator needs before truncating.
        if (options_.durable_decisions && coordinator_up()) {
          decision_log_.ack(r.rec.txn, site_index);
        }
        promoted.emplace_back(std::move(r.rec), *r.decided);
      }
    } else {
      if (s.tm().log().drop_prepared(r.rec.txn)) {
        presumed_aborts_.fetch_add(1, std::memory_order_relaxed);
        if (fenced) {
          termination_presumed_aborts_.fetch_add(1,
                                                 std::memory_order_relaxed);
        }
      }
    }
  }

  // (2) Rebuild every object from the stable log — which now includes
  // the just-promoted records, re-stamped with their decision
  // timestamps, replayed in timestamp order.
  s.runtime().recover();

  // (3) The promoted transactions' commit events were never recorded
  // (the site was down at delivery); synthesize them so per-site and
  // merged histories certify.
  for (const auto& [rec, ts] : promoted) {
    synthesize_commit_events(s, rec, ts);
    mark_promoted_delivered(rec, ts);
  }

  // (4) Stale-read rule: every replicated copy at a recovered site is
  // unreadable until a client write commits to it post-recovery. The
  // catch-up below restores the *state* but deliberately not
  // readability. Sharded copies stay readable — no other copy can have
  // taken writes while this site was down.
  for (const auto& v : placement_.vars()) {
    if (!v->replicated) continue;
    if (Replica* r = v->replica_at(site_index)) {
      r->readable.store(false, std::memory_order_release);
    }
  }

  s.set_up(true);

  // (5) Catch-up: re-apply the catalog writes this site missed, through
  // an ordinary local transaction. Deferred while any 2PC is in flight —
  // its decision timestamp may be below a timestamp drawn here now,
  // which would un-sort the per-object committed logs. The last 2PC out
  // runs it (leave_2pc), and no new 2PC enters until it has.
  bool defer = false;
  {
    const std::scoped_lock lock(decisions_mu_);
    if (!inflight_.empty()) {
      deferred_catchup_.insert(site_index);
      defer = true;
    }
  }
  if (!defer && !catch_up(s)) {
    // The copier was aborted by an injected fault: recovery is atomic,
    // so the site goes back down (still fenced, if it was) and a later
    // recover() retries whole.
    s.set_up(false);
    return false;
  }
  {
    const std::scoped_lock lock(catalog_mu_);
    fenced_sites_.erase(site_index);
  }
  site_recovers_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void DistRuntime::fence(std::size_t site_index) {
  if (fail(site_index)) {
    const std::scoped_lock lock(catalog_mu_);
    fenced_sites_.insert(site_index);
  }
}

std::optional<Timestamp> DistRuntime::query_peers(std::size_t self,
                                                  ActivityId gid) {
  FaultInjector* inj = coordinator_injector_.get();
  std::uint32_t backoff_us = options_.termination_backoff_us;
  for (std::uint32_t attempt = 0;; ++attempt) {
    if (inj != nullptr && inj->on_wait().spurious_timeout) {
      // This status-query round timed out (injected). Back off and
      // retry, up to the bound.
      termination_retries_.fetch_add(1, std::memory_order_relaxed);
      if (attempt >= options_.termination_max_retries) return std::nullopt;
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us *= 2;
      continue;
    }
    for (std::size_t p = 0; p < sites_.size(); ++p) {
      if (p == self || !sites_[p]->up()) continue;
      if (const auto ts = sites_[p]->tm().log().committed_ts(gid)) return ts;
    }
    // A clean round where no surviving peer knows the outcome: further
    // retries bring no new information, so the record stays in doubt.
    return std::nullopt;
  }
}

// --- coordinator failover ----------------------------------------------

bool DistRuntime::crash_coordinator() {
  if (!coordinator_up_.exchange(false, std::memory_order_acq_rel)) {
    return false;
  }
  coord_crashes_.fetch_add(1, std::memory_order_relaxed);
  {
    // The volatile commit list dies with the coordinator; with
    // durable_decisions the stable DecisionLog is the recovery source,
    // without it the decisions are simply gone (the failure mode the log
    // exists to close). The new epoch closes every open decision: each
    // in-flight 2PC sees it at its next step and ends in
    // coordinator_died(), and until it has, its entry in the in-flight
    // table keeps recover_coordinator() waiting.
    const std::scoped_lock lock(decisions_mu_);
    decisions_.clear();
    coord_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  decision_log_.crash();
  return true;
}

bool DistRuntime::recover_coordinator() {
  if (coordinator_up()) return false;
  // Every 2PC that entered under the dead coordinator must have ended
  // before the commit list is rebuilt: a late decision force is stable
  // and has to be in the replay.
  acquire_exclusive();
  const auto release = on_scope_exit([this] { release_exclusive(); });
  if (coordinator_up()) return false;
  {
    const std::scoped_lock lock(decisions_mu_);
    decisions_.clear();
    for (const DecisionLog::Decision& d : decision_log_.replay()) {
      decisions_.emplace(d.gid, d.decision);
    }
    coordinator_up_.store(true, std::memory_order_release);
  }
  coord_recovers_.fetch_add(1, std::memory_order_relaxed);
  // Re-sync the ack table lost in the crash from the participants' own
  // stable logs, and truncate what every participant already has.
  if (options_.durable_decisions) sync_acks();
  return true;
}

std::size_t DistRuntime::run_termination_protocol() {
  // The round runs with no 2PC in flight: every record it resolves has a
  // final answer on the commit list or in a peer's log.
  acquire_exclusive();
  const auto release = on_scope_exit([this] { release_exclusive(); });
  std::set<std::size_t> fenced;
  {
    const std::scoped_lock lock(catalog_mu_);
    fenced = fenced_sites_;
  }
  std::size_t resolved = 0;
  if (!fenced.empty()) {
    termination_rounds_.fetch_add(1, std::memory_order_relaxed);
    for (const std::size_t idx : fenced) {
      Site& s = *sites_[idx];
      if (s.up()) {
        // Recovered through another path meanwhile.
        const std::scoped_lock lock(catalog_mu_);
        fenced_sites_.erase(idx);
        continue;
      }
      const std::size_t in_doubt = s.tm().log().prepared_records().size();
      // recover() runs the cooperative termination for the site's records
      // (decisive against the commit list when the coordinator is up, peer
      // queries with retry + backoff when it is not) and refuses — leaving
      // the site down and fenced — if any record stays unresolvable.
      if (recover(idx)) resolved += in_doubt;
    }
  }
  // Even with nothing fenced, the round doubles as the coordinator's lazy
  // ack collection: acks lost on the wire are re-derived from the
  // participants' own stable logs, and fully-acknowledged decisions are
  // truncated — which is what lets drivers assert the decision log drains
  // once every site is up.
  if (coordinator_up() && options_.durable_decisions) sync_acks();
  return resolved;
}

void DistRuntime::sync_acks() {
  for (const DecisionLog::Decision& d : decision_log_.replay()) {
    for (const std::size_t p : d.participants) {
      if (p >= sites_.size() || !sites_[p]->up()) continue;
      if (sites_[p]->tm().log().committed_ts(d.gid).has_value()) {
        decision_log_.ack(d.gid, p);
      }
    }
  }
  decision_log_.checkpoint();
}

bool DistRuntime::catch_up(Site& s) {
  struct Missing {
    Timestamp ts{kNoTimestamp};
    std::vector<LoggedOp> ops;
    Replica* replica{nullptr};
  };
  std::vector<Missing> missing;
  {
    const std::scoped_lock lock(catalog_mu_);
    for (const auto& v : placement_.vars()) {
      if (!v->replicated) continue;
      Replica* r = v->replica_at(s.index());
      if (r == nullptr) continue;
      for (const auto& [ts, ops] : v->writes) {
        if (!r->delivered.contains(ts)) missing.push_back({ts, ops, r});
      }
    }
  }
  if (missing.empty()) return true;
  std::sort(missing.begin(), missing.end(),
            [](const Missing& a, const Missing& b) { return a.ts < b.ts; });

  // The copier is an ordinary update transaction in the formal model —
  // fresh activity id, normal invoke/respond/commit events — so the
  // certified histories need no special case for it. Re-applying in
  // origin-commit-timestamp order on a replica that has everything below
  // the first missed write reproduces each operation's original state,
  // so logged results match (divergence is counted if they don't).
  std::shared_ptr<Transaction> txn;
  std::uint64_t applied = 0;
  try {
    txn = s.tm().begin_as(next_gid(), TxnKind::kUpdate);
    for (const Missing& m : missing) {
      for (const LoggedOp& logged : m.ops) {
        const Value result = m.replica->object->invoke(*txn, logged.op);
        if (!(result == logged.result)) {
          replica_divergence_.fetch_add(1, std::memory_order_relaxed);
        }
        ++applied;
      }
    }
    s.tm().commit(txn);
  } catch (const TransactionAborted&) {
    if (txn != nullptr) s.tm().abort(txn);
    return false;
  }
  catchup_txns_.fetch_add(1, std::memory_order_relaxed);
  catchup_ops_.fetch_add(applied, std::memory_order_relaxed);
  const std::scoped_lock lock(catalog_mu_);
  for (const Missing& m : missing) m.replica->delivered.insert(m.ts);
  return true;
}

void DistRuntime::set_fault_plan(const FaultPlan& plan) {
  // Coordinator injector: decides site fail/recover per liveness tick.
  // Its sequence source is the deployment-wide clock maximum, so fault
  // trace lines interleave faithfully with the merged event trace.
  auto coord = std::make_shared<FaultInjector>(plan);
  coord->set_sequence_source([this] {
    std::uint64_t m = 0;
    for (const auto& s : sites_) m = std::max(m, s->tm().clock().now());
    return m;
  });
  coordinator_injector_ = std::move(coord);
  // Decision-log forces consult the coordinator injector too
  // (FaultSite::kDecisionForce — a coordinator-side storage fault).
  decision_log_.set_fault_injector(coordinator_injector_.get());

  // Per-site injectors: derived seeds (distinct fault streams per site),
  // site churn zeroed (that's the coordinator's job), and the pinned
  // pipeline crash re-aimed at fail(site) — a node that crashes inside
  // its commit pipeline is a site failure, not a private restart.
  site_injectors_.clear();
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    FaultPlan local = plan;
    local.seed = plan.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    local.site_fail_permille = 0;
    local.site_recover_permille = 0;
    auto inj = std::make_shared<FaultInjector>(local);
    // set_fault_injector installs runtime().crash() as the crash hook;
    // override it after, so the pinned crash goes through fail().
    sites_[i]->runtime().set_fault_injector(inj);
    inj->set_crash_hook([this, i] { fail(i); });
    site_injectors_.push_back(std::move(inj));
  }
}

void DistRuntime::tick_site_faults() {
  FaultInjector* inj = coordinator_injector_.get();
  if (inj == nullptr) return;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i]->up()) {
      if (inj->on_site_fail(i)) fail(i);
    } else {
      if (inj->on_site_recover(i)) recover(i);
    }
  }
  if (!coordinator_up()) {
    bool in_2pc = false;
    {
      const std::scoped_lock lock(decisions_mu_);
      in_2pc = !inflight_.empty();
    }
    // recover_coordinator() waits for the in-flight table to drain, so
    // it must not run from a tick inside a 2PC — and the coordinator can
    // be down mid-2PC: another thread's crash_coordinator() leaves every
    // in-flight 2PC running until its next epoch check.
    if (!in_2pc && inj->on_coord_recover()) recover_coordinator();
  }
}

// --- observation -------------------------------------------------------

History DistRuntime::merged_history() const {
  std::vector<std::pair<std::pair<std::uint64_t, std::size_t>, Event>> all;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    FlightRecorder* fr = sites_[i]->runtime().flight_recorder();
    if (fr == nullptr) continue;
    for (auto& se : fr->sequenced_snapshot()) {
      all.emplace_back(std::make_pair(se.seq, i), std::move(se.event));
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  History h;
  for (auto& [key, e] : all) h.append(std::move(e));
  return h;
}

std::string DistRuntime::merged_trace() const {
  struct Line {
    std::uint64_t seq{0};
    std::size_t rank{0};
    std::string text;
  };
  std::vector<Line> lines;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const std::string tag = "site" + std::to_string(i);
    FlightRecorder* fr = sites_[i]->runtime().flight_recorder();
    if (fr != nullptr) {
      for (const auto& se : fr->sequenced_snapshot()) {
        lines.push_back({se.seq, i, tag + ": " + to_string(se.event)});
      }
    }
    if (i < site_injectors_.size() && site_injectors_[i] != nullptr) {
      for (const FaultEvent& fe : site_injectors_[i]->trace()) {
        // '#'-prefixed so hist/parse.h skips fault lines before the
        // site-tag stripping even looks at them.
        lines.push_back({fe.seq, i, "# " + tag + " " + to_trace_line(fe).substr(2)});
      }
    }
  }
  if (coordinator_injector_ != nullptr) {
    for (const FaultEvent& fe : coordinator_injector_->trace()) {
      lines.push_back(
          {fe.seq, sites_.size(), "# coord " + to_trace_line(fe).substr(2)});
    }
  }
  std::stable_sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
    return a.seq != b.seq ? a.seq < b.seq : a.rank < b.rank;
  });
  std::string out;
  for (const Line& l : lines) {
    out += l.text;
    out += '\n';
  }
  return out;
}

std::unordered_set<ActivityId> DistRuntime::read_only_activities() const {
  const std::scoped_lock lock(ro_mu_);
  return read_only_gids_;
}

std::vector<DistRuntime::DumpEntry> DistRuntime::dump(const Operation& op) {
  std::vector<DumpEntry> out;
  for (const auto& s : sites_) {
    if (!s->up()) continue;
    std::vector<std::pair<const LogicalVar*, Replica*>> local;
    for (const auto& v : placement_.vars()) {
      if (Replica* r = v->replica_at(s->index())) local.emplace_back(v.get(), r);
    }
    if (local.empty()) continue;
    const std::size_t mark = out.size();
    try {
      // One administrative transaction per site, querying every local
      // replica — readable or not (the classic dump() bypasses the
      // stale-read rule). Recorded and certified like any transaction.
      const auto txn = s->tm().begin_as(next_gid(), TxnKind::kUpdate);
      for (const auto& [var, r] : local) {
        out.push_back({var->name, s->index(), r->object->invoke(*txn, op)});
      }
      s->tm().commit(txn);
    } catch (const TransactionAborted&) {
      // An injected fault aborted the probe; drop its partial answers.
      out.resize(mark);
    }
  }
  return out;
}

DistStats DistRuntime::stats() const {
  DistStats out;
  out.begun = begun_.load(std::memory_order_relaxed);
  out.one_phase_commits = one_phase_commits_.load(std::memory_order_relaxed);
  out.two_pc_commits = two_pc_commits_.load(std::memory_order_relaxed);
  out.read_only_commits = read_only_commits_.load(std::memory_order_relaxed);
  out.aborts = aborts_.load(std::memory_order_relaxed);
  out.unavailable_aborts =
      unavailable_aborts_.load(std::memory_order_relaxed);
  out.site_fails = site_fails_.load(std::memory_order_relaxed);
  out.site_recovers = site_recovers_.load(std::memory_order_relaxed);
  out.presumed_aborts = presumed_aborts_.load(std::memory_order_relaxed);
  out.promoted_commits = promoted_commits_.load(std::memory_order_relaxed);
  out.catchup_txns = catchup_txns_.load(std::memory_order_relaxed);
  out.catchup_ops = catchup_ops_.load(std::memory_order_relaxed);
  out.replica_divergence =
      replica_divergence_.load(std::memory_order_relaxed);
  out.coord_crashes = coord_crashes_.load(std::memory_order_relaxed);
  out.coord_recovers = coord_recovers_.load(std::memory_order_relaxed);
  out.coord_unavailable_aborts =
      coord_unavailable_aborts_.load(std::memory_order_relaxed);
  out.coord_epoch_ends = coord_epoch_ends_.load(std::memory_order_relaxed);
  const DecisionLog::Stats dl = decision_log_.stats();
  out.decisions_logged = dl.logged;
  out.decision_force_failures = dl.force_failures;
  out.decisions_truncated = dl.truncated;
  out.msgs_lost = msgs_lost_.load(std::memory_order_relaxed);
  out.msg_delays = msg_delays_.load(std::memory_order_relaxed);
  out.termination_rounds = termination_rounds_.load(std::memory_order_relaxed);
  out.termination_promoted =
      termination_promoted_.load(std::memory_order_relaxed);
  out.termination_peer_promotions =
      termination_peer_promotions_.load(std::memory_order_relaxed);
  out.termination_presumed_aborts =
      termination_presumed_aborts_.load(std::memory_order_relaxed);
  out.termination_retries =
      termination_retries_.load(std::memory_order_relaxed);
  out.termination_blocked =
      termination_blocked_.load(std::memory_order_relaxed);
  return out;
}

void DistRuntime::register_metrics(MetricsRegistry& registry) {
  static constexpr struct {
    const char* name;
    const char* help;
    const char* type;
  } kMetrics[] = {
      {"argus_dist_txns_begun_total", "Distributed transactions begun",
       "counter"},
      {"argus_dist_one_phase_commits_total",
       "Single-participant commits through the local pipeline", "counter"},
      {"argus_dist_two_pc_commits_total", "Two-phase commits decided commit",
       "counter"},
      {"argus_dist_read_only_commits_total",
       "Cross-site read-only transactions committed", "counter"},
      {"argus_dist_aborts_total", "Distributed transactions aborted",
       "counter"},
      {"argus_dist_unavailable_aborts_total",
       "Aborts because no copy or participant was available", "counter"},
      {"argus_dist_site_fails_total", "Site failures", "counter"},
      {"argus_dist_site_recovers_total", "Completed site recoveries",
       "counter"},
      {"argus_dist_presumed_aborts_total",
       "In-doubt prepared records dropped at recovery (presumed abort)",
       "counter"},
      {"argus_dist_promoted_commits_total",
       "In-doubt prepared records promoted to commit", "counter"},
      {"argus_dist_catchup_txns_total", "Catch-up copier transactions",
       "counter"},
      {"argus_dist_catchup_ops_total",
       "Operations re-applied by the catch-up copier", "counter"},
      {"argus_dist_replica_divergence_total",
       "Replica result disagreements observed", "counter"},
      {"argus_dist_coord_crashes_total", "Coordinator crashes", "counter"},
      {"argus_dist_coord_recovers_total", "Coordinator failovers completed",
       "counter"},
      {"argus_dist_coord_unavailable_aborts_total",
       "2PC attempts refused because the coordinator was down", "counter"},
      {"argus_dist_coord_epoch_ends_total",
       "In-flight 2PCs ended by another 2PC's coordinator crash", "counter"},
      {"argus_dist_decisions_logged_total",
       "Commit decisions force-written to the decision log", "counter"},
      {"argus_dist_decision_force_failures_total",
       "Injected decision-log force failures (each aborts its 2PC)",
       "counter"},
      {"argus_dist_decisions_truncated_total",
       "Fully-acknowledged decisions checkpointed off the log", "counter"},
      {"argus_dist_msgs_lost_total", "Coordinator messages lost (injected)",
       "counter"},
      {"argus_dist_msg_delays_total",
       "Coordinator messages delayed (injected)", "counter"},
      {"argus_dist_termination_rounds_total",
       "Cooperative termination rounds run", "counter"},
      {"argus_dist_termination_promoted_total",
       "Fenced in-doubt records promoted via the recovered commit list",
       "counter"},
      {"argus_dist_termination_peer_promotions_total",
       "In-doubt records promoted via a surviving peer's stable log",
       "counter"},
      {"argus_dist_termination_presumed_aborts_total",
       "Fenced in-doubt records resolved by presumed abort", "counter"},
      {"argus_dist_termination_retries_total",
       "Termination query rounds wasted on injected timeouts", "counter"},
      {"argus_dist_termination_blocked_total",
       "In-doubt records left unresolved by a termination attempt",
       "counter"},
      {"argus_dist_decisions_outstanding",
       "Stable decisions awaiting full acknowledgement", "gauge"},
  };
  for (const auto& m : kMetrics) registry.describe(m.name, m.help, m.type);
  registry.add_collector([this] {
    const DistStats s = stats();
    std::vector<MetricSample> out;
    const auto add = [&out](const char* name, std::uint64_t v) {
      out.push_back({name, {}, static_cast<double>(v)});
    };
    add("argus_dist_txns_begun_total", s.begun);
    add("argus_dist_one_phase_commits_total", s.one_phase_commits);
    add("argus_dist_two_pc_commits_total", s.two_pc_commits);
    add("argus_dist_read_only_commits_total", s.read_only_commits);
    add("argus_dist_aborts_total", s.aborts);
    add("argus_dist_unavailable_aborts_total", s.unavailable_aborts);
    add("argus_dist_site_fails_total", s.site_fails);
    add("argus_dist_site_recovers_total", s.site_recovers);
    add("argus_dist_presumed_aborts_total", s.presumed_aborts);
    add("argus_dist_promoted_commits_total", s.promoted_commits);
    add("argus_dist_catchup_txns_total", s.catchup_txns);
    add("argus_dist_catchup_ops_total", s.catchup_ops);
    add("argus_dist_replica_divergence_total", s.replica_divergence);
    add("argus_dist_coord_crashes_total", s.coord_crashes);
    add("argus_dist_coord_recovers_total", s.coord_recovers);
    add("argus_dist_coord_unavailable_aborts_total",
        s.coord_unavailable_aborts);
    add("argus_dist_coord_epoch_ends_total", s.coord_epoch_ends);
    add("argus_dist_decisions_logged_total", s.decisions_logged);
    add("argus_dist_decision_force_failures_total",
        s.decision_force_failures);
    add("argus_dist_decisions_truncated_total", s.decisions_truncated);
    add("argus_dist_msgs_lost_total", s.msgs_lost);
    add("argus_dist_msg_delays_total", s.msg_delays);
    add("argus_dist_termination_rounds_total", s.termination_rounds);
    add("argus_dist_termination_promoted_total", s.termination_promoted);
    add("argus_dist_termination_peer_promotions_total",
        s.termination_peer_promotions);
    add("argus_dist_termination_presumed_aborts_total",
        s.termination_presumed_aborts);
    add("argus_dist_termination_retries_total", s.termination_retries);
    add("argus_dist_termination_blocked_total", s.termination_blocked);
    add("argus_dist_decisions_outstanding", decision_log_.outstanding());
    return out;
  });
}

}  // namespace argus
