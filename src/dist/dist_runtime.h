// DistRuntime: the multi-site replicated runtime — N Sites (each a full
// single-node runtime: commit pipeline, stable log, flight recorder),
// a Placement of logical variables over them, available-copies reads,
// write-all-available writes, and two-phase commit grown out of the
// transaction manager's participant hooks (txn/manager.h).
//
// The design follows the replicated-data tradition the paper's model
// plugs into (available copies with a fail/recover liveness model, as in
// the classic distributed-database exercises):
//
//   * Global transactions. begin() assigns a globally unique ActivityId
//     (gid) and lazily opens one local participant transaction per site
//     touched, under the *same* gid (TransactionManager::begin_as), so
//     the merged cross-site history has one activity per global
//     transaction with no remapping. A Lamport stamp rides along: each
//     site's clock observes the transaction's stamp before it operates
//     there and the stamp absorbs the clock after, so cross-site
//     causality is reflected in the numeric timestamps (site clocks draw
//     from disjoint residue classes — Site's set_domain — which makes
//     every timestamp globally unique and lets histories merge by
//     sequence number).
//
//   * Available-copies. read() serves from any live readable replica
//     (preferring a site the transaction already runs on); write()
//     applies to every replica whose site is up. If no copy is
//     available, the transaction aborts with AbortReason::kUnavailable.
//     The failure rule: a transaction that touched a site which then
//     failed cannot commit (its participant there was doomed by the
//     crash); commit() detects this and aborts globally.
//
//   * Two-phase commit. A multi-site update commits via prepare_2pc at
//     every participant (validate + force a prepared record under a
//     *proposed* local timestamp held in the clock's in-flight table),
//     then the decision timestamp G = max(proposals) — globally unique,
//     and consistent with every local proposal — is delivered via
//     commit_prepared (re-stamp, promote, apply behind the local
//     watermark). Decisions are *force-written to the DecisionLog*
//     before delivery (presumed abort for everything else), so a
//     participant that fails between prepare and delivery resolves its
//     in-doubt record at recovery: promote+replay if the gid is logged,
//     drop if not. Single-participant transactions take the ordinary
//     one-phase pipeline, which is what keeps disjoint per-site
//     workloads scaling (bench_distributed). 2PCs from different client
//     threads run concurrently: no lock is held across a force, and the
//     coordinator tracks every open protocol run in one per-gid
//     in-flight table (DESIGN.md §4.10, "Concurrent coordination").
//
//   * Coordinator failover. The coordinator itself is failable:
//     crash_coordinator() (or a pinned kCoord* fault at any 2PC protocol
//     step) loses the volatile commit list and the decision log's ack
//     table, but never a forced decision. recover_coordinator() rebuilds
//     the commit list from the log, resolves every in-doubt record at
//     every up site, re-syncs acks from the participants' own stable
//     logs, and checkpoints (truncates fully-acknowledged decisions).
//     A live participant stranded while prepared (its coordinator died,
//     or every decide-message retry was lost) *fences* itself: it fails
//     out of the available set — in-doubt volatile state must not serve
//     reads — leaving only its stable prepared record, and
//     run_termination_protocol() drives its rejoin: recovery resolves
//     the record against the coordinator's commit list when it is up,
//     else by querying surviving peers' stable logs, with bounded retry
//     + exponential backoff under injected spurious timeouts. Message
//     faults (loss/latency on prepare/decide/ack) are part of the same
//     deterministic plan.
//
//   * fail()/recover() are first-class fault-plan sites
//     (FaultSite::kSiteFail / kSiteRecover): set_fault_plan() attaches a
//     coordinator injector that decides site churn per liveness tick —
//     tick_site_faults() runs between transactions and *inside* the 2PC
//     (mid-protocol site failures are part of the sweep's search space)
//     — plus per-site injectors (derived seeds) for log/crash/wait
//     faults, whose pinned pipeline crash is wired to fail(site).
//
//   * Recovery: resolve in-doubt prepared records against the decision
//     list (synthesizing the missing commit events so per-site and
//     merged histories stay certifiable — their invoke/respond events
//     were recorded before the crash), replay the stable log, then run
//     the catch-up copier: client writes to replicated variables the
//     site missed (per the Placement catalog) are re-applied through an
//     ordinary local transaction, so catch-up is itself just a writer in
//     the formal model and needs no live peer. Finally the stale-read
//     rule: recovered replicated copies stay unreadable until a client
//     write commits to them post-recovery.
//
// Threading: transactions are single-threaded objects; DistRuntime
// itself may be driven from many threads, and commits — one-phase and
// 2PC alike — run concurrently. The coordinator's only waits are the
// 2PC entry barrier and the in-flight-table drain in
// recover_coordinator() / run_termination_protocol(); both go through
// the deployment's WaitPolicy when one is set. crash_coordinator() may
// fire from any thread while 2PCs are in flight: each 2PC recorded the
// coordinator epoch at entry and ends through coordinator_died() when it
// sees the epoch move. fail/recover/tick are liveness operations — drive
// them from one thread (the sweep's). recover() may run under other
// threads' in-flight 2PCs (its catch-up waits for them), but not while
// another thread executes a transaction writing the recovering site's
// replicated variables: a writer that pinned its targets without the
// site and commits after the catch-up would leave that copy behind
// (DESIGN.md §4.10).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/system.h"
#include "dist/decision_log.h"
#include "dist/placement.h"
#include "dist/site.h"
#include "fault/fault.h"
#include "hist/history.h"
#include "sched/factory.h"

namespace argus {

class MetricsRegistry;
class WaitPolicy;

struct DistOptions {
  std::size_t sites{2};
  /// Local atomicity property of every object. Dynamic (§4.1) and hybrid
  /// (§4.3) are supported; validate-at-commit protocols (OCC/MVCC)
  /// cannot participate in 2PC (see TransactionManager::prepare_2pc).
  Protocol protocol{Protocol::kHybrid};
  Runtime::RecorderMode recorder{Runtime::RecorderMode::kFlight};
  /// Site i allocates ObjectIds from [i*stride, (i+1)*stride).
  std::uint64_t object_id_stride{1000};
  /// Global transaction ids start here (clear of every site-local id
  /// space; rendered "t1000000", "t1000001", ... in traces).
  std::uint64_t gid_base{1000000};
  /// Force 2PC decisions to the coordinator's DecisionLog before
  /// delivery (replayed by recover_coordinator()). false = the PR 6
  /// in-memory commit list, kept as E18's baseline; with it a
  /// coordinator crash forgets every decision, so only enable
  /// coordinator faults against the durable log.
  bool durable_decisions{true};
  /// Cooperative termination: per in-doubt record, how many status-query
  /// rounds a participant attempts (spurious-timeout injection can waste
  /// a round) and the initial backoff, doubled per retry.
  std::uint32_t termination_max_retries{4};
  std::uint32_t termination_backoff_us{50};
  /// Test seam for deterministic scheduling (src/dsched): every site
  /// runtime runs in SchedMode::kDeterministic under this policy, and the
  /// coordinator's own waits and scheduling points route through it.
  /// nullptr (the default) = OS scheduling. Must outlive the DistRuntime.
  WaitPolicy* wait_policy{nullptr};
};

struct DistStats {
  std::uint64_t begun{0};
  std::uint64_t one_phase_commits{0};
  std::uint64_t two_pc_commits{0};
  std::uint64_t read_only_commits{0};
  std::uint64_t aborts{0};
  std::uint64_t unavailable_aborts{0};
  std::uint64_t site_fails{0};
  std::uint64_t site_recovers{0};
  std::uint64_t presumed_aborts{0};    // in-doubt records dropped at recovery
  std::uint64_t promoted_commits{0};   // in-doubt records resolved to commit
  std::uint64_t catchup_txns{0};       // catch-up copier transactions
  std::uint64_t catchup_ops{0};        // operations re-applied by catch-up
  std::uint64_t replica_divergence{0}; // replicas disagreed on a result

  // Coordinator failover + decision log (PR 8).
  std::uint64_t coord_crashes{0};
  std::uint64_t coord_recovers{0};
  std::uint64_t coord_unavailable_aborts{0};  // 2PC refused: coordinator down
  /// In-flight 2PCs ended by a coordinator crash they did not fire
  /// themselves (they saw the coordinator epoch move).
  std::uint64_t coord_epoch_ends{0};
  std::uint64_t decisions_logged{0};
  std::uint64_t decision_force_failures{0};
  std::uint64_t decisions_truncated{0};
  std::uint64_t msgs_lost{0};
  std::uint64_t msg_delays{0};

  // Cooperative termination protocol.
  std::uint64_t termination_rounds{0};
  std::uint64_t termination_promoted{0};        // resolved via the live log
  std::uint64_t termination_peer_promotions{0}; // resolved via a peer's log
  std::uint64_t termination_presumed_aborts{0};
  std::uint64_t termination_retries{0};  // rounds wasted on injected timeouts
  std::uint64_t termination_blocked{0};  // records left in doubt this round
};

class DistRuntime;

/// One global transaction. Created by DistRuntime::begin(); operate on it
/// through DistRuntime::read/write/commit/abort. Single-threaded.
class DistTxn {
 public:
  [[nodiscard]] ActivityId id() const { return gid_; }
  [[nodiscard]] bool read_only() const { return kind_ == TxnKind::kReadOnly; }
  /// The shared snapshot timestamp of a read-only transaction
  /// (kNoTimestamp until its first read picks a site).
  [[nodiscard]] Timestamp snapshot_ts() const { return snapshot_ts_; }
  /// Site indices this transaction runs participants at.
  [[nodiscard]] std::vector<std::size_t> participants() const;

 private:
  friend class DistRuntime;

  struct Part {
    std::shared_ptr<Transaction> txn;
    bool prepared{false};
    bool delivered{false};  // phase 2 reached this site (commit applied)
    Timestamp proposal{kNoTimestamp};
  };

  ActivityId gid_{0};
  TxnKind kind_{TxnKind::kUpdate};
  Timestamp snapshot_ts_{kNoTimestamp};
  std::uint64_t stamp_{0};  // Lamport carry between sites
  std::map<std::size_t, Part> parts_;
  /// Writes to replicated variables, in invocation order (first
  /// replica's results) — becomes the catalog entry at commit.
  std::vector<std::pair<LogicalVar*, LoggedOp>> replicated_writes_;
  /// The replica sites each written variable's ops were applied at,
  /// pinned at the first write (a site that recovers mid-transaction must
  /// not receive a suffix of the variable's ops).
  std::map<LogicalVar*, std::set<std::size_t>> write_targets_;
  bool finished_{false};
};

class DistRuntime {
 public:
  explicit DistRuntime(DistOptions options = {});
  ~DistRuntime();

  DistRuntime(const DistRuntime&) = delete;
  DistRuntime& operator=(const DistRuntime&) = delete;

  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] Site& site(std::size_t i) { return *sites_.at(i); }
  [[nodiscard]] Protocol protocol() const { return options_.protocol; }
  [[nodiscard]] Placement& placement() { return placement_; }

  /// Creates a sharded variable: one copy, at the next round-robin site.
  template <AdtTraits A>
  LogicalVar& create_sharded(const std::string& name) {
    Site& s = *sites_[placement_.next_shard_site(sites_.size())];
    std::vector<std::unique_ptr<Replica>> reps;
    reps.push_back(std::make_unique<Replica>(
        &s, make_object<A>(s.runtime(), options_.protocol, name)));
    merged_system_.add_object(reps.back()->object->id(),
                              std::make_shared<AdtSpec<A>>());
    LogicalVar& var = placement_.add(name, /*replicated=*/false,
                                     std::move(reps));
    index_replicas(var);
    return var;
  }

  /// Creates a replicated variable: one copy at every site.
  template <AdtTraits A>
  LogicalVar& create_replicated(const std::string& name) {
    std::vector<std::unique_ptr<Replica>> reps;
    for (auto& s : sites_) {
      reps.push_back(std::make_unique<Replica>(
          s.get(), make_object<A>(s->runtime(), options_.protocol, name)));
      merged_system_.add_object(reps.back()->object->id(),
                                std::make_shared<AdtSpec<A>>());
    }
    LogicalVar& var =
        placement_.add(name, /*replicated=*/true, std::move(reps));
    index_replicas(var);
    return var;
  }

  // --- transactions ----------------------------------------------------

  std::shared_ptr<DistTxn> begin(TxnKind kind = TxnKind::kUpdate);

  /// Available-copies read: serves `op` from one live readable replica
  /// (a site the transaction already runs on if possible, else a
  /// deterministic hash pick). Throws TransactionAborted(kUnavailable) —
  /// after aborting the transaction — if no copy is available.
  Value read(DistTxn& t, const std::string& var, const Operation& op);

  /// Write-all-available: applies `op` at every replica whose site is
  /// up, returns the first replica's result (disagreements are counted
  /// as replica_divergence). Unavailable if no site holding a copy is
  /// up.
  Value write(DistTxn& t, const std::string& var, const Operation& op);

  /// Commits: read-only and single-participant transactions through the
  /// local pipelines, multi-participant updates through 2PC. Throws
  /// TransactionAborted (after aborting everywhere) on a veto, a failed
  /// participant site, or unavailability.
  void commit(const std::shared_ptr<DistTxn>& t);

  void abort(const std::shared_ptr<DistTxn>& t);

  // --- liveness --------------------------------------------------------

  /// Site failure: marks the site down and crashes its runtime (dooming
  /// its participants — the failure rule). False if already down.
  bool fail(std::size_t site_index);

  /// Site recovery: resolves in-doubt prepared records against the
  /// decision list, replays the stable log, runs the catch-up copier,
  /// and applies the stale-read rule. False if already up — or if the
  /// coordinator is down and the site holds in-doubt records no
  /// surviving peer can resolve (recovery is atomic: the site stays down
  /// and a later recover() retries, normally after the coordinator
  /// returns).
  bool recover(std::size_t site_index);

  // --- coordinator failover -------------------------------------------

  [[nodiscard]] bool coordinator_up() const {
    return coordinator_up_.load(std::memory_order_acquire);
  }

  /// Coordinator crash: the volatile commit list and the decision log's
  /// ack table are lost; stable decisions survive. While down, every
  /// multi-participant commit aborts kUnavailable and in-doubt
  /// participants can only resolve cooperatively (peers). False if
  /// already down.
  bool crash_coordinator();

  /// Coordinator failover: rebuilds the commit list from the decision
  /// log's stable records, authoritatively resolves every in-doubt
  /// prepared record at every up site (promote if logged, presumed abort
  /// otherwise), re-syncs the ack table from the participants' stable
  /// logs, and checkpoints. Idempotent — a second call is a no-op
  /// returning false (already up), and replaying the same log twice
  /// cannot double-apply (promotion is conditional on the record still
  /// being prepared). False if already up.
  bool recover_coordinator();

  /// Cooperative termination: every *fenced* site (a participant that
  /// failed itself out of the available set when a coordinator crash or
  /// decide-message loss left it holding prepared volatile state — see
  /// coordinator_died) attempts to rejoin via recover(), which resolves
  /// its in-doubt records against the coordinator's commit list when the
  /// coordinator is up, else by querying surviving peers' stable logs
  /// for the promoted record, with bounded retry + exponential backoff
  /// (an injected spurious timeout, FaultInjector::on_wait, wastes a
  /// round). Sites whose records nobody can resolve stay down (counted
  /// termination_blocked) until new information appears — normally the
  /// coordinator's return. Every round with the coordinator up also
  /// re-syncs the decision log's ack table from the participants' stable
  /// logs and truncates fully-acknowledged decisions (so acks lost on
  /// the wire never pin the log). Returns the number of records
  /// resolved.
  std::size_t run_termination_protocol();

  [[nodiscard]] DecisionLog& decision_log() { return decision_log_; }

  /// 2PCs between entry and exit right now (the in-flight table's size).
  [[nodiscard]] std::size_t in_flight_2pcs() const;

  /// Attaches fault injection: a coordinator injector deciding site
  /// fail/recover per tick_site_faults() call, and per-site injectors
  /// (derived seeds; pinned crashes wired to fail(site)) for log, crash
  /// and wait faults. Call before running transactions.
  void set_fault_plan(const FaultPlan& plan);

  /// One liveness round: asks the coordinator injector, in site order,
  /// whether each up site fails and each down site recovers. Called by
  /// drivers between transactions; the 2PC calls it internally between
  /// protocol steps so mid-commit site failures are explored.
  void tick_site_faults();

  [[nodiscard]] FaultInjector* coordinator_injector() {
    return coordinator_injector_.get();
  }

  // --- observation -----------------------------------------------------

  /// The cross-site history: every site's flight-recorder events merged
  /// by (sequence, site). Disjoint clock domains make the merge a
  /// faithful, precedes-consistent interleaving.
  [[nodiscard]] History merged_history() const;

  /// merged_history() in the parse.h dump notation: events stamped
  /// "siteN: <...>", fault traces (site and coordinator) interleaved as
  /// '#'-comment lines. Replayable through hist/parse.h.
  [[nodiscard]] std::string merged_trace() const;

  /// Specification of every replica at every site (each replica is its
  /// own object in the formal model).
  [[nodiscard]] const SystemSpec& merged_system() const {
    return merged_system_;
  }

  /// Gids begun read-only (the partition check_well_formed_hybrid and
  /// updates() need).
  [[nodiscard]] std::unordered_set<ActivityId> read_only_activities() const;

  struct DumpEntry {
    std::string var;
    std::size_t site{0};
    Value value;
  };

  /// Administrative dump (the classic dump() query): runs `op` against
  /// every replica at every up site through ordinary local transactions
  /// (recorded and certified like any other), bypassing the stale-read
  /// rule. Probes use it for conservation and replica-equality checks.
  [[nodiscard]] std::vector<DumpEntry> dump(const Operation& op);

  [[nodiscard]] DistStats stats() const;

  /// Exposes every DistStats field (plus the decision-log backlog) as
  /// argus_dist_* counters/gauges through a registry collector, scraped
  /// on demand like the per-runtime metrics.
  void register_metrics(MetricsRegistry& registry);

 private:
  ActivityId next_gid() {
    return ActivityId{options_.gid_base +
                      gid_counter_.fetch_add(1, std::memory_order_relaxed)};
  }

  void index_replicas(LogicalVar& var);
  DistTxn::Part& ensure_part(DistTxn& t, Site& s);
  void observe_into(DistTxn& t, Site& s);
  void absorb_from(DistTxn& t, Site& s);

  void commit_read_only(DistTxn& t);
  void commit_one_phase(DistTxn& t, std::size_t site_index,
                        DistTxn::Part& part);
  void commit_two_phase(DistTxn& t);
  /// Abort every participant; prepared ones per their site's liveness.
  void abort_parts(DistTxn& t, AbortReason reason);
  [[noreturn]] void abort_unavailable(DistTxn& t);

  /// Registers a committed transaction's replicated writes in the
  /// catalog under decision timestamp G and marks delivery/readability
  /// at `delivered_sites`.
  void register_commit(DistTxn& t, Timestamp G,
                       const std::set<std::size_t>& delivered_sites);

  /// Marks one site's replicas delivered/readable for a committed
  /// transaction (2PC registers the catalog entry at decision time, then
  /// marks per-site delivery as phase 2 actually reaches each site).
  void mark_delivered_site(DistTxn& t, Timestamp G, std::size_t site_index);

  /// One simulated coordinator<->participant message on `channel`
  /// (kMsgPrepare / kMsgDecide / kMsgAck). Lost prepare messages are
  /// resent up to plan.msg_retries times; returns false when every
  /// attempt was lost.
  bool send_message(FaultSite channel);

  /// 2PC entry: waits while the barrier is up (a coordinator-exclusive
  /// section, or catch-ups pending behind the in-flight 2PCs), then
  /// registers `gid` in the in-flight table under the current coordinator
  /// epoch, which it returns. nullopt if the coordinator is down.
  std::optional<std::uint64_t> enter_2pc(ActivityId gid);

  /// 2PC exit: unregisters `gid`. The last 2PC out runs the catch-ups
  /// deferred behind the in-flight table, with the barrier raised.
  void leave_2pc(ActivityId gid);

  /// The coordinator alone: raises the barrier (no 2PC enters), waits for
  /// the in-flight table to drain and runs any deferred catch-ups. Used
  /// by recover_coordinator() and run_termination_protocol().
  void acquire_exclusive();
  void release_exclusive();

  /// False once crash_coordinator() has moved the epoch past `epoch`.
  [[nodiscard]] bool epoch_current(std::uint64_t epoch) const {
    return coord_epoch_.load(std::memory_order_acquire) == epoch;
  }

  /// Runs the sites' catch-ups deferred while 2PCs were in flight.
  /// Caller holds the barrier (or is the last 2PC out).
  void run_catchups(const std::set<std::size_t>& pending);

  /// One bounded wait round on coord_cv_ (through the WaitPolicy when
  /// set); `lock` holds decisions_mu_.
  void coord_wait(std::unique_lock<std::mutex>& lock);
  void coord_notify();
  /// A scheduling point between 2PC protocol steps (deterministic runs
  /// only; no lock held).
  void coord_yield();

  /// The coordinator died mid-2PC — a pinned crash at this 2PC's step,
  /// or any crash_coordinator() since this 2PC entered: crash the
  /// coordinator (a no-op if it is already down), fence every live
  /// undelivered prepared participant (fail it out of the available set
  /// — its in-doubt volatile state must not serve reads, and its
  /// prepared record is what the termination protocol resolves) and
  /// abort the unprepared rest. If `decided` is set the
  /// decision was already forced — the transaction IS committed and the
  /// caller returns normally; otherwise this throws
  /// TransactionAborted(kUnavailable) (presumed abort: nothing stable
  /// names the gid).
  void coordinator_died(DistTxn& t, std::optional<Timestamp> decided);

  /// fail(site) because a coordinator failure (or exhausted decide
  /// retries) stranded the site's prepared volatile state; tracked in
  /// fenced_sites_ so run_termination_protocol() drives its rejoin.
  void fence(std::size_t site_index);

  /// The participant side of cooperative termination: with the
  /// coordinator down, ask every surviving peer's stable log whether
  /// `gid` committed. Bounded retry with exponential backoff; an
  /// injected spurious timeout (on_wait) wastes a round. nullopt = no
  /// peer knows (the record stays in doubt).
  std::optional<Timestamp> query_peers(std::size_t self, ActivityId gid);

  /// Re-syncs the decision log's volatile ack table from participants'
  /// stable logs (a promoted record at the participant == an ack), then
  /// checkpoints. Caller holds the barrier (acquire_exclusive).
  void sync_acks();

  /// Commit-side resolution for a participant that failed and recovered
  /// mid-2PC: promote its still-in-doubt record, replay the effects, and
  /// synthesize the commit events. No-op if recovery already resolved
  /// it.
  void resolve_in_doubt_commit(Site& s, ActivityId gid, Timestamp G);

  void synthesize_commit_events(Site& s, const CommitLogRecord& rec,
                                Timestamp ts);
  void mark_promoted_delivered(const CommitLogRecord& rec, Timestamp ts);

  /// Re-applies catalog writes the site's replicas missed, through one
  /// ordinary local transaction. False if an injected fault aborted the
  /// copier — the site is then marked down again (recovery is atomic; a
  /// later recover() retries).
  bool catch_up(Site& s);

  void bump_global_stamp(std::uint64_t v);
  void count_abort(AbortReason reason);

  DistOptions options_;
  std::vector<std::unique_ptr<Site>> sites_;
  Placement placement_;
  SystemSpec merged_system_;
  std::unordered_map<ObjectId, std::pair<LogicalVar*, Replica*>>
      replica_by_oid_;

  std::atomic<std::uint64_t> gid_counter_{0};
  std::atomic<std::uint64_t> global_stamp_{0};

  /// Guards the coordinator's volatile state: the commit list, the
  /// in-flight table, the deferred catch-ups and the entry barrier.
  /// Never held across a force or a call into a site.
  mutable std::mutex decisions_mu_;
  std::condition_variable coord_cv_;  // table drained / barrier lowered
  /// The volatile commit list (presumed abort) — now a cache over
  /// decision_log_ when durable_decisions is on: lost at
  /// crash_coordinator(), rebuilt by recover_coordinator().
  std::map<ActivityId, Timestamp> decisions_;
  /// Every 2PC between entry and exit, with the coordinator epoch it
  /// entered under. A gid here under the current epoch and not on the
  /// commit list is an open decision: a recovering participant keeps its
  /// prepared record in doubt. Any entry at all defers catch-ups.
  std::map<ActivityId, std::uint64_t> inflight_;
  /// Sites whose catch-up waits for the in-flight table to drain.
  std::set<std::size_t> deferred_catchup_;
  /// Raised while the coordinator runs alone (deferred catch-ups,
  /// recover_coordinator, run_termination_protocol): no 2PC enters.
  bool barrier_{false};
  /// Bumped (under decisions_mu_) by every crash_coordinator().
  std::atomic<std::uint64_t> coord_epoch_{0};

  DecisionLog decision_log_;
  std::atomic<bool> coordinator_up_{true};

  mutable std::mutex catalog_mu_;  // placement catalog + fenced sites
  /// Sites failed by fence(): down because a coordinator crash (or
  /// exhausted decide retries) stranded their prepared state, not by the
  /// fault plan's site churn. run_termination_protocol() recovers them
  /// as soon as their in-doubt records resolve. Guarded by catalog_mu_.
  std::set<std::size_t> fenced_sites_;

  mutable std::mutex ro_mu_;
  std::unordered_set<ActivityId> read_only_gids_;

  std::shared_ptr<FaultInjector> coordinator_injector_;
  std::vector<std::shared_ptr<FaultInjector>> site_injectors_;

  std::atomic<std::uint64_t> begun_{0};
  std::atomic<std::uint64_t> one_phase_commits_{0};
  std::atomic<std::uint64_t> two_pc_commits_{0};
  std::atomic<std::uint64_t> read_only_commits_{0};
  std::atomic<std::uint64_t> aborts_{0};
  std::atomic<std::uint64_t> unavailable_aborts_{0};
  std::atomic<std::uint64_t> site_fails_{0};
  std::atomic<std::uint64_t> site_recovers_{0};
  std::atomic<std::uint64_t> presumed_aborts_{0};
  std::atomic<std::uint64_t> promoted_commits_{0};
  std::atomic<std::uint64_t> catchup_txns_{0};
  std::atomic<std::uint64_t> catchup_ops_{0};
  std::atomic<std::uint64_t> replica_divergence_{0};
  std::atomic<std::uint64_t> coord_crashes_{0};
  std::atomic<std::uint64_t> coord_recovers_{0};
  std::atomic<std::uint64_t> coord_unavailable_aborts_{0};
  std::atomic<std::uint64_t> coord_epoch_ends_{0};
  std::atomic<std::uint64_t> msgs_lost_{0};
  std::atomic<std::uint64_t> msg_delays_{0};
  std::atomic<std::uint64_t> termination_rounds_{0};
  std::atomic<std::uint64_t> termination_promoted_{0};
  std::atomic<std::uint64_t> termination_peer_promotions_{0};
  std::atomic<std::uint64_t> termination_presumed_aborts_{0};
  std::atomic<std::uint64_t> termination_retries_{0};
  std::atomic<std::uint64_t> termination_blocked_{0};
};

}  // namespace argus
