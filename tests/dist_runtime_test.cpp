// Multi-site runtime tests: 2PC happy path and coordinator aborts,
// available-copies read/write semantics, the failure rule, stale-read
// prevention after recovery, and cross-site certification of the merged
// history. Replaces the old remote_object_test (simulated RPC latency on
// a single runtime) — sites are now full runtimes with their own commit
// pipelines and stable logs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "check/atomicity.h"
#include "common/rng.h"
#include "dist/dist_runtime.h"
#include "hist/parse.h"
#include "hist/wellformed.h"
#include "obs/metrics_registry.h"
#include "spec/adts/bank_account.h"

namespace argus {
namespace {

// DistRuntime holds mutexes (not movable); build behind a unique_ptr.
std::unique_ptr<DistRuntime> make_bank(
    std::size_t sites, Protocol protocol,
    std::initializer_list<const char*> sharded,
    std::initializer_list<const char*> replicated) {
  DistOptions options;
  options.sites = sites;
  options.protocol = protocol;
  auto dist = std::make_unique<DistRuntime>(options);
  for (const char* name : sharded) {
    dist->create_sharded<BankAccountAdt>(name);
  }
  for (const char* name : replicated) {
    dist->create_replicated<BankAccountAdt>(name);
  }
  return dist;
}

std::int64_t read_balance(DistRuntime& dist, const std::string& var) {
  const auto t = dist.begin();
  const std::int64_t v = dist.read(*t, var, account::balance()).as_int();
  dist.commit(t);
  return v;
}

void certify_merged(DistRuntime& dist) {
  const History h = dist.merged_history();
  if (dist.protocol() == Protocol::kDynamic) {
    const auto wf = check_well_formed(h);
    EXPECT_TRUE(wf.ok()) << wf.summary();
    const auto verdict = check_dynamic_atomic(dist.merged_system(), h);
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
  } else {
    const auto wf = check_well_formed_hybrid(h, dist.read_only_activities());
    EXPECT_TRUE(wf.ok()) << wf.summary();
    const auto verdict = check_hybrid_atomic(dist.merged_system(), h);
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
  }
}

TEST(DistRuntime, TwoPhaseCommitHappyPath) {
  // s0 lives at site 0, s1 at site 1 (round-robin); a transfer between
  // them opens a participant at each site and must go through 2PC.
  const auto distp = make_bank(2, Protocol::kHybrid, {"s0", "s1"}, {});
  DistRuntime& dist = *distp;
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::deposit(100));
    dist.write(*t, "s1", account::deposit(100));
    dist.commit(t);
    EXPECT_EQ(t->participants(), (std::vector<std::size_t>{0, 1}));
  }
  {
    const auto t = dist.begin();
    EXPECT_TRUE(dist.write(*t, "s0", account::withdraw(30)).is_unit());
    dist.write(*t, "s1", account::deposit(30));
    dist.commit(t);
  }
  EXPECT_EQ(read_balance(dist, "s0"), 70);
  EXPECT_EQ(read_balance(dist, "s1"), 130);

  const DistStats stats = dist.stats();
  EXPECT_EQ(stats.two_pc_commits, 2u);  // setup + transfer
  EXPECT_EQ(stats.aborts, 0u);
  certify_merged(dist);
}

TEST(DistRuntime, SingleParticipantCommitsAreOnePhase) {
  const auto distp = make_bank(2, Protocol::kHybrid, {"s0", "s1"}, {});
  DistRuntime& dist = *distp;
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::deposit(50));
    dist.commit(t);
  }
  const DistStats stats = dist.stats();
  EXPECT_EQ(stats.one_phase_commits, 1u);
  EXPECT_EQ(stats.two_pc_commits, 0u);
  EXPECT_EQ(read_balance(dist, "s0"), 50);
}

TEST(DistRuntime, PrepareVetoAbortsAtEveryParticipant) {
  const auto distp = make_bank(2, Protocol::kHybrid, {"s0", "s1"}, {});
  DistRuntime& dist = *distp;
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::deposit(100));
    dist.write(*t, "s1", account::deposit(100));
    dist.commit(t);
  }

  // Every log force fails from here on: the first participant's prepare
  // cannot stabilize its record, so the coordinator must abort the
  // global transaction at both sites.
  FaultPlan plan;
  plan.force_fail_permille = 1000;
  plan.force_max_retries = 0;
  plan.force_retry_backoff_us = 0;
  dist.set_fault_plan(plan);
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::withdraw(10));
    dist.write(*t, "s1", account::deposit(10));
    EXPECT_THROW(dist.commit(t), TransactionAborted);
  }
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    dist.site(i).runtime().set_fault_injector(nullptr);
  }

  EXPECT_EQ(read_balance(dist, "s0"), 100);
  EXPECT_EQ(read_balance(dist, "s1"), 100);
  const DistStats stats = dist.stats();
  EXPECT_EQ(stats.two_pc_commits, 1u);
  EXPECT_GE(stats.aborts, 1u);
  certify_merged(dist);
}

TEST(DistRuntime, MidCommitSiteFailureVetoesTheTransaction) {
  const auto distp = make_bank(2, Protocol::kHybrid, {"s0", "s1"}, {});
  DistRuntime& dist = *distp;
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::deposit(100));
    dist.write(*t, "s1", account::deposit(100));
    dist.commit(t);
  }

  // The coordinator injector fails a site at the first liveness tick —
  // which the 2PC runs *inside* the protocol, before the first prepare.
  FaultPlan plan;
  plan.site_fail_permille = 1000;
  plan.max_faults = 1;
  dist.set_fault_plan(plan);
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::withdraw(10));
    dist.write(*t, "s1", account::deposit(10));
    try {
      dist.commit(t);
      FAIL() << "commit with a failed participant must abort";
    } catch (const TransactionAborted& e) {
      EXPECT_EQ(e.reason(), AbortReason::kUnavailable);
    }
  }
  const DistStats stats = dist.stats();
  EXPECT_EQ(stats.site_fails, 1u);
  EXPECT_GE(stats.unavailable_aborts, 1u);

  // Recover the failed site; the aborted transfer left no trace in the
  // balances, and the merged history still certifies.
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    dist.site(i).runtime().set_fault_injector(nullptr);
    if (!dist.site(i).up()) {
      EXPECT_TRUE(dist.recover(i));
    }
  }
  EXPECT_EQ(read_balance(dist, "s0"), 100);
  EXPECT_EQ(read_balance(dist, "s1"), 100);
  certify_merged(dist);
}

TEST(DistRuntime, AvailableCopiesServeReadsWhileAnyReplicaLives) {
  const auto distp = make_bank(3, Protocol::kHybrid, {}, {"r0"});
  DistRuntime& dist = *distp;
  {
    const auto t = dist.begin();
    dist.write(*t, "r0", account::deposit(100));
    dist.commit(t);
  }

  // Two of three sites fail: reads keep being served by the survivor,
  // and writes apply to it alone.
  EXPECT_TRUE(dist.fail(1));
  EXPECT_TRUE(dist.fail(2));
  EXPECT_EQ(read_balance(dist, "r0"), 100);
  {
    const auto t = dist.begin();
    dist.write(*t, "r0", account::deposit(10));
    dist.commit(t);
    EXPECT_EQ(t->participants(), (std::vector<std::size_t>{0}));
  }
  EXPECT_EQ(read_balance(dist, "r0"), 110);

  // The last copy goes: unavailable.
  EXPECT_TRUE(dist.fail(0));
  {
    const auto t = dist.begin();
    try {
      dist.read(*t, "r0", account::balance());
      FAIL() << "no live copy: read must abort";
    } catch (const TransactionAborted& e) {
      EXPECT_EQ(e.reason(), AbortReason::kUnavailable);
    }
  }
  EXPECT_GE(dist.stats().unavailable_aborts, 1u);
  certify_merged(dist);
}

TEST(DistRuntime, StaleReadPreventionAfterRecover) {
  const auto distp = make_bank(2, Protocol::kHybrid, {}, {"r0"});
  DistRuntime& dist = *distp;
  {
    const auto t = dist.begin();
    dist.write(*t, "r0", account::deposit(100));
    dist.commit(t);
  }

  // Site 1 misses a committed write, then recovers: the catch-up copier
  // restores its copy's *state*, but the copy stays unreadable.
  EXPECT_TRUE(dist.fail(1));
  {
    const auto t = dist.begin();
    dist.write(*t, "r0", account::deposit(50));
    dist.commit(t);
  }
  EXPECT_TRUE(dist.recover(1));
  EXPECT_GE(dist.stats().catchup_txns, 1u);
  const Replica* copy1 = dist.placement().find("r0")->replica_at(1);
  ASSERT_NE(copy1, nullptr);
  EXPECT_FALSE(copy1->readable.load());

  // The state did catch up (the administrative dump bypasses the
  // stale-read rule and sees both copies at 150)...
  for (const auto& entry : dist.dump(account::balance())) {
    EXPECT_EQ(entry.value.as_int(), 150) << "site " << entry.site;
  }

  // ...but a client read must not be served from the recovered copy: with
  // site 0 down it has no readable copy to fall back on, even though site
  // 1 is up and current.
  EXPECT_TRUE(dist.fail(0));
  {
    const auto t = dist.begin();
    try {
      dist.read(*t, "r0", account::balance());
      FAIL() << "recovered copy must not serve reads before a fresh write";
    } catch (const TransactionAborted& e) {
      EXPECT_EQ(e.reason(), AbortReason::kUnavailable);
    }
  }
  EXPECT_TRUE(dist.recover(0));

  // The next committed client write restores readability (it provably
  // made the copy current), and the copy then serves reads alone.
  {
    const auto t = dist.begin();
    dist.write(*t, "r0", account::deposit(25));
    dist.commit(t);
  }
  EXPECT_TRUE(copy1->readable.load());
  EXPECT_TRUE(dist.fail(0));
  EXPECT_EQ(read_balance(dist, "r0"), 175);
  EXPECT_TRUE(dist.recover(0));
  certify_merged(dist);
}

TEST(DistRuntime, ReadOnlyAuditSpansSitesAtOneSnapshot) {
  const auto distp = make_bank(2, Protocol::kHybrid, {"s0", "s1"}, {"r0"});
  DistRuntime& dist = *distp;
  {
    const auto t = dist.begin();
    for (const char* name : {"s0", "s1", "r0"}) {
      dist.write(*t, name, account::deposit(100));
    }
    dist.commit(t);
  }
  {
    const auto audit = dist.begin(TxnKind::kReadOnly);
    std::int64_t total = 0;
    for (const char* name : {"s0", "s1", "r0"}) {
      total += dist.read(*audit, name, account::balance()).as_int();
    }
    dist.commit(audit);
    EXPECT_EQ(total, 300);
    EXPECT_NE(audit->snapshot_ts(), kNoTimestamp);
    EXPECT_EQ(audit->participants().size(), 2u);
  }
  EXPECT_EQ(dist.stats().read_only_commits, 1u);
  certify_merged(dist);
}

TEST(DistRuntime, ReadOnlyNeedsSnapshotProtocol) {
  const auto distp = make_bank(2, Protocol::kDynamic, {"s0"}, {});
  DistRuntime& dist = *distp;
  EXPECT_THROW(dist.begin(TxnKind::kReadOnly), UsageError);
}

TEST(DistRuntime, DynamicProtocolRunsTheSameDeployment) {
  const auto distp = make_bank(2, Protocol::kDynamic, {"s0", "s1"}, {"r0"});
  DistRuntime& dist = *distp;
  {
    const auto t = dist.begin();
    for (const char* name : {"s0", "s1", "r0"}) {
      dist.write(*t, name, account::deposit(100));
    }
    dist.commit(t);
  }
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::withdraw(40));
    dist.write(*t, "r0", account::deposit(40));
    dist.commit(t);
  }
  EXPECT_EQ(read_balance(dist, "s0"), 60);
  EXPECT_EQ(read_balance(dist, "r0"), 140);
  certify_merged(dist);
}

TEST(DistRuntime, MergedTraceParsesBackToTheMergedHistory) {
  const auto distp = make_bank(2, Protocol::kHybrid, {"s0", "s1"}, {"r0"});
  DistRuntime& dist = *distp;
  {
    const auto t = dist.begin();
    for (const char* name : {"s0", "s1", "r0"}) {
      dist.write(*t, name, account::deposit(100));
    }
    dist.commit(t);
  }
  // A fault plan so the trace carries '#' fault-comment lines too.
  FaultPlan plan;
  plan.site_fail_permille = 1000;
  plan.site_recover_permille = 1000;
  plan.max_faults = 2;
  dist.set_fault_plan(plan);
  dist.tick_site_faults();  // both sites roll a fail; the budget covers both
  EXPECT_EQ(dist.stats().site_fails, 2u);
  dist.tick_site_faults();  // budget exhausted: no injected recovery
  EXPECT_EQ(dist.stats().site_recovers, 0u);
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    EXPECT_TRUE(dist.recover(i));
  }
  EXPECT_EQ(dist.stats().site_recovers, 2u);

  const std::string trace = dist.merged_trace();
  EXPECT_NE(trace.find("site0: "), std::string::npos);
  EXPECT_NE(trace.find("# coord "), std::string::npos);

  const ParseResult parsed = parse_history(trace);
  ASSERT_TRUE(parsed.history.has_value()) << parsed.error;
  const History merged = dist.merged_history();
  ASSERT_EQ(parsed.history->events().size(), merged.events().size());
  for (std::size_t i = 0; i < merged.events().size(); ++i) {
    EXPECT_EQ(parsed.history->events()[i], merged.events()[i]) << "event " << i;
  }
}

// ---- coordinator failover + cooperative termination (PR 8) -----------

// Pins a coordinator crash at `step` (first 2PC after the plan attaches)
// on a two-site bank seeded with 100/100 and drives one transfer into
// it. Returns whether the transfer's commit() returned (decision forced
// before the crash) or threw (presumed abort).
bool transfer_into_coordinator_crash(DistRuntime& dist, FaultSite step) {
  FaultPlan plan;
  plan.coord_crash_point = step;
  plan.coord_crash_at_arrival = 1;
  dist.set_fault_plan(plan);
  const auto t = dist.begin();
  dist.write(*t, "s0", account::withdraw(30));
  dist.write(*t, "s1", account::deposit(30));
  try {
    dist.commit(t);
    return true;
  } catch (const TransactionAborted& e) {
    EXPECT_EQ(e.reason(), AbortReason::kUnavailable);
    return false;
  }
}

TEST(DistRuntime, CoordinatorCrashAtEachStepLosesNoCommittedDecision) {
  // The tentpole acceptance property: crash the coordinator at every 2PC
  // protocol step; after recover_coordinator() + the termination
  // protocol, every forced decision survives, every unforced one is a
  // presumed abort, and no participant stays in doubt.
  const struct {
    FaultSite step;
    bool decision_survives;  // was the decision forced before the crash?
  } kSteps[] = {
      {FaultSite::kCoordPrePrepare, false},
      {FaultSite::kCoordPostPrepare, false},
      {FaultSite::kCoordPostDecision, true},
      {FaultSite::kCoordMidDelivery, true},
  };
  for (const auto& [step, decision_survives] : kSteps) {
    SCOPED_TRACE(to_string(step));
    const auto distp = make_bank(2, Protocol::kHybrid, {"s0", "s1"}, {});
    DistRuntime& dist = *distp;
    {
      const auto t = dist.begin();
      dist.write(*t, "s0", account::deposit(100));
      dist.write(*t, "s1", account::deposit(100));
      dist.commit(t);
    }

    EXPECT_EQ(transfer_into_coordinator_crash(dist, step),
              decision_survives);
    EXPECT_FALSE(dist.coordinator_up());

    // While the coordinator is down, multi-site commits are refused.
    if (dist.site(0).up() && dist.site(1).up()) {
      const auto t = dist.begin();
      dist.write(*t, "s0", account::deposit(1));
      dist.write(*t, "s1", account::deposit(1));
      EXPECT_THROW(dist.commit(t), TransactionAborted);
      EXPECT_GE(dist.stats().coord_unavailable_aborts, 1u);
    }

    for (std::size_t i = 0; i < dist.site_count(); ++i) {
      dist.site(i).runtime().set_fault_injector(nullptr);
    }
    EXPECT_TRUE(dist.recover_coordinator());
    dist.run_termination_protocol();
    for (std::size_t i = 0; i < dist.site_count(); ++i) {
      if (!dist.site(i).up()) {
        EXPECT_TRUE(dist.recover(i));
      }
      EXPECT_TRUE(dist.site(i).tm().log().prepared_records().empty())
          << "site " << i << " still holds in-doubt records";
    }

    const std::int64_t s0 = read_balance(dist, "s0");
    const std::int64_t s1 = read_balance(dist, "s1");
    if (decision_survives) {
      EXPECT_EQ(s0, 70);
      EXPECT_EQ(s1, 130);
    } else {
      EXPECT_EQ(s0, 100);
      EXPECT_EQ(s1, 100);
    }
    EXPECT_EQ(s0 + s1, 200) << "conservation must hold either way";
    certify_merged(dist);
  }
}

TEST(DistRuntime, CoordinatorRecoveryIsIdempotent) {
  const auto distp = make_bank(2, Protocol::kHybrid, {"s0", "s1"}, {});
  DistRuntime& dist = *distp;
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::deposit(100));
    dist.write(*t, "s1", account::deposit(100));
    dist.commit(t);
  }
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::withdraw(30));
    dist.write(*t, "s1", account::deposit(30));
    dist.commit(t);
  }

  // Crash/recover twice over: replaying the same decision log twice must
  // not double-apply anything (promotion is conditional on the record
  // still being prepared — and nothing is prepared here).
  EXPECT_TRUE(dist.crash_coordinator());
  EXPECT_FALSE(dist.crash_coordinator());
  EXPECT_TRUE(dist.recover_coordinator());
  EXPECT_FALSE(dist.recover_coordinator()) << "second recovery is a no-op";
  EXPECT_TRUE(dist.crash_coordinator());
  EXPECT_TRUE(dist.recover_coordinator());

  EXPECT_EQ(read_balance(dist, "s0"), 70);
  EXPECT_EQ(read_balance(dist, "s1"), 130);
  const DistStats stats = dist.stats();
  EXPECT_EQ(stats.coord_crashes, 2u);
  EXPECT_EQ(stats.coord_recovers, 2u);
  EXPECT_EQ(stats.promoted_commits, 0u) << "nothing was in doubt";
  certify_merged(dist);
}

TEST(DistRuntime, TerminationProtocolResolvesInDoubtViaSurvivingPeer) {
  // Mid-delivery coordinator crash: site 0 receives the decision, site 1
  // is left fenced with a prepared record. With the coordinator still
  // down, the termination protocol must resolve site 1 from site 0's
  // stable log — the cooperative path, no coordinator involved.
  const auto distp = make_bank(2, Protocol::kHybrid, {"s0", "s1"}, {});
  DistRuntime& dist = *distp;
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::deposit(100));
    dist.write(*t, "s1", account::deposit(100));
    dist.commit(t);
  }

  EXPECT_TRUE(transfer_into_coordinator_crash(
      dist, FaultSite::kCoordMidDelivery))
      << "the decision was forced: commit() reports success";
  EXPECT_FALSE(dist.coordinator_up());
  EXPECT_TRUE(dist.site(0).up()) << "site 0 took its delivery";
  EXPECT_FALSE(dist.site(1).up()) << "site 1 fenced its in-doubt state";

  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    dist.site(i).runtime().set_fault_injector(nullptr);
  }
  EXPECT_GT(dist.run_termination_protocol(), 0u);
  EXPECT_FALSE(dist.coordinator_up()) << "resolved without the coordinator";
  EXPECT_TRUE(dist.site(1).up());
  EXPECT_TRUE(dist.site(1).tm().log().prepared_records().empty());
  EXPECT_GE(dist.stats().termination_peer_promotions, 1u);

  EXPECT_TRUE(dist.recover_coordinator());
  EXPECT_EQ(read_balance(dist, "s0"), 70);
  EXPECT_EQ(read_balance(dist, "s1"), 130);
  certify_merged(dist);
}

TEST(DistRuntime, CheckpointTruncatesOnceEveryParticipantAcknowledges) {
  const auto distp = make_bank(2, Protocol::kHybrid, {"s0", "s1"}, {});
  DistRuntime& dist = *distp;
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::deposit(100));
    dist.write(*t, "s1", account::deposit(100));
    dist.commit(t);
  }
  // The happy path acks inline and checkpoints at the end of the 2PC:
  // nothing outstanding, one decision logged and already truncated.
  EXPECT_EQ(dist.decision_log().outstanding(), 0u);
  DistStats stats = dist.stats();
  EXPECT_EQ(stats.decisions_logged, 1u);
  EXPECT_EQ(stats.decisions_truncated, 1u);

  // A coordinator crash wipes the volatile ack table mid-decision: the
  // next decision stays outstanding until recovery re-derives the acks
  // from the participants' own stable logs and checkpoints.
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::withdraw(10));
    dist.write(*t, "s1", account::deposit(10));
    dist.commit(t);
  }
  EXPECT_EQ(dist.decision_log().outstanding(), 0u);
  EXPECT_TRUE(dist.crash_coordinator());
  // (Decisions already truncated survive trivially; log a fresh one by
  // recovering and committing again, then crash before its checkpoint —
  // simplest deterministic stand-in: crash wiped acks, so replaying and
  // re-syncing is recover_coordinator()'s job.)
  EXPECT_TRUE(dist.recover_coordinator());
  EXPECT_EQ(dist.decision_log().outstanding(), 0u)
      << "recovery re-syncs acks and truncates settled decisions";
  certify_merged(dist);
}

TEST(DistRuntime, InMemoryBaselineLogsNothing) {
  // durable_decisions=false is E18's baseline: the PR 6 in-memory commit
  // list, no decision-log forces at all.
  DistOptions options;
  options.sites = 2;
  options.protocol = Protocol::kHybrid;
  options.durable_decisions = false;
  DistRuntime dist(options);
  dist.create_sharded<BankAccountAdt>("s0");
  dist.create_sharded<BankAccountAdt>("s1");
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::deposit(100));
    dist.write(*t, "s1", account::deposit(100));
    dist.commit(t);
  }
  EXPECT_EQ(dist.stats().decisions_logged, 0u);
  EXPECT_EQ(dist.decision_log().outstanding(), 0u);
  EXPECT_EQ(read_balance(dist, "s0"), 100);
}

TEST(DistRuntime, LostPrepareMessagesVetoCleanly) {
  // Every message is lost and the budget covers exactly one site's
  // prepare attempts: phase 1 cannot deliver prepare, so the 2PC vetoes
  // before anything is in doubt — nothing prepared, nothing fenced.
  // (Decide-loss fencing is the sweep's coord-lossy mixes' territory.)
  const auto distp = make_bank(2, Protocol::kHybrid, {"s0", "s1"}, {});
  DistRuntime& dist = *distp;
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::deposit(100));
    dist.write(*t, "s1", account::deposit(100));
    dist.commit(t);
  }

  FaultPlan plan;
  plan.msg_loss_permille = 1000;
  plan.msg_retries = 1;
  plan.max_faults = 2;  // exactly the prepare attempts of one commit
  dist.set_fault_plan(plan);
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::withdraw(10));
    dist.write(*t, "s1", account::deposit(10));
    EXPECT_THROW(dist.commit(t), TransactionAborted)
        << "a prepare that never arrives is a veto";
  }
  EXPECT_GE(dist.stats().msgs_lost, 2u);
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    dist.site(i).runtime().set_fault_injector(nullptr);
    if (!dist.site(i).up()) {
      EXPECT_TRUE(dist.recover(i));
    }
  }
  EXPECT_EQ(read_balance(dist, "s0"), 100);
  EXPECT_EQ(read_balance(dist, "s1"), 100);
  certify_merged(dist);
}

TEST(DistRuntime, RegisterMetricsExportsDistCounters) {
  const auto distp = make_bank(2, Protocol::kHybrid, {"s0", "s1"}, {});
  DistRuntime& dist = *distp;
  MetricsRegistry registry;
  dist.register_metrics(registry);
  {
    const auto t = dist.begin();
    dist.write(*t, "s0", account::deposit(100));
    dist.write(*t, "s1", account::deposit(100));
    dist.commit(t);
  }
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("argus_dist_txns_begun_total 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("argus_dist_two_pc_commits_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("argus_dist_decisions_logged_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("argus_dist_decisions_outstanding 0"),
            std::string::npos)
      << text;
  // Scrapes are live: a coordinator crash/recover cycle shows up.
  EXPECT_TRUE(dist.crash_coordinator());
  EXPECT_TRUE(dist.recover_coordinator());
  const std::string after = registry.prometheus_text();
  EXPECT_NE(after.find("argus_dist_coord_crashes_total 1"),
            std::string::npos)
      << after;
  EXPECT_NE(after.find("argus_dist_coord_recovers_total 1"),
            std::string::npos)
      << after;
}

TEST(DecisionLog, ConcurrentCheckpointsTruncateEachDecisionOnce) {
  // 2PCs that finish together checkpoint together: both may find the same
  // decision fully acked, but only the caller that removes it may count
  // it, or `truncated` overtakes `logged`.
  constexpr int kDecisions = 64;
  constexpr int kThreads = 8;
  for (int round = 0; round < 20; ++round) {
    DecisionLog log;
    for (int i = 0; i < kDecisions; ++i) {
      const ActivityId gid{static_cast<std::uint64_t>(i + 1)};
      ASSERT_TRUE(log.force_decision(gid, static_cast<Timestamp>(i + 1),
                                     {0, 1}));
      log.ack(gid, 0);
      log.ack(gid, 1);
    }
    std::atomic<std::size_t> removed{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        removed.fetch_add(log.checkpoint(), std::memory_order_relaxed);
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    const DecisionLog::Stats st = log.stats();
    EXPECT_EQ(st.logged, static_cast<std::uint64_t>(kDecisions));
    EXPECT_EQ(st.truncated, st.logged);
    EXPECT_EQ(removed.load(), static_cast<std::size_t>(kDecisions));
    EXPECT_EQ(log.outstanding(), 0u);
  }
}

// --- concurrent 2PC over OS threads --------------------------------------

constexpr int kConcurrentThreads = 4;
constexpr int kConcurrentTxns = 40;
constexpr std::int64_t kConcurrentBalance = 1000;

// A deployment with 2*sites sharded accounts (round-robin, so two per
// site): random pairs give local (one-phase) and cross-site (2PC)
// transfers. Every log force costs 50us so 2PCs overlap in wall time.
std::unique_ptr<DistRuntime> make_concurrent_bank(
    std::size_t sites, std::vector<std::string>* names) {
  DistOptions options;
  options.sites = sites;
  options.protocol = Protocol::kHybrid;
  options.recorder = Runtime::RecorderMode::kFlight;
  auto dist = std::make_unique<DistRuntime>(options);
  for (std::size_t i = 0; i < 2 * sites; ++i) {
    names->push_back("a" + std::to_string(i));
    dist->create_sharded<BankAccountAdt>(names->back());
  }
  for (std::size_t i = 0; i < sites; ++i) {
    dist->site(i).tm().log().set_force_delay(std::chrono::microseconds(50));
  }
  dist->decision_log().set_force_delay(std::chrono::microseconds(50));
  const auto setup = dist->begin();
  for (const auto& name : *names) {
    dist->write(*setup, name, account::deposit(kConcurrentBalance));
  }
  dist->commit(setup);
  return dist;
}

// kConcurrentThreads clients, each running kConcurrentTxns transfers
// between random accounts; `after_txn(thread, i)` runs after each one.
template <typename Hook>
void run_concurrent_transfers(DistRuntime& dist,
                              const std::vector<std::string>& names,
                              Hook after_txn) {
  std::vector<std::thread> clients;
  for (int c = 0; c < kConcurrentThreads; ++c) {
    clients.emplace_back([&, c] {
      SplitMix64 rng(static_cast<std::uint64_t>(c) * 7919 + 1);
      for (int i = 0; i < kConcurrentTxns; ++i) {
        const std::size_t from = rng.below(names.size());
        const std::size_t to =
            (from + 1 + rng.below(names.size() - 1)) % names.size();
        const std::int64_t amount = rng.range(1, 9);
        const auto t = dist.begin();
        try {
          if (dist.write(*t, names[from], account::withdraw(amount))
                  .is_unit()) {
            dist.write(*t, names[to], account::deposit(amount));
          }
          dist.commit(t);
        } catch (const TransactionAborted&) {
          dist.abort(t);  // no-op if commit already aborted it
        }
        after_txn(c, i);
      }
    });
  }
  for (auto& th : clients) th.join();
}

// The concurrent run's certificate: the decision log drains after a
// termination round, the merged history is hybrid atomic, money is
// conserved, and every global transaction committed at all of the sites
// it ran at or at none.
void certify_concurrent(DistRuntime& dist,
                        const std::vector<std::string>& names) {
  dist.run_termination_protocol();
  EXPECT_EQ(dist.decision_log().outstanding(), 0u);
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    EXPECT_TRUE(dist.site(i).up()) << "site " << i;
    EXPECT_TRUE(dist.site(i).tm().log().prepared_records().empty())
        << "site " << i << " still holds in-doubt records";
  }
  certify_merged(dist);

  std::int64_t total = 0;
  std::size_t answered = 0;
  for (const auto& entry : dist.dump(account::balance())) {
    total += entry.value.as_int();
    ++answered;
  }
  EXPECT_EQ(answered, names.size());
  EXPECT_EQ(total, static_cast<std::int64_t>(names.size()) *
                       kConcurrentBalance);

  // Site of an object: ObjectIds are allocated from per-site ranges of
  // DistOptions::object_id_stride (1000).
  std::map<ActivityId, std::set<std::uint64_t>> ran_at;
  std::map<ActivityId, std::set<std::uint64_t>> committed_at;
  const History merged = dist.merged_history();
  for (const Event& e : merged.events()) {
    const std::uint64_t site = e.object.value / 1000;
    ran_at[e.activity].insert(site);
    if (e.kind == EventKind::kCommit) committed_at[e.activity].insert(site);
  }
  for (const auto& [gid, sites] : committed_at) {
    EXPECT_EQ(sites, ran_at[gid]) << to_string(gid)
                                  << " committed at only some participants";
  }
}

class ConcurrentTwoPc : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConcurrentTwoPc, ClientThreadsCommitAtomicallyAcrossSites) {
  std::vector<std::string> names;
  const auto dist = make_concurrent_bank(GetParam(), &names);
  run_concurrent_transfers(*dist, names, [](int, int) {});
  const DistStats st = dist->stats();
  EXPECT_GT(st.two_pc_commits, 0u);
  EXPECT_GT(st.one_phase_commits, 0u);
  EXPECT_EQ(st.coord_crashes, 0u);
  certify_concurrent(*dist, names);
}

TEST_P(ConcurrentTwoPc, CoordinatorCrashEndsEveryInFlightTwoPc) {
  // One client crashes the coordinator halfway through its run, while the
  // other clients' 2PCs are preparing, deciding and delivering. Each of
  // those sees the epoch move at its next step and ends as a presumed
  // abort (undecided) or a stranded commit (decided, participants
  // fenced); later 2PCs are refused until recovery.
  // The crash can still miss (the open 2PC may be past its last step);
  // rerun (each run fully certified) until one has ended another
  // client's 2PC mid-flight.
  bool ended_in_flight = false;
  for (int run = 0; run < 5 && !ended_in_flight; ++run) {
    std::vector<std::string> names;
    const auto dist = make_concurrent_bank(GetParam(), &names);
    run_concurrent_transfers(*dist, names, [&](int c, int i) {
      if (c != 0 || i != kConcurrentTxns / 2) return;
      // Aim for a moment when another client's 2PC is open.
      for (int spin = 0; spin < 100'000 && dist->in_flight_2pcs() == 0;
           ++spin) {
        std::this_thread::yield();
      }
      dist->crash_coordinator();
    });
    EXPECT_FALSE(dist->coordinator_up());
    const DistStats st = dist->stats();
    EXPECT_EQ(st.coord_crashes, 1u);
    ended_in_flight = st.coord_epoch_ends > 0;
    EXPECT_TRUE(dist->recover_coordinator());
    dist->run_termination_protocol();
    for (std::size_t i = 0; i < dist->site_count(); ++i) {
      if (!dist->site(i).up()) {
        EXPECT_TRUE(dist->recover(i)) << "site " << i;
      }
    }
    certify_concurrent(*dist, names);
  }
  EXPECT_TRUE(ended_in_flight)
      << "no run crashed the coordinator under an in-flight 2PC";
}

INSTANTIATE_TEST_SUITE_P(Sites, ConcurrentTwoPc, ::testing::Values(2u, 3u),
                         [](const auto& info) {
                           return std::to_string(info.param) + "sites";
                         });

TEST(DistRuntime, UsageErrorsAreUsageErrors) {
  const auto distp = make_bank(2, Protocol::kHybrid, {"s0"}, {});
  DistRuntime& dist = *distp;
  EXPECT_THROW(dist.create_sharded<BankAccountAdt>("s0"), UsageError);
  const auto t = dist.begin();
  EXPECT_THROW(dist.read(*t, "nope", account::balance()), UsageError);
  const auto audit = dist.begin(TxnKind::kReadOnly);
  EXPECT_THROW(dist.write(*audit, "s0", account::deposit(1)), UsageError);
  dist.abort(t);
  dist.abort(audit);
  EXPECT_THROW(dist.commit(t), UsageError);
}

}  // namespace
}  // namespace argus
