#include "sim/dist_sweep.h"

#include <map>
#include <memory>
#include <sstream>

#include "common/rng.h"
#include "spec/adts/bank_account.h"

namespace argus {

std::string to_config_string(const DistSweepCase& c) {
  std::ostringstream out;
  out << "# dist-sweep case (replay: examples/case_replay dist <file>)\n";
  out << "sites " << c.sites << "\n";
  out << "protocol " << to_string(c.protocol) << "\n";
  out << "sharded " << c.sharded << "\n";
  out << "replicated " << c.replicated << "\n";
  out << "transactions " << c.transactions << "\n";
  out << "initial_balance " << c.initial_balance << "\n";
  print_plan(out, c.plan, PlanKeys::kDist);
  return out.str();
}

bool parse_case(const std::string& text, DistSweepCase* out,
                std::string* error) {
  DistSweepCase c;
  const auto field = [&c](const std::string& key, const std::string& value) {
    if (key == "protocol") {
      std::string why =
          parse_name(key, value, kAllProtocols.size(), &c.protocol);
      if (why.empty() && c.protocol != Protocol::kDynamic &&
          c.protocol != Protocol::kHybrid) {
        why = "unsupported protocol: " + value;
      }
      return why;
    }
    if (key == "sites") {
      return parse_bounded(key, value, kMaxCaseSites, &c.sites);
    }
    if (key == "sharded") return parse_count(value, &c.sharded);
    if (key == "replicated") return parse_count(value, &c.replicated);
    if (key == "transactions") return parse_count(value, &c.transactions);
    if (key == "initial_balance") {
      return parse_count(value, &c.initial_balance);
    }
    return parse_plan_field(key, value, PlanKeys::kDist, &c.plan);
  };
  if (!parse_case_lines(text, field, error)) return false;
  if (c.sharded + c.replicated == 0) {
    if (error != nullptr) *error = "no accounts configured";
    return false;
  }
  *out = c;
  return true;
}

void probe_dist_bank(DistRuntime& dist, std::size_t accounts,
                     std::int64_t initial_balance, Probes& probes) {
  std::map<std::string, std::vector<std::int64_t>> by_var;
  for (const auto& entry : dist.dump(account::balance())) {
    by_var[entry.var].push_back(entry.value.as_int());
  }
  probes.check(by_var.size() == accounts,
               "dump: " + std::to_string(by_var.size()) + " of " +
                   std::to_string(accounts) + " variables answered");
  std::int64_t total = 0;
  for (const auto& [var, values] : by_var) {
    total += values.front();
    for (const std::int64_t v : values) {
      probes.check(v == values.front(),
                   "replica agreement: " + var + " has copies " +
                       std::to_string(values.front()) + " and " +
                       std::to_string(v));
    }
  }
  const std::int64_t expected =
      static_cast<std::int64_t>(accounts) * initial_balance;
  probes.check(total == expected, "conservation: recovered total " +
                                      std::to_string(total) + " != " +
                                      std::to_string(expected));
}

DistCaseResult run_case(const DistSweepCase& c) {
  DistCaseResult result;
  Probes probes;

  DistOptions options;
  options.sites = static_cast<std::size_t>(c.sites);
  options.protocol = c.protocol;
  DistRuntime dist(options);

  std::vector<std::string> names;
  for (int i = 0; i < c.sharded; ++i) {
    const std::string name = "s" + std::to_string(i);
    dist.create_sharded<BankAccountAdt>(name);
    names.push_back(name);
  }
  for (int i = 0; i < c.replicated; ++i) {
    const std::string name = "r" + std::to_string(i);
    dist.create_replicated<BankAccountAdt>(name);
    names.push_back(name);
  }

  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    Runtime& rt = dist.site(i).runtime();
    rt.set_wait_timeout_all(std::chrono::milliseconds(200));
    SentinelOptions sentinel_options;
    sentinel_options.window = std::chrono::milliseconds(2);
    rt.start_sentinel(sentinel_options);
  }

  // Seed every account before faults are live: the conservation probe
  // needs a known starting total, and the model starts from a quiescent
  // committed state. With >1 site this is itself a 2PC (it writes at
  // every site).
  {
    auto setup = dist.begin();
    for (const auto& name : names) {
      dist.write(*setup, name, account::deposit(c.initial_balance));
    }
    dist.commit(setup);
  }

  dist.set_fault_plan(c.plan);

  // Deterministic single-threaded workload: transfers between random
  // logical accounts (sharded<->replicated pairs force 2PC), plus
  // read-only audits under the hybrid protocol and occasional in-update
  // reads (the available-copies read path) under both.
  SplitMix64 rng(c.plan.seed * 0x9e3779b97f4a7c15ULL + 1);
  for (int i = 0; i < c.transactions; ++i) {
    dist.tick_site_faults();
    // Cooperative termination runs between transactions, like a real
    // deployment's periodic status round: fenced participants (stranded
    // prepared by a coordinator crash or lost decide messages) resolve
    // their in-doubt records and rejoin mid-run. A no-op — beyond lazy
    // ack collection — when nothing is fenced, so pre-PR-8
    // configurations replay their traces unchanged.
    dist.run_termination_protocol();
    const bool audit =
        supports_snapshot_reads(c.protocol) && rng.chance(1, 4);
    const auto t = dist.begin(audit ? TxnKind::kReadOnly : TxnKind::kUpdate);
    try {
      if (audit) {
        for (const auto& name : names) {
          dist.read(*t, name, account::balance());
        }
      } else {
        const std::size_t n = names.size();
        const std::size_t from = rng.below(n);
        const std::size_t to =
            n > 1 ? (from + 1 + rng.below(n - 1)) % n : from;
        const std::int64_t amount = rng.range(1, 5);
        const Value got =
            dist.write(*t, names[from], account::withdraw(amount));
        if (got.is_unit()) {
          dist.write(*t, names[to], account::deposit(amount));
        }
        if (rng.chance(1, 3)) {
          dist.read(*t, names[to], account::balance());
        }
      }
      dist.commit(t);
    } catch (const TransactionAborted&) {
      // read/write/commit abort the distributed transaction before
      // throwing; nothing to clean up.
    }
  }

  // Epilogue: verification runs fault-free. Clear the per-site injectors
  // (the coordinator injector only acts when ticked, and the epilogue
  // never ticks), then recover every down site — the full crash ->
  // in-doubt resolution -> log replay -> catch-up path, now guaranteed
  // to complete.
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    dist.site(i).runtime().set_fault_injector(nullptr);
  }
  // Coordinator first: site recovery is atomic and refuses while an
  // in-doubt record is unresolvable, which with every peer down only the
  // recovered commit list can break.
  if (!dist.coordinator_up()) {
    probes.check(dist.recover_coordinator(), "recover: coordinator failed");
  }
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    if (!dist.site(i).up()) {
      probes.check(dist.recover(i), "recover: site " + std::to_string(i) +
                                        " failed fault-free");
    }
  }
  // Final termination round: with everything up it only re-derives acks
  // from the participants' stable logs and truncates settled decisions.
  dist.run_termination_protocol();

  // The replayable artifact: everything up to (not including) the
  // verification probes, so two runs of the same case compare
  // byte-for-byte without the probes' own transactions in the way.
  result.trace = dist.merged_trace();

  const DistStats stats = dist.stats();

  probe_dist_bank(dist, names.size(), c.initial_balance, probes);
  probes.check(stats.replica_divergence == 0,
               "replica divergence: " +
                   std::to_string(stats.replica_divergence) +
                   " mismatched write results");

  // With every participant recovered and acks re-synced, the decision
  // log must have truncated to empty — unless torn-batch faults could
  // drop a participant's committed record, in which case catch-up
  // restores the value but the ack is honestly never derivable.
  if (c.plan.torn_batch_permille == 0) {
    probes.check(dist.decision_log().outstanding() == 0,
                 "decision log: " +
                     std::to_string(dist.decision_log().outstanding()) +
                     " decisions still outstanding after full recovery");
  }

  // Probes per site: stable-log order, watermark coverage, and total
  // in-doubt resolution — with every site and the coordinator recovered,
  // no prepared record may remain anywhere (each was promoted or dropped
  // by recovery / the termination protocol).
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    const std::string tag = "site" + std::to_string(i) + " ";
    Runtime& rt = dist.site(i).runtime();
    probes.check(rt.tm().log().prepared_records().empty(),
                 tag + "termination: " +
                     std::to_string(rt.tm().log().prepared_records().size()) +
                     " records still in doubt after recovery");
    probe_stable_log(rt, probes, tag);
  }

  // Formal certification, twice over: each site's local history against
  // its local objects, and the merged cross-site history (one activity
  // per global transaction) against every replica in the deployment.
  const auto read_only = dist.read_only_activities();
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    Runtime& rt = dist.site(i).runtime();
    probes.check(certify(c.protocol, rt.system(), rt.history(), read_only),
                 "site" + std::to_string(i) + " ");
  }
  probes.check(certify(c.protocol, dist.merged_system(),
                       dist.merged_history(), read_only),
               "merged ");

  // The online sentinels watched the same run, crash windows included.
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    probe_sentinel(dist.site(i).runtime(), probes,
                   "site" + std::to_string(i) + " ");
  }

  result.faults_injected = 0;
  if (FaultInjector* coord = dist.coordinator_injector()) {
    result.faults_injected += coord->faults_injected();
  }
  for (std::size_t i = 0; i < dist.site_count(); ++i) {
    if (FaultInjector* inj = dist.site(i).runtime().fault_injector()) {
      result.faults_injected += inj->faults_injected();
    }
  }
  result.stats = stats;
  result.committed =
      stats.one_phase_commits + stats.two_pc_commits + stats.read_only_commits;
  result.aborted = stats.aborts;
  probes.settle(result);
  return result;
}

std::vector<DistSweepCase> enumerate_dist_cases(
    const DistSweepOptions& options) {
  // Fault mixes: clean, site churn alone, log faults alone, a pinned
  // mid-commit crash (delivered as a site failure) with recovery churn,
  // then everything at once.
  struct Mix {
    const char* name;
    FaultPlan plan;  // seed/crash_at overwritten per cell
  };
  std::vector<Mix> mixes;
  {
    Mix clean{"clean", {}};
    mixes.push_back(clean);
    Mix churn{"site-churn", {}};
    churn.plan.site_fail_permille = 80;
    churn.plan.site_recover_permille = 350;
    mixes.push_back(churn);
    Mix log_faults{"log-faults", {}};
    log_faults.plan.force_fail_permille = 200;
    log_faults.plan.force_max_retries = 2;
    log_faults.plan.force_retry_backoff_us = 10;
    log_faults.plan.torn_batch_permille = 200;
    mixes.push_back(log_faults);
    Mix crash{"pinned-crash", {}};
    crash.plan.crash_point = FaultSite::kPostForcePreApply;
    crash.plan.site_recover_permille = 300;  // let the failed site return
    mixes.push_back(crash);
    Mix chaos{"chaos", {}};
    chaos.plan.site_fail_permille = 60;
    chaos.plan.site_recover_permille = 300;
    chaos.plan.force_fail_permille = 100;
    chaos.plan.force_max_retries = 2;
    chaos.plan.force_retry_backoff_us = 10;
    chaos.plan.torn_batch_permille = 120;
    chaos.plan.leader_latency_permille = 100;
    chaos.plan.leader_latency_us = 50;
    chaos.plan.crash_point = FaultSite::kMidApply;
    mixes.push_back(chaos);
  }

  std::vector<DistSweepCase> out;
  for (const int sites : options.site_counts) {
    for (const Mix& mix : mixes) {
      const auto mix_index = static_cast<std::uint64_t>(&mix - mixes.data());
      const bool pinned_crash = mix.plan.crash_point != FaultSite::kPreForce;
      for (Protocol protocol : options.protocols) {
        for (std::uint64_t s = 1; s <= options.seeds_per_cell; ++s) {
          DistSweepCase c;
          c.plan = mix.plan;
          c.protocol = protocol;
          c.sites = sites;
          c.sharded = options.sharded;
          c.replicated = options.replicated;
          c.transactions = options.transactions;
          c.initial_balance = options.initial_balance;
          // Seed identifies the cell, so no two cells share a stream.
          c.plan.seed = s * 1000003ULL + static_cast<std::uint64_t>(sites) * 7919ULL +
                        mix_index * 101ULL + static_cast<std::uint64_t>(protocol);
          // Vary which pipeline arrival dies so early and late crashes
          // both occur (0 disables the pinned crash).
          c.plan.crash_at_arrival = pinned_crash ? 1 + (s % 6) : 0;
          out.push_back(c);
        }
      }
    }
  }

  // Coordinator-fault axis (appended so the base grid keeps its order):
  // a pinned coordinator crash at each of the four 2PC protocol steps,
  // crossed with message-fault mixes, at a fixed 3-site deployment — two
  // participants to strand, plus a surviving peer for the cooperative
  // termination protocol's status queries.
  std::vector<Mix> coord_mixes;
  {
    Mix bare{"coord-crash", {}};
    bare.plan.coord_recover_permille = 400;
    coord_mixes.push_back(bare);
    Mix lossy{"coord-lossy", {}};
    lossy.plan.coord_recover_permille = 400;
    lossy.plan.msg_loss_permille = 150;
    lossy.plan.msg_retries = 2;
    // Spurious timeouts land on the peer-query wait path too, wasting
    // termination rounds (bounded retry + backoff).
    lossy.plan.spurious_timeout_permille = 120;
    coord_mixes.push_back(lossy);
    Mix chaos{"coord-chaos", {}};
    chaos.plan.coord_recover_permille = 300;
    chaos.plan.msg_loss_permille = 100;
    chaos.plan.msg_latency_permille = 250;
    chaos.plan.msg_latency_us = 100;
    chaos.plan.msg_retries = 2;
    chaos.plan.decision_force_fail_permille = 100;
    chaos.plan.site_fail_permille = 60;
    chaos.plan.site_recover_permille = 300;
    coord_mixes.push_back(chaos);
  }
  const FaultSite coord_steps[] = {
      FaultSite::kCoordPrePrepare, FaultSite::kCoordPostPrepare,
      FaultSite::kCoordPostDecision, FaultSite::kCoordMidDelivery};
  constexpr int kCoordSites = 3;
  for (std::uint64_t step_index = 0; step_index < std::size(coord_steps);
       ++step_index) {
    const FaultSite step = coord_steps[step_index];
    for (const Mix& mix : coord_mixes) {
      // Continues the base grid's mix numbering so no two cells —
      // across both axes — share a seed stream.
      const auto mix_index =
          static_cast<std::uint64_t>(mixes.size()) +
          step_index * coord_mixes.size() +
          static_cast<std::uint64_t>(&mix - coord_mixes.data());
      for (Protocol protocol : options.protocols) {
        for (std::uint64_t s = 1; s <= options.seeds_per_cell; ++s) {
          DistSweepCase c;
          c.plan = mix.plan;
          c.protocol = protocol;
          c.sites = kCoordSites;
          c.sharded = options.sharded;
          c.replicated = options.replicated;
          c.transactions = options.transactions;
          c.initial_balance = options.initial_balance;
          c.plan.seed = s * 1000003ULL +
                        static_cast<std::uint64_t>(kCoordSites) * 7919ULL +
                        mix_index * 101ULL + static_cast<std::uint64_t>(protocol);
          c.plan.coord_crash_point = step;
          // Vary which 2PC hits the crash so early and late coordinator
          // deaths both occur.
          c.plan.coord_crash_at_arrival = 1 + (s % 3);
          out.push_back(c);
        }
      }
    }
  }
  return out;
}

DistSweepSummary run_dist_sweep(const DistSweepOptions& options) {
  DistSweepSummary summary;
  for (const DistSweepCase& c : enumerate_dist_cases(options)) {
    const DistCaseResult result = run_case(c);
    ++summary.cases;
    summary.faults_injected += result.faults_injected;
    summary.site_fails += result.stats.site_fails;
    summary.committed += result.committed;
    summary.two_pc_commits += result.stats.two_pc_commits;
    summary.promoted_commits += result.stats.promoted_commits;
    summary.coord_crashes += result.stats.coord_crashes;
    summary.termination_promotions += result.stats.termination_promoted +
                                      result.stats.termination_peer_promotions;
    if (!result.ok) summary.failures.push_back({c, result.failure});
  }
  return summary;
}

}  // namespace argus
