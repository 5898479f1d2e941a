#include "sim/fault_sweep.h"

#include <memory>
#include <sstream>
#include <unordered_set>

#include "common/rng.h"
#include "sched/factory.h"
#include "spec/adts/bank_account.h"

namespace argus {

std::string to_config_string(const FaultSweepCase& c) {
  std::ostringstream out;
  out << "# fault-sweep case (replay: examples/case_replay fault <file>)\n";
  out << "protocol " << to_string(c.protocol) << "\n";
  out << "accounts " << c.accounts << "\n";
  out << "transactions " << c.transactions << "\n";
  out << "initial_balance " << c.initial_balance << "\n";
  print_plan(out, c.plan, PlanKeys::kFault);
  return out.str();
}

bool parse_case(const std::string& text, FaultSweepCase* out,
                std::string* error) {
  FaultSweepCase c;
  const auto field = [&c](const std::string& key, const std::string& value) {
    if (key == "protocol") {
      return parse_name(key, value, kAllProtocols.size(), &c.protocol);
    }
    if (key == "accounts") {
      return parse_bounded(key, value, kMaxCaseObjects, &c.accounts);
    }
    if (key == "transactions") return parse_count(value, &c.transactions);
    if (key == "initial_balance") {
      return parse_count(value, &c.initial_balance);
    }
    return parse_plan_field(key, value, PlanKeys::kFault, &c.plan);
  };
  if (!parse_case_lines(text, field, error)) return false;
  *out = c;
  return true;
}

FaultCaseResult run_case(const FaultSweepCase& c) {
  FaultCaseResult result;
  Probes probes;

  Runtime rt(Runtime::RecorderMode::kFlight);
  std::vector<std::shared_ptr<ManagedObject>> accounts;
  accounts.reserve(static_cast<std::size_t>(c.accounts));
  for (int i = 0; i < c.accounts; ++i) {
    accounts.push_back(make_object<BankAccountAdt>(
        rt, c.protocol, "a" + std::to_string(i)));
  }
  rt.set_wait_timeout_all(std::chrono::milliseconds(200));
  SentinelOptions sentinel_options;
  sentinel_options.window = std::chrono::milliseconds(2);
  rt.start_sentinel(sentinel_options);

  // Seed the bank before faults are live: the conservation probe needs a
  // known starting total, and the paper's fault model starts from a
  // quiescent committed state anyway.
  seed_accounts(rt, accounts, c.initial_balance);

  auto injector = std::make_shared<FaultInjector>(c.plan);
  rt.set_fault_injector(injector);

  // Deterministic single-threaded workload: transfers plus (under
  // snapshot protocols) read-only audits. Stop early if the pinned crash
  // fires — the node is "down" from that point.
  std::unordered_set<ActivityId> read_only;
  SplitMix64 rng(c.plan.seed * 0x9e3779b97f4a7c15ULL + 1);
  for (int i = 0; i < c.transactions; ++i) {
    if (injector->crashes_fired() > 0) break;
    const bool audit =
        supports_snapshot_reads(c.protocol) && rng.chance(1, 4);
    auto t = audit ? rt.begin_read_only() : rt.begin();
    if (audit) read_only.insert(t->id());
    try {
      if (audit) {
        for (auto& a : accounts) a->invoke(*t, account::balance());
      } else {
        random_transfer(*t, accounts, rng, 5);
      }
      rt.commit(t);
    } catch (const TransactionAborted&) {
      rt.abort(t);
    }
  }
  result.crashed_mid_run = injector->crashes_fired() > 0;

  // Whole-node failure, then recovery. If the pinned crash already fired
  // mid-workload the node is down; otherwise fail it now so every case
  // exercises crash -> recover.
  if (!result.crashed_mid_run) rt.crash();
  rt.set_fault_injector(nullptr);  // recovery and verification run fault-free
  rt.recover();

  probe_conservation(rt, accounts, c.accounts * c.initial_balance, probes);

  // Probes over the stable log: replay order and watermark coverage.
  result.log_records = probe_stable_log(rt, probes);
  probes.check(result.log_records > 0, "log: no record survived (setup must)");

  // Formal certification: well-formedness plus the protocol's local
  // atomicity property over the full recorded history (crash dooms and
  // all — aborted activities are part of h; perm(h) is what must
  // serialize).
  const History h = rt.history();
  probes.check(certify(c.protocol, rt.system(), h, read_only));

  // The online sentinel watched the same run, including the crash window.
  probe_sentinel(rt, probes);

  const TxnStats stats = rt.tm().stats();
  result.committed = stats.committed;
  result.aborted = stats.aborted;
  result.faults_injected = injector->faults_injected();
  result.trace = h.to_string() + injector->trace_to_string();
  probes.settle(result);
  return result;
}

std::vector<FaultSweepCase> enumerate_fault_cases(
    const FaultSweepOptions& options) {
  // Crash placements: no pinned crash, then each named pipeline stage.
  struct CrashCell {
    FaultSite point;
    bool enabled;
  };
  const CrashCell crash_cells[] = {
      {FaultSite::kPreForce, false},
      {FaultSite::kPreForce, true},
      {FaultSite::kPostForcePreApply, true},
      {FaultSite::kMidApply, true},
      {FaultSite::kPostApplyPreWatermark, true},
  };

  // Fault mixes: clean, each family alone, then everything at once.
  struct Mix {
    const char* name;
    FaultPlan plan;  // seed/crash fields overwritten per cell
  };
  std::vector<Mix> mixes;
  {
    Mix clean{"clean", {}};
    mixes.push_back(clean);
    Mix force_fail{"force-fail", {}};
    force_fail.plan.force_fail_permille = 250;
    force_fail.plan.force_max_retries = 2;
    force_fail.plan.force_retry_backoff_us = 10;
    mixes.push_back(force_fail);
    Mix torn{"torn-tail", {}};
    torn.plan.torn_batch_permille = 350;
    mixes.push_back(torn);
    Mix latency{"leader-latency", {}};
    latency.plan.leader_latency_permille = 300;
    latency.plan.leader_latency_us = 100;
    mixes.push_back(latency);
    Mix chaos{"chaos", {}};
    chaos.plan.force_fail_permille = 120;
    chaos.plan.force_max_retries = 2;
    chaos.plan.force_retry_backoff_us = 10;
    chaos.plan.torn_batch_permille = 150;
    chaos.plan.leader_latency_permille = 100;
    chaos.plan.leader_latency_us = 50;
    chaos.plan.spurious_timeout_permille = 50;
    chaos.plan.delayed_wakeup_permille = 80;
    chaos.plan.delayed_wakeup_us = 100;
    mixes.push_back(chaos);
  }

  std::vector<FaultSweepCase> out;
  for (const CrashCell& crash : crash_cells) {
    const auto crash_index =
        static_cast<std::uint64_t>(&crash - crash_cells);
    for (const Mix& mix : mixes) {
      for (Protocol protocol : options.protocols) {
        for (std::uint64_t s = 1; s <= options.seeds_per_cell; ++s) {
          FaultSweepCase c;
          c.plan = mix.plan;
          c.protocol = protocol;
          c.accounts = options.accounts;
          c.transactions = options.transactions;
          c.initial_balance = options.initial_balance;
          // Seed identifies the cell too, so no two cells share a
          // decision stream.
          c.plan.seed = s * 1000003ULL + crash_index * 7919ULL +
                        static_cast<std::uint64_t>(&mix - mixes.data()) * 101ULL +
                        static_cast<std::uint64_t>(protocol);
          c.plan.crash_point = crash.point;
          // Vary which arrival dies so early and late crashes both occur.
          c.plan.crash_at_arrival = crash.enabled ? 1 + (s % 6) : 0;
          out.push_back(c);
        }
      }
    }
  }
  return out;
}

FaultSweepSummary run_fault_sweep(const FaultSweepOptions& options) {
  FaultSweepSummary summary;
  for (const FaultSweepCase& c : enumerate_fault_cases(options)) {
    const FaultCaseResult result = run_case(c);
    ++summary.cases;
    if (result.crashed_mid_run) ++summary.crashed_mid_run;
    summary.faults_injected += result.faults_injected;
    summary.committed += result.committed;
    if (!result.ok) summary.failures.push_back({c, result.failure});
  }
  return summary;
}

}  // namespace argus
