#include "sim/sched_explore.h"

#include <memory>
#include <sstream>

#include "common/rng.h"
#include "common/scope_guard.h"
#include "dsched/task_lane.h"
#include "sched/executor.h"
#include "sched/factory.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/fifo_queue.h"

namespace argus {

namespace {

/// Per-lane decision stream, derived from the case seed so the whole
/// workload is a pure function of (case, schedule).
SplitMix64 lane_rng(const SchedCase& c, int lane) {
  return SplitMix64(c.seed * 0x9e3779b97f4a7c15ULL + 101ULL +
                    static_cast<std::uint64_t>(lane));
}

/// One lane's workload, txns_per_lane transactions, stopping once the
/// pinned crash has fired.
///   * bank: transfers that read back the debited account inside the
///     same transaction. The balance read is the regression tripwire — a
///     chaos-admitted stale view records a balance that cannot replay in
///     canonical commit order, which is exactly what the
///     dynamic-atomicity checker rejects.
///   * queue: enqueue a lane-unique value, sometimes dequeue (always
///     enabled: the own enqueue is already in this transaction's view).
void run_lane(Runtime& rt, const SchedCase& c, bool bank,
              const std::vector<std::shared_ptr<ManagedObject>>& objects,
              FaultInjector* injector, int lane) {
  SplitMix64 rng = lane_rng(c, lane);
  for (int i = 0; i < c.txns_per_lane; ++i) {
    if (injector != nullptr && injector->crashes_fired() > 0) break;
    auto t = rt.begin();
    try {
      if (bank) {
        const std::size_t from = random_transfer(*t, objects, rng, 3);
        objects[from]->invoke(*t, account::balance());
      } else {
        const std::size_t at = rng.below(objects.size());
        objects[at]->invoke(
            *t, fifo::enqueue(static_cast<std::int64_t>(lane) * 1000 + i));
        if (rng.chance(1, 2)) objects[at]->invoke(*t, fifo::dequeue());
      }
      rt.commit(t);
    } catch (const TransactionAborted&) {
      rt.abort(t);
    }
  }
}

/// Executor mode (SchedCase::max_retries > 0): the lanes are the workers
/// of a TxnExecutor with that retry budget, fed by a feeder lane with
/// lanes * txns_per_lane tasks — every fourth a whole-bank audit, the
/// rest transfers — the integration suite's mix, in which long audits
/// and transfers keep closing waits-for cycles. Returns the number of
/// tasks that exhausted their budget.
std::uint64_t run_executor_lanes(
    DeterministicScheduler& sched, Runtime& rt, const SchedCase& c,
    const std::vector<std::shared_ptr<ManagedObject>>& objects,
    FaultInjector* injector) {
  ExecutorOptions options;
  options.workers = c.lanes;
  options.max_retries = c.max_retries;
  options.thread_factory = [&sched](const std::string& name,
                                    std::function<void()> body) {
    sched.spawn(name, std::move(body));
  };
  const std::size_t first_lane = sched.lane_count();
  TxnExecutor pool(rt, options);
  const TxnKind audit_kind = supports_snapshot_reads(c.protocol)
                                 ? TxnKind::kReadOnly
                                 : TxnKind::kUpdate;
  sched.spawn("feeder", [&] {
    const int tasks = c.lanes * c.txns_per_lane;
    for (int k = 0; k < tasks; ++k) {
      TxnExecutor::Task task;
      task.seed = c.seed * 0x9e3779b97f4a7c15ULL + 101ULL +
                  static_cast<std::uint64_t>(k);
      if (k % 4 == 0) {
        task.label = "audit";
        task.kind = audit_kind;
        task.body = [&objects](Transaction& txn, SplitMix64&) {
          for (const auto& o : objects) o->invoke(txn, account::balance());
        };
      } else {
        task.label = "transfer";
        task.body = [&objects, injector](Transaction& txn, SplitMix64& rng) {
          if (injector != nullptr && injector->crashes_fired() > 0) return;
          random_transfer(txn, objects, rng, 3);
        };
      }
      pool.submit(std::move(task));
    }
    pool.shutdown();  // drain, then stop the worker lanes
  });
  sched.await_lanes(first_lane + static_cast<std::size_t>(c.lanes) + 1);
  sched.run();
  return pool.stats().gave_up;
}

/// Runs one case under an externally owned schedule source (external so
/// run_dfs_explore can drive many runs through one DFS source).
SchedCaseResult run_with_source(const SchedCase& c, ScheduleSource& source) {
  SchedCaseResult result;
  Probes probes;

  source.begin_run();
  DschedOptions sched_options;
  sched_options.max_steps = 200'000;
  DeterministicScheduler sched(source, sched_options);
  Runtime rt(Runtime::RecorderMode::kFlight, SchedMode::kDeterministic,
             &sched);
  // Whatever unwinds below, the scheduler must be released before the
  // Runtime (and its sentinel thread) is torn down, or teardown would
  // wait on lanes that are never scheduled again.
  const auto release_guard = on_scope_exit([&] { sched.release(); });

  const bool bank = c.weaken_admission || c.adt != "queue";
  std::vector<std::shared_ptr<ManagedObject>> objects;
  objects.reserve(static_cast<std::size_t>(c.objects));
  for (int i = 0; i < c.objects; ++i) {
    const std::string name = "x" + std::to_string(i);
    if (c.weaken_admission) {
      // The seeded regression: a dynamic object that admits everything.
      auto obj = std::make_shared<DynamicAtomicObject<BankAccountAdt>>(
          rt.allocate_object_id(), name, rt.tm(), rt.recorder(),
          AdmissionMode::kChaosAdmitAll);
      rt.adopt(obj, std::make_shared<AdtSpec<BankAccountAdt>>());
      objects.push_back(std::move(obj));
    } else if (bank) {
      objects.push_back(make_object<BankAccountAdt>(rt, c.protocol, name));
    } else {
      objects.push_back(make_object<FifoQueueAdt>(rt, c.protocol, name));
    }
  }
  // 50ms of *virtual* time: generous against real blocking, but advanced
  // only by schedule decisions, so timeouts replay byte-for-byte.
  rt.set_wait_timeout_all(std::chrono::milliseconds(50));

  // Setup runs on the control thread (a pass-through, not a lane) before
  // any lane exists, so it is trivially deterministic.
  if (bank) seed_accounts(rt, objects, c.initial_balance);

  FaultPlan plan = c.fault;
  plan.seed = c.seed;  // one seed drives schedule and faults alike
  auto injector = std::make_shared<FaultInjector>(plan);
  rt.set_fault_injector(injector);

  if (c.live_sentinel) {
    SentinelOptions sentinel_options;
    sentinel_options.window = std::chrono::milliseconds(1);
    rt.start_sentinel(sentinel_options);
    // The sentinel daemon must be lane 0 in every run, or lane ids — and
    // with them every schedule string — would depend on OS thread
    // startup timing.
    sched.await_lanes(1);
  }

  if (c.max_retries > 0 && bank) {
    const std::uint64_t gave_up =
        run_executor_lanes(sched, rt, c, objects, injector.get());
    probes.check(gave_up == 0, "starvation: " + std::to_string(gave_up) +
                                   " task(s) exhausted max_retries " +
                                   std::to_string(c.max_retries));
  } else {
    const std::size_t daemon_lanes = sched.lane_count();
    for (int lane = 0; lane < c.lanes; ++lane) {
      sched.spawn("lane" + std::to_string(lane), [&rt, &c, &objects, injector,
                                                  bank, lane] {
        run_lane(rt, c, bank, objects, injector.get(), lane);
      });
    }
    sched.await_lanes(daemon_lanes + static_cast<std::size_t>(c.lanes));
    sched.run();
  }

  result.schedule = sched.schedule_string();
  result.steps = sched.steps();
  result.overflowed = sched.overflowed();
  result.crashed_mid_run = injector->crashes_fired() > 0;
  probes.check(!result.overflowed,
               "scheduler: run exceeded max_steps (not certifiable)");
  for (const std::string& e : sched.lane_errors()) {
    probes.fail("lane error: " + e);
  }

  // Whole-node failure then recovery, exactly like the fault sweep, so
  // every explored interleaving also exercises crash -> recover.
  if (!result.crashed_mid_run) rt.crash();
  rt.set_fault_injector(nullptr);  // recovery and verification fault-free
  bool recovered = false;
  try {
    rt.recover();
    recovered = true;
  } catch (const std::exception& e) {
    // A log that does not replay is itself a certification failure (the
    // expected symptom of chaos admission: recorded results that no
    // serial order reproduces).
    probes.fail(std::string("recovery: ") + e.what());
  }

  // Probe: conservation (meaningless under chaos admission, where lost
  // and duplicated money is the expected symptom).
  if (recovered && bank && !c.weaken_admission) {
    probe_conservation(rt, objects, c.objects * c.initial_balance, probes);
  }

  // Probes over the stable log: replay order and watermark coverage.
  probe_stable_log(rt, probes);

  // Formal certification over the full recorded history (this workload
  // has no read-only activities). Chaos admission breaks a dynamic
  // object, so that is the property it must be caught violating.
  const History h = rt.history();
  probes.check(certify(c.weaken_admission ? Protocol::kDynamic : c.protocol,
                       rt.system(), h));

  probe_sentinel(rt, probes);

  const TxnStats stats = rt.tm().stats();
  result.committed = stats.committed;
  result.aborted = stats.aborted;
  result.faults_injected = injector->faults_injected();
  result.trace = h.to_string() + injector->trace_to_string();
  probes.settle(result);
  return result;
}

}  // namespace

std::string to_string(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kRandom:
      return "random";
    case ScheduleKind::kPct:
      return "pct";
    case ScheduleKind::kDfs:
      return "dfs";
    case ScheduleKind::kReplay:
      return "replay";
  }
  return "unknown";
}

std::string to_config_string(const SchedCase& c) {
  std::ostringstream out;
  out << "# dsched case (replay: examples/case_replay sched <file>)\n";
  out << "kind " << to_string(c.kind) << "\n";
  out << "seed " << c.seed << "\n";
  out << "pct_change_points " << c.pct_change_points << "\n";
  out << "protocol " << to_string(c.protocol) << "\n";
  out << "adt " << c.adt << "\n";
  out << "objects " << c.objects << "\n";
  out << "lanes " << c.lanes << "\n";
  out << "txns_per_lane " << c.txns_per_lane << "\n";
  out << "initial_balance " << c.initial_balance << "\n";
  out << "live_sentinel " << (c.live_sentinel ? 1 : 0) << "\n";
  out << "weaken_admission " << (c.weaken_admission ? 1 : 0) << "\n";
  out << "max_retries " << c.max_retries << "\n";
  print_plan(out, c.fault, PlanKeys::kSched);
  if (!c.schedule.empty()) out << "schedule " << c.schedule << "\n";
  return out.str();
}

bool parse_case(const std::string& text, SchedCase* out, std::string* error) {
  SchedCase c;
  const auto field = [&c](const std::string& key,
                          const std::string& value) -> std::string {
    if (key == "kind") {
      return parse_name("schedule kind", value, kScheduleKindCount, &c.kind);
    }
    if (key == "seed") return parse_count(value, &c.seed);
    if (key == "pct_change_points") {
      return parse_count(value, &c.pct_change_points);
    }
    if (key == "protocol") {
      return parse_name(key, value, kAllProtocols.size(), &c.protocol);
    }
    if (key == "adt") {
      if (value != "bank" && value != "queue") return "unknown adt: " + value;
      c.adt = value;
      return "";
    }
    if (key == "objects") {
      return parse_bounded(key, value, kMaxCaseObjects, &c.objects);
    }
    if (key == "lanes") {
      return parse_bounded(key, value, kMaxCaseLanes, &c.lanes);
    }
    if (key == "txns_per_lane") return parse_count(value, &c.txns_per_lane);
    if (key == "initial_balance") {
      return parse_count(value, &c.initial_balance);
    }
    if (key == "live_sentinel") return parse_count(value, &c.live_sentinel);
    if (key == "weaken_admission") {
      return parse_count(value, &c.weaken_admission);
    }
    if (key == "max_retries") return parse_count(value, &c.max_retries);
    if (key == "schedule") {
      std::vector<std::uint32_t> choices;
      std::string why;
      if (!parse_schedule_string(value, &choices, &why)) {
        return "bad schedule: " + why;
      }
      c.schedule = value;
      return "";
    }
    return parse_plan_field(key, value, PlanKeys::kSched, &c.fault);
  };
  if (!parse_case_lines(text, field, error)) return false;
  *out = c;
  return true;
}

SchedCaseResult run_case(const SchedCase& c) {
  switch (c.kind) {
    case ScheduleKind::kRandom: {
      RandomScheduleSource source(c.seed);
      return run_with_source(c, source);
    }
    case ScheduleKind::kPct: {
      PctScheduleSource source(c.seed, c.pct_change_points);
      return run_with_source(c, source);
    }
    case ScheduleKind::kDfs: {
      // The leftmost DFS path only; run_dfs_explore walks the tree.
      DfsScheduleSource source;
      return run_with_source(c, source);
    }
    case ScheduleKind::kReplay: {
      std::vector<std::uint32_t> choices;
      std::string error;
      if (!parse_schedule_string(c.schedule, &choices, &error)) {
        SchedCaseResult bad;
        bad.failure = "bad schedule string: " + error;
        return bad;
      }
      ReplayScheduleSource source(std::move(choices));
      return run_with_source(c, source);
    }
  }
  SchedCaseResult bad;
  bad.failure = "unknown schedule kind";
  return bad;
}

DfsIndependence sched_independence(const std::string& adt) {
  const bool bank = adt != "queue";
  return [bank](const DfsStep& a, const DfsStep& b) {
    if (a.lane == b.lane) return false;  // program order is never reordered
    if (a.hint.point != WaitPoint::kObjectInvoke ||
        b.hint.point != WaitPoint::kObjectInvoke) {
      return false;  // only invocation steps carry a commutativity fact
    }
    if (!a.hint.has_object || !b.hint.has_object || !a.hint.has_op ||
        !b.hint.has_op) {
      return false;
    }
    if (!(a.hint.object == b.hint.object)) return true;
    return bank ? BankAccountAdt::static_commutes(a.hint.op, b.hint.op)
                : FifoQueueAdt::static_commutes(a.hint.op, b.hint.op);
  };
}

DfsExploreResult run_dfs_explore(const SchedCase& base,
                                 std::uint64_t max_runs,
                                 std::size_t max_depth) {
  SchedCase c = base;
  c.kind = ScheduleKind::kDfs;
  // The sentinel daemon would both inflate the branching factor and make
  // the ready sets depend on drain timing; DFS runs without it (offline
  // checkers still certify every path).
  c.live_sentinel = false;

  DfsOptions options;
  options.max_runs = max_runs;
  options.max_depth = max_depth;
  options.independent = sched_independence(c.weaken_admission ? "bank"
                                                              : c.adt);
  DfsScheduleSource source(std::move(options));

  DfsExploreResult out;
  do {
    const SchedCaseResult result = run_with_source(c, source);
    ++out.runs;
    if (result.ok) {
      ++out.certified;
    } else {
      out.failures.push_back({result.schedule, result.failure});
    }
  } while (source.next_run());
  out.pruned_branches = source.pruned_branches();
  out.exhausted = source.exhausted();
  return out;
}

std::vector<SchedCase> enumerate_sched_cases(
    const SchedExploreOptions& options) {
  struct Family {
    const char* adt;
    Protocol protocol;
  };
  const Family families[] = {
      {"bank", Protocol::kDynamic},
      {"bank", Protocol::kHybrid},
      {"bank", Protocol::kTwoPhase},
      {"bank", Protocol::kOcc},
      {"bank", Protocol::kMvcc},
      {"queue", Protocol::kDynamic},
  };

  // Fault mixes: clean, wait-path chaos, log-path chaos, pinned crash.
  struct Mix {
    const char* name;
    FaultPlan plan;  // seed overwritten per case
  };
  std::vector<Mix> mixes;
  {
    Mix clean{"clean", {}};
    mixes.push_back(clean);
    Mix waits{"wait-chaos", {}};
    waits.plan.spurious_timeout_permille = 60;
    waits.plan.delayed_wakeup_permille = 100;
    waits.plan.delayed_wakeup_us = 50;
    mixes.push_back(waits);
    Mix log{"log-chaos", {}};
    log.plan.force_fail_permille = 200;
    log.plan.force_max_retries = 2;
    log.plan.force_retry_backoff_us = 10;
    log.plan.torn_batch_permille = 200;
    mixes.push_back(log);
    Mix crash{"mid-apply-crash", {}};
    crash.plan.crash_point = FaultSite::kMidApply;
    crash.plan.crash_at_arrival = 2;
    mixes.push_back(crash);
  }

  std::vector<SchedCase> out;
  for (ScheduleKind kind : {ScheduleKind::kRandom, ScheduleKind::kPct}) {
    for (const Family& family : families) {
      if (options.weaken_admission &&
          (family.protocol != Protocol::kDynamic ||
           std::string(family.adt) == "queue")) {
        continue;  // the chaos-admission knob only exists on dynamic bank
      }
      for (const Mix& mix : mixes) {
        for (std::uint64_t s = 1; s <= options.seeds_per_cell; ++s) {
          SchedCase c;
          c.kind = kind;
          c.protocol = family.protocol;
          c.adt = family.adt;
          c.objects = options.objects;
          c.lanes = options.lanes;
          c.txns_per_lane = options.txns_per_lane;
          c.initial_balance = options.initial_balance;
          c.weaken_admission = options.weaken_admission;
          c.fault = mix.plan;
          // The seed identifies the whole cell, so no two cells share a
          // decision stream (schedule or faults).
          c.seed = s * 1000003ULL +
                   static_cast<std::uint64_t>(kind) * 7919ULL +
                   static_cast<std::uint64_t>(&family - families) * 101ULL +
                   static_cast<std::uint64_t>(&mix - mixes.data()) * 13ULL +
                   static_cast<std::uint64_t>(family.protocol);
          out.push_back(std::move(c));
        }
      }
    }
  }
  return out;
}

SchedExploreSummary run_sched_explore(const SchedExploreOptions& options) {
  SchedExploreSummary summary;
  for (const SchedCase& c : enumerate_sched_cases(options)) {
    const SchedCaseResult result = run_case(c);
    ++summary.cases;
    if (result.ok) ++summary.certified;
    if (result.crashed_mid_run) ++summary.crashed_mid_run;
    summary.committed += result.committed;
    summary.faults_injected += result.faults_injected;
    summary.schedule_steps += result.steps;
    if (!result.ok) {
      SchedExploreFailure failure;
      failure.config = c;
      failure.failure = result.failure;
      failure.schedule = result.schedule;
      failure.minimized = minimize_failing_schedule(
          c, result.schedule,
          [](const SchedCase& probe) { return !run_case(probe).ok; });
      summary.failures.push_back(std::move(failure));
    }
  }
  return summary;
}

SchedCase minimize_failing_schedule(
    const SchedCase& failing, const std::string& recorded,
    const std::function<bool(const SchedCase&)>& still_fails) {
  std::vector<std::uint32_t> choices;
  std::string error;
  if (!parse_schedule_string(recorded, &choices, &error)) {
    return failing;  // unparseable recording: nothing to minimize
  }

  SchedCase probe = failing;
  probe.kind = ScheduleKind::kReplay;

  const auto prefix = [&](std::size_t len) {
    return to_schedule_string(std::vector<std::uint32_t>(
        choices.begin(),
        choices.begin() + static_cast<std::ptrdiff_t>(len)));
  };

  // Past the replayed prefix the source defaults to the lowest-id ready
  // lane, so a prefix of length 0 is "the default schedule". The full
  // recording reproduces the failure by construction.
  probe.schedule = prefix(bisect_smallest_failing(
      choices.size(), [&](std::uint64_t len) {
        probe.schedule = prefix(len);
        return still_fails(probe);
      }));
  return probe;
}

}  // namespace argus
