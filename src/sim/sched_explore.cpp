#include "sim/sched_explore.h"

#include <memory>
#include <optional>
#include <sstream>

#include "check/atomicity.h"
#include "common/rng.h"
#include "common/scope_guard.h"
#include "core/dynamic_object.h"
#include "core/runtime.h"
#include "dsched/task_lane.h"
#include "hist/wellformed.h"
#include "sched/executor.h"
#include "spec/adts/bank_account.h"
#include "spec/adts/fifo_queue.h"

namespace argus {

namespace {

std::optional<Protocol> protocol_from_string(const std::string& name) {
  for (Protocol p : {Protocol::kDynamic, Protocol::kStatic, Protocol::kHybrid,
                     Protocol::kTwoPhase, Protocol::kCommutativity,
                     Protocol::kTimestamp, Protocol::kOcc, Protocol::kMvcc}) {
    if (to_string(p) == name) return p;
  }
  return std::nullopt;
}

std::optional<ScheduleKind> kind_from_string(const std::string& name) {
  for (ScheduleKind k : {ScheduleKind::kRandom, ScheduleKind::kPct,
                         ScheduleKind::kDfs, ScheduleKind::kReplay}) {
    if (to_string(k) == name) return k;
  }
  return std::nullopt;
}

/// Per-lane decision stream, derived from the case seed so the whole
/// workload is a pure function of (case, schedule).
SplitMix64 lane_rng(const SchedCase& c, int lane) {
  return SplitMix64(c.seed * 0x9e3779b97f4a7c15ULL + 101ULL +
                    static_cast<std::uint64_t>(lane));
}

/// One lane's bank workload: transfers that read back the debited
/// account inside the same transaction. The balance read is the
/// regression tripwire — a chaos-admitted stale view records a balance
/// that cannot replay in canonical commit order, which is exactly what
/// the dynamic-atomicity checker rejects.
void bank_lane(Runtime& rt, const SchedCase& c,
               const std::vector<std::shared_ptr<ManagedObject>>& objects,
               FaultInjector* injector, int lane) {
  SplitMix64 rng = lane_rng(c, lane);
  const std::size_t n = objects.size();
  for (int i = 0; i < c.txns_per_lane; ++i) {
    if (injector != nullptr && injector->crashes_fired() > 0) break;
    auto t = rt.begin();
    try {
      const std::size_t from = rng.below(n);
      const std::size_t to = n > 1 ? (from + 1 + rng.below(n - 1)) % n : from;
      const std::int64_t amount = rng.range(1, 3);
      const Value got = objects[from]->invoke(*t, account::withdraw(amount));
      if (got.is_unit()) objects[to]->invoke(*t, account::deposit(amount));
      objects[from]->invoke(*t, account::balance());
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
          const std::size_t n = objects.size();
          const std::size_t from = rng.below(n);
          const std::size_t to =
              n > 1 ? (from + 1 + rng.below(n - 1)) % n : from;
          const std::int64_t amount = rng.range(1, 3);
          if (objects[from]->invoke(txn, account::withdraw(amount))
                  .is_unit()) {
            objects[to]->invoke(txn, account::deposit(amount));
          }
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

/// One lane's queue workload: enqueue a lane-unique value, sometimes
/// dequeue (always enabled: the own enqueue is already in this
/// transaction's view).
void queue_lane(Runtime& rt, const SchedCase& c,
                const std::vector<std::shared_ptr<ManagedObject>>& objects,
                FaultInjector* injector, int lane) {
  SplitMix64 rng = lane_rng(c, lane);
  const std::size_t n = objects.size();
  for (int i = 0; i < c.txns_per_lane; ++i) {
    if (injector != nullptr && injector->crashes_fired() > 0) break;
    auto t = rt.begin();
    try {
      const std::size_t at = rng.below(n);
      objects[at]->invoke(
          *t, fifo::enqueue(static_cast<std::int64_t>(lane) * 1000 + i));
      if (rng.chance(1, 2)) objects[at]->invoke(*t, fifo::dequeue());
      rt.commit(t);
    } catch (const TransactionAborted&) {
      rt.abort(t);
    }
  }
}

/// Runs one case under an externally owned schedule source (external so
/// run_dfs_explore can drive many runs through one DFS source).
SchedCaseResult run_with_source(const SchedCase& c, ScheduleSource& source) {
  SchedCaseResult result;
  std::vector<std::string> failures;
  auto probe = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };

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
  if (bank) {
    auto setup = rt.begin();
    for (auto& o : objects) {
      o->invoke(*setup, account::deposit(c.initial_balance));
    }
    rt.commit(setup);
  }

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
    probe(gave_up == 0, "starvation: " + std::to_string(gave_up) +
                            " task(s) exhausted max_retries " +
                            std::to_string(c.max_retries));
  } else {
    const std::size_t daemon_lanes = sched.lane_count();
    for (int lane = 0; lane < c.lanes; ++lane) {
      sched.spawn("lane" + std::to_string(lane), [&rt, &c, &objects, injector,
                                                  bank, lane] {
        if (bank) {
          bank_lane(rt, c, objects, injector.get(), lane);
        } else {
          queue_lane(rt, c, objects, injector.get(), lane);
        }
      });
    }
    sched.await_lanes(daemon_lanes + static_cast<std::size_t>(c.lanes));
    sched.run();
  }

  result.schedule = sched.schedule_string();
  result.steps = sched.steps();
  result.overflowed = sched.overflowed();
  result.crashed_mid_run = injector->crashes_fired() > 0;
  probe(!result.overflowed,
        "scheduler: run exceeded max_steps (not certifiable)");
  for (const std::string& e : sched.lane_errors()) {
    failures.push_back("lane error: " + e);
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
    failures.push_back(std::string("recovery: ") + e.what());
  }

  // Probe: conservation (meaningless under chaos admission, where lost
  // and duplicated money is the expected symptom).
  if (recovered && bank && !c.weaken_admission) {
    auto check = rt.begin();
    std::int64_t total = 0;
    for (auto& o : objects) {
      total += o->invoke(*check, account::balance()).as_int();
    }
    rt.commit(check);
    const std::int64_t expected =
        static_cast<std::int64_t>(c.objects) * c.initial_balance;
    probe(total == expected,
          "conservation: recovered total " + std::to_string(total) +
              " != " + std::to_string(expected));
  }

  // Probes over the stable log: replay order and watermark coverage.
  {
    const auto records = rt.tm().log().records();
    const Timestamp watermark = rt.tm().clock().watermark();
    Timestamp prev = 0;
    for (const auto& record : records) {
      probe(record.commit_ts >= prev,
            "log order: record ts " + std::to_string(record.commit_ts) +
                " after ts " + std::to_string(prev));
      prev = record.commit_ts;
      probe(record.commit_ts <= watermark,
            "watermark: forced ts " + std::to_string(record.commit_ts) +
                " above watermark " + std::to_string(watermark));
    }
  }

  // Formal certification over the full recorded history (this workload
  // has no read-only activities).
  const History h = rt.history();
  switch (c.weaken_admission ? Protocol::kDynamic : c.protocol) {
    case Protocol::kDynamic:
    case Protocol::kTwoPhase:
    case Protocol::kCommutativity: {
      const auto wf = check_well_formed(h);
      probe(wf.ok(), "well-formed: " + wf.summary());
      const auto verdict = check_dynamic_atomic(rt.system(), h);
      probe(verdict.ok, "dynamic atomic: " + verdict.explanation);
      break;
    }
    case Protocol::kStatic:
    case Protocol::kTimestamp: {
      const auto wf = check_well_formed_static(h);
      probe(wf.ok(), "well-formed(static): " + wf.summary());
      const auto verdict = check_static_atomic(rt.system(), h);
      probe(verdict.ok, "static atomic: " + verdict.explanation);
      break;
    }
    case Protocol::kHybrid:
    case Protocol::kOcc:
    case Protocol::kMvcc: {
      // OCC/MVCC serialize updates at their commit timestamp (validation
      // runs at the pipeline's turn), so their histories are certified
      // against the same hybrid-atomicity property.
      const auto wf = check_well_formed_hybrid(h, {});
      probe(wf.ok(), "well-formed(hybrid): " + wf.summary());
      const auto verdict = check_hybrid_atomic(rt.system(), h);
      probe(verdict.ok, "hybrid atomic: " + verdict.explanation);
      break;
    }
  }

  if (AtomicitySentinel* sentinel = rt.sentinel()) {
    sentinel->stop();
    result.sentinel_violations = sentinel->violations();
    probe(result.sentinel_violations == 0,
          "sentinel: " + sentinel->last_violation());
    rt.stop_sentinel();
  }

  const TxnStats stats = rt.tm().stats();
  result.committed = stats.committed;
  result.aborted = stats.aborted;
  result.faults_injected = injector->faults_injected();
  result.trace = h.to_string() + injector->trace_to_string();
  result.ok = failures.empty();
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) result.failure += "\n";
    result.failure += failures[i];
  }
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
  out << "# dsched case (replay: sched_corpus_test <file>)\n";
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
  out << "force_fail_permille " << c.fault.force_fail_permille << "\n";
  out << "force_max_retries " << c.fault.force_max_retries << "\n";
  out << "force_retry_backoff_us " << c.fault.force_retry_backoff_us << "\n";
  out << "torn_batch_permille " << c.fault.torn_batch_permille << "\n";
  out << "leader_latency_permille " << c.fault.leader_latency_permille
      << "\n";
  out << "leader_latency_us " << c.fault.leader_latency_us << "\n";
  out << "crash_point " << to_string(c.fault.crash_point) << "\n";
  out << "crash_at " << c.fault.crash_at_arrival << "\n";
  out << "spurious_timeout_permille " << c.fault.spurious_timeout_permille
      << "\n";
  out << "delayed_wakeup_permille " << c.fault.delayed_wakeup_permille
      << "\n";
  out << "delayed_wakeup_us " << c.fault.delayed_wakeup_us << "\n";
  out << "max_faults " << c.fault.max_faults << "\n";
  if (!c.schedule.empty()) out << "schedule " << c.schedule << "\n";
  return out.str();
}

bool parse_sched_case(const std::string& text, SchedCase* out,
                      std::string* error) {
  SchedCase c;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why;
    }
    return false;
  };
  while (std::getline(in, line)) {
    ++line_no;
    // Trim; skip blanks and '#' comments (same lexical rules as parse.h).
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);
    if (line[0] == '#') continue;

    std::istringstream fields(line);
    std::string key, value, extra;
    if (!(fields >> key >> value) || (fields >> extra)) {
      return fail("expected `key value`: " + line);
    }

    if (key == "kind") {
      const auto k = kind_from_string(value);
      if (!k) return fail("unknown schedule kind: " + value);
      c.kind = *k;
      continue;
    }
    if (key == "protocol") {
      const auto p = protocol_from_string(value);
      if (!p) return fail("unknown protocol: " + value);
      c.protocol = *p;
      continue;
    }
    if (key == "adt") {
      if (value != "bank" && value != "queue") {
        return fail("unknown adt: " + value);
      }
      c.adt = value;
      continue;
    }
    if (key == "crash_point") {
      const auto site = fault_site_from_string(value);
      if (!site) return fail("unknown crash point: " + value);
      c.fault.crash_point = *site;
      continue;
    }
    if (key == "schedule") {
      std::vector<std::uint32_t> choices;
      std::string sched_error;
      if (!parse_schedule_string(value, &choices, &sched_error)) {
        return fail("bad schedule: " + sched_error);
      }
      c.schedule = value;
      continue;
    }

    std::uint64_t n = 0;
    try {
      n = std::stoull(value);
    } catch (const std::exception&) {
      return fail("not a number: " + value);
    }
    if (key == "seed") {
      c.seed = n;
    } else if (key == "pct_change_points") {
      c.pct_change_points = static_cast<std::uint32_t>(n);
    } else if (key == "objects") {
      if (n == 0) return fail("objects must be > 0");
      c.objects = static_cast<int>(n);
    } else if (key == "lanes") {
      if (n == 0) return fail("lanes must be > 0");
      c.lanes = static_cast<int>(n);
    } else if (key == "txns_per_lane") {
      c.txns_per_lane = static_cast<int>(n);
    } else if (key == "initial_balance") {
      c.initial_balance = static_cast<std::int64_t>(n);
    } else if (key == "live_sentinel") {
      c.live_sentinel = n != 0;
    } else if (key == "weaken_admission") {
      c.weaken_admission = n != 0;
    } else if (key == "max_retries") {
      c.max_retries = static_cast<int>(n);
    } else if (key == "force_fail_permille") {
      c.fault.force_fail_permille = static_cast<std::uint32_t>(n);
    } else if (key == "force_max_retries") {
      c.fault.force_max_retries = static_cast<std::uint32_t>(n);
    } else if (key == "force_retry_backoff_us") {
      c.fault.force_retry_backoff_us = static_cast<std::uint32_t>(n);
    } else if (key == "torn_batch_permille") {
      c.fault.torn_batch_permille = static_cast<std::uint32_t>(n);
    } else if (key == "leader_latency_permille") {
      c.fault.leader_latency_permille = static_cast<std::uint32_t>(n);
    } else if (key == "leader_latency_us") {
      c.fault.leader_latency_us = static_cast<std::uint32_t>(n);
    } else if (key == "crash_at") {
      c.fault.crash_at_arrival = n;
    } else if (key == "spurious_timeout_permille") {
      c.fault.spurious_timeout_permille = static_cast<std::uint32_t>(n);
    } else if (key == "delayed_wakeup_permille") {
      c.fault.delayed_wakeup_permille = static_cast<std::uint32_t>(n);
    } else if (key == "delayed_wakeup_us") {
      c.fault.delayed_wakeup_us = static_cast<std::uint32_t>(n);
    } else if (key == "max_faults") {
      c.fault.max_faults = n;
    } else {
      return fail("unknown key: " + key);
    }
  }
  *out = c;
  return true;
}

SchedCaseResult run_sched_case(const SchedCase& c) {
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
    const SchedCaseResult result = run_sched_case(c);
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
          [](const SchedCase& probe) { return !run_sched_case(probe).ok; });
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
  // lane, so a prefix of length 0 is "the default schedule".
  probe.schedule = prefix(0);
  if (still_fails(probe)) return probe;

  // Invariant: fails at prefix hi (the full recording reproduces the
  // failure by construction), passes at lo.
  std::size_t lo = 0;
  std::size_t hi = choices.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    probe.schedule = prefix(mid);
    if (still_fails(probe)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  probe.schedule = prefix(hi);
  return probe;
}

}  // namespace argus
