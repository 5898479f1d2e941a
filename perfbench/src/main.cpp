// perfbench: one workload per invocation, repeated in fixed-size rounds
// for --seconds, end-to-end metrics (--trace 0) or per-layer metrics
// (--trace 1) printed as one JSON object on the last line of stdout.
//
//   perfbench --workload bank-audit --seconds 30 [--seed 1] [--trace 0]
//             [--trace-out spans.csv] [--chaos]
//
// --seconds has no default here; perfbench/run.py passes run_seconds
// from BENCHMARK.json.
//
// Exit status: 0 when every correctness gate held, 1 when one tripped,
// 2 on a usage error. See perfbench/README.md for the metrics.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <latch>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{0};
  bool trace{false};
  std::string trace_out;
  bool chaos{false};
};

/// The first round warms caches and lazy set-up and is not measured; at
/// least this many measured rounds run however short --seconds is.
constexpr int kMinRounds = 4;

/// Mean of the middle half (the interquartile mean), used for the
/// per-layer values. Like a median, one disturbed round cannot move it;
/// unlike a median, it does not jump between two levels when per-round
/// values cluster at two levels (round recovery times do) and the share
/// of rounds at each shifts a little.
double middle_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Bytes the program holds through malloc now, over every arena. Unlike
/// the resident set, this does not depend on how much freed memory the
/// allocator keeps. It locks every arena while it counts, so it is read
/// only while no client runs.
double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// CPU placement for a workload with a background sentinel thread. With
/// more CPUs than clients, the client threads share the first kClients
/// CPUs of the process's set, and the main thread and every thread it
/// starts (the sentinel) run on the rest. When the sentinel shared a CPU
/// with a client, about 4% of bank-audit commits stalled for 2 ms, and a
/// whole run stayed in that state. Workloads without a sentinel are not
/// pinned: on 3 of the 4 CPUs, hot-withdraw lost a fifth of its
/// throughput.
struct Placement {
  bool pinned{false};
  cpu_set_t clients{};
};

Placement place_threads() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  if (CPU_COUNT(&allowed) <= kClients) return {};
  Placement out;
  out.pinned = true;
  CPU_ZERO(&out.clients);
  cpu_set_t rest;
  CPU_ZERO(&rest);
  int taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, taken++ < kClients ? &out.clients : &rest);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(rest), &rest);
  return out;
}

/// Runs `phase` on kClients threads released together. Returns the wall
/// time from the release to the last client's finish.
template <typename Phase>
double run_clients(const Placement& placement, std::vector<Client>& clients,
                   Phase&& phase) {
  std::latch ready(kClients);
  std::latch go(1);
  std::vector<Clock::time_point> finished(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& cl = clients[static_cast<std::size_t>(c)];
      if (placement.pinned) {
        pthread_setaffinity_np(pthread_self(), sizeof(placement.clients),
                               &placement.clients);
      }
      ready.count_down();
      go.wait();
      try {
        phase(c, cl);
      } catch (const std::exception& e) {
        cl.error = e.what();
      } catch (...) {
        cl.error = "unknown exception";
      }
      finished[static_cast<std::size_t>(c)] = Clock::now();
    });
  }
  ready.wait();
  const auto t0 = Clock::now();
  go.count_down();
  for (auto& t : threads) t.join();
  return std::chrono::duration<double>(
             *std::max_element(finished.begin(), finished.end()) - t0)
      .count();
}

std::vector<Client> make_clients(bool traced) {
  std::vector<Client> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) clients.emplace_back(traced);
  return clients;
}

/// Everything kept from one measured round.
struct Round {
  bool traced{false};
  double setup_s{0};
  double txn_per_s{0};
  double heap_mb{0};
  std::map<std::string, double> latency_us;  // "update_p50_us" etc.
  std::map<std::string, double> counts;  // per-layer counts and ratios
  FinishResult finish;
};

/// Per-layer values derived from one round's library counters and
/// client tallies.
void layer_counts(const LayerCounters& before, const LayerCounters& after,
                  const std::vector<Client>& load, Round& r) {
  const double commits = after.pipeline_commits - before.pipeline_commits;
  const auto per_commit = [&](double a, double b) {
    return commits > 0 ? (b - a) / commits : 0.0;
  };
  auto& m = r.counts;
  m["core.waits"] = after.waits - before.waits;
  m["core.wait_timeouts"] = after.wait_timeouts - before.wait_timeouts;
  m["core.deadlock_dooms"] = after.deadlock_dooms - before.deadlock_dooms;
  m["txn.validate_us_per_commit"] =
      per_commit(before.validate_us, after.validate_us);
  m["txn.timestamp_us_per_commit"] =
      per_commit(before.timestamp_us, after.timestamp_us);
  m["txn.log_us_per_commit"] = per_commit(before.log_us, after.log_us);
  m["txn.apply_us_per_commit"] = per_commit(before.apply_us, after.apply_us);
  const double forces = after.log_forces - before.log_forces;
  m["txn.log_forces"] = forces;
  m["txn.records_per_force"] =
      forces > 0 ? (after.log_records - before.log_records) / forces : 0.0;

  double attempts = 0;
  double committed = 0;
  std::map<std::string, double> aborts = {{"deadlock", 0},
                                          {"wait_timeout", 0},
                                          {"unavailable", 0},
                                          {"other", 0}};
  for (const Client& cl : load) {
    attempts += static_cast<double>(cl.attempts);
    committed += static_cast<double>(cl.committed);
    for (const auto& [reason, n] : cl.aborts) {
      const char* key = reason == argus::AbortReason::kDeadlock ? "deadlock"
                        : reason == argus::AbortReason::kWaitTimeout
                            ? "wait_timeout"
                        : reason == argus::AbortReason::kUnavailable
                            ? "unavailable"
                            : "other";
      aborts[key] += static_cast<double>(n);
    }
  }
  m["txn.attempts_per_commit"] = committed > 0 ? attempts / committed : 0.0;
  for (const auto& [key, n] : aborts) m["txn.aborts." + key] = n;
  m["txn.recover_us_per_record"] =
      r.finish.recovered_records > 0
          ? r.finish.recover_s * 1e6 / r.finish.recovered_records
          : 0.0;
  m["obs.sentinel_stop_ms"] = r.finish.sentinel_stop_ms;
  for (const auto& [key, v] : r.finish.counts) m[key] = v;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The per-layer metrics, in BENCHMARK.json order, with their units.
/// Span-timed metrics come from traced rounds; counts are interquartile
/// means over the untraced rounds of the same run, except
/// obs.sentinel_overcount, which is a total. A layer the workload does
/// not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"core.update_invoke_us.p50", "us"},
      {"core.update_invoke_us.p99", "us"},
      {"core.ro_invoke_us.p50", "us"},
      {"core.ro_invoke_us.p99", "us"},
      {"core.waits", "count"},
      {"core.wait_timeouts", "count"},
      {"core.deadlock_dooms", "count"},
      {"txn.begin_ro_us.p50", "us"},
      {"txn.begin_ro_us.p99", "us"},
      {"txn.commit_us.p50", "us"},
      {"txn.commit_us.p99", "us"},
      {"txn.validate_us_per_commit", "us"},
      {"txn.timestamp_us_per_commit", "us"},
      {"txn.log_us_per_commit", "us"},
      {"txn.apply_us_per_commit", "us"},
      {"txn.log_forces", "count"},
      {"txn.records_per_force", "ratio"},
      {"txn.attempts_per_commit", "ratio"},
      {"txn.aborts.deadlock", "count"},
      {"txn.aborts.wait_timeout", "count"},
      {"txn.aborts.unavailable", "count"},
      {"txn.aborts.other", "count"},
      {"txn.recover_us_per_record", "us"},
      {"obs.sentinel_stop_ms", "ms"},
      {"obs.sentinel_activities", "count"},
      {"obs.sentinel_overcount", "count"},
      {"obs.sentinel_escalations", "count"},
      {"obs.sentinel_vc_ops", "count"},
      {"obs.recorder_events", "count"},
      {"dist.commit_1pc_us.p50", "us"},
      {"dist.commit_1pc_us.p99", "us"},
      {"dist.commit_2pc_us.p50", "us"},
      {"dist.commit_2pc_us.p99", "us"},
      {"dist.op_us.p50", "us"},
      {"dist.two_pc_commits", "count"},
      {"dist.one_phase_commits", "count"},
      {"dist.decisions_logged", "count"},
      {"dist.prepared_forces", "count"},
      {"dist.aborts", "count"},
      {"process.cpu_us_per_txn", "us"},
      {"update_p99_us", "us"},
      {"ro_p50_us", "us"},
      {"ro_p90_us", "us"},
      {"recover_s", "s"},
      {"trace.overhead", "ratio"},
      {"client.self_us", "us"},
  };
  return names;
}

/// Span durations by name plus each root span's self time, over every
/// traced round.
struct SpanSummary {
  std::map<std::string, std::vector<double>> durations_us;
  std::vector<double> client_self_us;

  void add(const SpanLog& log) {
    const auto& spans = log.spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      durations_us[s.name].push_back(us);
      if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += us;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) continue;
      const double us =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
      client_self_us.push_back(us - child_us[i]);
    }
  }

  [[nodiscard]] double pct(const std::string& name, double q) const {
    const auto it = durations_us.find(name);
    return it == durations_us.end() ? 0.0 : percentile(it->second, q);
  }
};

/// The client logs of one traced round, kept for the span file.
struct TracedRound {
  int round;
  std::vector<Client> load;
  std::vector<Client> audit;
};

void write_spans(const std::string& path,
                 const std::vector<TracedRound>& traced) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    return;
  }
  out << "round,phase,client,span,parent,txn,name,start_ns,end_ns\n";
  for (const TracedRound& t : traced) {
    for (const auto& [phase, clients] :
         {std::pair{"load", &t.load}, std::pair{"audit", &t.audit}}) {
      for (std::size_t c = 0; c < clients->size(); ++c) {
        const auto& spans = (*clients)[c].trace.spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
          const Span& s = spans[i];
          out << t.round << ',' << phase << ',' << c << ',' << i << ','
              << s.parent << ',' << s.txn << ',' << s.name << ','
              << s.start_ns << ',' << s.end_ns << '\n';
        }
      }
    }
  }
}

void usage() {
  std::cerr << "usage: perfbench --workload {bank-audit|hot-withdraw|"
               "dist-transfer} --seconds S [--seed N] [--trace 0|1] "
               "[--trace-out FILE] [--chaos]\n";
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    try {
      if (k == "--workload") {
        a.workload = value();
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        a.trace = std::stoi(value()) != 0;
      } else if (k == "--trace-out") {
        a.trace_out = value();
      } else if (k == "--chaos") {
        a.chaos = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

int run(const Args& args) {
  auto workload = make_workload(args.workload, args.chaos);
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'"
              << (args.chaos ? " for --chaos (hot-withdraw only)" : "")
              << "\n";
    return 2;
  }

  const Placement placement =
      workload->runs_sentinel() ? place_threads() : Placement{};
  std::vector<Round> rounds;
  SpanSummary spans;
  std::vector<TracedRound> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;

  argus::SplitMix64 seeds(args.seed);
  const auto run_start = Clock::now();
  for (int r = 0;; ++r) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - run_start).count();
    if (r > kMinRounds && elapsed >= args.seconds) break;
    const bool warmup = r == 0;
    Round round;
    round.traced = args.trace && r % 2 == 0 && !warmup;

    const auto s0 = Clock::now();
    workload->setup(seeds.next());
    round.setup_s = std::chrono::duration<double>(Clock::now() - s0).count();

    std::vector<Client> load = make_clients(round.traced);
    const LayerCounters before = workload->counters();
    const double cpu0 = cpu_seconds();
    const double load_s = run_clients(
        placement, load, [&](int c, Client& cl) { workload->load(c, cl); });
    const double cpu_s = cpu_seconds() - cpu0;
    const LayerCounters after = workload->counters();
    workload->settle();
    round.heap_mb = heap_mb();

    std::vector<Client> audit = make_clients(round.traced);
    if (workload->has_audit_phase()) {
      run_clients(placement, audit,
                  [&](int c, Client& cl) { workload->audit(c, cl); });
    }
    round.finish = workload->finish();
    workload->teardown();

    std::uint64_t committed = 0;
    for (const Client& cl : load) committed += cl.committed;
    for (const auto* phase : {&load, &audit}) {
      for (const Client& cl : *phase) {
        attempted += cl.attempted;
        failed += cl.gave_up + cl.bad_audits;
        if (!cl.error.empty()) {
          round.finish.gate_failures.push_back("client error: " + cl.error);
        }
        if (cl.bad_audits != 0) {
          round.finish.gate_failures.push_back(
              std::to_string(cl.bad_audits) +
              " audits saw a total that was not conserved");
        }
      }
    }
    for (const std::string& g : round.finish.gate_failures) {
      gate_failures.push_back("round " + std::to_string(r) + ": " + g);
    }
    if (!gate_failures.empty()) break;
    if (warmup) continue;

    round.txn_per_s = static_cast<double>(committed) / load_s;
    layer_counts(before, after, load, round);
    round.counts["process.cpu_us_per_txn"] =
        committed > 0 ? cpu_s * 1e6 / static_cast<double>(committed) : 0.0;
    std::vector<double> update_us;
    std::vector<double> ro_us;
    for (const auto* phase : {&load, &audit}) {
      for (const Client& cl : *phase) {
        update_us.insert(update_us.end(), cl.update_us.begin(),
                         cl.update_us.end());
        ro_us.insert(ro_us.end(), cl.ro_us.begin(), cl.ro_us.end());
        if (round.traced) spans.add(cl.trace);
      }
    }
    round.latency_us = {{"update_p50_us", percentile(update_us, 0.50)},
                        {"update_p90_us", percentile(update_us, 0.90)}};
    // The update p99 follows steal on the host, and audit latency and
    // recovery time are CPU-bound and followed the host's speed (see
    // README.md), so they are reported with the per-layer metrics, which
    // carry no bound.
    round.counts["update_p99_us"] = percentile(update_us, 0.99);
    round.counts["ro_p50_us"] = percentile(ro_us, 0.50);
    round.counts["ro_p90_us"] = percentile(ro_us, 0.90);
    round.counts["recover_s"] = round.finish.recover_s;
    if (round.traced) {
      traced.push_back({r, std::move(load), std::move(audit)});
    }
    rounds.push_back(std::move(round));
  }

  const auto over_rounds = [&](bool traced, auto&& get) {
    std::vector<double> v;
    for (const Round& r : rounds) {
      if (r.traced == traced) v.push_back(get(r));
    }
    return v;
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    // A round is one full repetition of the workload. Other tenants of
    // the host can only slow a round down (a stolen vCPU stalls the
    // commit order for everyone), so each metric is the best tenth of the
    // rounds: the 90th percentile of per-round throughput, the 10th of
    // per-round latency percentiles. README.md ("Measured spread") shows
    // how much steadier this is than the median over rounds. Set-up time
    // is the median over rounds.
    const auto add = [&](const std::string& name, const std::string& unit,
                         bool higher_is_better, auto&& get) {
      metrics.push_back({name,
                         percentile(over_rounds(false, get),
                                    higher_is_better ? 0.9 : 0.1),
                         unit});
    };
    add("txn_per_s", "1/s", true, [](const Round& r) { return r.txn_per_s; });
    for (const char* name : {"update_p50_us", "update_p90_us"}) {
      add(name, "us", false,
          [&](const Round& r) { return r.latency_us.at(name); });
    }
    metrics.push_back(
        {"setup_s",
         percentile(over_rounds(false, [](const Round& r) { return r.setup_s; }),
                    0.5),
         "s"});
    add("heap_mb", "MB", false, [](const Round& r) { return r.heap_mb; });
  } else {
    const double untraced_tps = middle_mean(
        over_rounds(false, [](const Round& r) { return r.txn_per_s; }));
    const double traced_tps = middle_mean(
        over_rounds(true, [](const Round& r) { return r.txn_per_s; }));
    for (const auto& [name, unit] : per_layer_names()) {
      double v = 0.0;
      const auto dot = name.rfind('.');
      const std::string tail = name.substr(dot + 1);
      if (name == "trace.overhead") {
        v = untraced_tps > 0 ? traced_tps / untraced_tps : 0.0;
      } else if (name == "obs.sentinel_overcount") {
        // A total over every round, traced or not: one over-count in a
        // run must show.
        for (const Round& r : rounds) {
          const auto it = r.counts.find(name);
          if (it != r.counts.end()) v += it->second;
        }
      } else if (name == "client.self_us") {
        v = percentile(spans.client_self_us, 0.50);
      } else if (tail == "p50" || tail == "p99") {
        // "core.update_invoke_us.p50" -> span "core.update_invoke".
        std::string span = name.substr(0, dot);
        span = span.substr(0, span.size() - 3);  // drop "_us"
        v = spans.pct(span, tail == "p50" ? 0.50 : 0.99);
      } else {
        v = middle_mean(over_rounds(false, [&](const Round& r) {
          const auto it = r.counts.find(name);
          return it == r.counts.end() ? 0.0 : it->second;
        }));
      }
      metrics.push_back({name, v, unit});
    }
    if (!args.trace_out.empty()) write_spans(args.trace_out, traced);
  }

  const bool correct = gate_failures.empty();
  std::cout << "workload " << args.workload << (args.chaos ? " (chaos)" : "")
            << ", seed " << args.seed << ", " << rounds.size()
            << " measured rounds, " << kClients << " clients\n";
  for (const std::string& g : gate_failures) {
    std::cout << "GATE FAILED: " << g << "\n";
  }
  std::cout << "fail_ratio " << (attempted > 0 ? static_cast<double>(failed) /
                                                     static_cast<double>(attempted)
                                               : 0.0)
            << " (" << failed << " of " << attempted << " transactions)\n";
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%-30s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << m.value << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    perfbench::usage();
    return 2;
  }
  return perfbench::run(args);
}
