// E16 — multi-site scaling (§1: "Maintaining the consistency of
// long-lived, on-line data is a difficult task, particularly in a
// distributed system").
//
// The claim under test: sharding over full per-site runtimes scales.
// Each site is a complete runtime — its own commit pipeline, stable log
// and clock domain — so shard-local transactions commit through the
// ordinary one-phase pipeline with no coordinator and no shared state
// between sites. With a fixed per-commit log-force latency (the
// leader-latency fault hook, fired on every force), per-site pipelines
// force in parallel: throughput must grow monotonically from 1 to 4
// sites. A cross-site 2PC variant measures what the coordinated path
// costs by comparison.
//
// E18 — decision-log force cost. Every 2PC decision is force-written to
// the coordinator's DecisionLog before delivery (crash-tolerant commit
// coordination); durable_decisions=false is the PR 6 in-memory baseline.
// With the same simulated storage latency on both the participants'
// prepares and the decision force, the benchmark prices exactly one
// extra forced write per multi-site commit.
#include <benchmark/benchmark.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "dist/dist_runtime.h"
#include "sched/factory.h"
#include "spec/adts/bank_account.h"

namespace argus {
namespace {

constexpr int kAccountsPerSite = 4;
constexpr int kTxnsPerThread = 200;
constexpr std::int64_t kSeedBalance = 1000;

std::unique_ptr<DistRuntime> build(std::size_t sites) {
  DistOptions options;
  options.sites = sites;
  options.protocol = Protocol::kHybrid;
  options.recorder = Runtime::RecorderMode::kOff;
  auto dist = std::make_unique<DistRuntime>(options);
  // Round-robin placement: account j lands on site j % sites, so the
  // accounts of site s are {a_j : j ≡ s (mod sites)}.
  const std::size_t accounts = sites * kAccountsPerSite;
  for (std::size_t j = 0; j < accounts; ++j) {
    dist->create_sharded<BankAccountAdt>("a" + std::to_string(j));
  }
  for (std::size_t i = 0; i < sites; ++i) {
    dist->site(i).runtime().set_wait_timeout_all(
        std::chrono::milliseconds(2000));
  }
  // Seed every account; one transaction per site keeps setup one-phase.
  for (std::size_t s = 0; s < sites; ++s) {
    const auto t = dist->begin();
    for (std::size_t j = s; j < accounts; j += sites) {
      dist->write(*t, "a" + std::to_string(j), account::deposit(kSeedBalance));
    }
    dist->commit(t);
  }
  // Every stable-log force pays a fixed latency — the "disk". This is
  // what makes scaling observable on any host: per-site pipelines sleep
  // in parallel, a single site's pipeline sleeps serially.
  FaultPlan plan;
  plan.seed = 7;
  plan.leader_latency_permille = 1000;
  plan.leader_latency_us = 50;
  dist->set_fault_plan(plan);
  return dist;
}

std::int64_t total_balance(DistRuntime& dist) {
  std::int64_t total = 0;
  for (const auto& entry : dist.dump(account::balance())) {
    total += entry.value.as_int();
  }
  return total;
}

// Shard-local transfers, one driver thread per site over that site's own
// accounts: every commit is one-phase, sites share nothing.
void BM_DistScaling_ShardLocal(benchmark::State& state) {
  const auto sites = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto dist = build(sites);
    const std::size_t accounts = sites * kAccountsPerSite;
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(sites);
    for (std::size_t s = 0; s < sites; ++s) {
      threads.emplace_back([&, s] {
        SplitMix64 rng(1000 + s);
        for (int i = 0; i < kTxnsPerThread; ++i) {
          // Pick two distinct accounts of site s.
          const std::size_t span = accounts / sites;
          const std::size_t from = s + sites * rng.below(span);
          std::size_t to = s + sites * rng.below(span);
          if (to == from) to = s + sites * ((from / sites + 1) % span);
          const auto t = dist->begin();
          const Value got =
              dist->read(*t, "a" + std::to_string(from), account::withdraw(5));
          if (got.is_unit()) {
            dist->write(*t, "a" + std::to_string(to), account::deposit(5));
          }
          dist->commit(t);
        }
      });
    }
    for (auto& th : threads) th.join();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    if (total_balance(*dist) !=
        static_cast<std::int64_t>(accounts) * kSeedBalance) {
      throw std::runtime_error("conservation violated in E16 shard-local run");
    }
    const DistStats stats = dist->stats();
    const double committed =
        static_cast<double>(stats.one_phase_commits + stats.two_pc_commits);
    std::map<std::string, double> counters;
    counters["txn_per_s"] =
        static_cast<double>(sites * kTxnsPerThread) / elapsed.count();
    counters["committed"] = committed;
    counters["two_pc_commits"] = static_cast<double>(stats.two_pc_commits);
    counters["aborted"] = static_cast<double>(stats.aborts);
    for (const auto& [k, v] : counters) state.counters[k] = v;
    bench::JsonSink::instance().update(
        "dist_scaling/shard_local/sites" + std::to_string(sites), counters);
  }
}

// The coordinated path for contrast: every transfer crosses two sites,
// so every commit is a full 2PC (prepare at both, decision, delivery).
// Same shape as the shard-local arm — one client thread per site, each
// debiting its own site's accounts — so the two arms differ only in the
// commit path; concurrent 2PCs overlap their forces.
void BM_DistScaling_CrossSite2PC(benchmark::State& state) {
  const auto sites = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto dist = build(sites);
    const std::size_t accounts = sites * kAccountsPerSite;
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(sites);
    for (std::size_t s = 0; s < sites; ++s) {
      threads.emplace_back([&, s] {
        SplitMix64 rng(17 + s);
        const std::size_t span = accounts / sites;
        for (int i = 0; i < kTxnsPerThread; ++i) {
          // From one of site s's accounts to one on another site.
          const std::size_t from = s + sites * rng.below(span);
          const std::size_t to_site = (s + 1 + rng.below(sites - 1)) % sites;
          const std::size_t to = to_site + sites * rng.below(span);
          const auto t = dist->begin();
          try {
            const Value got = dist->read(*t, "a" + std::to_string(from),
                                         account::withdraw(5));
            if (got.is_unit()) {
              dist->write(*t, "a" + std::to_string(to), account::deposit(5));
            }
            dist->commit(t);
          } catch (const TransactionAborted&) {
            dist->abort(t);  // counted in stats().aborts
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    if (total_balance(*dist) !=
        static_cast<std::int64_t>(accounts) * kSeedBalance) {
      throw std::runtime_error("conservation violated in E16 2PC run");
    }
    const DistStats stats = dist->stats();
    std::map<std::string, double> counters;
    // Setup commits are one-phase, so two_pc_commits counts exactly the
    // workload's committed transfers.
    counters["txn_per_s"] =
        static_cast<double>(stats.two_pc_commits) / elapsed.count();
    counters["committed"] = static_cast<double>(stats.one_phase_commits +
                                                stats.two_pc_commits);
    counters["two_pc_commits"] = static_cast<double>(stats.two_pc_commits);
    counters["aborted"] = static_cast<double>(stats.aborts);
    for (const auto& [k, v] : counters) state.counters[k] = v;
    bench::JsonSink::instance().update(
        "dist_scaling/cross_site_2pc/sites" + std::to_string(sites), counters);
  }
}

// E18: the price of crash-tolerant commit coordination. Cross-site 2PC
// transfers on two sites, once with the durable decision log (every
// decision force-written before delivery, same simulated storage
// latency as the participants' prepares) and once with the in-memory
// PR 6 baseline. Arg(1) = durable, Arg(0) = baseline.
void BM_DecisionLogCost(benchmark::State& state) {
  const bool durable = state.range(0) != 0;
  constexpr std::size_t kSites = 2;
  for (auto _ : state) {
    DistOptions options;
    options.sites = kSites;
    options.protocol = Protocol::kHybrid;
    options.recorder = Runtime::RecorderMode::kOff;
    options.durable_decisions = durable;
    auto dist = std::make_unique<DistRuntime>(options);
    const std::size_t accounts = kSites * kAccountsPerSite;
    for (std::size_t j = 0; j < accounts; ++j) {
      dist->create_sharded<BankAccountAdt>("a" + std::to_string(j));
    }
    for (std::size_t i = 0; i < kSites; ++i) {
      dist->site(i).runtime().set_wait_timeout_all(
          std::chrono::milliseconds(2000));
    }
    for (std::size_t s = 0; s < kSites; ++s) {
      const auto t = dist->begin();
      for (std::size_t j = s; j < accounts; j += kSites) {
        dist->write(*t, "a" + std::to_string(j),
                    account::deposit(kSeedBalance));
      }
      dist->commit(t);
    }
    FaultPlan plan;
    plan.seed = 7;
    plan.leader_latency_permille = 1000;
    plan.leader_latency_us = 50;
    dist->set_fault_plan(plan);
    // The decision force pays the same "disk" as every participant
    // force; the baseline writes nothing, so the delta is one forced
    // write per multi-site commit.
    dist->decision_log().set_force_delay(std::chrono::microseconds(50));

    const auto start = std::chrono::steady_clock::now();
    SplitMix64 rng(17);
    for (int i = 0; i < kTxnsPerThread; ++i) {
      const std::size_t from = rng.below(accounts);
      std::size_t to = rng.below(accounts);
      if (to % kSites == from % kSites) to = (to + 1) % accounts;
      const auto t = dist->begin();
      const Value got =
          dist->read(*t, "a" + std::to_string(from), account::withdraw(5));
      if (got.is_unit()) {
        dist->write(*t, "a" + std::to_string(to), account::deposit(5));
      }
      dist->commit(t);
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    if (total_balance(*dist) !=
        static_cast<std::int64_t>(accounts) * kSeedBalance) {
      throw std::runtime_error("conservation violated in E18 run");
    }
    const DistStats stats = dist->stats();
    std::map<std::string, double> counters;
    counters["txn_per_s"] =
        static_cast<double>(kTxnsPerThread) / elapsed.count();
    counters["two_pc_commits"] = static_cast<double>(stats.two_pc_commits);
    counters["decisions_logged"] = static_cast<double>(stats.decisions_logged);
    counters["decisions_truncated"] =
        static_cast<double>(stats.decisions_truncated);
    for (const auto& [k, v] : counters) state.counters[k] = v;
    bench::JsonSink::instance().update(
        std::string("decision_log/") + (durable ? "durable" : "in_memory"),
        counters);
  }
}

BENCHMARK(BM_DistScaling_ShardLocal)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_DistScaling_CrossSite2PC)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_DecisionLogCost)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace argus

BENCHMARK_MAIN();
