#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <utility>

#include "check/vc_atomicity.h"
#include "common/rng.h"
#include "core/runtime.h"
#include "dist/dist_runtime.h"
#include "spec/adts/bank_account.h"

namespace perfbench {
namespace {

using argus::SplitMix64;
using argus::TransactionAborted;
using argus::TxnKind;
using argus::Value;
namespace account = argus::account;

/// The device model: every stable-log force (and every decision-log
/// force) sleeps this long, standing in for an fsync.
constexpr auto kForceDelay = std::chrono::microseconds(100);
/// Liveness backstop for blocked invocations; a timeout aborts and the
/// client retries.
constexpr auto kWaitTimeout = std::chrono::milliseconds(2000);

/// Each round times this many crash + recovery cycles and reports the
/// middle one.
constexpr int kRecoveries = 3;

double middle(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t txn_id(int client, std::size_t task) {
  return (static_cast<std::uint64_t>(client) << 32) | task;
}

/// Each client's generator: a pure function of the round seed and the
/// client index.
SplitMix64 client_rng(std::uint64_t seed, int c) {
  SplitMix64 mix(seed);
  for (int i = 0; i <= c; ++i) mix.next();
  return SplitMix64(mix.next());
}

/// The closed loop around one logical transaction: `attempt` begins,
/// runs the body and commits, throwing TransactionAborted (after
/// aborting) on failure; up to kMaxRetries retries follow. Latency runs
/// from the first begin to the final commit.
template <typename Attempt>
bool run_txn(Client& cl, bool read_only, std::uint64_t id,
             Attempt&& attempt) {
  ++cl.attempted;
  const auto t0 = Clock::now();
  const int root = cl.trace.open("client.txn", id);
  bool committed = false;
  for (int i = 0; i <= kMaxRetries && !committed; ++i) {
    ++cl.attempts;
    try {
      attempt();
      committed = true;
    } catch (const TransactionAborted& e) {
      ++cl.aborts[e.reason()];
    }
  }
  cl.trace.close(root);
  if (committed) {
    ++cl.committed;
    (read_only ? cl.ro_us : cl.update_us)
        .push_back(seconds_since(t0) * 1e6);
  } else {
    ++cl.gave_up;
  }
  return committed;
}

// --- single-node workloads ---------------------------------------------

struct Account {
  std::shared_ptr<argus::ManagedObject> object;
  std::function<std::int64_t()> committed;  // balance, outside any txn
};

template <typename Obj>
Account make_account(std::shared_ptr<Obj> obj) {
  const Obj* raw = obj.get();
  return Account{std::move(obj), [raw] { return raw->committed_state(); }};
}

/// Adds one runtime's commit-pipeline and object counters to `out`.
void add_counters(argus::Runtime& rt, LayerCounters& out) {
  const argus::CommitPipelineStats p = rt.tm().pipeline_stats();
  out.pipeline_commits += static_cast<double>(p.commits);
  out.validate_us += static_cast<double>(p.validate_us);
  out.timestamp_us += static_cast<double>(p.timestamp_us);
  out.log_us += static_cast<double>(p.log_us);
  out.apply_us += static_cast<double>(p.apply_us);
  out.log_forces += static_cast<double>(p.log_forces);
  out.log_records += static_cast<double>(p.log_records);
  for (const auto& obj : rt.objects()) {
    if (const auto* base = dynamic_cast<const argus::ObjectBase*>(obj.get())) {
      const argus::ObjectCounters c = base->counters();
      out.waits += static_cast<double>(c.waits);
      out.wait_timeouts += static_cast<double>(c.wait_timeouts);
      out.deadlock_dooms += static_cast<double>(c.deadlock_dooms);
    }
  }
}

template <typename Body>
bool local_txn(argus::Runtime& rt, Client& cl, bool read_only,
               std::uint64_t id, Body&& body) {
  return run_txn(cl, read_only, id, [&] {
    auto txn = read_only ? cl.trace.timed("txn.begin_ro", id,
                                          [&] { return rt.begin_read_only(); })
                         : cl.trace.timed("txn.begin", id,
                                          [&] { return rt.begin(); });
    try {
      body(*txn);
      cl.trace.timed("txn.commit", id, [&] { rt.commit(txn); });
    } catch (const TransactionAborted&) {
      // Idempotent when commit already aborted.
      cl.trace.timed("txn.abort", id, [&] { rt.abort(txn); });
      throw;
    }
  });
}

Value invoke(Client& cl, std::uint64_t id, const Account& a,
             argus::Transaction& txn, const argus::Operation& op) {
  return cl.trace.timed(
      txn.read_only() ? "core.ro_invoke" : "core.update_invoke", id,
      [&] { return a.object->invoke(txn, op); });
}

class LocalWorkload : public Workload {
 public:
  LayerCounters counters() override {
    LayerCounters out;
    add_counters(*rt_, out);
    return out;
  }

  void teardown() override {
    accounts_.clear();
    rt_.reset();
  }

 protected:
  void build_runtime(argus::Runtime::RecorderMode mode) {
    rt_ = std::make_unique<argus::Runtime>(mode);
    rt_->tm().log().set_force_delay(kForceDelay);
  }

  /// One set-up transaction depositing `each` into every account.
  void seed_balances(std::int64_t each) {
    auto txn = rt_->begin();
    for (const Account& a : accounts_) {
      a.object->invoke(*txn, account::deposit(each));
    }
    rt_->commit(txn);
  }

  [[nodiscard]] std::vector<std::int64_t> committed_balances() const {
    std::vector<std::int64_t> out;
    out.reserve(accounts_.size());
    for (const Account& a : accounts_) out.push_back(a.committed());
    return out;
  }

  /// Times kRecoveries rounds of Runtime::crash() + recover(); the
  /// recovered balances must equal the committed balances before the
  /// first crash every time.
  void crash_and_recover(FinishResult& out) {
    const std::vector<std::int64_t> before = committed_balances();
    out.recovered_records = static_cast<double>(rt_->tm().log().size());
    std::vector<double> times;
    for (int i = 0; i < kRecoveries; ++i) {
      const auto t0 = Clock::now();
      rt_->crash();
      try {
        rt_->recover();
      } catch (const std::exception& e) {
        out.gate_failures.push_back(std::string("recovery failed: ") +
                                    e.what());
        return;
      }
      times.push_back(seconds_since(t0));
      if (committed_balances() != before) {
        out.gate_failures.push_back(
            "recovered balances differ from the pre-crash committed "
            "balances");
        return;
      }
    }
    out.recover_s = middle(times);
  }

  std::unique_ptr<argus::Runtime> rt_;
  std::vector<Account> accounts_;
};

/// bank-audit: 64 hybrid accounts; 80% transfers, 20% read-only audits of
/// all 64 balances; flight recorder and escalating sentinel on.
class BankAudit final : public LocalWorkload {
 public:
  void setup(std::uint64_t seed) override {
    build_runtime(argus::Runtime::RecorderMode::kFlight);
    for (std::size_t i = 0; i < kAccounts; ++i) {
      accounts_.push_back(make_account(
          rt_->create_hybrid<argus::BankAccountAdt>("a" + std::to_string(i))));
    }
    rt_->set_wait_timeout_all(kWaitTimeout);
    seed_balances(kBalance);
    for (int c = 0; c < kClients; ++c) {
      SplitMix64 rng = client_rng(seed, c);
      auto& tasks = tasks_[static_cast<std::size_t>(c)];
      tasks.clear();
      for (std::size_t i = 0; i < kTxnsPerClient; ++i) {
        Task t;
        t.audit = rng.chance(1, 5);
        t.from = rng.below(kAccounts);
        t.to = (t.from + 1 + rng.below(kAccounts - 1)) % kAccounts;
        t.amount = rng.range(1, 100);
        tasks.push_back(t);
      }
    }
    argus::SentinelOptions so;
    so.window = kSentinelWindow;
    so.checkpoint_threshold = 4096;
    so.mode = argus::CheckMode::kEscalating;
    sentinel_ = &rt_->start_sentinel(so);
  }

  [[nodiscard]] bool runs_sentinel() const override { return true; }

  void load(int c, Client& cl) override {
    const auto& tasks = tasks_[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const Task& t = tasks[i];
      const std::uint64_t id = txn_id(c, i);
      if (t.audit) {
        std::int64_t sum = 0;
        const bool ok = local_txn(*rt_, cl, true, id, [&](auto& txn) {
          sum = 0;
          // Start at a random account so concurrent audits do not run
          // in lockstep.
          for (std::size_t k = 0; k < kAccounts; ++k) {
            sum += invoke(cl, id, accounts_[(t.from + k) % kAccounts], txn,
                          account::balance())
                       .as_int();
          }
        });
        if (ok && sum != kTotal) ++cl.bad_audits;
        continue;
      }
      local_txn(*rt_, cl, false, id, [&](auto& txn) {
        if (invoke(cl, id, accounts_[t.from], txn, account::withdraw(t.amount))
                .is_unit()) {
          invoke(cl, id, accounts_[t.to], txn, account::deposit(t.amount));
        }
      });
    }
  }

  void settle() override {
    const auto t0 = Clock::now();
    sentinel_->stop();
    stop_ms_ = seconds_since(t0) * 1e3;
  }

  FinishResult finish() override {
    FinishResult out;
    out.sentinel_stop_ms = stop_ms_;
    const std::uint64_t committed = rt_->tm().stats().committed;
    const argus::FlightRecorder& recorder = *rt_->flight_recorder();
    if (sentinel_->violations() != 0) {
      out.gate_failures.push_back("sentinel violation: " +
                                  sentinel_->last_violation());
    }
    // The sentinel must have consumed every recorded event and skipped
    // no committed activity as a straggler.
    if (sentinel_->events_seen() != recorder.total_recorded() ||
        sentinel_->stragglers() != 0) {
      out.gate_failures.push_back(
          "sentinel saw " + std::to_string(sentinel_->events_seen()) +
          " of " + std::to_string(recorder.total_recorded()) +
          " recorded events (" + std::to_string(sentinel_->stragglers()) +
          " stragglers)");
    }
    // activities_checked() is the vector-clock checker's certified count.
    // It can count one activity twice: when a commit event of an activity
    // arrives after the checker sealed and dropped that activity, the
    // event starts a new entry that is certified again. So the exact
    // check is a replay of the whole recorded history through a fresh
    // checker, which seals only at finish() and so keeps every activity:
    // it must certify exactly the committed activities, all atomic.
    argus::VectorClockChecker replay(rt_->system());
    replay.feed(recorder.sequenced_snapshot());
    replay.finish();
    if (replay.verdict() != argus::VcVerdict::kPass ||
        replay.stats().certified != committed) {
      out.gate_failures.push_back(
          std::string("replayed history: ") + argus::to_string(replay.verdict()) +
          ", " + std::to_string(replay.stats().certified) + " of " +
          std::to_string(committed) + " committed activities certified");
    }
    if (sentinel_->activities_checked() < committed) {
      out.gate_failures.push_back(
          "sentinel certified " +
          std::to_string(sentinel_->activities_checked()) + " of " +
          std::to_string(committed) + " committed activities");
    }
    out.counts["obs.sentinel_activities"] =
        static_cast<double>(sentinel_->activities_checked());
    out.counts["obs.sentinel_overcount"] =
        static_cast<double>(sentinel_->activities_checked()) -
        static_cast<double>(committed);
    out.counts["obs.sentinel_escalations"] =
        static_cast<double>(sentinel_->escalations());
    out.counts["obs.sentinel_vc_ops"] =
        static_cast<double>(sentinel_->vc_ops());
    out.counts["obs.recorder_events"] =
        static_cast<double>(rt_->flight_recorder()->total_recorded());
    rt_->stop_sentinel();
    sentinel_ = nullptr;

    std::int64_t total = 0;
    for (const std::int64_t b : committed_balances()) total += b;
    if (total != kTotal) {
      out.gate_failures.push_back("money not conserved: " +
                                  std::to_string(total) + " != " +
                                  std::to_string(kTotal));
    }
    crash_and_recover(out);
    return out;
  }

 private:
  static constexpr std::size_t kAccounts = 64;
  static constexpr std::int64_t kBalance = 1'000'000'000;
  static constexpr std::int64_t kTotal =
      static_cast<std::int64_t>(kAccounts) * kBalance;
  static constexpr std::size_t kTxnsPerClient = 500;
  // The window is the sentinel's stall tolerance: an activity whose
  // thread stalls for longer than one window between drawing its
  // serialization key and recording it can fall below a sealed prefix
  // and is then skipped as a straggler. On a shared 4-vCPU host about 1
  // commit in 25 stalled for more than 5 ms (up to 29 ms), often all
  // three clients at once, and a 5 ms window skipped an activity in 3 of
  // 8 runs (perfbench/README.md, "The sentinel window").
  static constexpr auto kSentinelWindow = std::chrono::milliseconds(100);

  struct Task {
    bool audit{false};
    std::size_t from{0};  // an audit starts reading here
    std::size_t to{0};
    std::int64_t amount{0};
  };

  std::array<std::vector<Task>, kClients> tasks_;
  argus::AtomicitySentinel* sentinel_{nullptr};
  double stop_ms_{0};
};

/// hot-withdraw: 2 hybrid accounts, update-only transactions of 4 random
/// withdraw/deposit operations, issued in account order. Each round
/// starts with balances the clients' concurrent withdrawals can exhaust,
/// so withdrawals stop commuting until deposits lift the balances; that
/// is what the chaos control needs to go wrong. Recorder off.
class HotWithdraw final : public LocalWorkload {
 public:
  explicit HotWithdraw(bool chaos) : chaos_(chaos) {}

  void setup(std::uint64_t seed) override {
    build_runtime(argus::Runtime::RecorderMode::kOff);
    for (std::size_t i = 0; i < kAccounts; ++i) {
      const std::string name = "h" + std::to_string(i);
      if (chaos_) {
        auto obj = std::make_shared<
            argus::DynamicAtomicObject<argus::BankAccountAdt>>(
            rt_->allocate_object_id(), name, rt_->tm(), rt_->recorder(),
            argus::AdmissionMode::kChaosAdmitAll);
        rt_->adopt(obj,
                   std::make_shared<argus::AdtSpec<argus::BankAccountAdt>>());
        accounts_.push_back(make_account(std::move(obj)));
      } else {
        accounts_.push_back(
            make_account(rt_->create_hybrid<argus::BankAccountAdt>(name)));
      }
    }
    rt_->set_wait_timeout_all(kWaitTimeout);
    seed_balances(kBalance);
    for (int c = 0; c < kClients; ++c) {
      SplitMix64 rng = client_rng(seed, c);
      auto& tasks = tasks_[static_cast<std::size_t>(c)];
      tasks.clear();
      for (std::size_t i = 0; i < kTxnsPerClient; ++i) {
        Task t;
        for (Op& op : t.ops) {
          op.account = rng.below(kAccounts);
          op.withdraw = rng.chance(kWithdrawPermille, 1000);
          op.amount = rng.range(1, kMaxAmount);
        }
        // A fixed account order rules out waits-for cycles across the
        // two accounts; deadlocks can still form at one account.
        std::stable_sort(t.ops.begin(), t.ops.end(),
                         [](const Op& a, const Op& b) {
                           return a.account < b.account;
                         });
        tasks.push_back(t);
      }
      deltas_[static_cast<std::size_t>(c)] = {};
      auto& first = audit_first_[static_cast<std::size_t>(c)];
      for (std::size_t& f : first) f = rng.below(kAccounts);
    }
  }

  void load(int c, Client& cl) override {
    const auto& tasks = tasks_[static_cast<std::size_t>(c)];
    auto& deltas = deltas_[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const std::uint64_t id = txn_id(c, i);
      std::array<std::int64_t, kAccounts> d{};
      const bool ok = local_txn(*rt_, cl, false, id, [&](auto& txn) {
        d = {};
        for (const Op& op : tasks[i].ops) {
          const Account& a = accounts_[op.account];
          if (!op.withdraw) {
            invoke(cl, id, a, txn, account::deposit(op.amount));
            d[op.account] += op.amount;
          } else if (invoke(cl, id, a, txn, account::withdraw(op.amount))
                         .is_unit()) {
            d[op.account] -= op.amount;
          }
        }
      });
      if (ok) {
        for (std::size_t a = 0; a < kAccounts; ++a) deltas[a] += d[a];
      }
    }
  }

  [[nodiscard]] bool has_audit_phase() const override { return true; }

  /// Read-only audits after the load: each must see the total that the
  /// clients' committed operations imply.
  void audit(int c, Client& cl) override {
    std::int64_t expected = kBalance * static_cast<std::int64_t>(kAccounts);
    for (const auto& d : deltas_) {
      for (const std::int64_t x : d) expected += x;
    }
    for (std::size_t i = 0; i < kAuditsPerClient; ++i) {
      const std::uint64_t id = txn_id(c, kTxnsPerClient + i);
      const std::size_t first = audit_first_[static_cast<std::size_t>(c)][i];
      std::int64_t sum = 0;
      const bool ok = local_txn(*rt_, cl, true, id, [&](auto& txn) {
        sum = 0;
        for (std::size_t k = 0; k < kAccounts; ++k) {
          sum += invoke(cl, id, accounts_[(first + k) % kAccounts], txn,
                        account::balance())
                     .as_int();
        }
      });
      if (ok && sum != expected) ++cl.bad_audits;
    }
  }

  /// Each balance must equal what the clients' committed operations imply.
  FinishResult finish() override {
    FinishResult out;
    const std::vector<std::int64_t> balances = committed_balances();
    for (std::size_t a = 0; a < kAccounts; ++a) {
      std::int64_t expected = kBalance;
      for (const auto& d : deltas_) expected += d[a];
      if (balances[a] != expected) {
        out.gate_failures.push_back(
            "account h" + std::to_string(a) + " holds " +
            std::to_string(balances[a]) + ", the clients' committed " +
            "operations imply " + std::to_string(expected));
      }
    }
    crash_and_recover(out);
    return out;
  }

 private:
  static constexpr std::size_t kAccounts = 2;
  // At 200, one transaction in 6.7M gave up after 101 deadlock
  // losses (perfbench/README.md, "Deadlock victims starve").
  static constexpr std::int64_t kBalance = 500;
  static constexpr std::int64_t kMaxAmount = 100;
  static constexpr std::uint64_t kWithdrawPermille = 400;
  static constexpr std::size_t kTxnsPerClient = 800;
  static constexpr std::size_t kAuditsPerClient = 40;

  struct Op {
    std::size_t account{0};
    bool withdraw{false};
    std::int64_t amount{0};
  };
  struct Task {
    std::array<Op, 4> ops{};
  };

  const bool chaos_;
  std::array<std::vector<Task>, kClients> tasks_;
  /// Each audit starts at a random account so concurrent audits do not
  /// run in lockstep.
  std::array<std::array<std::size_t, kAuditsPerClient>, kClients>
      audit_first_{};
  std::array<std::array<std::int64_t, kAccounts>, kClients> deltas_{};
};

// --- multi-site workload ------------------------------------------------

/// dist-transfer: a 2-site DistRuntime with 16 sharded hybrid accounts;
/// half the transfers stay on one site (one-phase commit), half cross
/// sites (2PC with a forced decision); recorder off.
class DistTransfer final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    argus::DistOptions options;
    options.sites = kSites;
    options.protocol = argus::Protocol::kHybrid;
    options.recorder = argus::Runtime::RecorderMode::kOff;
    dist_ = std::make_unique<argus::DistRuntime>(options);
    // Round-robin placement: account j lives on site j % kSites.
    names_.clear();
    for (std::size_t j = 0; j < kAccounts; ++j) {
      names_.push_back("d" + std::to_string(j));
      dist_->create_sharded<argus::BankAccountAdt>(names_.back());
    }
    for (std::size_t s = 0; s < kSites; ++s) {
      dist_->site(s).runtime().set_wait_timeout_all(kWaitTimeout);
      dist_->site(s).tm().log().set_force_delay(kForceDelay);
    }
    dist_->decision_log().set_force_delay(kForceDelay);
    // One seeding transaction per site keeps set-up one-phase.
    for (std::size_t s = 0; s < kSites; ++s) {
      const auto t = dist_->begin();
      for (std::size_t j = s; j < kAccounts; j += kSites) {
        dist_->write(*t, names_[j], account::deposit(kBalance));
      }
      dist_->commit(t);
    }
    constexpr std::size_t per_site = kAccounts / kSites;
    for (int c = 0; c < kClients; ++c) {
      SplitMix64 rng = client_rng(seed, c);
      auto& tasks = tasks_[static_cast<std::size_t>(c)];
      tasks.clear();
      for (std::size_t i = 0; i < kTxnsPerClient; ++i) {
        const std::size_t site = rng.below(kSites);
        const bool cross = rng.chance(1, 2);
        const std::size_t to_site = cross ? (site + 1) % kSites : site;
        const std::size_t from_slot = rng.below(per_site);
        std::size_t to_slot = rng.below(per_site);
        if (!cross && to_slot == from_slot) to_slot = (to_slot + 1) % per_site;
        tasks.push_back(Task{site + kSites * from_slot,
                             to_site + kSites * to_slot, rng.range(1, 100)});
      }
      auto& first = audit_first_[static_cast<std::size_t>(c)];
      for (std::size_t& f : first) f = rng.below(kAccounts);
    }
  }

  void load(int c, Client& cl) override {
    const auto& tasks = tasks_[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const Task& t = tasks[i];
      const std::uint64_t id = txn_id(c, i);
      dist_txn(cl, false, id, [&](argus::DistTxn& txn) {
        if (op(cl, id, txn, names_[t.from], account::withdraw(t.amount))
                .is_unit()) {
          op(cl, id, txn, names_[t.to], account::deposit(t.amount));
        }
      });
    }
  }

  [[nodiscard]] bool has_audit_phase() const override { return true; }

  /// Read-only audits across both sites at one snapshot, all run by
  /// client 0 one after another. Three concurrent audits convoyed on the
  /// object mutexes: a round's audit p90 was 4-8 ms against a p50 of
  /// 0.5-0.75 ms, and it moved from run to run with the host.
  void audit(int c, Client& cl) override {
    if (c != 0) return;
    for (std::size_t a = 0; a < kClients; ++a) {
      for (std::size_t i = 0; i < kAuditsPerClient; ++i) {
        const std::uint64_t id =
            txn_id(static_cast<int>(a), kTxnsPerClient + i);
        const std::size_t first = audit_first_[a][i];
        std::int64_t sum = 0;
        const bool ok = dist_txn(cl, true, id, [&](argus::DistTxn& txn) {
          sum = 0;
          for (std::size_t k = 0; k < kAccounts; ++k) {
            sum += op(cl, id, txn, names_[(first + k) % kAccounts],
                      account::balance())
                       .as_int();
          }
        });
        if (ok && sum != kTotal) ++cl.bad_audits;
      }
    }
  }

  LayerCounters counters() override {
    LayerCounters out;
    for (std::size_t s = 0; s < kSites; ++s) {
      add_counters(dist_->site(s).runtime(), out);
    }
    return out;
  }

  FinishResult finish() override {
    FinishResult out;
    dist_->run_termination_protocol();
    if (const std::size_t n = dist_->decision_log().outstanding(); n != 0) {
      out.gate_failures.push_back(std::to_string(n) +
                                  " decisions outstanding after the "
                                  "termination protocol");
    }
    const argus::DistStats st = dist_->stats();
    out.counts["dist.two_pc_commits"] = static_cast<double>(st.two_pc_commits);
    out.counts["dist.one_phase_commits"] =
        static_cast<double>(st.one_phase_commits);
    out.counts["dist.decisions_logged"] =
        static_cast<double>(st.decisions_logged);
    out.counts["dist.aborts"] = static_cast<double>(st.aborts);
    double prepared = 0;
    double records = 0;
    for (std::size_t s = 0; s < kSites; ++s) {
      prepared += static_cast<double>(
          dist_->site(s).tm().log().group_stats().prepared_forces);
      records += static_cast<double>(dist_->site(s).tm().log().size());
    }
    out.counts["dist.prepared_forces"] = prepared;

    const Balances before = balances();
    std::int64_t total = 0;
    for (const auto& [name, b] : before) total += b;
    if (before.size() != kAccounts || total != kTotal) {
      out.gate_failures.push_back("money not conserved across sites: " +
                                  std::to_string(total) + " != " +
                                  std::to_string(kTotal));
    }

    // Whole-deployment failure: every site fails, then recovers.
    out.recovered_records = records;
    std::vector<double> times;
    for (int i = 0; i < kRecoveries; ++i) {
      const auto t0 = Clock::now();
      for (std::size_t s = 0; s < kSites; ++s) dist_->fail(s);
      for (std::size_t s = 0; s < kSites; ++s) {
        if (!dist_->recover(s)) {
          out.gate_failures.push_back("site " + std::to_string(s) +
                                      " refused to recover");
          return out;
        }
      }
      times.push_back(seconds_since(t0));
      if (balances() != before) {
        out.gate_failures.push_back(
            "recovered balances differ from the pre-crash committed "
            "balances");
        return out;
      }
    }
    out.recover_s = middle(times);
    return out;
  }

  void teardown() override { dist_.reset(); }

 private:
  static constexpr std::size_t kSites = 2;
  static constexpr std::size_t kAccounts = 16;
  static constexpr std::int64_t kBalance = 1'000'000'000;
  static constexpr std::int64_t kTotal =
      static_cast<std::int64_t>(kAccounts) * kBalance;
  static constexpr std::size_t kTxnsPerClient = 600;
  static constexpr std::size_t kAuditsPerClient = 80;

  struct Task {
    std::size_t from{0};
    std::size_t to{0};
    std::int64_t amount{0};
  };
  using Balances = std::map<std::string, std::int64_t>;

  template <typename Body>
  bool dist_txn(Client& cl, bool read_only, std::uint64_t id, Body&& body) {
    return run_txn(cl, read_only, id, [&] {
      const auto txn = cl.trace.timed("dist.begin", id, [&] {
        return dist_->begin(read_only ? TxnKind::kReadOnly : TxnKind::kUpdate);
      });
      try {
        body(*txn);
        const char* name = read_only                        ? "dist.commit_ro"
                           : txn->participants().size() > 1 ? "dist.commit_2pc"
                                                            : "dist.commit_1pc";
        cl.trace.timed(name, id, [&] { dist_->commit(txn); });
      } catch (const TransactionAborted&) {
        cl.trace.timed("dist.abort", id, [&] { dist_->abort(txn); });
        throw;
      }
    });
  }

  Value op(Client& cl, std::uint64_t id, argus::DistTxn& txn,
           const std::string& name, const argus::Operation& operation) {
    return cl.trace.timed("dist.op", id, [&] {
      return txn.read_only() ? dist_->read(txn, name, operation)
                             : dist_->write(txn, name, operation);
    });
  }

  [[nodiscard]] Balances balances() {
    Balances out;
    for (const auto& entry : dist_->dump(account::balance())) {
      out[entry.var] = entry.value.as_int();
    }
    return out;
  }

  std::unique_ptr<argus::DistRuntime> dist_;
  std::vector<std::string> names_;
  std::array<std::vector<Task>, kClients> tasks_;
  /// Each audit starts at a random account (see HotWithdraw).
  std::array<std::array<std::size_t, kAuditsPerClient>, kClients>
      audit_first_{};
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, bool chaos) {
  if (name == "hot-withdraw") return std::make_unique<HotWithdraw>(chaos);
  if (chaos) return nullptr;
  if (name == "bank-audit") return std::make_unique<BankAudit>();
  if (name == "dist-transfer") return std::make_unique<DistTransfer>();
  return nullptr;
}

}  // namespace perfbench
