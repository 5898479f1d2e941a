#include "sim/case.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <variant>

#include "spec/adts/bank_account.h"

namespace argus {

namespace {

/// Which formats carry a FaultPlan key (see PlanKeys).
enum class PlanGroup {
  kCommon,  // every format
  kSeed,    // fault and dist (a sched case has its own seed)
  kDist,    // dist only: site churn, coordinator, messages
};

struct PlanField {
  const char* key;
  PlanGroup group;
  std::variant<std::uint32_t FaultPlan::*, std::uint64_t FaultPlan::*,
               FaultSite FaultPlan::*>
      member;
};

/// Every FaultPlan key, in print order.
const PlanField kPlanFields[] = {
    {"seed", PlanGroup::kSeed, &FaultPlan::seed},
    {"site_fail_permille", PlanGroup::kDist, &FaultPlan::site_fail_permille},
    {"site_recover_permille", PlanGroup::kDist,
     &FaultPlan::site_recover_permille},
    {"force_fail_permille", PlanGroup::kCommon,
     &FaultPlan::force_fail_permille},
    {"force_max_retries", PlanGroup::kCommon, &FaultPlan::force_max_retries},
    {"force_retry_backoff_us", PlanGroup::kCommon,
     &FaultPlan::force_retry_backoff_us},
    {"torn_batch_permille", PlanGroup::kCommon,
     &FaultPlan::torn_batch_permille},
    {"leader_latency_permille", PlanGroup::kCommon,
     &FaultPlan::leader_latency_permille},
    {"leader_latency_us", PlanGroup::kCommon, &FaultPlan::leader_latency_us},
    {"crash_point", PlanGroup::kCommon, &FaultPlan::crash_point},
    {"crash_at", PlanGroup::kCommon, &FaultPlan::crash_at_arrival},
    {"spurious_timeout_permille", PlanGroup::kCommon,
     &FaultPlan::spurious_timeout_permille},
    {"delayed_wakeup_permille", PlanGroup::kCommon,
     &FaultPlan::delayed_wakeup_permille},
    {"delayed_wakeup_us", PlanGroup::kCommon, &FaultPlan::delayed_wakeup_us},
    {"coord_crash_point", PlanGroup::kDist, &FaultPlan::coord_crash_point},
    {"coord_crash_at", PlanGroup::kDist, &FaultPlan::coord_crash_at_arrival},
    {"coord_recover_permille", PlanGroup::kDist,
     &FaultPlan::coord_recover_permille},
    {"decision_force_fail_permille", PlanGroup::kDist,
     &FaultPlan::decision_force_fail_permille},
    {"msg_loss_permille", PlanGroup::kDist, &FaultPlan::msg_loss_permille},
    {"msg_latency_permille", PlanGroup::kDist,
     &FaultPlan::msg_latency_permille},
    {"msg_latency_us", PlanGroup::kDist, &FaultPlan::msg_latency_us},
    {"msg_retries", PlanGroup::kDist, &FaultPlan::msg_retries},
    {"max_faults", PlanGroup::kCommon, &FaultPlan::max_faults},
};

bool carries(PlanKeys keys, PlanGroup group) {
  switch (group) {
    case PlanGroup::kCommon:
      return true;
    case PlanGroup::kSeed:
      return keys != PlanKeys::kSched;
    case PlanGroup::kDist:
      return keys == PlanKeys::kDist;
  }
  return false;
}

}  // namespace

bool read_case_file(const std::string& path, std::string* text) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream out;
  out << in.rdbuf();
  *text = out.str();
  return true;
}

void write_case_artifact(const std::string& dir, int index,
                         const std::string& failure,
                         const std::string& config) {
  std::filesystem::create_directories(dir);
  std::ofstream out(std::filesystem::path(dir) /
                    ("minimized_" + std::to_string(index) + ".txt"));
  out << "# auto-minimized failing case\n# failure:\n";
  std::istringstream why(failure);
  std::string line;
  while (std::getline(why, line)) out << "#   " << line << "\n";
  out << config;
}

bool parse_case_lines(const std::string& text, const CaseFieldParser& field,
                      std::string* error) {
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
    const std::string why = field(key, value);
    if (!why.empty()) return fail(why);
  }
  return true;
}

void print_plan(std::ostream& out, const FaultPlan& plan, PlanKeys keys) {
  for (const PlanField& f : kPlanFields) {
    if (!carries(keys, f.group)) continue;
    out << f.key << " ";
    std::visit(
        [&](auto member) {
          if constexpr (std::is_same_v<decltype(member),
                                       FaultSite FaultPlan::*>) {
            out << to_string(plan.*member);
          } else {
            out << plan.*member;
          }
        },
        f.member);
    out << "\n";
  }
}

std::string parse_plan_field(const std::string& key, const std::string& value,
                             PlanKeys keys, FaultPlan* plan) {
  for (const PlanField& f : kPlanFields) {
    if (key != f.key || !carries(keys, f.group)) continue;
    return std::visit(
        [&](auto member) -> std::string {
          auto& field = plan->*member;
          if constexpr (std::is_same_v<decltype(member),
                                       FaultSite FaultPlan::*>) {
            std::string what = key;  // crash_point -> "crash point"
            for (char& ch : what) {
              if (ch == '_') ch = ' ';
            }
            return parse_name(what, value, kFaultSiteCount, &field);
          } else {
            return parse_count(value, &field);
          }
        },
        f.member);
  }
  return "unknown key: " + key;
}

void Probes::settle(CaseResult& result) const {
  result.ok = failures_.empty();
  result.failure.clear();
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) result.failure += "\n";
    result.failure += failures_[i];
  }
}

void seed_accounts(Runtime& rt,
                   const std::vector<std::shared_ptr<ManagedObject>>& accounts,
                   std::int64_t amount) {
  auto setup = rt.begin();
  for (const auto& a : accounts) a->invoke(*setup, account::deposit(amount));
  rt.commit(setup);
}

std::size_t random_transfer(
    Transaction& txn,
    const std::vector<std::shared_ptr<ManagedObject>>& accounts,
    SplitMix64& rng, std::int64_t max_amount) {
  const std::size_t n = accounts.size();
  const std::size_t from = rng.below(n);
  const std::size_t to = n > 1 ? (from + 1 + rng.below(n - 1)) % n : from;
  const std::int64_t amount = rng.range(1, max_amount);
  if (accounts[from]->invoke(txn, account::withdraw(amount)).is_unit()) {
    accounts[to]->invoke(txn, account::deposit(amount));
  }
  return from;
}

void probe_conservation(
    Runtime& rt, const std::vector<std::shared_ptr<ManagedObject>>& accounts,
    std::int64_t expected, Probes& probes) {
  auto check = rt.begin();
  std::int64_t total = 0;
  for (const auto& a : accounts) {
    total += a->invoke(*check, account::balance()).as_int();
  }
  rt.commit(check);
  probes.check(total == expected, "conservation: recovered total " +
                                      std::to_string(total) + " != " +
                                      std::to_string(expected));
}

void probe_sentinel(Runtime& rt, Probes& probes, const std::string& tag) {
  AtomicitySentinel* sentinel = rt.sentinel();
  if (sentinel == nullptr) return;
  sentinel->stop();
  probes.check(sentinel->violations() == 0,
               tag + "sentinel: " + sentinel->last_violation());
  rt.stop_sentinel();
}

std::size_t probe_stable_log(Runtime& rt, Probes& probes,
                             const std::string& tag) {
  const auto records = rt.tm().log().records();
  const Timestamp watermark = rt.tm().clock().watermark();
  Timestamp prev = 0;
  for (const auto& record : records) {
    probes.check(record.commit_ts >= prev,
                 tag + "log order: record ts " +
                     std::to_string(record.commit_ts) + " after ts " +
                     std::to_string(prev));
    prev = record.commit_ts;
    probes.check(record.commit_ts <= watermark,
                 tag + "watermark: forced ts " +
                     std::to_string(record.commit_ts) + " above watermark " +
                     std::to_string(watermark));
  }
  return records.size();
}

std::uint64_t bisect_smallest_failing(
    std::uint64_t hi, const std::function<bool(std::uint64_t)>& fails) {
  if (fails(0)) return 0;
  // Invariant: fails at hi, passes at lo.
  std::uint64_t lo = 0;
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (fails(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace argus
