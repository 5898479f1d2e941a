#include "sim/vc_case.h"

#include <sstream>
#include <utility>
#include <vector>

#include "hist/parse.h"

namespace argus {

namespace {

/// The `# expect:` spellings of the verdicts.
const std::pair<const char*, VcVerdict> kExpectNames[] = {
    {"pass", VcVerdict::kPass},
    {"violation", VcVerdict::kViolation},
    {"suspicious", VcVerdict::kSuspicious},
};

}  // namespace

bool operator==(const VcCase& a, const VcCase& b) {
  return a.expect == b.expect && a.history == b.history &&
         describe_system(a.system) == describe_system(b.system);
}

std::string to_config_string(const VcCase& c) {
  std::string out = "# expect: ";
  for (const auto& [name, verdict] : kExpectNames) {
    if (verdict == c.expect) out += name;
  }
  return out + "\n" + describe_system(c.system) + c.history.to_string();
}

bool parse_case(const std::string& text, VcCase* out, std::string* error) {
  VcCase c;
  bool saw_expect = false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string hash, keyword;
    fields >> hash >> keyword;
    if (hash != "#") continue;
    if (keyword == "expect:") {
      std::string verdict;
      fields >> verdict;
      bool known = false;
      for (const auto& [name, v] : kExpectNames) {
        if (verdict == name) {
          c.expect = v;
          known = true;
        }
      }
      if (!known) {
        *error = "unknown expect verdict: " + verdict;
        return false;
      }
      saw_expect = true;
    } else if (keyword == "object") {
      std::string name, type;
      fields >> name >> type;
      const auto id = parse_object(name);
      if (!id || type.empty()) {
        *error = "bad object directive: " + line;
        return false;
      }
      c.system.add_object(*id, type);
    }
  }
  if (!saw_expect) {
    *error = "missing '# expect:' directive";
    return false;
  }
  if (c.system.objects().empty()) {
    *error = "missing '# object' directive";
    return false;
  }
  ParseResult parsed = parse_history(text);
  if (!parsed.history.has_value()) {
    *error = parsed.error;
    return false;
  }
  c.history = std::move(*parsed.history);
  *out = std::move(c);
  return true;
}

CaseResult run_case(const VcCase& c) {
  CaseResult result;
  Probes probes;
  for (const std::size_t window : {std::size_t{0}, std::size_t{2},
                                   std::size_t{4}}) {
    const std::string at = "window " + std::to_string(window) + ": ";
    const VcReport esc = check_vc_atomic(c.system, c.history, {}, window);
    probes.check(esc.verdict == c.expect,
                 at + "kEscalating said " + to_string(esc.verdict) +
                     ", pinned " + to_string(c.expect));

    VcCheckerOptions vc_only;
    vc_only.escalate = false;
    const VcReport vc = check_vc_atomic(c.system, c.history, vc_only, window);
    if (c.expect == VcVerdict::kViolation) {
      probes.check(vc.verdict != VcVerdict::kPass,
                   at + "monitoring-only mode passed a pinned violation");
    } else if (c.expect == VcVerdict::kPass) {
      probes.check(vc.verdict != VcVerdict::kViolation,
                   at + "monitoring-only mode flagged a pinned pass");
    }
  }
  result.trace = c.history.to_string();
  probes.settle(result);
  return result;
}

History minimize_history(
    const History& h, const std::function<bool(const History&)>& disagrees) {
  const auto drop_activity = [](const History& from, ActivityId a) {
    std::vector<Event> kept;
    kept.reserve(from.events().size());
    for (const Event& e : from.events()) {
      if (e.activity != a) kept.push_back(e);
    }
    return History(std::move(kept));
  };
  History current = h;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (ActivityId a : current.activities()) {
      History candidate = drop_activity(current, a);
      if (disagrees(candidate)) {
        current = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return current;
}

std::string describe_system(const SystemSpec& system) {
  std::ostringstream out;
  for (ObjectId x : system.objects()) {
    out << "# object " << to_string(x) << " " << system.spec_of(x).type_name()
        << "\n";
  }
  return out.str();
}

}  // namespace argus
