#include "spec/adts/bag.h"

#include <numeric>
#include <sstream>

namespace argus {

Outcomes<BagAdt::State> BagAdt::step(const State& s,
                                     const Operation& operation) {
  if (operation.name == "insert" && operation.args.size() == 1 &&
      operation.args[0].is_int()) {
    State next = s;
    ++next[operation.args[0].as_int()];
    return {{ok(), std::move(next)}};
  }
  if (operation.name == "remove" && operation.args.empty()) {
    // One outcome per distinct element: the essence of nondeterminism.
    Outcomes<State> out;
    for (const auto& [elem, count] : s) {
      State next = s;
      if (count == 1) {
        next.erase(elem);
      } else {
        --next[elem];
      }
      out.push_back({Value{elem}, std::move(next)});
    }
    return out;  // empty bag => disabled
  }
  if (operation.name == "size" && operation.args.empty()) {
    const std::int64_t n = std::accumulate(
        s.begin(), s.end(), std::int64_t{0},
        [](std::int64_t acc, const auto& kv) { return acc + kv.second; });
    return {{Value{n}, s}};
  }
  return {};
}

bool BagAdt::redo(State& s, const Operation& operation, const Value& result) {
  if (operation.name == "insert" && operation.args.size() == 1 &&
      operation.args[0].is_int() && result == ok()) {
    ++s[operation.args[0].as_int()];
    return true;
  }
  if (operation.name == "remove" && operation.args.empty() &&
      result.is_int()) {
    auto it = s.find(result.as_int());
    if (it == s.end()) return false;
    if (--it->second == 0) s.erase(it);
    return true;
  }
  if (operation.name == "size" && operation.args.empty()) {
    return result == step(s, operation).front().first;
  }
  return false;
}

bool BagAdt::is_read_only(const Operation& op) { return op.name == "size"; }

bool BagAdt::static_commutes(const Operation& p, const Operation& q) {
  // Inserts always commute (multiset union is commutative and both return
  // ok). Everything involving remove or size conflicts in some state.
  if (p.name == "insert" && q.name == "insert") return true;
  return p.name == "size" && q.name == "size";
}

bool BagAdt::state_dependent_commutes(const Operation& p,
                                      const Operation& q) {
  if (static_commutes(p, q)) return false;
  // size observes the exact multiset, so nothing that changes it ever
  // commutes with it; every other non-static pair involves remove, whose
  // nondeterminism makes the pair commute in sufficiently full states.
  return p.name != "size" && q.name != "size";
}

std::string BagAdt::describe(const State& s) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [elem, count] : s) {
    for (std::int64_t i = 0; i < count; ++i) {
      if (!first) out << ",";
      first = false;
      out << elem;
    }
  }
  out << "}";
  return out.str();
}

}  // namespace argus
