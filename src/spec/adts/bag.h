// Bag (multiset) with a nondeterministic remove — exercising the paper's
// requirement that specifications admit nondeterministic operations (§1:
// "their specifications require operations to be functions, precluding the
// description of non-deterministic operations").
//
// Operations: insert(n) -> ok, remove -> n for *any* n currently in the
// bag (disabled when empty), size -> n (read-only).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "spec/adt_spec.h"

namespace argus {

struct BagAdt {
  // Element -> multiplicity; a map keeps State ordered and comparable.
  using State = std::map<std::int64_t, std::int64_t>;

  static State initial() { return {}; }
  static Outcomes<State> step(const State& s, const Operation& op);
  static bool redo(State& s, const Operation& op, const Value& result);
  static bool is_read_only(const Operation& op);
  static bool static_commutes(const Operation& p, const Operation& q);
  /// The generic reachability probe cannot discover the bag's
  /// data-dependent pairs (remove alone cannot build a populated bag), so
  /// the fragment is pinned here: remove/remove commutes at multiplicity
  /// >= 2, insert(n)/remove at states holding an n.
  static bool state_dependent_commutes(const Operation& p,
                                       const Operation& q);
  static std::string type_name() { return "bag"; }
  static std::string describe(const State& s);
};

namespace bag {
inline Operation insert(std::int64_t n) { return op("insert", n); }
inline Operation remove() { return op("remove"); }
inline Operation size() { return op("size"); }
}  // namespace bag

}  // namespace argus
