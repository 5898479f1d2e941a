// First-in-first-out queue — the §5.1 example showing that the scheduler
// model rules out intuitively atomic executions.
//
// Operations: enqueue(n) -> ok, dequeue -> n (disabled on an empty queue),
// size -> n (a read-only extension used by the workloads; the paper's
// queue has only enqueue and dequeue).
//
// enqueue(1) does not commute with enqueue(2), but enqueue(1) *does*
// commute with enqueue(1) — an argument-sensitive fact the generic
// forward-commutativity oracle discovers and that makes the paper's §5.1
// interleaved-producers history dynamic atomic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spec/adt_spec.h"

namespace argus {

struct FifoQueueAdt {
  using State = std::vector<std::int64_t>;  // front is index 0

  static State initial() { return {}; }
  static Outcomes<State> step(const State& s, const Operation& op);
  static bool redo(State& s, const Operation& op, const Value& result);
  static bool is_read_only(const Operation& op);
  static bool static_commutes(const Operation& p, const Operation& q);
  static std::string type_name() { return "fifo_queue"; }
  static std::string describe(const State& s);
};

namespace fifo {
inline Operation enqueue(std::int64_t n) { return op("enqueue", n); }
inline Operation dequeue() { return op("dequeue"); }
inline Operation size() { return op("size"); }
}  // namespace fifo

}  // namespace argus
