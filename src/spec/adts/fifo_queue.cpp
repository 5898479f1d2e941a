#include "spec/adts/fifo_queue.h"

#include <sstream>

namespace argus {

Outcomes<FifoQueueAdt::State> FifoQueueAdt::step(const State& s,
                                                 const Operation& operation) {
  if (operation.name == "enqueue" && operation.args.size() == 1 &&
      operation.args[0].is_int()) {
    State next = s;
    next.push_back(operation.args[0].as_int());
    return {{ok(), std::move(next)}};
  }
  if (operation.name == "dequeue" && operation.args.empty()) {
    if (s.empty()) return {};  // disabled: a serial dequeue on empty is unacceptable
    State next(s.begin() + 1, s.end());
    return {{Value{s.front()}, std::move(next)}};
  }
  if (operation.name == "size" && operation.args.empty()) {
    return {{Value{static_cast<std::int64_t>(s.size())}, s}};
  }
  return {};
}

bool FifoQueueAdt::redo(State& s, const Operation& operation,
                        const Value& result) {
  if (operation.name == "enqueue" && operation.args.size() == 1 &&
      operation.args[0].is_int() && result == ok()) {
    s.push_back(operation.args[0].as_int());
    return true;
  }
  if (operation.name == "dequeue" && operation.args.empty() && !s.empty() &&
      result == Value{s.front()}) {
    s.erase(s.begin());
    return true;
  }
  return operation.name == "size" && operation.args.empty() &&
         result == Value{static_cast<std::int64_t>(s.size())};
}

bool FifoQueueAdt::is_read_only(const Operation& op) {
  return op.name == "size";
}

bool FifoQueueAdt::static_commutes(const Operation& p, const Operation& q) {
  if (p.name == "enqueue" && q.name == "enqueue") {
    // Equal values leave the queue in the same state either way; distinct
    // values fix an observable order (§5.1's "enqueue(1) does not commute
    // with enqueue(2)").
    return p.args == q.args;
  }
  return p.name == "size" && q.name == "size";
}

std::string FifoQueueAdt::describe(const State& s) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i > 0) out << ",";
    out << s[i];
  }
  out << "]";
  return out.str();
}

}  // namespace argus
