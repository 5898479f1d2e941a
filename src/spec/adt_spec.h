// Compile-time ADT definitions and the adapter onto the virtual spec
// interface.
//
// An Adt is a stateless trait struct describing one abstract data type:
//
//   struct MyAdt {
//     using State = ...;                       // regular value type
//     static State initial();
//     static Outcomes<State> step(const State&, const Operation&);
//     static bool is_read_only(const Operation&);
//     static bool static_commutes(const Operation&, const Operation&);
//     static std::string type_name();
//     static std::string describe(const State&);
//   };
//
// An Adt may also supply
//
//     static bool redo(State& s, const Operation& op, const Value& result);
//
// which applies op in place when some outcome of step(s, op) has `result`
// (that outcome's successor must be the only one with that result) and
// returns true, or returns false leaving s unchanged. The committed-state
// fold (core/snapshot.h) then redoes committed operations in place
// instead of filtering step()'s outcomes, each a copy of the state: the
// bag (one outcome per distinct element) and the queue (a long vector)
// supply it.
//
// The runtime protocol templates (src/core) operate directly on Adt to
// avoid virtual dispatch and state cloning through pointers; the checker
// layer uses AdtSpec<Adt> to reach the same semantics through the virtual
// interface.
#pragma once

#include <concepts>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spec/spec.h"

namespace argus {

template <typename State>
using Outcomes = std::vector<std::pair<Value, State>>;

template <typename A>
concept AdtTraits = requires(const typename A::State& s, const Operation& o) {
  { A::initial() } -> std::same_as<typename A::State>;
  { A::step(s, o) } -> std::same_as<Outcomes<typename A::State>>;
  { A::is_read_only(o) } -> std::same_as<bool>;
  { A::static_commutes(o, o) } -> std::same_as<bool>;
  { A::type_name() } -> std::same_as<std::string>;
  { A::describe(s) } -> std::same_as<std::string>;
  requires std::equality_comparable<typename A::State>;
};

template <AdtTraits A>
class AdtState final : public SpecState {
 public:
  explicit AdtState(typename A::State s) : state_(std::move(s)) {}

  [[nodiscard]] std::unique_ptr<SpecState> clone() const override {
    return std::make_unique<AdtState>(state_);
  }

  [[nodiscard]] std::vector<Next> step(const Operation& op) const override {
    std::vector<Next> out;
    for (auto& [result, next] : A::step(state_, op)) {
      out.push_back(Next{result, std::make_unique<AdtState>(std::move(next))});
    }
    return out;
  }

  [[nodiscard]] bool equals(const SpecState& other) const override {
    const auto* o = dynamic_cast<const AdtState*>(&other);
    return o != nullptr && o->state_ == state_;
  }

  [[nodiscard]] std::string describe() const override {
    return A::describe(state_);
  }

  [[nodiscard]] const typename A::State& state() const { return state_; }

 private:
  typename A::State state_;
};

template <AdtTraits A>
class AdtSpec final : public SequentialSpec {
 public:
  [[nodiscard]] std::unique_ptr<SpecState> initial_state() const override {
    return std::make_unique<AdtState<A>>(A::initial());
  }

  [[nodiscard]] std::string type_name() const override {
    return A::type_name();
  }

  [[nodiscard]] bool is_read_only(const Operation& op) const override {
    return A::is_read_only(op);
  }

  [[nodiscard]] bool static_commutes(const Operation& p,
                                     const Operation& q) const override {
    return A::static_commutes(p, q);
  }

  /// ADTs may pin the data-dependent fragment exactly with
  ///     static bool state_dependent_commutes(const Operation&,
  ///                                          const Operation&);
  /// otherwise the base class probes forward_commutes over sampled
  /// reachable states (see spec.cpp).
  [[nodiscard]] bool state_dependent_commutes(
      const Operation& p, const Operation& q) const override {
    if constexpr (requires {
                    { A::state_dependent_commutes(p, q) } ->
                        std::same_as<bool>;
                  }) {
      return A::state_dependent_commutes(p, q);
    } else {
      return SequentialSpec::state_dependent_commutes(p, q);
    }
  }
};

}  // namespace argus
