// Site: one node of the multi-site runtime — a full Runtime (its own
// transaction manager, commit pipeline, stable log, flight recorder and
// metrics) plus a liveness flag.
//
// Two pieces of global coordination are configured at construction and
// cost nothing afterwards:
//
//   * Timestamp domain — site i of N draws Lamport timestamps congruent
//     to i mod N (LamportClock::set_domain), so every timestamp issued
//     anywhere in the deployment is globally unique without messages.
//     This is Lamport's site-id tiebreaker folded into the numeric
//     value; it is what lets the 2PC coordinator pick max(proposals) as
//     a decision timestamp that is already unique, and what makes the
//     cross-site merge of flight-recorder sequences collision-free.
//
//   * Object-id base — site i allocates ObjectIds starting at
//     i * stride, so the merged cross-site SystemSpec and history never
//     alias two sites' objects (each replica of a replicated variable
//     is its own object in the formal model; see DESIGN.md §4.10).
//
// fail()/recover() live on DistRuntime, which owns the available-copies
// bookkeeping; Site only carries the up/down bit they flip.
#pragma once

#include <atomic>
#include <cstddef>

#include "core/runtime.h"

namespace argus {

class Site {
 public:
  /// A non-null `policy` runs the site's runtime under deterministic
  /// scheduling (SchedMode::kDeterministic).
  Site(std::size_t index, std::size_t total_sites,
       Runtime::RecorderMode recorder_mode, std::uint64_t object_id_stride,
       WaitPolicy* policy = nullptr)
      : index_(index),
        runtime_(recorder_mode,
                 policy != nullptr ? SchedMode::kDeterministic : SchedMode::kOs,
                 policy) {
    runtime_.tm().clock().set_domain(index, total_sites);
    runtime_.set_object_id_base(index * object_id_stride);
  }

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] Runtime& runtime() { return runtime_; }
  [[nodiscard]] const Runtime& runtime() const { return runtime_; }
  [[nodiscard]] TransactionManager& tm() { return runtime_.tm(); }

  [[nodiscard]] bool up() const {
    return up_.load(std::memory_order_acquire);
  }
  void set_up(bool up) { up_.store(up, std::memory_order_release); }

 private:
  const std::size_t index_;
  std::atomic<bool> up_{true};
  Runtime runtime_;
};

}  // namespace argus
