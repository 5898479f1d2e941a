// certify: the one place a protocol meets its correctness criterion.
//
// Weihl reduces every protocol's correctness to one of three local
// atomicity properties, each with its own well-formedness alphabet:
//
//   dynamic (§4.1)    — dynamic, 2PL and commutativity locking;
//   static  (§4.2.2)  — static and single-version timestamp ordering;
//   hybrid  (§4.3.2)  — hybrid, OCC and MVCC (updates serialize at their
//                       commit timestamp, validation runs at the pipeline
//                       turn, and MVCC reads at initiation snapshots).
//
// Sweeps, property tests and benchmarks all certify a recorded history
// through this function rather than re-deriving the mapping.
#pragma once

#include <string>
#include <unordered_set>

#include "check/system.h"
#include "common/protocol.h"
#include "hist/history.h"

namespace argus {

struct Certification {
  bool ok{true};
  std::string failure;  // each failed check on its own line
};

/// Checks `h` for well-formedness and for the local atomicity property
/// `protocol` guarantees. `read_only` names the read-only activities
/// (used by the hybrid alphabet only).
[[nodiscard]] Certification certify(
    Protocol protocol, const SystemSpec& system, const History& h,
    const std::unordered_set<ActivityId>& read_only = {});

}  // namespace argus
