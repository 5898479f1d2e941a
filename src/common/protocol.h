// Protocol: the concurrency-control protocol an object runs under — the
// knob every head-to-head experiment turns. The three data-dependent
// protocols are the paper's local atomicity properties; the rest are the
// conflict-based baselines and the optimistic foils. check/certify.h maps
// each one to the property its histories must satisfy, sched/factory.h to
// the object class that implements it.
#pragma once

#include <array>
#include <string>

namespace argus {

enum class Protocol {
  kDynamic,         // §4.1 — intentions lists + data-dependent admission
  kStatic,          // §4.2 — generalized multi-version timestamp ordering
  kHybrid,          // §4.3 — dynamic updates + commit-time timestamps
  kTwoPhase,        // baseline: strict 2PL, read/write locks
  kCommutativity,   // baseline: static commutativity locking
  kTimestamp,       // baseline: strict single-version timestamp ordering
  kOcc,             // foil: validate-at-commit, first-committer-wins
  kMvcc,            // foil: OCC updates + version log, snapshot reads
};

/// Every protocol, in enum order.
inline constexpr std::array<Protocol, 8> kAllProtocols = {
    Protocol::kDynamic,   Protocol::kStatic,        Protocol::kHybrid,
    Protocol::kTwoPhase,  Protocol::kCommutativity, Protocol::kTimestamp,
    Protocol::kOcc,       Protocol::kMvcc};

[[nodiscard]] std::string to_string(Protocol p);

/// Does this protocol give read-only transactions a timestamp snapshot
/// (i.e. should workloads open audits with begin_read_only)? All
/// protocols accept read-only transactions; under hybrid this unlocks the
/// non-interference fast path.
[[nodiscard]] constexpr bool supports_snapshot_reads(Protocol p) {
  return p == Protocol::kHybrid || p == Protocol::kStatic ||
         p == Protocol::kMvcc;
}

}  // namespace argus
