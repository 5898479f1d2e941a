// HybridAtomicObject<Adt>: an online implementation of hybrid atomicity
// (§4.3).
//
// Updates are processed exactly as in DynamicAtomicObject (intentions
// lists + data-dependent admission, the shared AdmissionObject). At
// commit the transaction manager's pipeline assigns a timestamp from the
// Lamport clock (the pipeline's tiny timestamp stage), so commit
// timestamps are consistent with precedes at every object (§4.3.3's
// first required property); applies run in commit-timestamp order, so
// the object's versioned committed state (core/snapshot.h) logs the
// transaction's operations timestamp-sorted, and the commit records the
// <commit(t),x,a> event.
//
// Read-only activities choose their timestamp at initiation: their begin
// draws a fresh timestamp and waits until the manager's visibility
// watermark covers it, so every commit below the timestamp has fully
// applied before the activity runs. They then evaluate queries against
// the committed state below their timestamp — they hold no intentions,
// never wait and never abort — and commit without the update pipeline
// (reads_snapshot: no timestamp, no log force, no apply turn). This
// realizes the paper's answer to Lamport's audit problem (§4.3.3):
// audits see a full serializable snapshot yet "do not interfere with any
// updates".
#pragma once

#include <string>
#include <utility>

#include "core/dynamic_object.h"

namespace argus {

template <AdtTraits A>
class HybridAtomicObject final : public AdmissionObject<A> {
 public:
  HybridAtomicObject(ObjectId oid, std::string name, TransactionManager& tm,
                     EventSink* recorder)
      : AdmissionObject<A>(oid, std::move(name), tm, recorder,
                           AdmissionMode::kExact, /*versioned=*/true) {}
};

}  // namespace argus
