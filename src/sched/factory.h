// Uniform object construction across all eight protocols, so workloads and
// benchmarks can sweep "same ADT, same workload, different concurrency
// control" — the comparison structure of every experiment in
// EXPERIMENTS.md.
#pragma once

#include <memory>
#include <string>

#include "common/protocol.h"
#include "core/runtime.h"
#include "sched/lock_scheduler.h"
#include "sched/timestamp_scheduler.h"

namespace argus {

/// Creates an object of the given ADT under the given protocol, registers
/// it (and its spec) with the runtime, and returns it.
template <AdtTraits A>
std::shared_ptr<ManagedObject> make_object(Runtime& rt, Protocol protocol,
                                           const std::string& name) {
  switch (protocol) {
    case Protocol::kDynamic:
      return rt.create_dynamic<A>(name);
    case Protocol::kStatic:
      return rt.create_static<A>(name);
    case Protocol::kHybrid:
      return rt.create_hybrid<A>(name);
    case Protocol::kTwoPhase:
    case Protocol::kCommutativity: {
      const LockRule rule = protocol == Protocol::kTwoPhase
                                ? LockRule::kReadWrite
                                : LockRule::kStaticCommutativity;
      auto obj = std::make_shared<LockSchedulerObject<A>>(
          rt.allocate_object_id(), name, rt.tm(), rt.recorder(), rule);
      rt.adopt(obj, std::make_shared<AdtSpec<A>>());
      return obj;
    }
    case Protocol::kTimestamp: {
      auto obj = std::make_shared<TimestampSchedulerObject<A>>(
          rt.allocate_object_id(), name, rt.tm(), rt.recorder());
      rt.adopt(obj, std::make_shared<AdtSpec<A>>());
      return obj;
    }
    case Protocol::kOcc:
      return rt.create_occ<A>(name);
    case Protocol::kMvcc:
      return rt.create_mvcc<A>(name);
  }
  throw UsageError("unknown protocol");
}

}  // namespace argus
