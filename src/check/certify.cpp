#include "check/certify.h"

#include "check/atomicity.h"
#include "hist/wellformed.h"

namespace argus {

Certification certify(Protocol protocol, const SystemSpec& system,
                      const History& h,
                      const std::unordered_set<ActivityId>& read_only) {
  const char* wf_name = "well-formed";
  const char* property = "dynamic atomic";
  WellFormedness wf;
  CheckResult verdict;
  switch (protocol) {
    case Protocol::kDynamic:
    case Protocol::kTwoPhase:
    case Protocol::kCommutativity:
      wf = check_well_formed(h);
      verdict = check_dynamic_atomic(system, h);
      break;
    case Protocol::kStatic:
    case Protocol::kTimestamp:
      wf_name = "well-formed(static)";
      property = "static atomic";
      wf = check_well_formed_static(h);
      verdict = check_static_atomic(system, h);
      break;
    case Protocol::kHybrid:
    case Protocol::kOcc:
    case Protocol::kMvcc:
      wf_name = "well-formed(hybrid)";
      property = "hybrid atomic";
      wf = check_well_formed_hybrid(h, read_only);
      verdict = check_hybrid_atomic(system, h);
      break;
  }

  Certification out;
  if (!wf.ok()) out.failure = std::string(wf_name) + ": " + wf.summary();
  if (!verdict.ok) {
    if (!out.failure.empty()) out.failure += "\n";
    out.failure += std::string(property) + ": " + verdict.explanation;
  }
  out.ok = out.failure.empty();
  return out;
}

}  // namespace argus
