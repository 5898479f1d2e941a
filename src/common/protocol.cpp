#include "common/protocol.h"

namespace argus {

std::string to_string(Protocol p) {
  switch (p) {
    case Protocol::kDynamic:
      return "dynamic";
    case Protocol::kStatic:
      return "static";
    case Protocol::kHybrid:
      return "hybrid";
    case Protocol::kTwoPhase:
      return "2pl";
    case Protocol::kCommutativity:
      return "comm-lock";
    case Protocol::kTimestamp:
      return "timestamp";
    case Protocol::kOcc:
      return "occ";
    case Protocol::kMvcc:
      return "mvcc";
  }
  return "?";
}

}  // namespace argus
