#include "sim/state.hpp"

namespace ecs {

std::string to_string(Activity activity) {
  switch (activity) {
    case Activity::kNone:
      return "none";
    case Activity::kUplink:
      return "uplink";
    case Activity::kCompute:
      return "compute";
    case Activity::kDownlink:
      return "downlink";
  }
  return "unknown";
}

std::string to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kRelease:
      return "release";
    case EventKind::kUplinkDone:
      return "uplink-done";
    case EventKind::kComputeDone:
      return "compute-done";
    case EventKind::kDownlinkDone:
      return "downlink-done";
    case EventKind::kFault:
      return "fault";
    case EventKind::kRecovery:
      return "recovery";
  }
  return "unknown";
}

}  // namespace ecs
