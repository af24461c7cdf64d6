#include "core/job.hpp"

#include <cmath>
#include <sstream>

namespace ecs {

std::string to_string(const Job& job) {
  std::ostringstream os;
  os << "J" << job.id << "{origin=" << job.origin << ", w=" << job.work
     << ", r=" << job.release << ", up=" << job.up << ", dn=" << job.down
     << "}";
  return os.str();
}

std::string validate_job(const Job& job, int edge_count) {
  // The checks run before any message is built: the engine validates every
  // arrival, and an ostringstream per call would cost more than the rest of
  // the arrival.
  const auto bad = [](double v) { return !std::isfinite(v); };
  // Work below the amount tolerance is indistinguishable from "already
  // finished" to the engine (its completion detection would never fire),
  // so such degenerate jobs are rejected up front. 10x the tolerance keeps
  // a safety margin.
  const bool work_bad = !(job.work > 10.0 * kAmountEpsilon) || bad(job.work);
  const bool release_bad = job.release < 0.0 || bad(job.release);
  const bool up_bad = job.up < 0.0 || bad(job.up);
  const bool down_bad = job.down < 0.0 || bad(job.down);
  const bool origin_bad = job.origin < 0 || job.origin >= edge_count;
  if (!(work_bad || release_bad || up_bad || down_bad || origin_bad)) {
    return {};
  }
  std::ostringstream os;
  os << "job " << job.id << ": ";
  if (work_bad) {
    os << "work must exceed " << 10.0 * kAmountEpsilon
       << " (the amount tolerance) and be finite, got " << job.work;
  } else if (release_bad) {
    os << "release date must be >= 0 and finite, got " << job.release;
  } else if (up_bad) {
    os << "uplink time must be >= 0 and finite, got " << job.up;
  } else if (down_bad) {
    os << "downlink time must be >= 0 and finite, got " << job.down;
  } else {
    os << "origin " << job.origin << " out of range [0, " << edge_count
       << ")";
  }
  return os.str();
}

}  // namespace ecs
