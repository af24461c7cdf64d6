#include "gauge.hpp"

#include <cstdint>
#include <unordered_map>

#include "probes.hpp"

namespace perfbench {

namespace {

constexpr int kInserts = 8000;
constexpr int kLookups = 16000;

// Always 0, but read anew every call so no call can be folded away.
volatile std::uint64_t g_salt = 0;
volatile std::uint64_t g_sink = 0;

std::uint64_t next(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x >> 40;
}

}  // namespace

double gauge_seconds() {
  const std::int64_t t0 = now_ns();
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::uint64_t x = 1 + g_salt;
  for (int i = 0; i < kInserts; ++i) map[next(x)] += 1;
  std::uint64_t hits = 0;
  for (int i = 0; i < kLookups; ++i) {
    const auto it = map.find(next(x));
    if (it != map.end()) hits += it->second;
  }
  g_sink = hits + map.size();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace perfbench
