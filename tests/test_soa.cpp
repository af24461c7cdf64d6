// Tests for the SoA state-pool building blocks (sim/soa.hpp). The IdMap is
// the engine's O(peak_live) memory claim made concrete: its
// capacity must track the number of SIMULTANEOUSLY live ids, never their
// numeric span — the old dense window map grew with (max id - min live id),
// which a single long-running job under churn blows up to O(n). The fuzz
// suites drive insert/erase/find against std::unordered_map as the oracle.
#include "sim/soa.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace ecs {
namespace {

TEST(IdMap, FindOnEmptyAndAfterClear) {
  soa::IdMap map;
  EXPECT_EQ(map.find(0), soa::IdMap::kAbsent);
  EXPECT_EQ(map.size(), 0u);
  map.insert(7, 3);
  EXPECT_EQ(map.find(7), 3);
  map.clear();
  EXPECT_EQ(map.find(7), soa::IdMap::kAbsent);
  EXPECT_EQ(map.size(), 0u);
}

TEST(IdMap, FuzzAgainstUnorderedMapOracle) {
  soa::IdMap map;
  std::unordered_map<JobId, std::int32_t> oracle;
  Rng rng(2024);
  JobId next_id = 0;
  std::vector<JobId> live;
  for (int step = 0; step < 200'000; ++step) {
    const double roll = rng.uniform(0.0, 1.0);
    if (live.empty() || roll < 0.5) {
      const JobId id = next_id++;
      const auto slot = static_cast<std::int32_t>(id % 97);
      map.insert(id, slot);
      oracle.emplace(id, slot);
      live.push_back(id);
    } else {
      // Erase a uniformly random live id — NOT fifo order, so the probe
      // chains see holes in arbitrary positions (the backward-shift
      // deletion's hard case).
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(live.size()) - 0.001));
      const JobId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      map.erase(id);
      oracle.erase(id);
    }
    ASSERT_EQ(map.size(), oracle.size()) << "step " << step;
    // Point probes: a handful of present and absent keys every step.
    for (int probe = 0; probe < 4; ++probe) {
      const JobId id = static_cast<JobId>(
          rng.uniform(0.0, static_cast<double>(next_id) + 10.0));
      const auto it = oracle.find(id);
      ASSERT_EQ(map.find(id),
                it == oracle.end() ? soa::IdMap::kAbsent : it->second)
          << "step " << step << " id " << id;
    }
  }
}

TEST(IdMap, CapacityTracksLiveCountNotIdSpan) {
  // Sliding-window churn: one insert + one erase per step keeps exactly
  // kWindow ids live while their numeric values march to 1e6. The dense
  // window map this replaced would hold ~span entries whenever any old id
  // stayed live; the hash map must stay at the capacity a kWindow-sized
  // set needs, forever.
  constexpr int kWindow = 48;
  soa::IdMap map;
  for (JobId id = 0; id < kWindow; ++id) {
    map.insert(id, static_cast<std::int32_t>(id));
  }
  // Warm up past the first few churn steps (insert-before-erase peaks at
  // kWindow + 1 occupancy, which may cross the load factor exactly once),
  // then the capacity must hold for the remaining ~1M steps.
  for (JobId id = kWindow; id < kWindow + 256; ++id) {
    map.insert(id, static_cast<std::int32_t>(id % kWindow));
    map.erase(id - kWindow);
  }
  const std::size_t settled = map.capacity();
  EXPECT_LE(settled, 256u);  // O(window), nowhere near the id span
  for (JobId id = kWindow + 256; id < 1'000'000; ++id) {
    map.insert(id, static_cast<std::int32_t>(id % kWindow));
    map.erase(id - kWindow);
  }
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kWindow));
  EXPECT_EQ(map.capacity(), settled);
  // And the survivors are all still findable at their latest slots.
  for (JobId id = 1'000'000 - kWindow; id < 1'000'000; ++id) {
    EXPECT_EQ(map.find(id), static_cast<std::int32_t>(id % kWindow));
  }
}

TEST(IdMap, AdversarialColliderIdsStillBehave) {
  // Ids a power-of-two stride apart defeat a masked identity hash; the
  // multiplicative hash must spread them. Correctness (not speed) is what the
  // oracle checks here — every probe chain with collisions still resolves.
  soa::IdMap map;
  std::unordered_map<JobId, std::int32_t> oracle;
  std::vector<JobId> ids;
  for (JobId i = 0; i < 512; ++i) ids.push_back(i * 4096);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    map.insert(ids[i], static_cast<std::int32_t>(i));
    oracle.emplace(ids[i], static_cast<std::int32_t>(i));
  }
  // Erase every third, then re-probe everything.
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    map.erase(ids[i]);
    oracle.erase(ids[i]);
  }
  for (const JobId id : ids) {
    const auto it = oracle.find(id);
    EXPECT_EQ(map.find(id),
              it == oracle.end() ? soa::IdMap::kAbsent : it->second);
  }
  EXPECT_EQ(map.size(), oracle.size());
}

TEST(LiveIndex, SwapEraseKeepsDenseIterationConsistent) {
  soa::LiveIndex live;
  live.reset(8);
  live.insert(10, 0);
  live.insert(11, 3);
  live.insert(12, 5);
  ASSERT_EQ(live.size(), 3u);

  // Erase the middle slot: the last entry swaps into its place.
  live.erase(3);
  std::set<JobId> seen;
  for (const soa::LiveIndex::Entry& e : live) {
    seen.insert(e.id);
    EXPECT_TRUE(e.slot == 0 || e.slot == 5);
  }
  EXPECT_EQ(seen, (std::set<JobId>{10, 12}));

  // Slot 3 can be reused for a new id after the erase.
  live.insert(13, 3);
  EXPECT_EQ(live.size(), 3u);
  seen.clear();
  for (const soa::LiveIndex::Entry& e : live) seen.insert(e.id);
  EXPECT_EQ(seen, (std::set<JobId>{10, 12, 13}));

  live.erase(0);
  live.erase(5);
  live.erase(3);
  EXPECT_TRUE(live.empty());
}

TEST(LiveIndex, GrowExtendsSlotRange) {
  soa::LiveIndex live;
  live.reset(1);
  live.insert(0, 0);
  live.grow();  // streaming pool grew a slot
  live.insert(1, 1);
  EXPECT_EQ(live.size(), 2u);
  live.erase(0);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live.begin()->id, 1);
  EXPECT_EQ(live.begin()->slot, 1);
}

}  // namespace
}  // namespace ecs
