// Tests for the SoA state-pool building blocks (sim/soa.hpp). The IdMap is
// the engine's O(peak_live) memory claim made concrete: its
// capacity must track the number of SIMULTANEOUSLY live ids, never their
// numeric span — the old dense window map grew with (max id - min live id),
// which a single long-running job under churn blows up to O(n). The fuzz
// suites drive insert/erase/find against std::unordered_map as the oracle.
#include "sim/soa.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
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

/// The index holds exactly `oracle`: ids ascending, each slot beside its id.
void expect_holds(const soa::LiveIndex& live,
                  const std::map<JobId, std::int32_t>& oracle) {
  ASSERT_EQ(live.size(), oracle.size());
  ASSERT_EQ(live.ids().size(), live.slots().size());
  std::size_t i = 0;
  for (const auto& [id, slot] : oracle) {
    EXPECT_EQ(live.ids()[i], id) << "position " << i;
    EXPECT_EQ(live.slots()[i], slot) << "position " << i;
    ++i;
  }
}

TEST(LiveIndex, OutOfOrderInsertsIterateById) {
  soa::LiveIndex live;
  std::map<JobId, std::int32_t> oracle;
  // Appends (9 after 5), a front insert (2), middle inserts (7, 6) and a
  // new front (0).
  for (const auto& [id, slot] : {std::pair<JobId, std::int32_t>{5, 0},
                                 {9, 1},
                                 {2, 2},
                                 {7, 3},
                                 {0, 4},
                                 {6, 5}}) {
    live.insert(id, slot);
    oracle[id] = slot;
    expect_holds(live, oracle);
  }
}

TEST(LiveIndex, EraseFromTheMiddleKeepsIdsAndSlotsAligned) {
  soa::LiveIndex live;
  std::map<JobId, std::int32_t> oracle;
  for (JobId id = 10; id < 16; ++id) {
    live.insert(id, static_cast<std::int32_t>(id - 10));
    oracle[id] = static_cast<std::int32_t>(id - 10);
  }
  live.erase(12);  // middle
  oracle.erase(12);
  expect_holds(live, oracle);
  live.erase(15);  // last
  oracle.erase(15);
  expect_holds(live, oracle);
  live.erase(10);  // first
  oracle.erase(10);
  expect_holds(live, oracle);

  // Slot 2 is recycled for an id below every tracked one, slot 5 for an
  // id that lands in the gap 12 left.
  live.insert(3, 2);
  oracle[3] = 2;
  live.insert(12, 5);
  oracle[12] = 5;
  expect_holds(live, oracle);

  for (const JobId id : {13, 3, 14, 11, 12}) {
    live.erase(id);
    oracle.erase(id);
    expect_holds(live, oracle);
  }
  EXPECT_EQ(live.size(), 0u);
}

TEST(LiveIndex, RandomChurnMatchesAnOrderedMap) {
  // Mostly rising ids (the append path); an insert on every fourth step
  // takes an id held back earlier, below the largest live one. Erases hit
  // random positions.
  Rng rng(20260);
  soa::LiveIndex live;
  std::map<JobId, std::int32_t> oracle;
  std::vector<JobId> unused;  // ids held back for a later, out-of-order insert
  JobId next = 0;
  std::int32_t next_slot = 0;
  for (int step = 0; step < 4000; ++step) {
    const bool erase = !oracle.empty() && rng.uniform(0.0, 1.0) < 0.45;
    if (erase) {
      auto it = oracle.begin();
      std::advance(it, static_cast<long>(rng.uniform_int(
                           0, static_cast<std::int64_t>(oracle.size()) - 1)));
      live.erase(it->first);
      oracle.erase(it);
    } else {
      JobId id;
      if (!unused.empty() && step % 4 == 0) {
        id = unused.back();
        unused.pop_back();
      } else {
        if (rng.uniform(0.0, 1.0) < 0.3) unused.push_back(next++);
        id = next++;
      }
      live.insert(id, next_slot);
      oracle[id] = next_slot++;
    }
    expect_holds(live, oracle);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace ecs
