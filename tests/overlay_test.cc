// Reference-model test for engine::Overlay: seeded random sequences of
// every overlay operation, at capacities 0 (unbounded), 4 and 64, checked
// step by step against a std::map + std::set + std::deque model of the
// overlay's documented semantics (entries with tombstones, the dirty set,
// the clean-eviction FIFO).
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/overlay.h"
#include "index/codec.h"

namespace bionicdb::engine {
namespace {

using index::EncodeKeyU64;
using Delta = std::vector<std::pair<std::string, std::optional<std::string>>>;

/// The overlay as plain containers. nullopt entry == tombstone.
struct OverlayModel {
  explicit OverlayModel(size_t cap) : capacity(cap) {}

  size_t capacity;
  std::map<std::string, std::optional<std::string>> entries;
  std::set<std::string> dirty;
  std::deque<std::string> fifo;
  uint64_t evictions = 0;
  uint64_t installs = 0;

  void Put(const std::string& k, const std::string& rec) {
    entries[k] = rec;
    dirty.insert(k);
  }
  void Delete(const std::string& k) {
    entries[k] = std::nullopt;
    dirty.insert(k);
  }
  // Installing over a dirty entry replaces its bytes; it stays dirty.
  void InstallClean(const std::string& k, const std::string& rec) {
    entries[k] = rec;
    ++installs;
    fifo.push_back(k);
    Enforce();
  }
  void Enforce() {
    if (capacity == 0) return;
    while (entries.size() > capacity && !fifo.empty()) {
      const std::string victim = fifo.front();
      fifo.pop_front();
      if (dirty.count(victim)) continue;
      if (entries.erase(victim)) ++evictions;
    }
  }
  Status EvictClean(const std::string& k) {
    if (dirty.count(k)) return Status::Busy("dirty");
    return entries.erase(k) ? Status::OK() : Status::NotFound("absent");
  }
  void RemoveEntry(const std::string& k) {
    entries.erase(k);
    dirty.erase(k);
  }
  Delta Snapshot() const {
    Delta out;
    for (const std::string& k : dirty) out.emplace_back(k, entries.at(k));
    return out;
  }
  Delta TakeDirty() {
    Delta out = Snapshot();
    for (const auto& [k, rec] : out) {
      if (rec.has_value()) {
        fifo.push_back(k);
      } else {
        entries.erase(k);
      }
    }
    dirty.clear();
    Enforce();
    return out;
  }
  /// Overlay::Get's outcome: the record, NotFound for a tombstone,
  /// OutOfMemory when absent.
  Result<std::string> Get(const std::string& k) const {
    auto it = entries.find(k);
    if (it == entries.end()) return Status::OutOfMemory("absent");
    if (!it->second.has_value()) return Status::NotFound("tombstone");
    return *it->second;
  }
};

void ExpectSameGet(const Overlay& ov, const OverlayModel& m,
                   const std::string& k) {
  const Result<std::string> got = ov.Get(k);
  const Result<std::string> want = m.Get(k);
  ASSERT_EQ(got.status().code(), want.status().code());
  if (want.ok()) {
    ASSERT_EQ(*got, *want);
  }
  ASSERT_EQ(ov.IsDirty(k), m.dirty.count(k) > 0);
}

struct OverlayModelParams {
  uint64_t seed;
  size_t capacity;
};

class OverlayModelTest : public ::testing::TestWithParam<OverlayModelParams> {
};

TEST_P(OverlayModelTest, MatchesReferenceModel) {
  const OverlayModelParams p = GetParam();
  // Small nodes so the overlay index splits and empties leaves too.
  index::BTreeConfig cfg;
  cfg.inner_fanout = 4;
  cfg.leaf_capacity = 4;
  Overlay ov(cfg, p.capacity);
  OverlayModel m(p.capacity);
  Rng rng(p.seed);
  constexpr uint64_t kKeys = 96;

  for (int step = 0; step < 4000; ++step) {
    const std::string k = EncodeKeyU64(rng.Uniform(kKeys));
    // Records from empty to past the in-place-update size of the last one.
    const std::string rec = rng.AlphaString(0, 40);
    const uint64_t op = rng.Uniform(100);
    if (op < 22) {
      ov.Put(k, rec);
      m.Put(k, rec);
    } else if (op < 32) {
      ov.Delete(k);
      m.Delete(k);
    } else if (op < 54) {
      ov.InstallClean(k, rec);
      m.InstallClean(k, rec);
    } else if (op < 62) {
      ov.RemoveEntry(k);
      m.RemoveEntry(k);
    } else if (op < 70) {
      ASSERT_EQ(ov.EvictClean(k).code(), m.EvictClean(k).code());
    } else if (op < 72) {
      ASSERT_EQ(ov.TakeDirty(), m.TakeDirty()) << "step " << step;
    } else if (op < 75) {
      ASSERT_EQ(ov.DirtySnapshot(), m.Snapshot()) << "step " << step;
    } else if (op < 88) {
      // Undo of an update or delete: the before-image goes back in with
      // Put, which re-marks the row dirty even if a merge cleaned it.
      auto before = m.Get(k);
      if (before.ok()) {
        ov.Put(k, *before);
        m.Put(k, *before);
      }
    }
    // The remaining ops are reads only; every step checks the op's key.
    ASSERT_NO_FATAL_FAILURE(ExpectSameGet(ov, m, k)) << "step " << step;
    ASSERT_EQ(ov.dirty_count(), m.dirty.size()) << "step " << step;
    ASSERT_EQ(ov.entries(), m.entries.size()) << "step " << step;
    ASSERT_EQ(ov.clean_evictions(), m.evictions) << "step " << step;
    ASSERT_EQ(ov.stats().installs, m.installs) << "step " << step;
    if (step % 50 == 0) {
      for (uint64_t i = 0; i < kKeys; ++i) {
        ASSERT_NO_FATAL_FAILURE(ExpectSameGet(ov, m, EncodeKeyU64(i)));
      }
      ASSERT_TRUE(ov.index().CheckInvariants().ok());
    }
  }
  ASSERT_EQ(ov.DirtySnapshot(), m.Snapshot());
  ASSERT_EQ(ov.TakeDirty(), m.TakeDirty());
  EXPECT_EQ(ov.dirty_count(), 0u);
  EXPECT_EQ(ov.entries(), m.entries.size());
  if (p.capacity > 0) {
    EXPECT_LE(ov.entries(), p.capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OverlayModelTest,
    ::testing::Values(OverlayModelParams{1, 0}, OverlayModelParams{2, 0},
                      OverlayModelParams{3, 4}, OverlayModelParams{4, 4},
                      OverlayModelParams{5, 64}, OverlayModelParams{6, 64}),
    [](const ::testing::TestParamInfo<OverlayModelParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_cap" +
             std::to_string(info.param.capacity);
    });

// Bookkeeping reads are not probes: only Get/GetView and friends count
// toward the index probe statistics the cost models and benchmarks use.
TEST(OverlayTest, BookkeepingDoesNotCountIndexProbes) {
  Overlay ov(index::BTreeConfig{}, /*capacity_entries=*/8);
  for (uint64_t i = 0; i < 32; ++i) {
    ov.InstallClean(EncodeKeyU64(i), "c");
    if (i % 3 == 0) ov.Put(EncodeKeyU64(i), "w");
    if (i % 5 == 0) ov.Delete(EncodeKeyU64(i + 100));
  }
  (void)ov.IsDirty(EncodeKeyU64(3));
  (void)ov.EvictClean(EncodeKeyU64(4));
  ov.RemoveEntry(EncodeKeyU64(6));
  (void)ov.DirtySnapshot();
  (void)ov.TakeDirty();
  EXPECT_EQ(ov.index().stats().probes, 0u);
  EXPECT_EQ(ov.index().stats().node_visits, 0u);
}

}  // namespace
}  // namespace bionicdb::engine
