// Memory-lean storage tests: the slabbed record heap, the front-coded
// packed key index, the CompactStore load/finalize/serve life cycle with
// its post-load delta, and a TATP run through a compact-storage engine
// producing the same commits as the paged/B+Tree engine.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "sim/simulator.h"
#include "storage/compact.h"
#include "storage/slab.h"
#include "workload/driver.h"
#include "workload/tatp.h"

namespace bionicdb::storage {
namespace {

// ----------------------------------------------------------- slab heap --

TEST(SlabHeapTest, InsertGetRoundTrip) {
  SlabHeap heap;
  std::vector<std::pair<uint64_t, std::string>> rows;
  for (int i = 0; i < 1000; ++i) {
    const std::string rec = "record-" + std::to_string(i * 7919);
    rows.emplace_back(heap.Insert(Slice(rec)), rec);
  }
  for (const auto& [h, rec] : rows) {
    EXPECT_EQ(heap.Get(h).ToString(), rec);
  }
  EXPECT_GT(heap.live_bytes(), 0u);
  EXPECT_EQ(heap.dead_bytes(), 0u);
  EXPECT_EQ(heap.allocated_bytes() % SlabHeap::kSlabBytes, 0u);
}

TEST(SlabHeapTest, UpdateInPlaceWithinCapacity) {
  SlabHeap heap;
  const uint64_t h = heap.Insert(Slice("12345678"));  // cap rounds to 8
  EXPECT_TRUE(heap.UpdateInPlace(h, Slice("abcdefgh")));
  EXPECT_EQ(heap.Get(h).ToString(), "abcdefgh");
  // Shrinking fits too.
  EXPECT_TRUE(heap.UpdateInPlace(h, Slice("xy")));
  EXPECT_EQ(heap.Get(h).ToString(), "xy");
  // Growth past the entry's capacity is refused, entry untouched.
  EXPECT_FALSE(heap.UpdateInPlace(h, Slice("123456789")));
  EXPECT_EQ(heap.Get(h).ToString(), "xy");
}

TEST(SlabHeapTest, NoteDeadAccountsFreedSpace) {
  SlabHeap heap;
  const uint64_t h1 = heap.Insert(Slice("aaaaaaaa"));
  const uint64_t h2 = heap.Insert(Slice("bbbbbbbb"));
  const uint64_t live_before = heap.live_bytes();
  heap.NoteDead(h1);
  EXPECT_LT(heap.live_bytes(), live_before);
  EXPECT_GT(heap.dead_bytes(), 0u);
  // The surviving record is untouched.
  EXPECT_EQ(heap.Get(h2).ToString(), "bbbbbbbb");
}

TEST(SlabHeapTest, RecordsNeverSpanSlabs) {
  SlabHeap heap;
  // Fill most of a slab, then insert something that cannot fit the tail.
  const std::string big(40000, 'x');
  const uint64_t h1 = heap.Insert(Slice(big));
  const uint64_t h2 = heap.Insert(Slice(big));  // forces a fresh slab
  EXPECT_EQ(heap.Get(h1).size(), big.size());
  EXPECT_EQ(heap.Get(h2).size(), big.size());
  EXPECT_GE(heap.allocated_bytes(), 2 * SlabHeap::kSlabBytes);
}

// ----------------------------------------------------- packed key index --

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "subscriber/%08d", i);
  return buf;
}

TEST(PackedKeyIndexTest, RankAndLowerBound) {
  std::vector<std::pair<std::string, uint64_t>> run;
  for (int i = 0; i < 500; ++i) run.emplace_back(Key(2 * i), uint64_t(i));
  PackedKeyIndex idx;
  idx.Build(std::move(run));

  ASSERT_EQ(idx.size(), 500u);
  EXPECT_GE(idx.height(), 1);
  for (int i = 0; i < 500; ++i) {
    const size_t rank = idx.Rank(Slice(Key(2 * i)));
    ASSERT_NE(rank, PackedKeyIndex::kNpos) << Key(2 * i);
    EXPECT_EQ(idx.value(rank), uint64_t(i));
    // Odd keys are absent; LowerBound lands on the next even key.
    EXPECT_EQ(idx.Rank(Slice(Key(2 * i + 1))), PackedKeyIndex::kNpos);
    EXPECT_EQ(idx.LowerBound(Slice(Key(2 * i + 1))), size_t(i + 1));
  }
  EXPECT_EQ(idx.LowerBound(Slice("zzz")), idx.size());
  EXPECT_EQ(idx.LowerBound(Slice("")), 0u);
}

TEST(PackedKeyIndexTest, IteratorDecodesEveryKeyInOrder) {
  std::vector<std::pair<std::string, uint64_t>> run;
  for (int i = 0; i < 300; ++i) run.emplace_back(Key(i), uint64_t(i) * 10);
  PackedKeyIndex idx;
  idx.Build(std::move(run));

  int i = 0;
  for (auto it = idx.IteratorAt(0); it.Valid(); it.Next(), ++i) {
    EXPECT_EQ(it.key().ToString(), Key(i));
    EXPECT_EQ(it.value(), uint64_t(i) * 10);
  }
  EXPECT_EQ(i, 300);
}

TEST(PackedKeyIndexTest, FrontCodingBeatsRawKeys) {
  std::vector<std::pair<std::string, uint64_t>> run;
  uint64_t raw = 0;
  for (int i = 0; i < 10000; ++i) {
    run.emplace_back(Key(i), uint64_t(i));
    raw += run.back().first.size();
  }
  PackedKeyIndex idx;
  idx.Build(std::move(run));
  // Shared "subscriber/000..." prefixes compress away; the index must
  // undercut raw keys even counting its value array and directories.
  EXPECT_LT(idx.memory_bytes(), raw + 10000 * sizeof(uint64_t));
}

TEST(PackedKeyIndexTest, ValuesAreUpdatableInPlace) {
  std::vector<std::pair<std::string, uint64_t>> run;
  for (int i = 0; i < 100; ++i) run.emplace_back(Key(i), 0);
  PackedKeyIndex idx;
  idx.Build(std::move(run));
  const size_t rank = idx.Rank(Slice(Key(42)));
  ASSERT_NE(rank, PackedKeyIndex::kNpos);
  idx.set_value(rank, 777);
  EXPECT_EQ(idx.value(idx.Rank(Slice(Key(42)))), 777u);
}

// --------------------------------------------------------- compact store --

TEST(CompactStoreTest, LoadFinalizeServe) {
  CompactStore store;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.Load(Slice(Key(i)), Slice("v" + std::to_string(i))).ok());
  }
  store.Finalize();
  ASSERT_TRUE(store.finalized());
  for (int i = 0; i < 200; ++i) {
    int visits = 0;
    auto r = store.Get(Slice(Key(i)), &visits);
    ASSERT_TRUE(r.ok()) << Key(i);
    EXPECT_EQ(r->ToString(), "v" + std::to_string(i));
    EXPECT_GE(visits, 1);
  }
  EXPECT_FALSE(store.Get(Slice("missing"), nullptr).ok());
  EXPECT_GT(store.memory_bytes(), 0u);
}

TEST(CompactStoreTest, DeltaAbsorbsPostLoadMutations) {
  CompactStore store;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Load(Slice(Key(i)), Slice("packed")).ok());
  }
  store.Finalize();

  // Overwrite a packed row, insert a new row, delete a packed row.
  ASSERT_TRUE(store.Put(Slice(Key(10)), Slice("updated")).ok());
  ASSERT_TRUE(store.Put(Slice("zzz-new"), Slice("fresh")).ok());
  ASSERT_TRUE(store.Delete(Slice(Key(20))).ok());

  EXPECT_EQ(store.Get(Slice(Key(10)), nullptr)->ToString(), "updated");
  EXPECT_EQ(store.Get(Slice("zzz-new"), nullptr)->ToString(), "fresh");
  EXPECT_FALSE(store.Contains(Slice(Key(20))));
  EXPECT_FALSE(store.Get(Slice(Key(20)), nullptr).ok());
  EXPECT_TRUE(store.Contains(Slice(Key(30))));  // untouched packed row
}

std::map<std::string, std::string> ScanAllOf(const CompactStore& store) {
  std::map<std::string, std::string> out;
  store.Scan(Slice(""), Slice(), [&](Slice k, Slice v) {
    out[k.ToString()] = v.ToString();
    return true;
  });
  return out;
}

TEST(CompactStoreTest, ScanMergesPackedAndDelta) {
  CompactStore store;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.Load(Slice(Key(i)), Slice("p")).ok());
  }
  store.Finalize();
  ASSERT_TRUE(store.Put(Slice(Key(5)), Slice("patched")).ok());
  ASSERT_TRUE(store.Delete(Slice(Key(7))).ok());
  ASSERT_TRUE(store.Put(Slice(Key(100)), Slice("delta-only")).ok());

  const auto all = ScanAllOf(store);
  EXPECT_EQ(all.size(), 20u);  // 20 - 1 deleted + 1 inserted
  EXPECT_EQ(all.at(Key(5)), "patched");
  EXPECT_EQ(all.count(Key(7)), 0u);
  EXPECT_EQ(all.at(Key(100)), "delta-only");

  // Bounded scan respects [lo, hi).
  std::vector<std::string> seen;
  store.Scan(Slice(Key(3)), Slice(Key(6)), [&](Slice k, Slice) {
    seen.push_back(k.ToString());
    return true;
  });
  EXPECT_EQ(seen, (std::vector<std::string>{Key(3), Key(4), Key(5)}));
}

TEST(CompactStoreTest, CompactFoldsDeltaBack) {
  CompactStore store;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Load(Slice(Key(i)), Slice("p")).ok());
  }
  store.Finalize();
  ASSERT_TRUE(store.Put(Slice(Key(3)), Slice("patched")).ok());
  ASSERT_TRUE(store.Delete(Slice(Key(4))).ok());
  ASSERT_TRUE(store.Put(Slice("zzz"), Slice("new")).ok());
  const auto before = ScanAllOf(store);

  // Compact returns the size of the rebuilt packed run: 100 loaded - 1
  // deleted + 1 inserted.
  EXPECT_EQ(store.Compact(), before.size());
  // Same logical content, now fully packed; a second Compact is a
  // content-preserving no-op rebuild.
  EXPECT_EQ(ScanAllOf(store), before);
  EXPECT_EQ(store.Compact(), before.size());
  EXPECT_EQ(store.Get(Slice(Key(3)), nullptr)->ToString(), "patched");
  EXPECT_FALSE(store.Contains(Slice(Key(4))));
}

// ------------------------------------------------------- engine e2e --

/// A compact-storage engine must produce exactly the same closed-loop
/// TATP outcome as the paged/B+Tree engine: commits and final table
/// contents. Single client, so no wait-die races: any outcome
/// difference would be a data divergence, not a timing artifact.
/// (Virtual time is NOT compared — probe costs are modeled per
/// structure, and differing is the point.)
TEST(CompactEngineTest, TatpMatchesPagedEngineOutcome) {
  using engine::Engine;
  using engine::EngineConfig;
  using workload::DriverConfig;
  using workload::TatpConfig;
  using workload::TatpWorkload;

  const auto run = [](bool compact) {
    sim::Simulator sim;
    EngineConfig cfg = EngineConfig::Dora();
    cfg.num_partitions = 4;
    cfg.compact_storage = compact;
    Engine engine(&sim, cfg);
    TatpConfig wcfg;
    wcfg.subscribers = 300;
    TatpWorkload tatp(&engine, wcfg);
    BIONICDB_CHECK(tatp.Load().ok());
    DriverConfig dcfg;
    dcfg.clients = 1;
    dcfg.warmup_txns = 50;
    dcfg.measured_txns = 500;
    sim.Spawn(workload::RunClosedLoop(
        &engine, [&] { return tatp.NextTransaction(); }, dcfg, nullptr));
    sim.Run();

    return std::make_pair(engine.metrics().commits, engine.db().Snapshot());
  };

  const auto [paged_commits, paged_state] = run(false);
  const auto [compact_commits, compact_state] = run(true);
  EXPECT_EQ(compact_commits, paged_commits);
  EXPECT_EQ(compact_state, paged_state);
  EXPECT_GT(paged_commits, 0u);
}

}  // namespace
}  // namespace bionicdb::storage
