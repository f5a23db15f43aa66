// Tests for the extension features: index reorganization (Rebuild),
// overlay space management (capacity + clean eviction), quiescent
// checkpointing, and device failure injection through the engine.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "engine/engine.h"
#include "index/btree.h"
#include "index/codec.h"
#include "sim/simulator.h"
#include "wal/recovery.h"

namespace bionicdb {
namespace {

using engine::Engine;
using engine::EngineConfig;
using engine::EngineMode;
using index::BTree;
using index::BTreeConfig;
using index::EncodeKeyU64;
using sim::Simulator;
using sim::Task;

// ---------------------------------------------------------- BTree::Rebuild --

TEST(BTreeRebuildTest, RestoresMinimalHeightAfterChurn) {
  BTreeConfig cfg;
  cfg.inner_fanout = 8;
  cfg.leaf_capacity = 8;
  BTree t(cfg);
  for (uint64_t i = 0; i < 4000; ++i) {
    ASSERT_TRUE(t.Insert(EncodeKeyU64(i), "v" + std::to_string(i)).ok());
  }
  // Hollow the tree: delete 7 of every 8 keys.
  for (uint64_t i = 0; i < 4000; ++i) {
    if (i % 8 != 0) {
      ASSERT_TRUE(t.Delete(EncodeKeyU64(i)).ok());
    }
  }
  const int churned_height = t.height();
  ASSERT_TRUE(t.Rebuild(0.9).ok());
  ASSERT_TRUE(t.CheckInvariants().ok());
  EXPECT_LT(t.height(), churned_height);
  EXPECT_EQ(t.size(), 500u);
  // Contents unchanged.
  for (uint64_t i = 0; i < 4000; i += 8) {
    auto r = t.Get(EncodeKeyU64(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(*r, "v" + std::to_string(i));
  }
  // Iteration order intact.
  uint64_t expect = 0;
  for (auto it = t.Begin(); it.Valid(); it.Next(), expect += 8) {
    EXPECT_EQ(index::DecodeKeyU64(it.key()), expect);
  }
}

TEST(BTreeRebuildTest, EmptyAndTinyTrees) {
  BTree t;
  ASSERT_TRUE(t.Rebuild().ok());
  EXPECT_EQ(t.height(), 1);
  ASSERT_TRUE(t.Insert("only", "v").ok());
  ASSERT_TRUE(t.Rebuild().ok());
  EXPECT_EQ(*t.Get("only"), "v");
  ASSERT_TRUE(t.CheckInvariants().ok());
}

TEST(BTreeRebuildTest, TreeRemainsFullyMutable) {
  BTreeConfig cfg;
  cfg.inner_fanout = 6;
  cfg.leaf_capacity = 6;
  BTree t(cfg);
  for (uint64_t i = 0; i < 500; ++i) ASSERT_TRUE(t.Insert(EncodeKeyU64(i), "a").ok());
  ASSERT_TRUE(t.Rebuild(1.0).ok());  // fully packed: next insert must split
  for (uint64_t i = 500; i < 1000; ++i) {
    ASSERT_TRUE(t.Insert(EncodeKeyU64(i), "b").ok());
  }
  for (uint64_t i = 0; i < 500; ++i) ASSERT_TRUE(t.Delete(EncodeKeyU64(i)).ok());
  ASSERT_TRUE(t.CheckInvariants().ok());
  EXPECT_EQ(t.size(), 500u);
}

TEST(BTreeRebuildTest, RejectsBadFillFactor) {
  BTree t;
  EXPECT_TRUE(t.Rebuild(0.0).IsInvalidArgument());
  EXPECT_TRUE(t.Rebuild(1.5).IsInvalidArgument());
}

// ------------------------------------------------------- overlay capacity --

TEST(OverlayCapacityTest, CleanEntriesEvictFifo) {
  engine::Overlay ov(BTreeConfig{}, /*capacity_entries=*/4);
  for (uint64_t i = 0; i < 8; ++i) {
    ov.InstallClean(EncodeKeyU64(i), "r");
  }
  EXPECT_LE(ov.entries(), 4u);
  EXPECT_EQ(ov.clean_evictions(), 4u);
  // Oldest gone, newest resident.
  EXPECT_TRUE(ov.Get(EncodeKeyU64(0)).status().IsOutOfMemory());
  EXPECT_TRUE(ov.Get(EncodeKeyU64(7)).ok());
}

TEST(OverlayCapacityTest, DirtyEntriesArePinned) {
  engine::Overlay ov(BTreeConfig{}, 3);
  ov.Put(EncodeKeyU64(100), "dirty0");
  ov.Put(EncodeKeyU64(101), "dirty1");
  ov.Put(EncodeKeyU64(102), "dirty2");
  // Installing clean rows cannot evict the dirty ones.
  for (uint64_t i = 0; i < 10; ++i) ov.InstallClean(EncodeKeyU64(i), "c");
  EXPECT_TRUE(ov.Get(EncodeKeyU64(100)).ok());
  EXPECT_TRUE(ov.Get(EncodeKeyU64(101)).ok());
  EXPECT_TRUE(ov.Get(EncodeKeyU64(102)).ok());
  // After a merge the rows become clean and evictable again.
  auto delta = ov.TakeDirty();
  EXPECT_EQ(delta.size(), 3u);
  for (uint64_t i = 20; i < 40; ++i) ov.InstallClean(EncodeKeyU64(i), "c");
  EXPECT_LE(ov.entries(), 3u);
}

TEST(OverlayCapacityTest, EngineReFetchesEvictedRows) {
  // A small overlay thrashes: every read still succeeds via the §5.6
  // abort -> software fetch -> install -> retry path.
  Simulator sim;
  EngineConfig config = EngineConfig::Bionic();
  config.num_partitions = 2;
  config.overlay_capacity = 16;
  Engine engine(&sim, config);
  engine::Table* t = engine.CreateTable("T");
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine.LoadRow(t, EncodeKeyU64(i), "row" + std::to_string(i)).ok());
  }
  engine.Start();
  int ok_reads = 0;
  sim.Spawn([](Engine* eng, engine::Table* t, int* ok_reads) -> Task<> {
    for (uint64_t i = 0; i < 200; ++i) {
      Engine::TxnSpec spec;
      Engine::TxnStep step;
      step.table = t;
      step.keys = {EncodeKeyU64(i)};
      step.read_only = true;
      step.fn = [eng, t, i,
                 ok_reads](Engine::ExecContext& ctx) -> sim::Task<Status> {
        auto r = co_await eng->Read(ctx, t, EncodeKeyU64(i));
        if (r.ok() && *r == "row" + std::to_string(i)) ++*ok_reads;
        co_return r.status();
      };
      spec.phases.push_back({std::move(step)});
      (void)co_await eng->Execute(std::move(spec));
    }
    co_await eng->Shutdown();
  }(&engine, t, &ok_reads));
  sim.Run();
  EXPECT_EQ(ok_reads, 200);
  EXPECT_LE(t->overlay()->entries(), 16u);
  EXPECT_GT(t->overlay()->stats().misses, 100u);      // constant thrash
  EXPECT_GT(t->overlay()->clean_evictions(), 100u);
}

// ------------------------------------------------------------- checkpoint --

class MapTarget : public wal::RecoveryTarget {
 public:
  void RedoInsert(uint32_t, Slice k, Slice v) override {
    rows[k.ToString()] = v.ToString();
  }
  void RedoUpdate(uint32_t, Slice k, Slice v) override {
    rows[k.ToString()] = v.ToString();
  }
  void RedoDelete(uint32_t, Slice k) override { rows.erase(k.ToString()); }
  std::map<std::string, std::string> rows;
};

TEST(CheckpointTest, RecoveryReplaysOnlyTheSuffix) {
  Simulator sim;
  EngineConfig config = EngineConfig::Dora();
  config.num_partitions = 2;
  Engine engine(&sim, config);
  engine::Table* t = engine.CreateTable("T");
  ASSERT_TRUE(engine.LoadRow(t, EncodeKeyU64(1), "init").ok());
  engine.Start();

  auto update_txn = [&](uint64_t key, std::string value) {
    Engine::TxnSpec spec;
    Engine::TxnStep step;
    step.table = t;
    step.keys = {EncodeKeyU64(key)};
    Engine* eng = &engine;
    step.fn = [eng, t = t, key,
               value](Engine::ExecContext& ctx) -> sim::Task<Status> {
      co_return co_await eng->Update(ctx, t, EncodeKeyU64(key), value);
    };
    spec.phases.push_back({std::move(step)});
    return spec;
  };

  sim.Spawn([](Engine* eng, decltype(update_txn)* mk) -> Task<> {
    EXPECT_TRUE((co_await eng->Execute((*mk)(1, "before-ckpt"))).ok());
    Engine::ExecContext ctx;
    ctx.engine = eng;
    EXPECT_TRUE((co_await eng->Checkpoint(ctx)).ok());
    EXPECT_TRUE((co_await eng->Execute((*mk)(1, "after-ckpt"))).ok());
    co_await eng->Shutdown();
  }(&engine, &update_txn));
  sim.Run();

  MapTarget target;
  wal::RecoveryStats stats;
  ASSERT_TRUE(
      wal::Recover(engine.log()->durable_prefix(), &target, &stats).ok());
  // Only the post-checkpoint transaction is replayed.
  EXPECT_EQ(stats.committed_txns, 1u);
  ASSERT_EQ(target.rows.size(), 1u);
  EXPECT_EQ(target.rows.begin()->second, "after-ckpt");
  EXPECT_NE(stats.checkpoint_lsn, wal::kInvalidLsn);
  // And the pre-checkpoint effect is already durable in base data.
  EXPECT_EQ(*t->BaseGet(EncodeKeyU64(1)), "after-ckpt");  // merged by ckpt? no:
  // the checkpoint merged "before-ckpt" into base; the post-ckpt update went
  // through the buffer pool (aliased), so base holds the latest value either
  // way; the essential check is above: recovery does not need the prefix.
}

TEST(CheckpointTest, BionicCheckpointMergesOverlays) {
  Simulator sim;
  EngineConfig config = EngineConfig::Bionic();
  config.num_partitions = 2;
  Engine engine(&sim, config);
  engine::Table* t = engine.CreateTable("T");
  ASSERT_TRUE(engine.LoadRow(t, EncodeKeyU64(7), "old").ok());
  engine.Start();
  sim.Spawn([](Engine* eng, engine::Table* t) -> Task<> {
    Engine::TxnSpec spec;
    Engine::TxnStep step;
    step.table = t;
    step.keys = {EncodeKeyU64(7)};
    step.fn = [eng, t](Engine::ExecContext& ctx) -> sim::Task<Status> {
      co_return co_await eng->Update(ctx, t, EncodeKeyU64(7), "new");
    };
    spec.phases.push_back({std::move(step)});
    EXPECT_TRUE((co_await eng->Execute(std::move(spec))).ok());
    EXPECT_EQ(t->overlay()->dirty_count(), 1u);
    Engine::ExecContext ctx;
    ctx.engine = eng;
    EXPECT_TRUE((co_await eng->Checkpoint(ctx)).ok());
    co_await eng->Shutdown();
  }(&engine, t));
  sim.Run();
  EXPECT_EQ(t->overlay()->dirty_count(), 0u);
  EXPECT_EQ(*t->BaseGet(EncodeKeyU64(7)), "new");
}

// ------------------------------------------------------ failure injection --

TEST(FailureInjectionTest, DiskErrorSurfacesAsIOError) {
  Simulator sim;
  EngineConfig config = EngineConfig::Conventional();
  config.bpool_frames = 4;  // tiny pool: evictions force real re-reads
  Engine engine(&sim, config);
  engine::Table* t = engine.CreateTable("T");
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine.LoadRow(t, EncodeKeyU64(i), "v").ok());
  }
  auto rid = t->LookupRid(EncodeKeyU64(5));
  ASSERT_TRUE(rid.ok());
  engine.data_disk()->InjectReadError(rid->page_id);

  engine.Start();
  Status first, second;
  sim.Spawn([](Engine* eng, engine::Table* t, Status* first,
               Status* second) -> Task<> {
    auto make = [eng, t](Status* out) {
      Engine::TxnSpec spec;
      Engine::TxnStep step;
      step.table = t;
      step.keys = {EncodeKeyU64(5)};
      step.read_only = true;
      step.fn = [eng, t, out](Engine::ExecContext& ctx) -> sim::Task<Status> {
        auto r = co_await eng->Read(ctx, t, EncodeKeyU64(5));
        *out = r.status();
        co_return r.status();
      };
      spec.phases.push_back({std::move(step)});
      return spec;
    };
    (void)co_await eng->Execute(make(first));
    (void)co_await eng->Execute(make(second));
    co_await eng->Shutdown();
  }(&engine, t, &first, &second));
  sim.Run();
  EXPECT_TRUE(first.IsIOError());   // injected fault propagates cleanly
  EXPECT_TRUE(second.ok());         // and the retry reads real data
  EXPECT_GE(engine.metrics().aborts, 1u);
  EXPECT_GE(engine.metrics().commits, 1u);
}

// ----------------------------------------------------------- determinism --

TEST(EngineDeterminismTest, BionicRunsAreBitIdentical) {
  auto fingerprint = []() {
    Simulator sim;
    EngineConfig config = EngineConfig::Bionic();
    config.num_partitions = 3;
    Engine engine(&sim, config);
    engine::Table* t = engine.CreateTable("T");
    for (uint64_t i = 0; i < 300; ++i) {
      BIONICDB_CHECK(engine.LoadRow(t, EncodeKeyU64(i), "v").ok());
    }
    engine.Start();
    sim.Spawn([](Engine* eng, engine::Table* t) -> Task<> {
      for (uint64_t i = 0; i < 100; ++i) {
        Engine::TxnSpec spec;
        Engine::TxnStep step;
        step.table = t;
        step.keys = {EncodeKeyU64(i * 3 % 300)};
        step.fn = [eng, t, i](Engine::ExecContext& ctx) -> sim::Task<Status> {
          co_return co_await eng->Update(ctx, t, EncodeKeyU64(i * 3 % 300),
                                         "u" + std::to_string(i));
        };
        spec.phases.push_back({std::move(step)});
        (void)co_await eng->Execute(std::move(spec));
      }
      co_await eng->Shutdown();
    }(&engine, t));
    sim.Run();
    return std::tuple{sim.Now(), sim.events_processed(),
                      engine.log()->current_lsn(),
                      engine.probe_unit()->probes_completed()};
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

}  // namespace
}  // namespace bionicdb

namespace bionicdb {
namespace {

// ------------------------------------------------- columnar projections --

class ProjectionTest : public ::testing::TestWithParam<EngineMode> {};

EngineConfig ProjCfg(EngineMode mode) {
  EngineConfig c = EngineConfig::For(mode);
  c.num_partitions = 2;
  return c;
}

// Rows are 8-byte little-endian ints for these tests.
std::string IntRec(int64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}
int64_t IntOf(Slice rec) {
  int64_t v;
  std::memcpy(&v, rec.data(), sizeof(v));
  return v;
}

TEST_P(ProjectionTest, AggregatesBaseDataAndPatchesOverlay) {
  Simulator sim;
  Engine engine(&sim, ProjCfg(GetParam()));
  engine::Table* t = engine.CreateTable("T");
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        engine.LoadRow(t, EncodeKeyU64(i), IntRec(static_cast<int64_t>(i)))
            .ok());
  }
  ASSERT_TRUE(t->AddColumnarProjection("val", IntOf).ok());
  ASSERT_TRUE(t->AddColumnarProjection("val", IntOf).IsAlreadyExists());

  Engine::ProjectionAggregate all{}, patched{};
  engine.Start();
  sim.Spawn([](Engine* eng, engine::Table* t,
               Engine::ProjectionAggregate* all,
               Engine::ProjectionAggregate* patched) -> Task<> {
    Engine::ExecContext ctx;
    ctx.engine = eng;
    auto r = co_await eng->ScanProjection(ctx, t, "val");
    EXPECT_TRUE(r.ok());
    *all = *r;

    // Update row 10 to 1000 and insert row 200 = 7; the projection is
    // stale but the query must see both through the overlay patch (or the
    // refreshed base for non-overlay engines).
    Engine::TxnSpec spec;
    Engine::TxnStep step;
    step.table = t;
    step.keys = {EncodeKeyU64(10), EncodeKeyU64(200)};
    step.fn = [eng, t](Engine::ExecContext& c) -> sim::Task<Status> {
      Status st = co_await eng->Update(c, t, EncodeKeyU64(10), IntRec(1000));
      if (!st.ok()) co_return st;
      co_return co_await eng->Insert(c, t, EncodeKeyU64(200), IntRec(7));
    };
    spec.phases.push_back({std::move(step)});
    EXPECT_TRUE((co_await eng->Execute(std::move(spec))).ok());

    // Paged engines mutate base directly, so refresh; the bionic engine's
    // delta is patched at query time without a refresh.
    if (!eng->UseOverlay()) t->RefreshProjections();
    auto r2 = co_await eng->ScanProjection(ctx, t, "val");
    EXPECT_TRUE(r2.ok());
    *patched = *r2;
    co_await eng->Shutdown();
  }(&engine, t, &all, &patched));
  sim.Run();

  EXPECT_EQ(all.matches, 100u);
  EXPECT_EQ(all.sum, 99 * 100 / 2);
  EXPECT_EQ(patched.matches, 101u);
  EXPECT_EQ(patched.sum, 99 * 100 / 2 - 10 + 1000 + 7);
}

TEST_P(ProjectionTest, PredicateAndMergeRefresh) {
  Simulator sim;
  Engine engine(&sim, ProjCfg(GetParam()));
  engine::Table* t = engine.CreateTable("T");
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        engine.LoadRow(t, EncodeKeyU64(i), IntRec(static_cast<int64_t>(i)))
            .ok());
  }
  ASSERT_TRUE(t->AddColumnarProjection("val", IntOf).ok());
  engine.Start();
  Engine::ProjectionAggregate big{};
  sim.Spawn([](Engine* eng, engine::Table* t,
               Engine::ProjectionAggregate* big) -> Task<> {
    Engine::ExecContext ctx;
    ctx.engine = eng;
    // Checkpoint (merges overlays) then query with a predicate.
    EXPECT_TRUE((co_await eng->Checkpoint(ctx)).ok());
    auto r = co_await eng->ScanProjection(ctx, t, "val",
                                          [](int64_t v) { return v >= 40; });
    EXPECT_TRUE(r.ok());
    *big = *r;
    co_await eng->Shutdown();
  }(&engine, t, &big));
  sim.Run();
  EXPECT_EQ(big.matches, 10u);
  EXPECT_EQ(big.sum, (40 + 49) * 10 / 2);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ProjectionTest,
                         ::testing::Values(EngineMode::kConventional,
                                           EngineMode::kDora,
                                           EngineMode::kBionic),
                         [](const ::testing::TestParamInfo<EngineMode>& info) {
                           return EngineModeName(info.param);
                         });

// ------------------------------------------------------------- routing --

// Route() must balance even when the incoming hashes are structured: the
// SplitMix64 finalizer avalanches the bits before the modulo. Without it,
// hashes that stride by a multiple of the partition count (as identity
// integer hashes of sequential IDs easily do) all land on one partition.
TEST(RoutingTest, MixedRouteBalancesStructuredHashes) {
  sim::Simulator sim;
  hw::Platform platform(&sim, hw::PlatformSpec::CommodityServer());
  hw::Breakdown bd;
  dora::ExecutorConfig ec;
  ec.num_partitions = 6;
  dora::Executor ex(&platform, ec, nullptr, &bd);

  const int kKeys = 60000;
  const int kParts = ec.num_partitions;
  const double expect = static_cast<double>(kKeys) / kParts;

  // Pathological input: hashes striding by a multiple of num_partitions.
  // A bare modulo maps every single one to partition 0.
  std::vector<int> strided(kParts, 0);
  for (int i = 0; i < kKeys; ++i) {
    strided[ex.Route(static_cast<uint64_t>(i) * 6 * 64)]++;
  }
  for (int p = 0; p < kParts; ++p) {
    EXPECT_GT(strided[p], expect * 0.9) << "partition " << p;
    EXPECT_LT(strided[p], expect * 1.1) << "partition " << p;
  }

  // Real input: FNV-1a over qualified keys, the executor's dispatch hash.
  std::vector<int> real(kParts, 0);
  for (int i = 0; i < kKeys; ++i) {
    const std::string q = "t1:" + EncodeKeyU64(static_cast<uint64_t>(i));
    real[ex.Route(common::HashBytes(q))]++;
  }
  for (int p = 0; p < kParts; ++p) {
    EXPECT_GT(real[p], expect * 0.9) << "partition " << p;
    EXPECT_LT(real[p], expect * 1.1) << "partition " << p;
  }
}

}  // namespace
}  // namespace bionicdb
