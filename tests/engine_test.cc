// Integration tests for the Engine facade: CRUD through all three
// architectures, overlay behaviour, transactions with commit/abort,
// DORA phases, analytics, bulk merge, and end-to-end crash recovery.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "engine/engine.h"
#include "index/codec.h"
#include "sim/simulator.h"
#include "wal/recovery.h"

namespace bionicdb::engine {
namespace {

using index::EncodeKeyU64;
using sim::Simulator;
using sim::Task;

struct Fixture {
  explicit Fixture(EngineConfig config) : engine(&sim, config) {}

  Simulator sim;
  Engine engine;
};

EngineConfig SmallBionic() {
  EngineConfig c = EngineConfig::Bionic();
  c.num_partitions = 4;
  return c;
}

EngineConfig SmallDora() {
  EngineConfig c = EngineConfig::Dora();
  c.num_partitions = 4;
  return c;
}

/// Runs `body` as a simulated task and drives the sim to completion,
/// starting/draining agents around it.
void RunInEngine(Fixture* f, std::function<Task<void>()> body) {
  f->engine.Start();
  f->sim.Spawn([](Fixture* f, std::function<Task<void>()> body) -> Task<> {
    co_await body();
    co_await f->engine.Shutdown();
  }(f, std::move(body)));
  f->sim.Run();
}

Engine::TxnSpec SingleStepTxn(Engine* eng, Table* table,
                              const std::string& key,
                              std::function<sim::Task<Status>(
                                  Engine::ExecContext&)> fn,
                              bool read_only = false) {
  Engine::TxnSpec spec;
  Engine::TxnStep step;
  step.table = table;
  step.keys = {key};
  step.read_only = read_only;
  step.fn = std::move(fn);
  spec.phases.push_back({std::move(step)});
  return spec;
}

// ------------------------------------------------ basic txns in all modes --

class EngineModeTest : public ::testing::TestWithParam<EngineMode> {};

EngineConfig ConfigFor(EngineMode mode) {
  switch (mode) {
    case EngineMode::kConventional:
      return EngineConfig::Conventional();
    case EngineMode::kDora:
      return SmallDora();
    case EngineMode::kBionic:
      return SmallBionic();
  }
  return EngineConfig::Dora();
}

TEST_P(EngineModeTest, ReadYourLoad) {
  Fixture f(ConfigFor(GetParam()));
  Table* t = f.engine.CreateTable("T");
  ASSERT_TRUE(f.engine.LoadRow(t, EncodeKeyU64(1), "row-one").ok());
  ASSERT_TRUE(f.engine.LoadRow(t, EncodeKeyU64(2), "row-two").ok());

  std::string got;
  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    Status st = co_await eng->Execute(SingleStepTxn(
        eng, t, EncodeKeyU64(1),
        [eng, t, &got](Engine::ExecContext& ctx) -> sim::Task<Status> {
          auto r = co_await eng->Read(ctx, t, EncodeKeyU64(1));
          if (!r.ok()) co_return r.status();
          got = *r;
          co_return Status::OK();
        },
        /*read_only=*/true));
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  EXPECT_EQ(got, "row-one");
  EXPECT_EQ(f.engine.metrics().commits, 1u);
}

TEST_P(EngineModeTest, UpdateIsVisibleAfterCommit) {
  Fixture f(ConfigFor(GetParam()));
  Table* t = f.engine.CreateTable("T");
  ASSERT_TRUE(f.engine.LoadRow(t, EncodeKeyU64(5), "before").ok());

  std::string after;
  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    Status st = co_await eng->Execute(SingleStepTxn(
        eng, t, EncodeKeyU64(5),
        [eng, t](Engine::ExecContext& ctx) -> sim::Task<Status> {
          co_return co_await eng->Update(ctx, t, EncodeKeyU64(5), "after");
        }));
    EXPECT_TRUE(st.ok()) << st.ToString();
    st = co_await eng->Execute(SingleStepTxn(
        eng, t, EncodeKeyU64(5),
        [eng, t, &after](Engine::ExecContext& ctx) -> sim::Task<Status> {
          auto r = co_await eng->Read(ctx, t, EncodeKeyU64(5));
          if (!r.ok()) co_return r.status();
          after = *r;
          co_return Status::OK();
        },
        true));
    EXPECT_TRUE(st.ok());
  });
  EXPECT_EQ(after, "after");
  // The update transaction must have reached the log durably.
  EXPECT_GT(f.engine.log()->durable_lsn(), 0u);
}

TEST_P(EngineModeTest, InsertAndDelete) {
  Fixture f(ConfigFor(GetParam()));
  Table* t = f.engine.CreateTable("T");
  ASSERT_TRUE(f.engine.LoadRow(t, EncodeKeyU64(1), "x").ok());

  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    Status st = co_await eng->Execute(SingleStepTxn(
        eng, t, EncodeKeyU64(99),
        [eng, t](Engine::ExecContext& ctx) -> sim::Task<Status> {
          co_return co_await eng->Insert(ctx, t, EncodeKeyU64(99), "fresh");
        }));
    EXPECT_TRUE(st.ok()) << st.ToString();
    st = co_await eng->Execute(SingleStepTxn(
        eng, t, EncodeKeyU64(99),
        [eng, t](Engine::ExecContext& ctx) -> sim::Task<Status> {
          auto r = co_await eng->Read(ctx, t, EncodeKeyU64(99));
          EXPECT_TRUE(r.ok());
          EXPECT_EQ(*r, "fresh");
          co_return co_await eng->Delete(ctx, t, EncodeKeyU64(99));
        }));
    EXPECT_TRUE(st.ok()) << st.ToString();
    st = co_await eng->Execute(SingleStepTxn(
        eng, t, EncodeKeyU64(99),
        [eng, t](Engine::ExecContext& ctx) -> sim::Task<Status> {
          auto r = co_await eng->Read(ctx, t, EncodeKeyU64(99));
          EXPECT_TRUE(r.status().IsNotFound());
          co_return Status::OK();
        },
        true));
    EXPECT_TRUE(st.ok());
  });
  EXPECT_EQ(f.engine.metrics().commits, 3u);
}

TEST_P(EngineModeTest, FailedStepAbortsAndRollsBack) {
  Fixture f(ConfigFor(GetParam()));
  Table* t = f.engine.CreateTable("T");
  ASSERT_TRUE(f.engine.LoadRow(t, EncodeKeyU64(7), "original").ok());

  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    // Update succeeds, then the step fails: the update must be undone.
    Status st = co_await eng->Execute(SingleStepTxn(
        eng, t, EncodeKeyU64(7),
        [eng, t](Engine::ExecContext& ctx) -> sim::Task<Status> {
          Status st =
              co_await eng->Update(ctx, t, EncodeKeyU64(7), "tainted");
          EXPECT_TRUE(st.ok());
          co_return Status::Aborted("forced failure");
        }));
    EXPECT_TRUE(st.IsAborted());
    std::string now;
    st = co_await eng->Execute(SingleStepTxn(
        eng, t, EncodeKeyU64(7),
        [eng, t, &now](Engine::ExecContext& ctx) -> sim::Task<Status> {
          auto r = co_await eng->Read(ctx, t, EncodeKeyU64(7));
          if (!r.ok()) co_return r.status();
          now = *r;
          co_return Status::OK();
        },
        true));
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(now, "original");
  });
  EXPECT_EQ(f.engine.metrics().aborts, 1u);
  EXPECT_EQ(f.engine.metrics().commits, 1u);
}

TEST_P(EngineModeTest, MultiPhaseTxnWithSharedState) {
  Fixture f(ConfigFor(GetParam()));
  Table* a = f.engine.CreateTable("A");
  Table* b = f.engine.CreateTable("B");
  ASSERT_TRUE(f.engine.LoadRow(a, EncodeKeyU64(1), EncodeKeyU64(42)).ok());
  ASSERT_TRUE(f.engine.LoadRow(b, EncodeKeyU64(42), "target").ok());

  std::string found;
  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    auto state = std::make_shared<std::string>();
    Engine::TxnSpec spec;
    {
      Engine::TxnStep s1;
      s1.table = a;
      s1.keys = {EncodeKeyU64(1)};
      s1.read_only = true;
      s1.fn = [eng, a, state](Engine::ExecContext& ctx) -> sim::Task<Status> {
        auto r = co_await eng->Read(ctx, a, EncodeKeyU64(1));
        if (!r.ok()) co_return r.status();
        *state = *r;  // the key into table B
        co_return Status::OK();
      };
      spec.phases.push_back({std::move(s1)});
    }
    {
      Engine::TxnStep s2;
      s2.table = b;
      s2.keys = {EncodeKeyU64(42)};
      s2.read_only = true;
      s2.fn = [eng, b, state,
               &found](Engine::ExecContext& ctx) -> sim::Task<Status> {
        auto r = co_await eng->Read(ctx, b, *state);
        if (!r.ok()) co_return r.status();
        found = *r;
        co_return Status::OK();
      };
      spec.phases.push_back({std::move(s2)});
    }
    Status st = co_await eng->Execute(std::move(spec));
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  EXPECT_EQ(found, "target");
}

TEST_P(EngineModeTest, RangeReadReturnsSortedWindow) {
  Fixture f(ConfigFor(GetParam()));
  Table* t = f.engine.CreateTable("T");
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        f.engine.LoadRow(t, EncodeKeyU64(i), "v" + std::to_string(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    Status st = co_await eng->Execute(SingleStepTxn(
        eng, t, EncodeKeyU64(10),
        [eng, t, &rows](Engine::ExecContext& ctx) -> sim::Task<Status> {
          auto r = co_await eng->RangeRead(ctx, t, EncodeKeyU64(10),
                                           EncodeKeyU64(20), 0);
          if (!r.ok()) co_return r.status();
          rows = *r;
          co_return Status::OK();
        },
        true));
    EXPECT_TRUE(st.ok());
  });
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows.front().second, "v10");
  EXPECT_EQ(rows.back().second, "v19");
}

TEST_P(EngineModeTest, ScanCountMatchesPredicate) {
  Fixture f(ConfigFor(GetParam()));
  Table* t = f.engine.CreateTable("T");
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(f.engine
                    .LoadRow(t, EncodeKeyU64(i),
                             i % 10 == 0 ? "match" : "nomatch")
                    .ok());
  }
  uint64_t count = 0;
  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    Engine::ExecContext ctx;
    ctx.engine = eng;
    auto r = co_await eng->ScanCount(
        ctx, t, [](Slice rec) { return rec == Slice("match"); });
    EXPECT_TRUE(r.ok());
    count = *r;
  });
  EXPECT_EQ(count, 50u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, EngineModeTest,
                         ::testing::Values(EngineMode::kConventional,
                                           EngineMode::kDora,
                                           EngineMode::kBionic),
                         [](const ::testing::TestParamInfo<EngineMode>& info) {
                           return EngineModeName(info.param);
                         });

// ------------------------------------------------------- overlay specifics --

TEST(OverlayEngineTest, NonResidentReadFetchesAndInstalls) {
  EngineConfig config = SmallBionic();
  config.overlay_residency = 0.0;  // nothing resident: every read misses
  Fixture f(config);
  Table* t = f.engine.CreateTable("T");
  ASSERT_TRUE(f.engine.LoadRow(t, EncodeKeyU64(1), "cold-row").ok());
  ASSERT_EQ(t->overlay()->entries(), 0u);

  std::string got;
  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    Status st = co_await eng->Execute(SingleStepTxn(
        eng, t, EncodeKeyU64(1),
        [eng, t, &got](Engine::ExecContext& ctx) -> sim::Task<Status> {
          auto r = co_await eng->Read(ctx, t, EncodeKeyU64(1));
          if (!r.ok()) co_return r.status();
          got = *r;
          co_return Status::OK();
        },
        true));
    EXPECT_TRUE(st.ok());
  });
  EXPECT_EQ(got, "cold-row");
  EXPECT_EQ(t->overlay()->stats().misses, 1u);
  EXPECT_EQ(t->overlay()->stats().installs, 1u);
  EXPECT_EQ(t->overlay()->entries(), 1u);  // now cached
}

TEST(OverlayEngineTest, BulkMergePushesDirtyRowsToBase) {
  Fixture f(SmallBionic());
  Table* t = f.engine.CreateTable("T");
  ASSERT_TRUE(f.engine.LoadRow(t, EncodeKeyU64(1), "old").ok());

  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    Status st = co_await eng->Execute(SingleStepTxn(
        eng, t, EncodeKeyU64(1),
        [eng, t](Engine::ExecContext& ctx) -> sim::Task<Status> {
          co_return co_await eng->Update(ctx, t, EncodeKeyU64(1), "new");
        }));
    EXPECT_TRUE(st.ok());
    // Before the merge the base still has the old version.
    EXPECT_EQ(*t->BaseGet(EncodeKeyU64(1)), "old");
    EXPECT_EQ(t->overlay()->dirty_count(), 1u);
    Engine::ExecContext ctx;
    ctx.engine = eng;
    st = co_await eng->BulkMerge(ctx, t);
    EXPECT_TRUE(st.ok());
  });
  EXPECT_EQ(t->overlay()->dirty_count(), 0u);
  EXPECT_EQ(*t->BaseGet(EncodeKeyU64(1)), "new");
}

TEST(OverlayEngineTest, QueriesSeeUnmergedUpdates) {
  // §5.6: the overlay "will also patch updates into historical data
  // requested by queries".
  Fixture f(SmallBionic());
  Table* t = f.engine.CreateTable("T");
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(f.engine.LoadRow(t, EncodeKeyU64(i), "stale").ok());
  }
  uint64_t fresh_count = 0;
  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    Status st = co_await eng->Execute(SingleStepTxn(
        eng, t, EncodeKeyU64(3),
        [eng, t](Engine::ExecContext& ctx) -> sim::Task<Status> {
          co_return co_await eng->Update(ctx, t, EncodeKeyU64(3), "fresh");
        }));
    EXPECT_TRUE(st.ok());
    Engine::ExecContext ctx;
    ctx.engine = eng;
    auto r = co_await eng->ScanCount(
        ctx, t, [](Slice rec) { return rec == Slice("fresh"); });
    EXPECT_TRUE(r.ok());
    fresh_count = *r;
  });
  EXPECT_EQ(fresh_count, 1u);  // without the patch this would be 0
}

// ---------------------------------------------------------------- recovery --

TEST(EngineRecoveryTest, CrashLosesNothingCommitted) {
  // Run committed + aborted transactions on engine A, then replay A's
  // durable log into a fresh engine B loaded with the original data.
  EngineConfig config = SmallDora();
  Fixture a(config);
  Table* ta = a.engine.CreateTable("T");
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(a.engine.LoadRow(ta, EncodeKeyU64(i), "init").ok());
  }
  RunInEngine(&a, [&]() -> Task<> {
    Engine* eng = &a.engine;
    // Committed update.
    Status st = co_await eng->Execute(SingleStepTxn(
        eng, ta, EncodeKeyU64(1),
        [eng, ta](Engine::ExecContext& ctx) -> sim::Task<Status> {
          co_return co_await eng->Update(ctx, ta, EncodeKeyU64(1),
                                         "committed");
        }));
    EXPECT_TRUE(st.ok());
    // Aborted update.
    st = co_await eng->Execute(SingleStepTxn(
        eng, ta, EncodeKeyU64(2),
        [eng, ta](Engine::ExecContext& ctx) -> sim::Task<Status> {
          Status st =
              co_await eng->Update(ctx, ta, EncodeKeyU64(2), "aborted");
          EXPECT_TRUE(st.ok());
          co_return Status::Aborted("crash before commit");
        }));
    EXPECT_TRUE(st.IsAborted());
    // Committed insert.
    st = co_await eng->Execute(SingleStepTxn(
        eng, ta, EncodeKeyU64(100),
        [eng, ta](Engine::ExecContext& ctx) -> sim::Task<Status> {
          co_return co_await eng->Insert(ctx, ta, EncodeKeyU64(100),
                                         "inserted");
        }));
    EXPECT_TRUE(st.ok());
  });

  // "Crash": rebuild from the original load + the durable log prefix.
  Fixture b(config);
  Table* tb = b.engine.CreateTable("T");
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(b.engine.LoadRow(tb, EncodeKeyU64(i), "init").ok());
  }
  BaseStorageTarget target(&b.engine.db());
  wal::RecoveryStats stats;
  ASSERT_TRUE(
      wal::Recover(a.engine.log()->durable_prefix(), &target, &stats).ok());

  EXPECT_EQ(*tb->BaseGet(EncodeKeyU64(1)), "committed");
  EXPECT_EQ(*tb->BaseGet(EncodeKeyU64(2)), "init");  // aborted txn invisible
  EXPECT_EQ(*tb->BaseGet(EncodeKeyU64(100)), "inserted");
  EXPECT_GE(stats.committed_txns, 2u);
  EXPECT_GE(stats.loser_txns, 1u);
}

// ---------------------------------------------------- breakdown & energy --

TEST(EngineTelemetryTest, BreakdownCoversAllMajorComponents) {
  Fixture f(SmallDora());
  Table* t = f.engine.CreateTable("T");
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(f.engine.LoadRow(t, EncodeKeyU64(i), "value").ok());
  }
  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    for (uint64_t i = 0; i < 50; ++i) {
      Status st = co_await eng->Execute(SingleStepTxn(
          eng, t, EncodeKeyU64(i % 200),
          [eng, t, i](Engine::ExecContext& ctx) -> sim::Task<Status> {
            co_return co_await eng->Update(ctx, t, EncodeKeyU64(i % 200),
                                           "updated");
          }));
      EXPECT_TRUE(st.ok());
    }
    eng->FinishRun();
  });
  const hw::Breakdown& b = f.engine.breakdown();
  EXPECT_GT(b.ns(hw::Component::kBtree), 0);
  EXPECT_GT(b.ns(hw::Component::kBpool), 0);
  EXPECT_GT(b.ns(hw::Component::kLog), 0);
  EXPECT_GT(b.ns(hw::Component::kXct), 0);
  EXPECT_GT(b.ns(hw::Component::kDora), 0);
  EXPECT_GT(b.ns(hw::Component::kFrontend), 0);
  EXPECT_GT(f.engine.metrics().joules, 0.0);
  EXPECT_GT(f.engine.metrics().TxnPerSecond(), 0.0);
}

TEST(EngineTelemetryTest, ResetStatsZeroesWindow) {
  Fixture f(SmallDora());
  Table* t = f.engine.CreateTable("T");
  ASSERT_TRUE(f.engine.LoadRow(t, EncodeKeyU64(1), "v").ok());
  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    (void)co_await eng->Execute(SingleStepTxn(
        eng, t, EncodeKeyU64(1),
        [eng, t](Engine::ExecContext& ctx) -> sim::Task<Status> {
          co_return (co_await eng->Read(ctx, t, EncodeKeyU64(1))).status();
        },
        true));
    eng->ResetStats();
  });
  EXPECT_EQ(f.engine.metrics().commits, 0u);
  // Agents may charge a few idle polls between the reset and the drain;
  // anything beyond that means the window did not reset.
  EXPECT_LT(f.engine.breakdown().TotalNs(), 2000);
}

}  // namespace
}  // namespace bionicdb::engine

namespace bionicdb::engine {
namespace {

// ----------------------------------------------- MultiRead & known_old --

class MultiReadTest : public ::testing::TestWithParam<EngineMode> {};

TEST_P(MultiReadTest, ResultsAlignWithKeys) {
  Fixture f(ConfigFor(GetParam()));
  Table* t = f.engine.CreateTable("T");
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        f.engine.LoadRow(t, EncodeKeyU64(i), "v" + std::to_string(i)).ok());
  }
  std::vector<Result<std::string>> results;
  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    Engine::TxnSpec spec;
    Engine::TxnStep step;
    step.table = t;
    step.read_only = true;
    std::vector<std::string> keys = {EncodeKeyU64(5), EncodeKeyU64(999),
                                     EncodeKeyU64(32), EncodeKeyU64(0)};
    step.keys = keys;
    step.fn = [eng, t, keys,
               &results](Engine::ExecContext& ctx) -> sim::Task<Status> {
      results = co_await eng->MultiRead(ctx, t, keys);
      co_return Status::OK();
    };
    spec.phases.push_back({std::move(step)});
    EXPECT_TRUE((co_await eng->Execute(std::move(spec))).ok());
  });
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(*results[0], "v5");
  EXPECT_TRUE(results[1].status().IsNotFound());  // key 999 absent
  EXPECT_EQ(*results[2], "v32");
  EXPECT_EQ(*results[3], "v0");
}

TEST_P(MultiReadTest, HardwareProbesOverlap) {
  // In bionic mode a 10-key volley should take far less than 10 serial
  // host probes (requests overlap in the unit's contexts).
  Fixture f(ConfigFor(GetParam()));
  Table* t = f.engine.CreateTable("T");
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(f.engine.LoadRow(t, EncodeKeyU64(i), "v").ok());
  }
  SimTime elapsed = 0;
  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    Engine::TxnSpec spec;
    Engine::TxnStep step;
    step.table = t;
    step.read_only = true;
    std::vector<std::string> keys;
    for (uint64_t i = 0; i < 10; ++i) keys.push_back(EncodeKeyU64(i * 97));
    step.keys = keys;
    step.fn = [eng, t, keys,
               &elapsed](Engine::ExecContext& ctx) -> sim::Task<Status> {
      const SimTime t0 = eng->simulator()->Now();
      auto rs = co_await eng->MultiRead(ctx, t, keys);
      elapsed = eng->simulator()->Now() - t0;
      for (auto& r : rs) EXPECT_TRUE(r.ok());
      co_return Status::OK();
    };
    spec.phases.push_back({std::move(step)});
    EXPECT_TRUE((co_await eng->Execute(std::move(spec))).ok());
  });
  if (GetParam() == EngineMode::kBionic) {
    // One hw probe ~ 2us PCIe RT + ~0.9us tree walk; 10 serial ~ 30us.
    // Overlapped they fit well under half that.
    EXPECT_LT(elapsed, 15000);
  }
  EXPECT_GT(elapsed, 0);
}

INSTANTIATE_TEST_SUITE_P(AllModes, MultiReadTest,
                         ::testing::Values(EngineMode::kConventional,
                                           EngineMode::kDora,
                                           EngineMode::kBionic),
                         [](const ::testing::TestParamInfo<EngineMode>& info) {
                           return EngineModeName(info.param);
                         });

TEST(KnownOldTest, UpdateSkipsReprobeAndStillLogsUndo) {
  Fixture f(SmallDora());
  Table* t = f.engine.CreateTable("T");
  ASSERT_TRUE(f.engine.LoadRow(t, EncodeKeyU64(1), "old-value").ok());
  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    Engine::TxnSpec spec;
    Engine::TxnStep step;
    step.table = t;
    step.keys = {EncodeKeyU64(1)};
    step.fn = [eng, t](Engine::ExecContext& ctx) -> sim::Task<Status> {
      auto r = co_await eng->ReadView(ctx, t, EncodeKeyU64(1));
      EXPECT_TRUE(r.ok());
      const SimTime btree_before = eng->breakdown().ns(hw::Component::kBtree);
      Status st =
          co_await eng->Update(ctx, t, EncodeKeyU64(1), "new-value", &*r);
      EXPECT_TRUE(st.ok());
      // No probe cost charged for the update itself (the located row is
      // reused; only the functional rid lookup remains).
      EXPECT_EQ(eng->breakdown().ns(hw::Component::kBtree), btree_before);
      // The before-image must still reach the log (it feeds abort + CLRs).
      EXPECT_FALSE(ctx.xct->undo_chain.empty());
      EXPECT_EQ(ctx.xct->undo_chain.back().before, "old-value");
      co_return Status::Aborted("force rollback");
    };
    spec.phases.push_back({std::move(step)});
    Status st = co_await eng->Execute(std::move(spec));
    EXPECT_TRUE(st.IsAborted());
  });
  // Rollback used the known_old before-image.
  EXPECT_EQ(*t->BaseGet(EncodeKeyU64(1)), "old-value");
}

// -------------------------------------------------------- RangeReadIndex --

TEST(RangeReadIndexTest, ReturnsOrderedSecondaryEntries) {
  Fixture f(SmallDora());
  Table* t = f.engine.CreateTable("T");
  ASSERT_TRUE(t->AddSecondaryIndex("by_group").ok());
  for (uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(f.engine.LoadRow(t, EncodeKeyU64(i), "r").ok());
    // Group g = i % 3; secondary key (g, i) -> primary key.
    ASSERT_TRUE(t->LoadSecondaryEntry(
                     "by_group", index::EncodeKeyU64Pair(i % 3, i),
                     EncodeKeyU64(i))
                    .ok());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  RunInEngine(&f, [&]() -> Task<> {
    Engine* eng = &f.engine;
    Engine::ExecContext ctx;
    ctx.engine = eng;
    auto r = co_await eng->RangeReadIndex(
        ctx, t, "by_group", index::EncodeKeyU64Pair(1, 0),
        index::EncodeKeyU64Pair(2, 0), 0);
    EXPECT_TRUE(r.ok());
    rows = *r;
  });
  ASSERT_EQ(rows.size(), 10u);  // keys 1, 4, 7, ... 28
  EXPECT_EQ(index::DecodeKeyU64(Slice(rows.front().second)), 1u);
  EXPECT_EQ(index::DecodeKeyU64(Slice(rows.back().second)), 28u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].first, rows[i].first);
  }
}

}  // namespace
}  // namespace bionicdb::engine
