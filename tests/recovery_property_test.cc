// Property tests for end-to-end durability: for random workloads across
// engine modes and seeds, replaying the durable log into a freshly loaded
// engine must reproduce the exact logical state of the original — and
// recovery must tolerate arbitrary torn tails.
#include <gtest/gtest.h>

#include <string>

#include "common/parallel_for.h"
#include "engine/engine.h"
#include "index/codec.h"
#include "sim/simulator.h"
#include "wal/recovery.h"
#include "workload/crash_harness.h"
#include "workload/driver.h"
#include "workload/tatp.h"

namespace bionicdb {
namespace {

using engine::Engine;
using engine::EngineConfig;
using engine::EngineMode;
using sim::Simulator;
using sim::Task;

struct CrashParams {
  EngineMode mode;
  uint64_t seed;
};

class RecoveryPropertyTest : public ::testing::TestWithParam<CrashParams> {};

TEST_P(RecoveryPropertyTest, ReplayingDurableLogReproducesFinalState) {
  const CrashParams p = GetParam();

  // --- Original run: a mixed TATP workload with writes and aborts. -------
  Simulator sim;
  Engine engine(&sim, workload::HarnessEngineConfig(p.mode));
  workload::TatpConfig wcfg;
  wcfg.subscribers = 150;
  wcfg.seed = p.seed;
  workload::TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  workload::DriverConfig dcfg;
  dcfg.clients = 4;
  dcfg.warmup_txns = 0;
  dcfg.measured_txns = 250;
  sim.Spawn(workload::RunClosedLoop(
      &engine, [&]() { return tatp.NextTransaction(); }, dcfg, nullptr));
  sim.Run();
  const auto original = engine.db().Snapshot();

  // Every commit waits for durability, so the durable prefix contains every
  // committed transaction: recovery from it must reproduce `original`.
  Simulator sim2;
  Engine fresh(&sim2, workload::HarnessEngineConfig(p.mode));
  workload::TatpConfig wcfg2 = wcfg;  // identical initial population
  workload::TatpWorkload tatp2(&fresh, wcfg2);
  ASSERT_TRUE(tatp2.Load().ok());
  engine::BaseStorageTarget target(&fresh.db());
  wal::RecoveryStats stats;
  ASSERT_TRUE(
      wal::Recover(engine.log()->durable_prefix(), &target, &stats).ok());

  // Compare base-data logical state (the fresh engine has no overlay
  // writes, so ScanAll == base state).
  const auto recovered = fresh.db().Snapshot();
  EXPECT_EQ(recovered.size(), original.size());
  EXPECT_EQ(recovered, original);
}

TEST_P(RecoveryPropertyTest, TornTailsNeverCrashAndStayPrefixConsistent) {
  const CrashParams p = GetParam();
  Simulator sim;
  Engine engine(&sim, workload::HarnessEngineConfig(p.mode));
  workload::TatpConfig wcfg;
  wcfg.subscribers = 80;
  wcfg.seed = p.seed;
  workload::TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  workload::DriverConfig dcfg;
  dcfg.clients = 2;
  dcfg.warmup_txns = 0;
  dcfg.measured_txns = 120;
  sim.Spawn(workload::RunClosedLoop(
      &engine, [&]() { return tatp.NextTransaction(); }, dcfg, nullptr));
  sim.Run();

  const std::string& full = engine.log()->buffer();
  Rng rng(p.seed ^ 0xC4A5);
  uint64_t last_commits = 0;
  for (int cut = 0; cut < 25; ++cut) {
    const size_t len = rng.Uniform(full.size() + 1);
    // Recover from an arbitrary truncation: must never fail or crash.
    Simulator simf;
    Engine fresh(&simf, workload::HarnessEngineConfig(p.mode));
    workload::TatpWorkload tatp2(&fresh, wcfg);
    ASSERT_TRUE(tatp2.Load().ok());
    engine::BaseStorageTarget target(&fresh.db());
    wal::RecoveryStats stats;
    ASSERT_TRUE(wal::Recover(Slice(full.data(), len), &target, &stats).ok())
        << "cut at " << len;
    (void)last_commits;
    last_commits = stats.committed_txns;
  }
  // Recovery of the complete log sees every committed transaction.
  Simulator simf;
  Engine fresh(&simf, workload::HarnessEngineConfig(p.mode));
  workload::TatpWorkload tatp2(&fresh, wcfg);
  ASSERT_TRUE(tatp2.Load().ok());
  engine::BaseStorageTarget target(&fresh.db());
  wal::RecoveryStats stats;
  ASSERT_TRUE(wal::Recover(Slice(full), &target, &stats).ok());
  EXPECT_EQ(fresh.db().Snapshot(), engine.db().Snapshot());
}

// Randomized crash-point sweep: for each (mode, seed), cut the log at 12
// random points, mangle the tail three ways (clean cut, zero-filled
// preallocated tail, bit-flipped final record), and demand that recovery
// reproduces exactly the committed-transaction oracle for the surviving
// prefix. 36 points per instantiation x 6 instantiations == 216 crash
// points across the sweep.
TEST_P(RecoveryPropertyTest, CrashPointCorporaMatchCommittedOracle) {
  const CrashParams p = GetParam();
  workload::CrashHarnessConfig cfg;
  cfg.mode = p.mode;
  cfg.seed = p.seed;
  cfg.clients = 2;
  cfg.txns = 120;
  cfg.scale = 80;
  workload::CrashHarness harness(cfg);
  const workload::CrashRunResult& run = harness.Run();
  ASSERT_GT(run.commits, 0u);
  const size_t log_size = run.shards[0].log.size();
  ASSERT_GT(log_size, 0u);

  const workload::TailFault corpus[] = {workload::TailFault::kCleanCut,
                                        workload::TailFault::kZeroFill,
                                        workload::TailFault::kBitFlip};
  Rng rng(p.seed ^ 0xFA017u);
  std::vector<workload::CrashHarness::CrashPoint> points;
  for (int i = 0; i < 12; ++i) {
    const size_t cut = rng.Uniform(log_size + 1);
    for (workload::TailFault fault : corpus) {
      points.push_back({{cut}, fault, p.seed + static_cast<uint64_t>(i)});
    }
  }
  // Checked through the deterministic multi-core runner: each point
  // recovers a fresh engine on a worker thread; results come back in point
  // order, identical to the old serial loop for any job count.
  const std::vector<std::string> failures =
      harness.CheckCrashPoints(points, common::DefaultJobs());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(failures[i], "")
        << "point " << i << " cut=" << points[i].cuts[0] << " fault="
        << workload::TailFaultName(points[i].fault);
  }
}

// An aborted TPC-C NewOrder may have added a by_customer secondary-index
// entry, which abort undoes but never logs, so it must get no CLR. The
// crash harness CHECKs that every CLR compensates a write its own
// transaction logged; this Bionic run aborts often enough (wait-die) to
// reach that case, and must then still recover to the committed oracle.
TEST(RecoveryClrTest, TpccAbortsCompensateOnlyLoggedWrites) {
  workload::CrashHarnessConfig cfg;
  cfg.mode = EngineMode::kBionic;
  cfg.seed = 10;
  cfg.use_tpcc = true;
  cfg.clients = 8;
  cfg.txns = 600;
  cfg.scale = 20;
  workload::CrashHarness harness(cfg);
  const workload::CrashRunResult& run = harness.Run();
  ASSERT_GT(run.commits, 0u);
  ASSERT_GT(run.aborts, 0u);
  const size_t end = run.shards[0].log.size();
  EXPECT_EQ(harness.CheckCrashPoint({{end}, workload::TailFault::kCleanCut, 1}),
            "");
}

// Wait-die contention stress: hot-key exclusive locks force waits and
// wait-die aborts; once every client drains, the lock table must be fully
// reclaimed (no leaked slots or CondVars from dying waiters).
TEST(LockDrainStressTest, HotKeyContentionLeavesEmptyLockTable) {
  Simulator sim;
  Engine engine(&sim, EngineConfig::Conventional());
  engine::Table* table = engine.CreateTable("hot");
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back("k" + std::to_string(i));
    ASSERT_TRUE(engine.LoadRow(table, keys.back(), "val-00000000").ok());
  }
  engine.Start();

  Rng rng(77);
  for (int c = 0; c < 16; ++c) {
    sim.Spawn([](Engine* eng, engine::Table* t,
                 const std::vector<std::string>* keys, Rng* rng,
                 int n) -> Task<> {
      for (int i = 0; i < n; ++i) {
        const size_t a = rng->Uniform(keys->size());
        const size_t b = rng->Uniform(keys->size());
        uint64_t prio = 0;
        for (int attempt = 0; attempt < 30; ++attempt) {
          Engine::TxnSpec spec;
          Engine::Phase phase;
          std::vector<size_t> picks = {a};
          if (b != a) picks.push_back(b);
          for (const size_t ki : picks) {
            Engine::TxnStep step;
            step.table = t;
            step.keys = {(*keys)[ki]};
            const std::string key = (*keys)[ki];
            step.fn = [eng, t, key](
                          Engine::ExecContext& ctx) -> Task<Status> {
              co_return co_await eng->Update(ctx, t, key, "val-11111111");
            };
            phase.push_back(std::move(step));
          }
          spec.phases.push_back(std::move(phase));
          const Status st = co_await eng->Execute(std::move(spec), 0, &prio);
          if (!st.IsAborted()) break;
          co_await sim::Delay{eng->simulator(), 20000 * (attempt + 1)};
        }
      }
    }(&engine, table, &keys, &rng, 40));
  }
  sim.Run();

  const txn::LockStats& ls = engine.lock_manager()->stats();
  EXPECT_GT(ls.waits, 0u);
  EXPECT_GT(ls.wait_die_aborts, 0u);
  // The drained lock table holds no keys: every slot (and CondVar) created
  // under contention was reclaimed.
  EXPECT_EQ(engine.lock_manager()->num_locked_keys(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecoveryPropertyTest,
    ::testing::Values(CrashParams{EngineMode::kConventional, 11},
                      CrashParams{EngineMode::kConventional, 12},
                      CrashParams{EngineMode::kDora, 21},
                      CrashParams{EngineMode::kDora, 22},
                      CrashParams{EngineMode::kBionic, 31},
                      CrashParams{EngineMode::kBionic, 32}),
    [](const ::testing::TestParamInfo<CrashParams>& info) {
      return std::string(engine::EngineModeName(info.param.mode)) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace bionicdb
