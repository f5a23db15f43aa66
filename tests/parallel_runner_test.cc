// Tests for the deterministic multi-core experiment runner: full index
// coverage, grid results independent of job count, and — the property the
// sweep benches rely on — engine simulations running on worker threads
// produce results identical to the same configurations run serially.
#include "common/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "workload/crash_harness.h"

namespace bionicdb {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  common::ParallelFor(kN, 8, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, DegenerateCases) {
  int calls = 0;
  common::ParallelFor(0, 4, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  common::ParallelFor(3, 1, [&](size_t) { ++calls; });  // inline path
  EXPECT_EQ(calls, 3);
  std::atomic<int> par_calls{0};
  common::ParallelFor(2, 64, [&](size_t) { ++par_calls; });  // jobs > n
  EXPECT_EQ(par_calls.load(), 2);
}

TEST(ParallelForTest, RunGridKeepsResultsInIndexOrder) {
  const std::vector<uint64_t> serial =
      common::RunGrid<uint64_t>(64, 1, [](size_t i) { return i * i + 7; });
  const std::vector<uint64_t> parallel =
      common::RunGrid<uint64_t>(64, 8, [](size_t i) { return i * i + 7; });
  EXPECT_EQ(serial, parallel);
}

// Each grid point builds its own Simulator + Engine on a worker thread;
// identical configurations must produce bit-identical simulated results,
// and parallel results must match the serial reference run. This is the
// shared-nothing contract of the sweep runner, exercised end to end.
TEST(ParallelRunnerTest, EngineRunsAreIdenticalAcrossThreads) {
  bench::WorkloadScale scale;
  scale.clients = 8;
  scale.warmup_txns = 200;
  scale.measured_txns = 600;
  scale.tatp_subscribers = 500;
  auto run = [&](size_t) {
    return bench::RunTatpMix(engine::EngineConfig::Dora(), scale);
  };
  const std::vector<bench::RunResult> par = bench::RunSweep(3, run, 3);
  const bench::RunResult ref = run(0);
  for (const bench::RunResult& r : par) {
    EXPECT_EQ(r.txn_per_sec, ref.txn_per_sec);
    EXPECT_EQ(r.uj_per_txn, ref.uj_per_txn);
    EXPECT_EQ(r.p95_latency_us, ref.p95_latency_us);
    EXPECT_EQ(r.commits, ref.commits);
    EXPECT_EQ(r.aborts, ref.aborts);
  }
}

// Two corpora: mangled tails of one engine's log, and the consistent cuts
// of a 3-shard cluster running 40% cross-shard transactions, whose every
// point recovers three shards and checks 2PC atomicity.
TEST(ParallelRunnerTest, CrashCorpusParallelMatchesSerial) {
  workload::CrashHarnessConfig cfg;
  cfg.mode = engine::EngineMode::kDora;
  cfg.seed = 21;
  cfg.clients = 2;
  cfg.txns = 60;
  cfg.scale = 50;
  workload::CrashHarness harness(cfg);
  const std::vector<size_t>& offsets = harness.record_offsets(0);
  ASSERT_GE(offsets.size(), 8u);

  std::vector<workload::CrashHarness::CrashPoint> points;
  const size_t stride = offsets.size() / 4;
  for (size_t i = stride; i < offsets.size(); i += stride) {
    points.push_back({{offsets[i]}, workload::TailFault::kCleanCut, 1});
    points.push_back({{offsets[i] + 2}, workload::TailFault::kZeroFill, 2});
    points.push_back({{offsets[i]}, workload::TailFault::kBitFlip, 3});
  }

  workload::CrashHarnessConfig sharded =
      workload::CrashHarnessConfig::ThreeShardCrossShard();
  sharded.txns = 120;
  workload::CrashHarness sharded_harness(sharded);
  std::vector<workload::CrashHarness::CrashPoint> cuts;
  for (const auto& s : sharded_harness.samples()) cuts.push_back(s.point);
  ASSERT_GE(cuts.size(), 8u);

  for (auto [h, corpus] : {std::pair{&harness, &points},
                           std::pair{&sharded_harness, &cuts}}) {
    std::vector<std::string> serial;
    for (const auto& p : *corpus) serial.push_back(h->CheckCrashPoint(p));
    const std::vector<std::string> parallel = h->CheckCrashPoints(*corpus, 4);
    EXPECT_EQ(parallel, serial);
    for (const std::string& f : parallel) EXPECT_EQ(f, "");
  }
}

}  // namespace
}  // namespace bionicdb
