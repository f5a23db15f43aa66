// Tests for the deterministic multi-core experiment runner: full index
// coverage, grid results independent of job count, and — the property the
// sweep benches rely on — engine simulations running on worker threads
// produce results identical to the same configurations run serially. Also
// the JSON benches' command line (--jobs=N picks the grid's thread count)
// and the byte format of their rows, which tools/check_bench.py reads.
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

bench::BenchArgs Parse(std::vector<const char*> args, const char* flag,
                       bool grid) {
  args.insert(args.begin(), "bench");
  return bench::ParseBenchArgs(static_cast<int>(args.size()),
                               const_cast<char**>(args.data()), flag, grid);
}

TEST(BenchArgsTest, JobsAndOutputPathInAnyOrder) {
  for (const auto& argv : {std::vector<const char*>{"out.json", "--jobs=1"},
                           std::vector<const char*>{"--jobs=1", "out.json"}}) {
    const bench::BenchArgs a = Parse(argv, "--smoke", /*grid=*/true);
    EXPECT_EQ(a.jobs, 1u);
    EXPECT_EQ(a.out_path, "out.json");
    EXPECT_FALSE(a.flag);
  }
  const bench::BenchArgs none = Parse({}, nullptr, /*grid=*/false);
  EXPECT_EQ(none.jobs, common::DefaultJobs());
  EXPECT_EQ(none.out_path, "");
}

TEST(BenchArgsTest, EachBenchTakesItsOwnFlag) {
  EXPECT_TRUE(Parse({"--smoke"}, "--smoke", true).flag);
  const bench::BenchArgs a =
      Parse({"--sim-only", "--jobs=3", "o.json"}, "--sim-only", true);
  EXPECT_TRUE(a.flag);
  EXPECT_EQ(a.jobs, 3u);
  EXPECT_EQ(a.out_path, "o.json");
}

TEST(BenchArgsTest, RejectsAnythingElse) {
  const auto usage = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(Parse({"--bogus"}, "--smoke", true), usage, "usage");
  EXPECT_EXIT(Parse({"--sim-only"}, "--smoke", true), usage, "usage");
  EXPECT_EXIT(Parse({"--jobs", "1", "o.json"}, "--smoke", true), usage,
              "usage");
  EXPECT_EXIT(Parse({"--jobs=0"}, "--smoke", true), usage, "usage");
  EXPECT_EXIT(Parse({"--jobs=2"}, nullptr, /*grid=*/false), usage, "usage");
  EXPECT_EXIT(Parse({"a.json", "b.json"}, nullptr, false), usage, "usage");
}

TEST(BenchRowsTest, ByteFormat) {
  bench::Row pin("tatp_e2e_dora");
  pin.Add("ops", 6000, 0);
  pin.Add("sim_txn_per_sec", 2192905.5);
  bench::Row insert("btree_insert_16", 3);
  insert.Add("bytes_per_entry", 132.87664, 5);
  insert.Add("shed_rate", 0.25);
  EXPECT_EQ(bench::FormatRows({pin, insert}),
            "{\n"
            "  \"tatp_e2e_dora\": {\"ops\": 6000, "
            "\"sim_txn_per_sec\": 2192905.5},\n"
            "  \"btree_insert_16\": {\"bytes_per_entry\": 132.87664, "
            "\"shed_rate\": 0.250}\n"
            "}\n");
}

}  // namespace
}  // namespace bionicdb
