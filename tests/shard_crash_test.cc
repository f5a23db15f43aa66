// Distributed crash-recovery property test: the crash harness samples
// consistent cluster-wide crash points (every shard's durable WAL prefix at
// one virtual instant) under a cross-shard-heavy TATP run, then proves that
// recovery at EVERY point reproduces the committed state on each shard and
// never splits a 2PC transaction — some shards committing a branch while
// others abort it.
//
// Both 2PC crash roles fall out of the cut sweep (see
// workload/crash_harness.h): cuts before the coordinator's decision
// record exercise presumed abort (prepared_aborted), cuts between the
// decision and a participant's branch commit exercise decision-driven
// redo (prepared_committed). The aggregated recovery stats must show
// both, or the sweep never actually crossed the interesting windows.
#include <gtest/gtest.h>

#include "common/parallel_for.h"
#include "wal/recovery.h"
#include "workload/crash_harness.h"

namespace bionicdb::workload {
namespace {

TEST(ShardedCrashTest, EveryConsistentCutRecoversAtomically) {
  CrashHarness harness(CrashHarnessConfig::ThreeShardCrossShard());
  ASSERT_GT(harness.Run().commits, 0u);
  ASSERT_GT(harness.Run().tpc_commits, 0u) << "no distributed commits ran";
  ASSERT_GT(harness.samples().size(), 10u) << "too few crash points sampled";

  // Concurrent cluster recoveries, one per sampled cut.
  std::vector<CrashHarness::CrashPoint> points;
  for (const CrashHarness::CutSample& s : harness.samples()) {
    points.push_back(s.point);
  }
  wal::RecoveryStats agg;
  const std::vector<std::string> diffs =
      harness.CheckCrashPoints(points, common::DefaultJobs(), &agg);
  for (size_t i = 0; i < diffs.size(); ++i) {
    ASSERT_EQ(diffs[i], "") << "cut " << i << "/" << diffs.size() << ": "
                            << diffs[i];
  }

  // The sweep crossed both 2PC crash windows: coordinator crashes
  // (prepared branches presumed aborted) and participant crashes
  // (prepared branches committed from the surviving decision record).
  EXPECT_GT(agg.prepared_aborted, 0u)
      << "no cut landed between prepare and decision";
  EXPECT_GT(agg.prepared_committed, 0u)
      << "no cut landed between decision and branch commit";
  EXPECT_GT(agg.redo_applied, 0u);
  // Decision-record GC fired during the run, and no cut ever held a forget
  // without every branch commit it implies (the oracle would have failed).
  EXPECT_GT(agg.decision_records + agg.forget_records, 0u);
}

TEST(ShardedCrashTest, SamplesAreConsistentAndMonotone) {
  CrashHarnessConfig cfg = CrashHarnessConfig::ThreeShardCrossShard();
  cfg.txns = 120;
  cfg.seed = 7;
  CrashHarness harness(cfg);
  const auto& samples = harness.samples();
  ASSERT_GT(samples.size(), 1u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].time, samples[i - 1].time);
    const std::vector<size_t>& cuts = samples[i].point.cuts;
    const std::vector<size_t>& prev = samples[i - 1].point.cuts;
    ASSERT_EQ(cuts.size(), prev.size());
    // Durable prefixes only grow.
    for (size_t s = 0; s < cuts.size(); ++s) EXPECT_GE(cuts[s], prev[s]);
  }
}

}  // namespace
}  // namespace bionicdb::workload
