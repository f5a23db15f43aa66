// Distributed crash-recovery property test: the ShardedCrashHarness
// samples consistent cluster-wide crash points (every shard's durable
// WAL prefix at one virtual instant) under a cross-shard-heavy TATP run,
// then proves that recovery at EVERY point reproduces the committed
// state on each shard and never splits a 2PC transaction — some shards
// committing a branch while others abort it.
//
// Both 2PC crash roles fall out of the cut sweep (see
// workload/sharded_crash.h): cuts before the coordinator's decision
// record exercise presumed abort (prepared_aborted), cuts between the
// decision and a participant's branch commit exercise decision-driven
// redo (prepared_committed). The aggregated recovery stats must show
// both, or the sweep never actually crossed the interesting windows.
#include <gtest/gtest.h>

#include "wal/recovery.h"
#include "workload/sharded_crash.h"

namespace bionicdb::workload {
namespace {

TEST(ShardedCrashTest, EveryConsistentCutRecoversAtomically) {
  ShardedCrashConfig cfg;  // 3 shards, 40% cross-shard, 300 txns
  ShardedCrashHarness harness(cfg);
  ASSERT_GT(harness.run_commits(), 0u);
  ASSERT_GT(harness.run_2pc_commits(), 0u) << "no distributed commits ran";
  ASSERT_GT(harness.samples().size(), 10u) << "too few crash points sampled";

  wal::RecoveryStats agg;
  for (size_t i = 0; i < harness.samples().size(); ++i) {
    const std::string diff = harness.CheckCut(i, &agg);
    ASSERT_EQ(diff, "") << "cut " << i << "/" << harness.samples().size()
                        << ": " << diff;
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
  // without every branch commit it implies (CheckCut would have failed the
  // oracle).
  EXPECT_GT(agg.decision_records + agg.forget_records, 0u);
}

TEST(ShardedCrashTest, SamplesAreConsistentAndMonotone) {
  ShardedCrashConfig cfg;
  cfg.txns = 120;
  cfg.seed = 7;
  ShardedCrashHarness harness(cfg);
  const auto& samples = harness.samples();
  ASSERT_GT(samples.size(), 1u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].time, samples[i - 1].time);
    ASSERT_EQ(samples[i].cuts.size(), samples[i - 1].cuts.size());
    // Durable prefixes only grow.
    for (size_t s = 0; s < samples[i].cuts.size(); ++s) {
      EXPECT_GE(samples[i].cuts[s], samples[i - 1].cuts[s]);
    }
  }
}

}  // namespace
}  // namespace bionicdb::workload
