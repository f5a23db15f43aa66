// Shard subsystem tests: routing, the 1-shard passivity contract (a
// 1-shard cluster run is bit-identical to the unsharded engine, WAL
// bytes included), sharded loading as an exact partition of the
// unsharded database, 2PC commit/abort atomicity with prepare/decision
// records in the WAL, distributed recovery from the decision set, and
// concurrent shard loading as bit-identical to loading in shard order.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "index/codec.h"
#include "shard/cluster.h"
#include "shard/router.h"
#include "sim/simulator.h"
#include "wal/record.h"
#include "wal/recovery.h"
#include "workload/crash_harness.h"
#include "workload/driver.h"
#include "workload/sharded_tatp.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

namespace bionicdb::shard {
namespace {

using engine::Engine;
using engine::EngineConfig;
using sim::Simulator;
using sim::Task;
using workload::DriverConfig;
using workload::DriverReport;
using workload::RunClosedLoop;
using workload::ShardedTatp;
using workload::ShardedTatpConfig;
using workload::TatpConfig;
using workload::TatpWorkload;

EngineConfig SmallDora() {
  EngineConfig c = EngineConfig::Dora();
  c.num_partitions = 4;
  return c;
}

ClusterConfig SmallCluster(int shards) {
  ClusterConfig c;
  c.num_shards = shards;
  c.engine = SmallDora();
  return c;
}

// ------------------------------------------------------------- router --

TEST(RouterTest, OwnerOfIsModulo) {
  Router r(4);
  for (uint64_t id = 0; id < 100; ++id) {
    EXPECT_EQ(r.OwnerOf(id), static_cast<int>(id % 4));
  }
}

TEST(RouterTest, ShardOfIsStableAndSpreads) {
  Router r(4);
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const int s = r.ShardOf(Slice(key));
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_EQ(s, r.ShardOf(Slice(key)));  // deterministic
    ++hits[static_cast<size_t>(s)];
  }
  for (int s = 0; s < 4; ++s) EXPECT_GT(hits[static_cast<size_t>(s)], 100);
}

// ---------------------------------------------------------- passivity --

/// The premise the closed-loop driver and the crash harness rest on: the
/// same closed-loop run through a 1-shard cluster and through the plain
/// engine produces byte-identical WALs, the same commit and abort counts,
/// and the same final virtual time — in every engine mode, on TATP and on
/// TPC-C (each TPC-C transaction wrapped as one fragment on shard 0).
TEST(ShardClusterTest, SingleShardPassivityBitIdentical) {
  DriverConfig dcfg;
  dcfg.clients = 8;
  dcfg.warmup_txns = 100;
  dcfg.measured_txns = 1000;
  TatpConfig tatp_cfg;
  tatp_cfg.subscribers = 500;
  workload::TpccConfig tpcc_cfg;
  tpcc_cfg.districts_per_warehouse = 2;
  tpcc_cfg.customers_per_district = 20;
  tpcc_cfg.items = 100;
  tpcc_cfg.initial_orders_per_district = 10;

  for (engine::EngineMode mode :
       {engine::EngineMode::kConventional, engine::EngineMode::kDora,
        engine::EngineMode::kBionic}) {
    for (bool use_tpcc : {false, true}) {
      SCOPED_TRACE(std::string(engine::EngineModeName(mode)) +
                   (use_tpcc ? " TPC-C" : " TATP"));

      // Unsharded reference run.
      Simulator ref_sim;
      Engine ref_engine(&ref_sim, workload::HarnessEngineConfig(mode));
      std::unique_ptr<TatpWorkload> ref_tatp;
      std::unique_ptr<workload::TpccWorkload> ref_tpcc;
      if (use_tpcc) {
        ref_tpcc =
            std::make_unique<workload::TpccWorkload>(&ref_engine, tpcc_cfg);
        ASSERT_TRUE(ref_tpcc->Load().ok());
      } else {
        ref_tatp = std::make_unique<TatpWorkload>(&ref_engine, tatp_cfg);
        ASSERT_TRUE(ref_tatp->Load().ok());
      }
      DriverReport ref_report;
      ref_sim.Spawn(RunClosedLoop(
          &ref_engine,
          [&] {
            return ref_tpcc ? ref_tpcc->NextTransaction()
                            : ref_tatp->NextTransaction();
          },
          dcfg, &ref_report));
      ref_sim.Run();

      // Same run through a 1-shard cluster.
      Simulator sim;
      ClusterConfig cc;
      cc.num_shards = 1;
      cc.engine = workload::HarnessEngineConfig(mode);
      Cluster cluster(&sim, cc);
      std::unique_ptr<ShardedTatp> tatp;
      std::unique_ptr<workload::TpccWorkload> tpcc;
      if (use_tpcc) {
        tpcc = std::make_unique<workload::TpccWorkload>(cluster.shard(0),
                                                        tpcc_cfg);
        ASSERT_TRUE(tpcc->Load().ok());
      } else {
        ShardedTatpConfig wcfg;
        wcfg.subscribers = tatp_cfg.subscribers;
        tatp = std::make_unique<ShardedTatp>(&cluster, wcfg);
        ASSERT_TRUE(tatp->Load().ok());
      }
      DriverReport report;
      sim.Spawn(RunClosedLoop(
          &cluster,
          [&] {
            if (tatp) return tatp->NextTransaction();
            ShardedTxn txn;
            txn.fragments.push_back({0, tpcc->NextTransaction()});
            return txn;
          },
          dcfg, &report));
      sim.Run();

      EXPECT_EQ(sim.Now(), ref_sim.Now());
      EXPECT_EQ(cluster.TotalCommits(), ref_engine.metrics().commits);
      EXPECT_EQ(cluster.TotalAborts(), ref_engine.metrics().aborts);
      EXPECT_EQ(report.submitted, ref_report.submitted);
      EXPECT_EQ(report.retries, ref_report.retries);
      // The strongest form: every logged byte identical.
      EXPECT_EQ(cluster.shard(0)->log()->buffer(),
                ref_engine.log()->buffer());
      // And no distributed machinery fired.
      EXPECT_EQ(cluster.tpc_stats().started, 0u);
      EXPECT_EQ(report.cross_shard_submitted, 0u);
    }
  }
}

/// The bench pin, as a unit test: the shard_closed_1 row's exact
/// configuration must still print 2192905.5 sim txn/s after the fan-out
/// rework — the cluster path through a 1-shard run adds no events, no
/// RNG draws, and no timeline charges.
TEST(ShardClusterTest, SingleShardThroughputPinExact) {
  Simulator sim;
  ClusterConfig cc;
  cc.num_shards = 1;
  cc.engine = EngineConfig();  // default DORA commodity server
  cc.engine.flight.enabled = true;
  Cluster cluster(&sim, cc);
  ShardedTatpConfig wcfg;
  wcfg.subscribers = 5000;
  ShardedTatp tatp(&cluster, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  DriverConfig dcfg;
  dcfg.clients = 32;
  dcfg.warmup_txns = 2000;
  dcfg.measured_txns = 6000;
  DriverReport report;
  sim.Spawn(RunClosedLoop(
      &cluster, [&] { return tatp.NextTransaction(); }, dcfg, &report));
  sim.Run();

  const double elapsed_ns =
      static_cast<double>(cluster.shard(0)->metrics().elapsed_ns);
  ASSERT_GT(elapsed_ns, 0.0);
  const double tps =
      static_cast<double>(cluster.TotalCommits()) * 1e9 / elapsed_ns;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", tps);
  EXPECT_STREQ(buf, "2192905.5");
}

// ------------------------------------------------------------ loading --

/// Sharded loading must partition the unsharded database exactly: the
/// union of all shards' tables equals the unsharded tables row-for-row,
/// and each row lives only on its owner.
TEST(ShardClusterTest, ShardedLoadPartitionsDatabase) {
  const uint64_t kSubs = 40;

  Simulator ref_sim;
  Engine ref_engine(&ref_sim, SmallDora());
  TatpConfig ref_wcfg;
  ref_wcfg.subscribers = kSubs;
  TatpWorkload ref_tatp(&ref_engine, ref_wcfg);
  ASSERT_TRUE(ref_tatp.Load().ok());
  const auto ref_state = ref_engine.db().Snapshot();

  Simulator sim;
  Cluster cluster(&sim, SmallCluster(3));
  ShardedTatpConfig wcfg;
  wcfg.subscribers = kSubs;
  ShardedTatp tatp(&cluster, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  std::map<std::string, std::string> merged;
  for (int i = 0; i < cluster.num_shards(); ++i) {
    for (const auto& [k, v] : cluster.shard(i)->db().Snapshot()) {
      auto [it, inserted] = merged.emplace(k, v);
      EXPECT_TRUE(inserted) << "row " << k << " loaded on two shards";
    }
  }
  EXPECT_EQ(merged, ref_state);
}

/// Where every row landed: its RID (paged tables) and, with an overlay,
/// whether the load made it resident. Compact tables have no RIDs.
std::map<std::string, std::string> PlacementOf(engine::Database& db) {
  std::map<std::string, std::string> placement;
  for (uint32_t id = 0; id < db.num_tables(); ++id) {
    engine::Table* t = db.GetTable(id);
    for (auto& [k, v] : t->ScanAll()) {
      std::string& p = placement[t->name() + "/" + k];
      if (auto rid = t->LookupRid(k); rid.ok()) {
        p = std::to_string(rid->page_id) + "." + std::to_string(rid->slot);
      }
      if (t->overlay() != nullptr && t->overlay()->index().GetView(k).ok()) {
        p += "+resident";
      }
    }
  }
  return placement;
}

/// Sets BIONICDB_JOBS for one scope, so a load fans out across threads
/// even on a single-core host.
class ScopedJobs {
 public:
  explicit ScopedJobs(const char* jobs) {
    if (const char* old = std::getenv("BIONICDB_JOBS")) old_ = old;
    setenv("BIONICDB_JOBS", jobs, 1);
  }
  ~ScopedJobs() {
    if (old_) {
      setenv("BIONICDB_JOBS", old_->c_str(), 1);
    } else {
      unsetenv("BIONICDB_JOBS");
    }
  }

 private:
  std::optional<std::string> old_;
};

/// ShardedTatp::Load loads shards concurrently; the result must be
/// bit-identical to loading them one after another on one thread: same
/// rows, same RIDs, same overlay residency, and the same WAL bytes and
/// virtual end time for a driven run with 2PC and snapshot-read traffic.
void ExpectConcurrentLoadBitIdentical(const EngineConfig& engine) {
  ClusterConfig cc;
  cc.num_shards = 4;
  cc.engine = engine;
  ShardedTatpConfig wcfg;
  wcfg.subscribers = 2000;
  wcfg.cross_shard_ratio = 0.05;
  wcfg.cross_read_ratio = 0.05;
  DriverConfig dcfg;
  dcfg.clients = 8;
  dcfg.warmup_txns = 100;
  dcfg.measured_txns = 1000;

  Simulator sim;
  Cluster cluster(&sim, cc);
  ShardedTatp tatp(&cluster, wcfg);
  {
    ScopedJobs jobs("4");
    ASSERT_TRUE(tatp.Load().ok());
  }

  Simulator ref_sim;
  Cluster ref_cluster(&ref_sim, cc);
  ShardedTatp ref_tatp(&ref_cluster, wcfg);
  for (int i = 0; i < cc.num_shards; ++i) {
    ASSERT_TRUE(ref_tatp.shard_workload(i)->Load().ok());
  }

  for (int i = 0; i < cc.num_shards; ++i) {
    EXPECT_EQ(cluster.shard(i)->db().Snapshot(),
              ref_cluster.shard(i)->db().Snapshot())
        << "shard " << i;
    EXPECT_EQ(PlacementOf(cluster.shard(i)->db()),
              PlacementOf(ref_cluster.shard(i)->db()))
        << "shard " << i;
  }

  sim.Spawn(RunClosedLoop(
      &cluster, [&] { return tatp.NextTransaction(); }, dcfg, nullptr));
  sim.Run();
  ref_sim.Spawn(RunClosedLoop(
      &ref_cluster, [&] { return ref_tatp.NextTransaction(); }, dcfg,
      nullptr));
  ref_sim.Run();

  EXPECT_GT(cluster.tpc_stats().committed, 0u);
  EXPECT_EQ(cluster.TotalCommits(), ref_cluster.TotalCommits());
  EXPECT_EQ(sim.Now(), ref_sim.Now());
  for (int i = 0; i < cc.num_shards; ++i) {
    EXPECT_EQ(cluster.shard(i)->log()->buffer(),
              ref_cluster.shard(i)->log()->buffer())
        << "shard " << i;
  }
}

TEST(ShardClusterTest, ConcurrentLoadBitIdenticalPagedDora) {
  ExpectConcurrentLoadBitIdentical(SmallDora());
}

TEST(ShardClusterTest, ConcurrentLoadBitIdenticalCompact) {
  EngineConfig c = SmallDora();
  c.compact_storage = true;
  ExpectConcurrentLoadBitIdentical(c);
}

/// Overlay residency is drawn from the simulator's shared RNG, so an
/// overlay cluster must load in shard order; a residency below 1 makes
/// any other draw order visible in PlacementOf.
TEST(ShardClusterTest, ConcurrentLoadBitIdenticalOverlay) {
  EngineConfig c = EngineConfig::Bionic();
  c.overlay_residency = 0.5;
  ExpectConcurrentLoadBitIdentical(c);
}

// ---------------------------------------------------------------- 2PC --

struct TxnResult {
  Status status = Status::OK();
};

Task<void> DriveOne(Cluster* cluster, ShardedTxn txn, TxnResult* out) {
  out->status = co_await cluster->Execute(std::move(txn));
  co_await cluster->Shutdown();
}

/// Builds a two-shard UpdateLocation pair against owned s_ids
/// (UpdateLocation always succeeds when the subscriber exists, unlike
/// UpdateSubscriberData whose sf_type draw may legitimately miss).
ShardedTxn CrossShardUpdate(ShardedTatp* tatp, uint64_t s0, uint64_t s1,
                            int shard0, int shard1) {
  ShardedTxn txn;
  TatpWorkload* w0 = tatp->shard_workload(shard0);
  TatpWorkload* w1 = tatp->shard_workload(shard1);
  txn.fragments.push_back(
      {shard0, w0->MakeUpdateLocation(w0->SubNbr(s0), 12345)});
  txn.fragments.push_back(
      {shard1, w1->MakeUpdateLocation(w1->SubNbr(s1), 67890)});
  return txn;
}

TEST(TwoPhaseCommitTest, CrossShardCommitWritesPrepareAndDecision) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster(2));
  ShardedTatpConfig wcfg;
  wcfg.subscribers = 40;
  ShardedTatp tatp(&cluster, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  // s_id 2 lives on shard 0, s_id 3 on shard 1 (modulo placement).
  TxnResult result;
  cluster.Start();
  sim.Spawn(DriveOne(&cluster, CrossShardUpdate(&tatp, 2, 3, 0, 1), &result));
  sim.Run();

  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(cluster.tpc_stats().started, 1u);
  EXPECT_EQ(cluster.tpc_stats().committed, 1u);
  EXPECT_EQ(cluster.tpc_stats().aborted, 0u);

  EXPECT_EQ(cluster.tpc_stats().decisions_retired, 1u);

  // Both shards hold a durable kPrepare for the same gtid; the
  // coordinator (lowest shard id = 0) additionally holds the decision —
  // and, because both branch commits became durable, the kCoordForget
  // marker that retires it.
  std::vector<uint64_t> gtids;
  for (int i = 0; i < 2; ++i) {
    auto recs = wal::ParseLogStream(Slice(cluster.shard(i)->log()->buffer()));
    ASSERT_TRUE(recs.ok());
    uint64_t gtid = 0;
    bool commit = false;
    int coord_commits = 0;
    int coord_forgets = 0;
    for (const wal::LogRecord& rec : *recs) {
      if (rec.type == wal::RecordType::kPrepare) gtid = wal::PrepareGtid(rec);
      if (rec.type == wal::RecordType::kCommit) commit = true;
      if (rec.type == wal::RecordType::kCoordCommit) ++coord_commits;
      if (rec.type == wal::RecordType::kCoordForget) ++coord_forgets;
    }
    EXPECT_NE(gtid, 0u) << "no prepare on shard " << i;
    EXPECT_TRUE(commit) << "no branch commit on shard " << i;
    gtids.push_back(gtid);

    wal::DistributedDecisions decisions;
    ASSERT_TRUE(wal::CollectDecisions(
                    Slice(cluster.shard(i)->log()->buffer()), &decisions)
                    .ok());
    if (i == 0) {
      EXPECT_EQ(coord_commits, 1) << "coordinator decision missing";
      EXPECT_EQ(coord_forgets, 1) << "decision never retired";
      EXPECT_EQ(decisions.collected, 1u);
      EXPECT_EQ(decisions.retired, 1u);
      // GC already retired the decision: every branch's commit is
      // durable, so the live decision set is empty again.
      EXPECT_TRUE(decisions.committed_gtids.empty());
    } else {
      EXPECT_EQ(coord_commits, 0) << "participant wrote a decision record";
      EXPECT_EQ(coord_forgets, 0) << "participant wrote a forget record";
      EXPECT_TRUE(decisions.committed_gtids.empty());
    }
  }
  EXPECT_EQ(gtids[0], gtids[1]);
}

TEST(TwoPhaseCommitTest, FailedBranchAbortsAtomicallyOnAllShards) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster(2));
  ShardedTatpConfig wcfg;
  wcfg.subscribers = 40;
  ShardedTatp tatp(&cluster, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  std::vector<std::map<std::string, std::string>> before;
  for (int i = 0; i < 2; ++i) {
    before.push_back(cluster.shard(i)->db().Snapshot());
  }

  // Shard 0's valid branch executes (locks held, write applied), then
  // shard 1's fragment targets a subscriber that does not exist and
  // fails — shard 0's already-executed branch must roll back with it.
  TxnResult result;
  cluster.Start();
  sim.Spawn(
      DriveOne(&cluster, CrossShardUpdate(&tatp, 2, 9999, 0, 1), &result));
  sim.Run();

  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(cluster.tpc_stats().committed, 0u);
  EXPECT_EQ(cluster.tpc_stats().aborted, 1u);
  EXPECT_GT(cluster.tpc_stats().exec_aborts, 0u);
  // Atomicity: neither shard's state moved.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.shard(i)->db().Snapshot(),
              before[static_cast<size_t>(i)])
        << "shard " << i << " mutated by an aborted distributed txn";
  }
  // Presumed abort: no decision record anywhere.
  for (int i = 0; i < 2; ++i) {
    wal::DistributedDecisions decisions;
    ASSERT_TRUE(wal::CollectDecisions(
                    Slice(cluster.shard(i)->log()->buffer()), &decisions)
                    .ok());
    EXPECT_TRUE(decisions.committed_gtids.empty());
  }
}

/// The decision-GC crash window: crash AFTER every branch commit is
/// durable but BEFORE the kCoordForget marker — the decision must still
/// be live in the surviving prefix, and recovery with it must commit the
/// prepared branches. (The window after the forget is covered by
/// CrossShardCommitWritesPrepareAndDecision: branches win via their own
/// local kCommit once the decision is retired.)
TEST(TwoPhaseCommitTest, DecisionLiveUntilForgetDurable) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster(2));
  ShardedTatpConfig wcfg;
  wcfg.subscribers = 40;
  ShardedTatp tatp(&cluster, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  TxnResult result;
  cluster.Start();
  sim.Spawn(DriveOne(&cluster, CrossShardUpdate(&tatp, 2, 3, 0, 1), &result));
  sim.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(cluster.tpc_stats().decisions_retired, 1u);

  // Truncate the coordinator's log at the forget record's byte offset:
  // the crash image holds both prepares, both branch commits, and the
  // decision — but not the GC marker.
  const std::string coord_log = cluster.shard(0)->log()->buffer();
  auto coord_recs = wal::ParseLogStream(Slice(coord_log));
  ASSERT_TRUE(coord_recs.ok());
  wal::Lsn forget_at = wal::kInvalidLsn;
  for (const wal::LogRecord& rec : *coord_recs) {
    if (rec.type == wal::RecordType::kCoordForget) forget_at = rec.lsn;
  }
  ASSERT_NE(forget_at, wal::kInvalidLsn);
  const std::string crash_image = coord_log.substr(0, static_cast<size_t>(forget_at));

  wal::DistributedDecisions decisions;
  ASSERT_TRUE(wal::CollectDecisions(Slice(crash_image), &decisions).ok());
  ASSERT_TRUE(wal::CollectDecisions(
                  Slice(cluster.shard(1)->log()->buffer()), &decisions)
                  .ok());
  EXPECT_EQ(decisions.collected, 1u);
  EXPECT_EQ(decisions.retired, 0u);
  EXPECT_EQ(decisions.committed_gtids.size(), 1u);

  // Recovery from the crash image commits the coordinator's prepared
  // branch off the still-live decision and reproduces the live state.
  Simulator fresh_sim;
  Cluster fresh(&fresh_sim, SmallCluster(2));
  ShardedTatp fresh_tatp(&fresh, wcfg);
  ASSERT_TRUE(fresh_tatp.Load().ok());
  engine::BaseStorageTarget target(&fresh.shard(0)->db());
  wal::RecoveryStats stats;
  ASSERT_TRUE(
      wal::Recover(Slice(crash_image), &target, &stats, &decisions).ok());
  EXPECT_EQ(stats.prepared_committed, 1u);
  EXPECT_EQ(stats.prepared_aborted, 0u);
  EXPECT_EQ(stats.decision_records, 1u);
  EXPECT_EQ(stats.forget_records, 0u);
  EXPECT_EQ(fresh.shard(0)->db().Snapshot(),
            cluster.shard(0)->db().Snapshot())
      << "coordinator crash image diverged from live state";
}

/// Fan-out deadlock freedom rests on wait-die over a TOTAL age order:
/// LockManager::ShouldDie breaks conflicts with a strict `<`, so two
/// distinct transactions holding EQUAL priorities would both wait — and
/// with per-shard XctManager counters all starting at 1, equal draws
/// across shards are exactly what would happen without the per-shard
/// priority domain the Cluster constructor installs. Pin that domain:
/// every priority in the cluster is globally unique (disjoint residue
/// classes mod num_shards), and a 1-shard cluster keeps priority == id
/// bit-for-bit (the passivity pin).
TEST(TwoPhaseCommitTest, WaitDiePrioritiesGloballyUnique) {
  Simulator sim;
  const int kShards = 4;
  Cluster cluster(&sim, SmallCluster(kShards));

  std::set<uint64_t> seen;
  for (int round = 0; round < 16; ++round) {
    for (int s = 0; s < kShards; ++s) {
      txn::XctManager& xm = cluster.shard(s)->xct_manager();
      // Both draw paths: a local transaction's Begin() and the pinned
      // distributed draw TwoPhaseCommit::PinPriority uses.
      const uint64_t begun = xm.Begin()->priority;
      const uint64_t drawn = xm.DrawPriority();
      for (uint64_t p : {begun, drawn}) {
        EXPECT_EQ(p % static_cast<uint64_t>(kShards),
                  static_cast<uint64_t>(s))
            << "shard " << s << " left its residue class";
        EXPECT_TRUE(seen.insert(p).second)
            << "duplicate wait-die priority " << p
            << " — ties stall both sides of a conflict";
      }
    }
  }

  Simulator one_sim;
  Cluster one(&one_sim, SmallCluster(1));
  for (uint64_t i = 1; i <= 8; ++i) {
    auto xct = one.shard(0)->xct_manager().Begin();
    EXPECT_EQ(xct->id, i);
    EXPECT_EQ(xct->priority, i);  // stride 1 / offset 0: unchanged
  }
  EXPECT_EQ(one.shard(0)->xct_manager().DrawPriority(), 9u);
}

// ----------------------------------------------------- snapshot reads --

/// Two-fragment read-only pair — routed through the prepare-free
/// snapshot path by Cluster::Execute.
ShardedTxn CrossShardRead(ShardedTatp* tatp, uint64_t s0, uint64_t s1,
                          int shard0, int shard1) {
  ShardedTxn txn;
  txn.fragments.push_back(
      {shard0, tatp->shard_workload(shard0)->MakeGetSubscriberData(s0)});
  txn.fragments.push_back(
      {shard1, tatp->shard_workload(shard1)->MakeGetSubscriberData(s1)});
  return txn;
}

TEST(SnapshotReadTest, SkipsTwoPCAndWritesNothing) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster(2));
  ShardedTatpConfig wcfg;
  wcfg.subscribers = 40;
  ShardedTatp tatp(&cluster, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  std::vector<std::string> before;
  for (int i = 0; i < 2; ++i) before.push_back(cluster.shard(i)->log()->buffer());

  TxnResult result;
  cluster.Start();
  sim.Spawn(DriveOne(&cluster, CrossShardRead(&tatp, 2, 3, 0, 1), &result));
  sim.Run();

  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(cluster.snap_stats().started, 1u);
  EXPECT_EQ(cluster.snap_stats().committed, 1u);
  EXPECT_EQ(cluster.snap_stats().aborted, 0u);
  // No 2PC machinery fired — and nothing hit either WAL: no kPrepare, no
  // decision, no branch commit record (read-only commits are log-free).
  EXPECT_EQ(cluster.tpc_stats().started, 0u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.shard(i)->log()->buffer(),
              before[static_cast<size_t>(i)])
        << "snapshot read appended to shard " << i << "'s WAL";
  }
}

/// Custom read step capturing one subscriber's vlr_location.
Engine::TxnSpec ReadLocation(Engine* eng, engine::Table* table, uint64_t s_id,
                             uint32_t* out) {
  Engine::TxnSpec spec;
  const std::string key = index::EncodeKeyU64(s_id);
  Engine::TxnStep step;
  step.table = table;
  step.keys = {key};
  step.read_only = true;
  step.fn = [eng, table, key, out](Engine::ExecContext& ctx) -> Task<Status> {
    auto r = co_await eng->ReadView(ctx, table, key);
    if (!r.ok()) co_return r.status();
    *out = workload::DecodeRow<workload::SubscriberRow>(*r).vlr_location;
    co_return Status::OK();
  };
  spec.phases.push_back({std::move(step)});
  return spec;
}

/// 2PC write pair setting BOTH subscribers' vlr_location to the same
/// value — the invariant the snapshot reader checks.
ShardedTxn SameValueUpdate(ShardedTatp* tatp, uint64_t s0, uint64_t s1,
                           uint32_t value) {
  ShardedTxn txn;
  TatpWorkload* w0 = tatp->shard_workload(0);
  TatpWorkload* w1 = tatp->shard_workload(1);
  txn.fragments.push_back({0, w0->MakeUpdateLocation(w0->SubNbr(s0), value)});
  txn.fragments.push_back({1, w1->MakeUpdateLocation(w1->SubNbr(s1), value)});
  return txn;
}

struct CutProbe {
  std::vector<std::pair<uint32_t, uint32_t>> observed;
  bool seeded = false;
  bool writer_done = false;
  bool reader_done = false;
};

Task<void> SameValueWriterLoop(Cluster* cluster, ShardedTatp* tatp, int n,
                               CutProbe* probe) {
  // i == 0 seeds the invariant; wait-die may abort a writer that loses to
  // an older snapshot reader, so every write retries until it commits.
  for (int i = 0; i <= n; ++i) {
    for (;;) {
      Status st = co_await cluster->Execute(
          SameValueUpdate(tatp, 2, 3, 0xBEE00000u + static_cast<uint32_t>(i)));
      if (st.ok()) break;
    }
    probe->seeded = true;
  }
  probe->writer_done = true;
  if (probe->reader_done) co_await cluster->Shutdown();
}

Task<void> SnapshotReaderLoop(Cluster* cluster, ShardedTatp* tatp, int n,
                              CutProbe* probe) {
  sim::Simulator* sim = cluster->simulator();
  while (!probe->seeded) co_await sim::Delay{sim, 1000};
  for (int i = 0; i < n; ++i) {
    uint32_t v0 = 0;
    uint32_t v1 = 0;
    for (;;) {
      ShardedTxn txn;
      txn.fragments.push_back(
          {0, ReadLocation(cluster->shard(0),
                           tatp->shard_workload(0)->subscriber(), 2, &v0)});
      txn.fragments.push_back(
          {1, ReadLocation(cluster->shard(1),
                           tatp->shard_workload(1)->subscriber(), 3, &v1)});
      Status st = co_await cluster->Execute(std::move(txn));
      if (st.ok()) break;
    }
    probe->observed.emplace_back(v0, v1);
  }
  probe->reader_done = true;
  if (probe->writer_done) co_await cluster->Shutdown();
}

/// Consistency: a snapshot read's join point is one virtual instant with
/// every branch's shared locks held, so no committed 2PC write can be
/// half-visible. The writer keeps both subscribers' vlr_location equal;
/// every snapshot read must observe them equal.
TEST(SnapshotReadTest, ObservesConsistentCutUnderConcurrentWriters) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster(2));
  ShardedTatpConfig wcfg;
  wcfg.subscribers = 40;
  ShardedTatp tatp(&cluster, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  CutProbe probe;
  cluster.Start();
  sim.Spawn(SameValueWriterLoop(&cluster, &tatp, 40, &probe));
  sim.Spawn(SnapshotReaderLoop(&cluster, &tatp, 40, &probe));
  sim.Run();

  ASSERT_EQ(probe.observed.size(), 40u);
  EXPECT_GE(cluster.snap_stats().committed, 40u);
  EXPECT_GE(cluster.tpc_stats().committed, 41u);
  for (size_t i = 0; i < probe.observed.size(); ++i) {
    const auto& [v0, v1] = probe.observed[i];
    EXPECT_EQ(v0, v1) << "read " << i << " split a 2PC write: shard0 saw "
                      << v0 << ", shard1 saw " << v1;
    EXPECT_GE(v0, 0xBEE00000u) << "read " << i << " preceded the seed";
  }
}

// ------------------------------------------------- sharded closed loop --

TEST(ShardClusterTest, CrossShardTrafficCommitsAndIsAttributed) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster(4));
  ShardedTatpConfig wcfg;
  wcfg.subscribers = 2000;
  wcfg.cross_shard_ratio = 0.2;
  ShardedTatp tatp(&cluster, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  DriverConfig dcfg;
  dcfg.clients = 8;
  dcfg.warmup_txns = 100;
  dcfg.measured_txns = 1000;
  DriverReport report;
  sim.Spawn(RunClosedLoop(
      &cluster, [&] { return tatp.NextTransaction(); }, dcfg, &report));
  sim.Run();

  EXPECT_EQ(report.submitted, 1000u);
  EXPECT_GT(report.cross_shard_submitted, 100u);  // ~20% of 1000
  EXPECT_GT(cluster.tpc_stats().committed, 0u);
  // Per-shard attribution: every home shard saw traffic. The totals are
  // the per-shard counters summed, so the first check above covers them.
  ASSERT_EQ(report.per_shard.size(), 4u);
  for (const auto& s : report.per_shard) EXPECT_GT(s.submitted, 0u);
  EXPECT_GT(cluster.TotalCommits(), 0u);
}

/// Distributed recovery end to end: run cross-shard traffic, then replay
/// every shard's full log into a fresh cluster with the cluster-wide
/// decision set; prepared branches with a surviving decision commit.
TEST(ShardClusterTest, DistributedRecoveryReplaysFullLog) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster(2));
  ShardedTatpConfig wcfg;
  wcfg.subscribers = 200;
  wcfg.cross_shard_ratio = 0.3;
  ShardedTatp tatp(&cluster, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  DriverConfig dcfg;
  dcfg.clients = 4;
  dcfg.warmup_txns = 0;
  dcfg.measured_txns = 300;
  sim.Spawn(RunClosedLoop(
      &cluster, [&] { return tatp.NextTransaction(); }, dcfg, nullptr));
  sim.Run();
  ASSERT_GT(cluster.tpc_stats().committed, 0u);

  wal::DistributedDecisions decisions;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(wal::CollectDecisions(
                    Slice(cluster.shard(i)->log()->buffer()), &decisions)
                    .ok());
  }
  // Decision GC retires a decision once every branch commit is durable,
  // so the LIVE set can be (much) smaller than the commit count — but a
  // kCoordCommit was collected for every 2PC commit before retirement.
  EXPECT_GE(decisions.collected, cluster.tpc_stats().committed);
  EXPECT_EQ(decisions.retired, cluster.tpc_stats().decisions_retired);

  uint64_t prepared_committed = 0;
  for (int i = 0; i < 2; ++i) {
    Simulator fresh_sim;
    Cluster fresh(&fresh_sim, SmallCluster(2));
    ShardedTatp fresh_tatp(&fresh, wcfg);
    ASSERT_TRUE(fresh_tatp.Load().ok());

    engine::BaseStorageTarget target(&fresh.shard(i)->db());
    wal::RecoveryStats stats;
    ASSERT_TRUE(wal::Recover(Slice(cluster.shard(i)->log()->buffer()),
                             &target, &stats, &decisions)
                    .ok());
    prepared_committed += stats.prepared_committed;
    EXPECT_EQ(fresh.shard(i)->db().Snapshot(),
              cluster.shard(i)->db().Snapshot())
        << "shard " << i << " recovery diverged from live state";
  }
  // The full log holds every prepared branch; with the complete decision
  // set they all commit (2 branches per distributed txn).
  EXPECT_EQ(prepared_committed, 2 * cluster.tpc_stats().committed);
}

}  // namespace
}  // namespace bionicdb::shard
