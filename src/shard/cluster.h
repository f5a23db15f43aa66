// Cluster: N engine shards inside ONE simulator.
//
// Each shard is a full engine — its own DORA partitions, WAL, buffer
// pool / compact store, hardware units, flight recorder — constructed
// from one shared EngineConfig template. Virtual time is global: a
// cross-shard transaction's prepare on shard 2 and decision on shard 0
// interleave with single-shard traffic on the same calendar queue, so
// 2PC latency shows up in the same timelines and histograms as
// everything else (the obs::Stage::kTwoPC* stage quartet).
//
// Passivity: a 1-shard cluster is the unsharded engine. Execute() on a
// single-fragment transaction forwards straight into Engine::Execute —
// no extra simulator events, no extra RNG draws — so the 1-shard
// closed-loop TATP run reproduces the unsharded benchmark bit-for-bit
// (tools/check_bench.py --shard pins this).
#pragma once

#include <memory>
#include <vector>

#include "engine/config.h"
#include "engine/engine.h"
#include "shard/router.h"
#include "shard/two_phase_commit.h"
#include "sim/simulator.h"

namespace bionicdb::shard {

struct ClusterConfig {
  int num_shards = 1;
  /// Template applied to every shard (partitions, mode, log device,
  /// compact storage, ... are per-shard).
  engine::EngineConfig engine;
  /// Route fully read-only cross-shard transactions through the
  /// prepare-free snapshot-read path instead of 2PC.
  bool snapshot_reads = true;
};

class Cluster {
 public:
  Cluster(sim::Simulator* sim, const ClusterConfig& config);
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(Cluster);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  engine::Engine* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }
  const Router& router() const { return router_; }
  sim::Simulator* simulator() { return sim_; }
  const TwoPhaseCommitStats& tpc_stats() const { return tpc_.stats(); }
  const SnapshotReadStats& snap_stats() const { return tpc_.snap_stats(); }

  /// Routes one transaction: single fragment -> that shard's
  /// Engine::Execute (the passivity-critical fast path); fully read-only
  /// multi-fragment -> prepare-free snapshot read (when enabled);
  /// otherwise 2PC.
  sim::Task<Status> Execute(ShardedTxn txn, int socket = 0,
                            uint64_t* priority = nullptr);

  // Lifecycle fan-out (same contract as the single-engine calls).
  void Start();
  sim::Task<void> PreheatBufferPools();
  sim::Task<void> Shutdown();
  void ResetStats();
  void FinishRun();

  // Cluster-wide roll-ups over shard metrics.
  uint64_t TotalCommits();
  uint64_t TotalAborts();

 private:
  sim::Simulator* sim_;
  std::vector<std::unique_ptr<engine::Engine>> shards_;
  Router router_;
  TwoPhaseCommit tpc_;
  bool snapshot_reads_;
};

}  // namespace bionicdb::shard
