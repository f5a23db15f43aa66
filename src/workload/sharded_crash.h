// Sharded crash-recovery harness: runs sharded TATP with a high
// cross-shard ratio, samples CONSISTENT cluster-wide crash points
// (every shard's durable WAL prefix at one virtual instant), and checks
// distributed recovery at each point against a committed-transaction
// oracle — including cross-shard atomicity of every 2PC transaction.
//
// Coordinator and participant crashes both fall out of consistent cuts:
//  * a cut landing after prepares but before the coordinator's decision
//    record is a COORDINATOR crash — recovery must presume abort on
//    every participant (stats.prepared_aborted > 0);
//  * a cut landing after the decision but before a participant's local
//    commit record is a PARTICIPANT crash — recovery must commit the
//    prepared branch from the surviving decision record
//    (stats.prepared_committed > 0).
// The 2PC protocol makes the decision durable before any branch
// commits, so consistent cuts can never strand a committed branch
// without its decision; CheckCut verifies exactly that.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "wal/record.h"
#include "wal/recovery.h"

namespace bionicdb::workload {

struct ShardedCrashConfig {
  int num_shards = 3;
  uint64_t subscribers = 60;     ///< Global, across shards.
  double cross_shard_ratio = 0.4;
  int clients = 4;
  int txns = 300;                ///< Measured transactions, all clients.
  uint64_t seed = 1;
  SimTime sample_every_ns = 200000;  ///< Crash-point sampling period.
};

/// One consistent cluster-wide crash point: shard i's log survives up to
/// byte cuts[i] (its durable LSN at virtual time `time`).
struct ClusterCut {
  SimTime time = 0;
  std::vector<size_t> cuts;
};

class ShardedCrashHarness {
 public:
  explicit ShardedCrashHarness(const ShardedCrashConfig& config);

  /// All sampled crash points, ascending in virtual time (runs the
  /// workload once, lazily).
  const std::vector<ClusterCut>& samples();

  /// Crashes the whole cluster at sample `index`, recovers every shard
  /// from its surviving prefix (decisions collected across ALL
  /// prefixes), and checks each shard's state against the oracle plus
  /// cross-shard atomicity per global transaction. Returns "" on
  /// success, a divergence description otherwise. `agg` accumulates
  /// recovery stats summed over shards.
  std::string CheckCut(size_t index, wal::RecoveryStats* agg = nullptr);

  /// 2PC commits observed by the original run (test sanity checks).
  uint64_t run_2pc_commits();
  uint64_t run_commits();

 private:
  using State = std::map<std::string, std::string>;

  void EnsureRan();
  /// Expected logical state of one shard given its surviving records and
  /// the cluster-wide decision set.
  State OracleShard(size_t shard, const std::vector<wal::LogRecord>& recs,
                    const wal::DistributedDecisions& decisions) const;

  ShardedCrashConfig cfg_;
  bool ran_ = false;
  uint64_t run_2pc_commits_ = 0;
  uint64_t run_commits_ = 0;
  std::vector<std::string> logs_;            ///< Full image per shard.
  std::vector<State> initial_states_;        ///< Post-load, per shard.
  std::vector<std::vector<std::string>> table_names_;  ///< Per shard.
  std::vector<ClusterCut> samples_;
};

}  // namespace bionicdb::workload
