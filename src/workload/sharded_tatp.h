// Sharded TATP: the standard mix spread over N engine shards, with a
// controlled fraction of cross-shard distributed transactions.
//
// Placement is modulo on s_id (shard::Router::OwnerOf): each shard's
// TatpWorkload loads exactly its residue class, drawing the full loader
// RNG stream so a shard's tables are row-for-row a partition of the
// unsharded database.
//
// Transaction generation:
//  * shards == 1 — NextTransaction delegates verbatim to the underlying
//    TatpWorkload (same RNG, same draw order), so a 1-shard cluster run
//    is bit-identical to the unsharded benchmark.
//  * shards > 1 — a mix RNG draws (s_id, type) exactly like TATP's, the
//    owning shard's workload builds the spec. With probability
//    cross_shard_ratio (drawn from a separate RNG, touched only when
//    the ratio is positive) the transaction instead becomes a two-shard
//    distributed write: UpdateSubscriberData against two subscribers on
//    different shards, committed via 2PC. Independently, with probability
//    cross_read_ratio (its own RNG, touched only when positive) it
//    becomes a two-shard READ-ONLY transaction — GetSubscriberData on two
//    subscribers on different shards — which the cluster serves through
//    the prepare-free snapshot-read path instead of 2PC.
#pragma once

#include <memory>
#include <vector>

#include "common/parallel_for.h"
#include "common/random.h"
#include "shard/cluster.h"
#include "workload/tatp.h"

namespace bionicdb::workload {

struct ShardedTatpConfig {
  uint64_t subscribers = 10000;  ///< Global count, across all shards.
  uint64_t seed = 1;
  /// Probability that a transaction is a two-shard distributed write.
  /// Only meaningful with >= 2 shards.
  double cross_shard_ratio = 0.0;
  /// Probability that a transaction is a two-shard read-only
  /// GetSubscriberData pair (snapshot-read path). Drawn before the write
  /// coin, from its own RNG. Only meaningful with >= 2 shards.
  double cross_read_ratio = 0.0;
};

class ShardedTatp {
 public:
  ShardedTatp(shard::Cluster* cluster, const ShardedTatpConfig& config);

  /// Loads every shard's partition (untimed), shards concurrently on up to
  /// `jobs` host threads (overlay clusters in shard order;
  /// docs/SHARDING.md "Bulk load").
  /// The result is bit-identical to loading the shards one after another;
  /// on failure, returns the status of the lowest-numbered failing shard.
  Status Load(size_t jobs = common::DefaultJobs());

  /// Draws the next (possibly distributed) transaction.
  shard::ShardedTxn NextTransaction();

  uint64_t cross_shard_generated() const { return cross_shard_generated_; }
  uint64_t cross_read_generated() const { return cross_read_generated_; }
  const ShardedTatpConfig& config() const { return config_; }
  TatpWorkload* shard_workload(int i) {
    return tatp_[static_cast<size_t>(i)].get();
  }

 private:
  shard::Cluster* cluster_;
  ShardedTatpConfig config_;
  Rng mix_rng_;    ///< (s_id, type) draws — mirrors TatpWorkload's mix.
  Rng cross_rng_;  ///< Cross-shard coin + partner draws; idle at ratio 0.
  Rng snap_rng_;   ///< Read-only coin + partner draws; idle at ratio 0.
  std::vector<std::unique_ptr<TatpWorkload>> tatp_;  ///< One per shard.
  uint64_t cross_shard_generated_ = 0;
  uint64_t cross_read_generated_ = 0;
};

}  // namespace bionicdb::workload
