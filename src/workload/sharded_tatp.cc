#include "workload/sharded_tatp.h"

#include "common/parallel_for.h"

namespace bionicdb::workload {

ShardedTatp::ShardedTatp(shard::Cluster* cluster,
                         const ShardedTatpConfig& config)
    : cluster_(cluster),
      config_(config),
      mix_rng_(config.seed),
      cross_rng_(config.seed ^ 0xc705c4a2d1ull),
      snap_rng_(config.seed ^ 0x5e4d0caf37ull) {
  const int n = cluster->num_shards();
  // Every shard must own at least one subscriber, and a cross-shard pair
  // must exist (subscribers 0 and 1 land on different shards when n > 1).
  BIONICDB_CHECK(config.subscribers >= static_cast<uint64_t>(n));
  // The cross-shard partner draws rejection-sample until OwnerOf(s2) !=
  // OwnerOf(s1), which only terminates when a second shard owns
  // subscribers — reject the config outright on a 1-shard cluster rather
  // than silently ignoring the ratios through the n == 1 fast path.
  BIONICDB_CHECK_MSG(n > 1 || (config.cross_shard_ratio == 0.0 &&
                               config.cross_read_ratio == 0.0),
                     "cross_shard_ratio/cross_read_ratio need num_shards > 1");
  tatp_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    TatpConfig tc;
    tc.subscribers = config.subscribers;
    tc.seed = config.seed;
    tc.shard = static_cast<uint64_t>(i);
    tc.num_shards = static_cast<uint64_t>(n);
    tatp_.push_back(std::make_unique<TatpWorkload>(cluster->shard(i), tc));
  }
}

Status ShardedTatp::Load(size_t jobs) {
  // Shards load concurrently: a loader touches only its own engine's
  // tables, pages and SimDisk. The exception is the overlay, whose
  // per-row residency draws come from the simulator's shared RNG, so
  // overlay clusters load one shard at a time, in shard order.
  if (cluster_->shard(0)->UseOverlay()) jobs = 1;
  std::vector<Status> status(tatp_.size());
  common::ParallelFor(tatp_.size(), jobs,
                      [&](size_t i) { status[i] = tatp_[i]->Load(); });
  for (const Status& st : status) BIONICDB_RETURN_NOT_OK(st);
  return Status::OK();
}

shard::ShardedTxn ShardedTatp::NextTransaction() {
  shard::ShardedTxn txn;
  if (cluster_->num_shards() == 1) {
    // Verbatim delegation: same RNG object, same draw order as the
    // unsharded workload — the 1-shard passivity pin depends on this.
    txn.fragments.push_back({0, tatp_[0]->NextTransaction()});
    return txn;
  }
  const shard::Router& router = cluster_->router();
  if (config_.cross_read_ratio > 0.0 &&
      snap_rng_.Bernoulli(config_.cross_read_ratio)) {
    // Two-shard read-only pair: GetSubscriberData against subscribers on
    // different shards. Every step is read-only, so the cluster routes it
    // through the prepare-free snapshot-read path.
    const uint64_t s1 = snap_rng_.Uniform(config_.subscribers);
    uint64_t s2 = snap_rng_.Uniform(config_.subscribers);
    while (router.OwnerOf(s2) == router.OwnerOf(s1)) {
      s2 = snap_rng_.Uniform(config_.subscribers);
    }
    ++cross_read_generated_;
    const int sh1 = router.OwnerOf(s1);
    const int sh2 = router.OwnerOf(s2);
    txn.fragments.push_back(
        {sh1, tatp_[static_cast<size_t>(sh1)]->BuildTransaction(
                  TatpTxnType::kGetSubscriberData, s1)});
    txn.fragments.push_back(
        {sh2, tatp_[static_cast<size_t>(sh2)]->BuildTransaction(
                  TatpTxnType::kGetSubscriberData, s2)});
    return txn;
  }
  if (config_.cross_shard_ratio > 0.0 &&
      cross_rng_.Bernoulli(config_.cross_shard_ratio)) {
    // Two-shard distributed write: UpdateSubscriberData on two
    // subscribers owned by different shards (rejection-sampled partner).
    const uint64_t s1 = cross_rng_.Uniform(config_.subscribers);
    uint64_t s2 = cross_rng_.Uniform(config_.subscribers);
    while (router.OwnerOf(s2) == router.OwnerOf(s1)) {
      s2 = cross_rng_.Uniform(config_.subscribers);
    }
    ++cross_shard_generated_;
    const int sh1 = router.OwnerOf(s1);
    const int sh2 = router.OwnerOf(s2);
    txn.fragments.push_back(
        {sh1, tatp_[static_cast<size_t>(sh1)]->BuildTransaction(
                  TatpTxnType::kUpdateSubscriberData, s1)});
    txn.fragments.push_back(
        {sh2, tatp_[static_cast<size_t>(sh2)]->BuildTransaction(
                  TatpTxnType::kUpdateSubscriberData, s2)});
    return txn;
  }
  // Single-shard: mirror the unsharded mix draws, build on the owner.
  const uint64_t s_id = mix_rng_.Uniform(config_.subscribers);
  const TatpTxnType type = TatpMixType(mix_rng_.Uniform(100));
  const int owner = router.OwnerOf(s_id);
  txn.fragments.push_back(
      {owner, tatp_[static_cast<size_t>(owner)]->BuildTransaction(type, s_id)});
  return txn;
}

}  // namespace bionicdb::workload
