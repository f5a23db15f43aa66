#include "shard/cluster.h"

#include <utility>

namespace bionicdb::shard {

namespace {

std::vector<engine::Engine*> RawShards(
    const std::vector<std::unique_ptr<engine::Engine>>& shards) {
  std::vector<engine::Engine*> raw;
  raw.reserve(shards.size());
  for (const auto& s : shards) raw.push_back(s.get());
  return raw;
}

}  // namespace

Cluster::Cluster(sim::Simulator* sim, const ClusterConfig& config)
    : sim_(sim),
      shards_([&] {
        BIONICDB_CHECK(config.num_shards >= 1);
        std::vector<std::unique_ptr<engine::Engine>> shards;
        shards.reserve(static_cast<size_t>(config.num_shards));
        for (int i = 0; i < config.num_shards; ++i) {
          shards.push_back(
              std::make_unique<engine::Engine>(sim, config.engine));
          // Disjoint wait-die priority domains (priority = id * N + shard):
          // per-shard XctManager counters all start at 1, so without this
          // two transactions with different home/coordinator shards could
          // draw EQUAL priorities — and wait-die's strict `<` would let
          // both wait, re-opening the cross-shard hold-and-wait cycle the
          // shared pinned priority exists to break. At num_shards == 1
          // this is stride 1 / offset 0: priority == id, bit-identical to
          // the unsharded engine (the passivity pin).
          shards.back()->xct_manager().SetPriorityDomain(
              static_cast<uint64_t>(config.num_shards),
              static_cast<uint64_t>(i));
        }
        return shards;
      }()),
      router_(config.num_shards),
      tpc_(RawShards(shards_)) {}

sim::Task<Status> Cluster::Execute(ShardedTxn txn, int socket,
                                   uint64_t* priority) {
  BIONICDB_CHECK(!txn.fragments.empty());
  if (txn.fragments.size() == 1) {
    ShardFragment& frag = txn.fragments[0];
    co_return co_await shards_[static_cast<size_t>(frag.shard)]->Execute(
        std::move(frag.spec), socket, priority);
  }
  co_return co_await tpc_.Run(std::move(txn), socket, priority);
}

void Cluster::Start() {
  for (auto& s : shards_) s->Start();
}

sim::Task<void> Cluster::PreheatBufferPools() {
  for (auto& s : shards_) co_await s->PreheatBufferPool();
}

sim::Task<void> Cluster::Shutdown() {
  for (auto& s : shards_) co_await s->Shutdown();
}

void Cluster::ResetStats() {
  for (auto& s : shards_) s->ResetStats();
  tpc_.ResetStats();
}

void Cluster::FinishRun() {
  for (auto& s : shards_) s->FinishRun();
}

uint64_t Cluster::TotalCommits() {
  uint64_t n = 0;
  for (auto& s : shards_) n += s->metrics().commits;
  return n;
}

uint64_t Cluster::TotalAborts() {
  uint64_t n = 0;
  for (auto& s : shards_) n += s->metrics().aborts;
  return n;
}

}  // namespace bionicdb::shard
