#include "workload/sharded_crash.h"

#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "engine/engine.h"
#include "shard/cluster.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "workload/sharded_driver.h"
#include "workload/sharded_tatp.h"

namespace bionicdb::workload {
namespace {

shard::ClusterConfig HarnessClusterConfig(const ShardedCrashConfig& cfg) {
  shard::ClusterConfig cc;
  cc.num_shards = cfg.num_shards;
  cc.engine = engine::EngineConfig::Dora();
  cc.engine.num_partitions = 4;
  return cc;
}

ShardedTatpConfig HarnessWorkloadConfig(const ShardedCrashConfig& cfg) {
  ShardedTatpConfig wc;
  wc.subscribers = cfg.subscribers;
  wc.seed = cfg.seed;
  wc.cross_shard_ratio = cfg.cross_shard_ratio;
  return wc;
}

std::map<std::string, std::string> StateOf(engine::Database& db) {
  std::map<std::string, std::string> state;
  for (uint32_t id = 0; id < db.num_tables(); ++id) {
    engine::Table* t = db.GetTable(id);
    for (auto& [k, v] : t->ScanAll()) state[t->name() + "/" + k] = v;
  }
  return state;
}

/// Recovery target applying into a fresh shard's base storage.
class DbTarget : public wal::RecoveryTarget {
 public:
  explicit DbTarget(engine::Database* db) : db_(db) {}
  void RedoInsert(uint32_t t, Slice k, Slice v) override {
    BIONICDB_CHECK(db_->GetTable(t)->BasePut(k, v).ok());
  }
  void RedoUpdate(uint32_t t, Slice k, Slice v) override {
    BIONICDB_CHECK(db_->GetTable(t)->BasePut(k, v).ok());
  }
  void RedoDelete(uint32_t t, Slice k) override {
    (void)db_->GetTable(t)->BaseDelete(k);
  }

 private:
  engine::Database* db_;
};

/// The distributed commit rule, as the oracle sees it: local commits
/// win, local aborts lose, prepared branches win iff the coordinator's
/// decision survives in SOME shard's prefix.
std::unordered_set<uint64_t> CommittedSet(
    const std::vector<wal::LogRecord>& recs,
    const wal::DistributedDecisions& decisions) {
  std::unordered_set<uint64_t> committed;
  for (const wal::LogRecord& rec : recs) {
    switch (rec.type) {
      case wal::RecordType::kCommit:
        committed.insert(rec.txn_id);
        break;
      case wal::RecordType::kAbort:
        committed.erase(rec.txn_id);
        break;
      case wal::RecordType::kPrepare:
        if (decisions.committed_gtids.count(wal::PrepareGtid(rec)) > 0) {
          committed.insert(rec.txn_id);
        }
        break;
      default:
        break;
    }
  }
  return committed;
}

struct RunFlag {
  bool done = false;
};

sim::Task<void> DriveAndFlag(shard::Cluster* cluster, ShardedTatp* workload,
                             DriverConfig dcfg, RunFlag* flag) {
  co_await RunShardedClosedLoop(
      cluster, [workload] { return workload->NextTransaction(); }, dcfg,
      nullptr);
  flag->done = true;
}

/// Samples each shard's durable LSN at one virtual instant — a
/// consistent cluster-wide crash point. Consecutive duplicates (no log
/// progress between ticks) are collapsed.
sim::Task<void> SampleCuts(shard::Cluster* cluster, SimTime every,
                           RunFlag* flag, std::vector<ClusterCut>* out) {
  sim::Simulator* sim = cluster->simulator();
  while (!flag->done) {
    co_await sim::Delay{sim, every};
    ClusterCut cut;
    cut.time = sim->Now();
    for (int i = 0; i < cluster->num_shards(); ++i) {
      cut.cuts.push_back(
          static_cast<size_t>(cluster->shard(i)->log()->durable_lsn()));
    }
    if (out->empty() || out->back().cuts != cut.cuts) {
      out->push_back(std::move(cut));
    }
  }
}

}  // namespace

ShardedCrashHarness::ShardedCrashHarness(const ShardedCrashConfig& config)
    : cfg_(config) {}

const std::vector<ClusterCut>& ShardedCrashHarness::samples() {
  EnsureRan();
  return samples_;
}

uint64_t ShardedCrashHarness::run_2pc_commits() {
  EnsureRan();
  return run_2pc_commits_;
}

uint64_t ShardedCrashHarness::run_commits() {
  EnsureRan();
  return run_commits_;
}

void ShardedCrashHarness::EnsureRan() {
  if (ran_) return;
  ran_ = true;

  sim::Simulator sim;
  shard::Cluster cluster(&sim, HarnessClusterConfig(cfg_));
  ShardedTatp workload(&cluster, HarnessWorkloadConfig(cfg_));
  BIONICDB_CHECK(workload.Load().ok());

  for (int i = 0; i < cluster.num_shards(); ++i) {
    engine::Database& db = cluster.shard(i)->db();
    initial_states_.push_back(StateOf(db));
    std::vector<std::string> names;
    for (uint32_t id = 0; id < db.num_tables(); ++id) {
      names.push_back(db.GetTable(id)->name());
    }
    table_names_.push_back(std::move(names));
  }

  DriverConfig dcfg;
  dcfg.clients = cfg_.clients;
  dcfg.warmup_txns = 0;
  dcfg.measured_txns = static_cast<uint64_t>(cfg_.txns);
  RunFlag flag;
  sim.Spawn(SampleCuts(&cluster, cfg_.sample_every_ns, &flag, &samples_));
  sim.Spawn(DriveAndFlag(&cluster, &workload, dcfg, &flag));
  sim.Run();

  for (int i = 0; i < cluster.num_shards(); ++i) {
    logs_.push_back(cluster.shard(i)->log()->buffer());
  }
  run_commits_ = cluster.TotalCommits();
  run_2pc_commits_ = cluster.tpc_stats().committed;
}

ShardedCrashHarness::State ShardedCrashHarness::OracleShard(
    size_t shard, const std::vector<wal::LogRecord>& recs,
    const wal::DistributedDecisions& decisions) const {
  const std::unordered_set<uint64_t> committed = CommittedSet(recs, decisions);
  State state = initial_states_[shard];
  for (const wal::LogRecord& rec : recs) {
    if (committed.count(rec.txn_id) == 0) continue;
    const std::string key =
        table_names_[shard][rec.table_id] + "/" + rec.key;
    switch (rec.type) {
      case wal::RecordType::kInsert:
      case wal::RecordType::kUpdate:
        state[key] = rec.redo;
        break;
      case wal::RecordType::kDelete:
        state.erase(key);
        break;
      default:  // Committed txns never carry CLRs (whole-txn rollback).
        break;
    }
  }
  return state;
}

std::string ShardedCrashHarness::CheckCut(size_t index,
                                          wal::RecoveryStats* agg) {
  EnsureRan();
  BIONICDB_CHECK(index < samples_.size());
  const ClusterCut& cut = samples_[index];
  const size_t n = logs_.size();

  // Surviving prefixes + their parsed records.
  std::vector<std::string> images;
  std::vector<std::vector<wal::LogRecord>> records(n);
  for (size_t i = 0; i < n; ++i) {
    images.push_back(logs_[i].substr(0, cut.cuts[i]));
    wal::TornTailInfo torn;
    auto parsed = wal::ParseLogStream(Slice(images[i]), &torn);
    if (!parsed.ok()) {
      return "shard " + std::to_string(i) +
             ": surviving prefix unparseable: " + parsed.status().ToString();
    }
    records[i] = std::move(*parsed);
  }

  // Cluster-wide decision set, from every surviving prefix.
  wal::DistributedDecisions decisions;
  for (const std::string& image : images) {
    Status st = wal::CollectDecisions(Slice(image), &decisions);
    if (!st.ok()) return "CollectDecisions: " + st.ToString();
  }

  // Fresh cluster, recover each shard, compare against the oracle.
  sim::Simulator sim;
  shard::Cluster fresh(&sim, HarnessClusterConfig(cfg_));
  ShardedTatp workload(&fresh, HarnessWorkloadConfig(cfg_));
  BIONICDB_CHECK(workload.Load().ok());

  for (size_t i = 0; i < n; ++i) {
    engine::Database& db = fresh.shard(static_cast<int>(i))->db();
    DbTarget target(&db);
    wal::RecoveryStats stats;
    Status st = wal::Recover(Slice(images[i]), &target, &stats, &decisions);
    if (agg != nullptr) {
      agg->records_scanned += stats.records_scanned;
      agg->committed_txns += stats.committed_txns;
      agg->loser_txns += stats.loser_txns;
      agg->redo_applied += stats.redo_applied;
      agg->redo_skipped += stats.redo_skipped;
      agg->prepared_committed += stats.prepared_committed;
      agg->prepared_aborted += stats.prepared_aborted;
      agg->decision_records += stats.decision_records;
      agg->forget_records += stats.forget_records;
    }
    if (!st.ok()) {
      return "shard " + std::to_string(i) + ": recover failed: " +
             st.ToString();
    }
    const State expect = OracleShard(i, records[i], decisions);
    const State got = StateOf(db);
    if (got != expect) {
      std::ostringstream oss;
      oss << "shard " << i << " cut=" << cut.cuts[i] << " t=" << cut.time
          << ": recovered " << got.size() << " rows, oracle expects "
          << expect.size();
      for (const auto& [k, v] : expect) {
        auto it = got.find(k);
        if (it == got.end()) {
          oss << "; missing " << k;
          break;
        }
        if (it->second != v) {
          oss << "; value mismatch at " << k;
          break;
        }
      }
      return oss.str();
    }
  }

  // Cross-shard atomicity: every global transaction's branches must all
  // commit or all abort under the recovered outcome.
  std::unordered_map<uint64_t, std::vector<int>> outcomes;  // gtid -> 0/1
  for (size_t i = 0; i < n; ++i) {
    const std::unordered_set<uint64_t> committed =
        CommittedSet(records[i], decisions);
    for (const wal::LogRecord& rec : records[i]) {
      if (rec.type != wal::RecordType::kPrepare) continue;
      outcomes[wal::PrepareGtid(rec)].push_back(
          committed.count(rec.txn_id) > 0 ? 1 : 0);
    }
  }
  for (const auto& [gtid, votes] : outcomes) {
    for (int v : votes) {
      if (v != votes[0]) {
        return "atomicity violation: gtid " + std::to_string(gtid) +
               " committed on some shards and aborted on others";
      }
    }
  }
  return "";
}

}  // namespace bionicdb::workload
