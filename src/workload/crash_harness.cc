#include "workload/crash_harness.h"

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/parallel_for.h"
#include "common/random.h"
#include "engine/engine.h"
#include "shard/cluster.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/sharded_tatp.h"
#include "workload/tpcc.h"

namespace bionicdb::workload {
namespace {

/// Virtual time between two consistent-cut samples of the original run.
constexpr SimTime kSampleEveryNs = 200000;

shard::ClusterConfig HarnessClusterConfig(const CrashHarnessConfig& cfg,
                                          bool with_faults) {
  shard::ClusterConfig cc;
  cc.num_shards = cfg.num_shards;
  cc.engine = HarnessEngineConfig(cfg.mode);
  if (with_faults) cc.engine.fault_plan = cfg.fault_plan;
  return cc;
}

/// One cluster with its workload loaded; keeps the workload object alive
/// so NextTransaction can be called while the simulator runs.
struct Instance {
  sim::Simulator sim;
  shard::Cluster cluster;
  std::unique_ptr<ShardedTatp> tatp;
  std::unique_ptr<TpccWorkload> tpcc;

  Instance(const CrashHarnessConfig& cfg, bool with_faults)
      : cluster(&sim, HarnessClusterConfig(cfg, with_faults)) {
    if (cfg.use_tpcc) {
      BIONICDB_CHECK_MSG(cfg.num_shards == 1,
                         "the crash harness runs TPC-C on one shard");
      TpccConfig tc;
      tc.warehouses = 1;
      tc.districts_per_warehouse = 2;
      tc.customers_per_district = cfg.scale;
      tc.items = 100;
      tc.initial_orders_per_district = 10;
      tc.seed = cfg.seed;
      tpcc = std::make_unique<TpccWorkload>(cluster.shard(0), tc);
      BIONICDB_CHECK(tpcc->Load().ok());
    } else {
      ShardedTatpConfig tc;
      tc.subscribers = static_cast<uint64_t>(cfg.scale);
      tc.seed = cfg.seed;
      tc.cross_shard_ratio = cfg.cross_shard_ratio;
      tatp = std::make_unique<ShardedTatp>(&cluster, tc);
      BIONICDB_CHECK(tatp->Load().ok());
    }
  }

  shard::ShardedTxn Next() {
    if (tatp) return tatp->NextTransaction();
    shard::ShardedTxn txn;
    txn.fragments.push_back({0, tpcc->NextTransaction()});
    return txn;
  }
};

struct RunFlag {
  bool done = false;
  SimTime end_ns = 0;
};

sim::Task<void> DriveAndFlag(Instance* inst, DriverConfig dcfg,
                             RunFlag* flag) {
  co_await RunClosedLoop(
      &inst->cluster, [inst] { return inst->Next(); }, dcfg, nullptr);
  flag->done = true;
  flag->end_ns = inst->sim.Now();
}

/// Samples each shard's durable LSN at one virtual instant — a consistent
/// cluster-wide crash point — until the driver finishes. It only reads, so
/// the run it watches is the run without it. Consecutive duplicates (no
/// log progress between ticks) are collapsed. It stops re-arming once no
/// other event is pending: a deadlocked driver then lets the simulator
/// quiesce, and Run()'s live-task check reports it.
sim::Task<void> SampleCuts(shard::Cluster* cluster, RunFlag* flag,
                           std::vector<CrashHarness::CutSample>* out) {
  sim::Simulator* sim = cluster->simulator();
  while (!flag->done && sim->events_pending() > 0) {
    co_await sim::Delay{sim, kSampleEveryNs};
    CrashHarness::CutSample sample;
    sample.time = sim->Now();
    for (int i = 0; i < cluster->num_shards(); ++i) {
      sample.point.cuts.push_back(
          static_cast<size_t>(cluster->shard(i)->log()->durable_lsn()));
    }
    if (out->empty() || out->back().point.cuts != sample.point.cuts) {
      out->push_back(std::move(sample));
    }
  }
}

/// The distributed commit rule, as the oracle sees it: local commits win,
/// local aborts lose, prepared branches win iff the coordinator's decision
/// survives in SOME shard's prefix. An unsharded log has no prepares.
std::unordered_set<uint64_t> CommittedSet(
    std::span<const wal::LogRecord> recs,
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

/// Adds `s`'s counters into `*sum`. The torn-tail and checkpoint fields
/// describe one log, so they take `s`'s values.
void Accumulate(const wal::RecoveryStats& s, wal::RecoveryStats* sum) {
  sum->records_scanned += s.records_scanned;
  sum->committed_txns += s.committed_txns;
  sum->loser_txns += s.loser_txns;
  sum->redo_applied += s.redo_applied;
  sum->redo_skipped += s.redo_skipped;
  sum->prepared_committed += s.prepared_committed;
  sum->prepared_aborted += s.prepared_aborted;
  sum->decision_records += s.decision_records;
  sum->forget_records += s.forget_records;
  sum->checkpoint_lsn = s.checkpoint_lsn;
  sum->torn_tail = s.torn_tail;
}

}  // namespace

CrashHarnessConfig CrashHarnessConfig::ThreeShardCrossShard() {
  CrashHarnessConfig cfg;
  cfg.num_shards = 3;
  cfg.scale = 60;
  cfg.cross_shard_ratio = 0.4;
  cfg.txns = 300;
  return cfg;
}

engine::EngineConfig HarnessEngineConfig(engine::EngineMode mode) {
  switch (mode) {
    case engine::EngineMode::kConventional:
      return engine::EngineConfig::Conventional();
    case engine::EngineMode::kDora: {
      engine::EngineConfig c = engine::EngineConfig::Dora();
      c.num_partitions = 4;
      return c;
    }
    case engine::EngineMode::kBionic: {
      engine::EngineConfig c = engine::EngineConfig::Bionic();
      c.num_partitions = 4;
      return c;
    }
  }
  return engine::EngineConfig::Dora();
}

const char* TailFaultName(TailFault f) {
  switch (f) {
    case TailFault::kCleanCut:
      return "clean_cut";
    case TailFault::kZeroFill:
      return "zero_fill";
    case TailFault::kBitFlip:
      return "bit_flip";
  }
  return "?";
}

CrashHarness::CrashHarness(const CrashHarnessConfig& config) : cfg_(config) {}

const CrashRunResult& CrashHarness::Run() {
  EnsureRan();
  return result_;
}

const std::vector<size_t>& CrashHarness::record_offsets(int shard) {
  EnsureRan();
  return offsets_[static_cast<size_t>(shard)];
}

const std::vector<CrashHarness::CutSample>& CrashHarness::samples() {
  EnsureRan();
  return samples_;
}

void CrashHarness::EnsureRan() {
  if (ran_) return;
  ran_ = true;

  Instance inst(cfg_, /*with_faults=*/true);
  const int n = inst.cluster.num_shards();
  for (int i = 0; i < n; ++i) {
    engine::Database& db = inst.cluster.shard(i)->db();
    initial_states_.push_back(db.Snapshot());
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
  inst.sim.Spawn(SampleCuts(&inst.cluster, &flag, &samples_));
  inst.sim.Spawn(DriveAndFlag(&inst, dcfg, &flag));
  inst.sim.Run();

  result_.commits = inst.cluster.TotalCommits();
  result_.aborts = inst.cluster.TotalAborts();
  result_.tpc_commits = inst.cluster.tpc_stats().committed;
  result_.end_time_ns = flag.end_ns;
  result_.events_processed = inst.sim.events_processed();
  for (int i = 0; i < n; ++i) {
    engine::Engine* shard = inst.cluster.shard(i);
    const engine::RunMetrics& m = shard->metrics();
    result_.faults_injected += m.faults_injected;
    result_.durability_failures += m.durability_failures;
    result_.hw_fallbacks += m.hw_fallbacks;
    result_.shards.push_back({shard->log()->buffer(),
                              shard->log()->durable_lsn(),
                              shard->log()->stats()});

    // The untouched image must parse end-to-end: the oracle is built from
    // it.
    Result<std::vector<wal::LogRecord>> parsed =
        wal::ParseLogStream(Slice(result_.shards.back().log));
    BIONICDB_CHECK(parsed.ok());
    records_.push_back(std::move(parsed.value()));
    std::vector<size_t> offsets;
    offsets.reserve(records_.back().size());
    // (txn, table, key) of every logged forward write, for the CLR check.
    std::set<std::tuple<uint64_t, uint32_t, std::string>> written;
    for (const wal::LogRecord& r : records_.back()) {
      // Quiescent checkpoints change what recovery replays; this oracle
      // does not model them, and no workload run here takes one.
      BIONICDB_CHECK(r.type != wal::RecordType::kCheckpoint);
      offsets.push_back(static_cast<size_t>(r.lsn));
      switch (r.type) {
        case wal::RecordType::kInsert:
        case wal::RecordType::kUpdate:
        case wal::RecordType::kDelete:
          written.emplace(r.txn_id, r.table_id, r.key);
          break;
        case wal::RecordType::kClr:
          // A CLR compensates a write its own transaction logged earlier.
          BIONICDB_CHECK_MSG(
              written.count({r.txn_id, r.table_id, r.key}) != 0,
              "CLR at LSN %llu: txn %llu never logged a write to table %u "
              "under that key",
              static_cast<unsigned long long>(r.lsn),
              static_cast<unsigned long long>(r.txn_id), r.table_id);
          break;
        default:
          break;
      }
    }
    offsets_.push_back(std::move(offsets));
  }
}

std::string CrashHarness::CheckCrashPoint(const CrashPoint& point,
                                          wal::RecoveryStats* stats) {
  EnsureRan();
  const size_t n = result_.shards.size();
  BIONICDB_CHECK(point.cuts.size() == n);
  BIONICDB_CHECK_MSG(n == 1 || point.fault == TailFault::kCleanCut,
                     "multi-shard crash points take clean cuts only");

  // 1. Mangle the tail. surviving[i] holds the records that outlive it.
  std::vector<std::string> images(n);
  std::vector<std::span<const wal::LogRecord>> surviving(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string& log = result_.shards[i].log;
    const std::vector<wal::LogRecord>& recs = records_[i];
    const size_t cut = std::min(point.cuts[i], log.size());
    Rng rng(point.seed ^ (0x9E3779B97F4A7C15ull * (cut + 1)));
    images[i] = log.substr(0, cut);
    size_t kept = 0;  // Records wholly inside the cut.
    while (kept < recs.size() &&
           recs[kept].lsn + recs[kept].SerializedSize() <= cut) {
      ++kept;
    }
    switch (point.fault) {
      case TailFault::kCleanCut:
        break;
      case TailFault::kZeroFill:
        // Preallocated log file: the crash point is followed by a zero run.
        images[i].append(257 + rng.Uniform(2048), '\0');
        break;
      case TailFault::kBitFlip: {
        // Flip one bit in the last record wholly inside the cut, past its
        // length field, so the parser sees a satisfiable length and a
        // failing CRC: a clean kCorruptRecord stop that must drop exactly
        // this record.
        if (kept == 0) break;  // Nothing durable to flip: plain truncation.
        --kept;
        const size_t start = static_cast<size_t>(recs[kept].lsn);
        const size_t end = start + recs[kept].SerializedSize();
        images[i].resize(end);
        const size_t pos = start + 4 + rng.Uniform(end - start - 4);
        images[i][pos] = static_cast<char>(
            static_cast<unsigned char>(images[i][pos]) ^
            (1u << rng.Uniform(8)));
        break;
      }
    }
    surviving[i] = std::span(recs).first(kept);
  }
  const auto where = [&](size_t i) {
    return "shard " + std::to_string(i) + " " + TailFaultName(point.fault) +
           " cut=" + std::to_string(point.cuts[i]) + " (" +
           std::to_string(surviving[i].size()) + " records survive)";
  };

  // 2. Cluster-wide decision set, from every surviving prefix.
  wal::DistributedDecisions decisions;
  for (size_t i = 0; i < n; ++i) {
    const Status st = wal::CollectDecisions(Slice(images[i]), &decisions);
    if (!st.ok()) return where(i) + ": collect decisions: " + st.ToString();
  }

  Instance fresh(cfg_, /*with_faults=*/false);
  std::vector<std::unordered_set<uint64_t>> committed(n);
  for (size_t i = 0; i < n; ++i) {
    // 3. Recover the shard.
    engine::Database& db = fresh.cluster.shard(static_cast<int>(i))->db();
    engine::BaseStorageTarget target(&db);
    wal::RecoveryStats shard_stats;
    const Status rs =
        wal::Recover(Slice(images[i]), &target, &shard_stats, &decisions);
    if (stats != nullptr) Accumulate(shard_stats, stats);
    if (!rs.ok()) return where(i) + ": recover failed: " + rs.ToString();

    // 4. Compare with the oracle: the loaded state plus the effects of
    // every committed transaction among the surviving records.
    committed[i] = CommittedSet(surviving[i], decisions);
    State expect = initial_states_[i];
    for (const wal::LogRecord& r : surviving[i]) {
      if (committed[i].count(r.txn_id) == 0) continue;
      const std::string key = table_names_[i][r.table_id] + "/" + r.key;
      switch (r.type) {
        case wal::RecordType::kInsert:
        case wal::RecordType::kUpdate:
          expect[key] = r.redo;
          break;
        case wal::RecordType::kDelete:
          expect.erase(key);
          break;
        default:  // Committed txns never carry CLRs (whole-txn rollback).
          break;
      }
    }
    const State got = db.Snapshot();
    if (got == expect) continue;
    std::ostringstream oss;
    oss << where(i) << ": recovered " << got.size()
        << " rows, oracle expects " << expect.size();
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
    for (const auto& [k, v] : got) {
      (void)v;
      if (expect.count(k) == 0) {
        oss << "; unexpected " << k;
        break;
      }
    }
    return oss.str();
  }

  // 5. Cross-shard atomicity: every global transaction's branches must all
  // commit or all abort under the recovered outcome.
  std::unordered_map<uint64_t, std::vector<bool>> outcomes;
  for (size_t i = 0; i < n; ++i) {
    for (const wal::LogRecord& r : surviving[i]) {
      if (r.type != wal::RecordType::kPrepare) continue;
      outcomes[wal::PrepareGtid(r)].push_back(committed[i].count(r.txn_id) >
                                              0);
    }
  }
  for (const auto& [gtid, votes] : outcomes) {
    for (bool v : votes) {
      if (v != votes[0]) {
        return "atomicity violation: gtid " + std::to_string(gtid) +
               " committed on some shards and aborted on others";
      }
    }
  }
  return "";
}

std::vector<std::string> CrashHarness::CheckCrashPoints(
    const std::vector<CrashPoint>& points, size_t jobs,
    wal::RecoveryStats* stats) {
  EnsureRan();  // Serially; the parallel phase below only reads.
  std::vector<wal::RecoveryStats> point_stats(points.size());
  std::vector<std::string> results =
      common::RunGrid<std::string>(points.size(), jobs, [&](size_t i) {
        return CheckCrashPoint(points[i], &point_stats[i]);
      });
  if (stats != nullptr) {
    for (const wal::RecoveryStats& s : point_stats) Accumulate(s, stats);
  }
  return results;
}

}  // namespace bionicdb::workload
