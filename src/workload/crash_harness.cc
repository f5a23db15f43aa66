#include "workload/crash_harness.h"

#include <memory>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "common/parallel_for.h"
#include "common/random.h"
#include "engine/engine.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

namespace bionicdb::workload {
namespace {

engine::EngineConfig ModeConfig(engine::EngineMode mode) {
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

/// Recovery target applying into fresh tables' base storage.
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

std::map<std::string, std::string> StateOf(engine::Database& db) {
  std::map<std::string, std::string> state;
  for (uint32_t id = 0; id < db.num_tables(); ++id) {
    engine::Table* t = db.GetTable(id);
    for (auto& [k, v] : t->ScanAll()) state[t->name() + "/" + k] = v;
  }
  return state;
}

/// One engine with its workload loaded; keeps the workload object alive so
/// NextTransaction can be called while the simulator runs.
struct Instance {
  sim::Simulator sim;
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<TatpWorkload> tatp;
  std::unique_ptr<TpccWorkload> tpcc;

  Instance(const CrashHarnessConfig& cfg, bool with_faults) {
    engine::EngineConfig ec = ModeConfig(cfg.mode);
    if (with_faults) ec.fault_plan = cfg.fault_plan;
    engine = std::make_unique<engine::Engine>(&sim, ec);
    if (cfg.use_tpcc) {
      TpccConfig tc;
      tc.warehouses = 1;
      tc.districts_per_warehouse = 2;
      tc.customers_per_district = cfg.scale;
      tc.items = 100;
      tc.initial_orders_per_district = 10;
      tc.seed = cfg.seed;
      tpcc = std::make_unique<TpccWorkload>(engine.get(), tc);
      BIONICDB_CHECK(tpcc->Load().ok());
    } else {
      TatpConfig tc;
      tc.subscribers = static_cast<uint64_t>(cfg.scale);
      tc.seed = cfg.seed;
      tatp = std::make_unique<TatpWorkload>(engine.get(), tc);
      BIONICDB_CHECK(tatp->Load().ok());
    }
  }

  engine::Engine::TxnSpec Next() {
    return tpcc ? tpcc->NextTransaction() : tatp->NextTransaction();
  }
};

}  // namespace

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

const std::vector<size_t>& CrashHarness::record_offsets() {
  EnsureRan();
  return offsets_;
}

void CrashHarness::EnsureRan() {
  if (ran_) return;
  ran_ = true;

  Instance inst(cfg_, /*with_faults=*/true);
  initial_state_ = StateOf(inst.engine->db());
  for (uint32_t id = 0; id < inst.engine->db().num_tables(); ++id) {
    table_names_.push_back(inst.engine->db().GetTable(id)->name());
  }

  DriverConfig dcfg;
  dcfg.clients = cfg_.clients;
  dcfg.warmup_txns = 0;
  dcfg.measured_txns = static_cast<uint64_t>(cfg_.txns);
  inst.sim.Spawn(RunClosedLoop(
      inst.engine.get(), [&inst]() { return inst.Next(); }, dcfg, nullptr));
  inst.sim.Run();

  const engine::RunMetrics& m = inst.engine->metrics();
  result_.log = inst.engine->log()->buffer();
  result_.durable_lsn = inst.engine->log()->durable_lsn();
  result_.commits = m.commits;
  result_.aborts = m.aborts;
  result_.log_stats = inst.engine->log()->stats();
  result_.faults_injected = m.faults_injected;
  result_.durability_failures = m.durability_failures;
  result_.hw_fallbacks = m.hw_fallbacks;
  result_.io_errors = m.io_errors;
  result_.end_time_ns = inst.sim.Now();
  result_.events_processed = inst.sim.events_processed();

  // The untouched image must parse end-to-end: the oracle is built from it.
  Result<std::vector<wal::LogRecord>> parsed =
      wal::ParseLogStream(Slice(result_.log));
  BIONICDB_CHECK(parsed.ok());
  records_ = std::move(parsed.value());
  offsets_.reserve(records_.size());
  // (txn, table, key) of every logged forward write, for the CLR check.
  std::set<std::tuple<uint64_t, uint32_t, std::string>> written;
  for (const wal::LogRecord& r : records_) {
    // Quiescent checkpoints change what recovery replays; this oracle does
    // not model them, and no workload run here takes one.
    BIONICDB_CHECK(r.type != wal::RecordType::kCheckpoint);
    offsets_.push_back(static_cast<size_t>(r.lsn));
    switch (r.type) {
      case wal::RecordType::kInsert:
      case wal::RecordType::kUpdate:
      case wal::RecordType::kDelete:
        written.emplace(r.txn_id, r.table_id, r.key);
        break;
      case wal::RecordType::kClr:
        // A CLR compensates a write its own transaction logged earlier.
        BIONICDB_CHECK_MSG(written.count({r.txn_id, r.table_id, r.key}) != 0,
                           "CLR at LSN %llu: txn %llu never logged a write "
                           "to table %u under that key",
                           static_cast<unsigned long long>(r.lsn),
                           static_cast<unsigned long long>(r.txn_id),
                           r.table_id);
        break;
      default:
        break;
    }
  }
}

CrashHarness::State CrashHarness::Oracle(size_t oracle_len) const {
  std::unordered_set<uint64_t> committed;
  for (const wal::LogRecord& r : records_) {
    if (r.lsn + r.SerializedSize() > oracle_len) break;
    if (r.type == wal::RecordType::kCommit) {
      committed.insert(r.txn_id);
    } else if (r.type == wal::RecordType::kAbort) {
      committed.erase(r.txn_id);
    }
  }
  State state = initial_state_;
  for (const wal::LogRecord& r : records_) {
    if (r.lsn + r.SerializedSize() > oracle_len) break;
    if (committed.count(r.txn_id) == 0) continue;
    const std::string key = table_names_[r.table_id] + "/" + r.key;
    switch (r.type) {
      case wal::RecordType::kInsert:
      case wal::RecordType::kUpdate:
        state[key] = r.redo;
        break;
      case wal::RecordType::kDelete:
        state.erase(key);
        break;
      default:  // Begin/Commit/Abort carry no effects; committed txns
        break;  // never carry CLRs under whole-transaction rollback.
    }
  }
  return state;
}

std::string CrashHarness::CheckCrashPoint(size_t cut, TailFault fault,
                                          uint64_t seed,
                                          wal::RecoveryStats* stats_out) {
  EnsureRan();
  if (cut > result_.log.size()) cut = result_.log.size();
  Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (cut + 1)));

  std::string image = result_.log.substr(0, cut);
  size_t oracle_len = cut;
  switch (fault) {
    case TailFault::kCleanCut:
      break;
    case TailFault::kZeroFill:
      // Preallocated log file: the crash point is followed by a zero run.
      image.append(257 + rng.Uniform(2048), '\0');
      break;
    case TailFault::kBitFlip: {
      // Snap to the last record wholly inside the cut and flip one bit in
      // its body past the length field, so the parser sees a satisfiable
      // length and a failing CRC: a clean kCorruptRecord stop that must
      // drop exactly this record.
      size_t start = 0;
      size_t end = 0;
      for (size_t i = 0; i < records_.size(); ++i) {
        const size_t rec_end = offsets_[i] + records_[i].SerializedSize();
        if (rec_end > cut) break;
        start = offsets_[i];
        end = rec_end;
      }
      if (end == 0) break;  // Nothing durable to flip: plain truncation.
      image.resize(end);
      const size_t pos = start + 4 + rng.Uniform(end - start - 4);
      image[pos] = static_cast<char>(
          static_cast<unsigned char>(image[pos]) ^ (1u << rng.Uniform(8)));
      oracle_len = start;
      break;
    }
  }

  Instance fresh(cfg_, /*with_faults=*/false);
  DbTarget target(&fresh.engine->db());
  wal::RecoveryStats stats;
  const Status rs = wal::Recover(Slice(image), &target, &stats);
  if (stats_out != nullptr) *stats_out = stats;
  if (!rs.ok()) {
    std::ostringstream oss;
    oss << TailFaultName(fault) << " cut=" << cut
        << ": recover failed: " << rs.ToString();
    return oss.str();
  }

  const State expect = Oracle(oracle_len);
  const State got = StateOf(fresh.engine->db());
  if (got == expect) return "";

  std::ostringstream oss;
  oss << TailFaultName(fault) << " cut=" << cut << " oracle_len=" << oracle_len
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
  for (const auto& [k, v] : got) {
    (void)v;
    if (expect.count(k) == 0) {
      oss << "; unexpected " << k;
      break;
    }
  }
  return oss.str();
}

std::vector<std::string> CrashHarness::CheckCrashPoints(
    const std::vector<CrashPoint>& points, size_t jobs) {
  EnsureRan();  // Serially; the parallel phase below only reads.
  return common::RunGrid<std::string>(points.size(), jobs, [&](size_t i) {
    const CrashPoint& p = points[i];
    return CheckCrashPoint(p.cut, p.fault, p.seed);
  });
}

}  // namespace bionicdb::workload
