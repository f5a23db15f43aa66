// Differential tests: the threaded execution backend against the simulator
// as determinism oracle (docs/EXECUTION.md). The same workload stream on
// the same seed must produce the same per-transaction status codes, the
// same log records per transaction and the same final table contents on
// both backends, for every engine mode and both storage forms (paged and
// compact); a concurrent threaded run must match a WAL-replay
// reconstruction; the scan and maintenance ops must agree across backends;
// and the crash harness must never find an acknowledged commit missing
// from the durable log. The substrate's own pieces — the leader/follower
// group commit, the spin-then-park completion and the partition token —
// get targeted cases of their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/engine.h"
#include "exec/threaded.h"
#include "index/codec.h"
#include "sim/simulator.h"
#include "wal/record.h"
#include "workload/crash_harness.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

namespace bionicdb::exec {
namespace {

using engine::Engine;
using engine::EngineConfig;
using engine::EngineMode;
using sim::Simulator;
using workload::HarnessEngineConfig;
using workload::TatpConfig;
using workload::TatpWorkload;
using workload::TpccConfig;
using workload::TpccWorkload;

/// One oracle configuration: an engine mode and a storage form. Four bytes,
/// mode first, so a paged case prints exactly like a bare EngineMode and
/// keeps its ctest name.
struct OracleCase {
  uint8_t mode;  ///< EngineMode value.
  bool compact;
  uint8_t zero[2] = {};
};
static_assert(sizeof(OracleCase) == sizeof(EngineMode));

OracleCase Paged(EngineMode m) { return {static_cast<uint8_t>(m), false}; }
OracleCase Compact(EngineMode m) { return {static_cast<uint8_t>(m), true}; }
EngineMode ModeOf(const OracleCase& c) {
  return static_cast<EngineMode>(c.mode);
}

EngineConfig ConfigFor(const OracleCase& c) {
  EngineConfig config = HarnessEngineConfig(ModeOf(c));
  config.compact_storage = c.compact;
  return config;
}

/// Aborts the test binary with a message if the scope is still running
/// after `limit`. A lost wakeup shows up as a hang; this turns it into a
/// named failure instead of a ctest timeout.
class Watchdog {
 public:
  Watchdog(const char* what, std::chrono::seconds limit)
      : thread_([this, what, limit] {
          std::unique_lock<std::mutex> lk(mu_);
          if (!cv_.wait_for(lk, limit, [&] { return done_; })) {
            std::fprintf(stderr, "watchdog: %s still running after %llds\n",
                         what, static_cast<long long>(limit.count()));
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

uint64_t CountCommitRecords(const std::string& stream) {
  auto parsed = wal::ParseLogStream(Slice(stream));
  EXPECT_TRUE(parsed.ok());
  uint64_t commits = 0;
  if (!parsed.ok()) return commits;
  for (const wal::LogRecord& rec : *parsed) {
    if (rec.type == wal::RecordType::kCommit) ++commits;
  }
  return commits;
}

/// Final state: per-table sorted (key, record) contents.
using TableDump = std::vector<std::pair<std::string, std::string>>;

std::vector<TableDump> DumpTables(Engine& engine) {
  std::vector<TableDump> dumps;
  for (uint32_t i = 0; i < engine.db().num_tables(); ++i) {
    dumps.push_back(engine.db().GetTable(i)->ScanAll());
  }
  return dumps;
}

struct SeqResult {
  std::vector<int> codes;  ///< Status code per transaction, in order.
  std::vector<TableDump> tables;
  std::string log;  ///< The whole record stream.
};

/// A log's records grouped by transaction id, each group as a sorted list
/// of (type, table id, key, redo, undo). LSNs stay out: on threads the
/// actions of one phase append in host order.
using TxnRecords = std::map<
    uint64_t,
    std::vector<std::tuple<int, uint32_t, std::string, std::string,
                           std::string>>>;

TxnRecords RecordsByTxn(const std::string& stream) {
  auto parsed = wal::ParseLogStream(Slice(stream));
  EXPECT_TRUE(parsed.ok());
  TxnRecords groups;
  if (!parsed.ok()) return groups;
  for (const wal::LogRecord& r : *parsed) {
    groups[r.txn_id].emplace_back(static_cast<int>(r.type), r.table_id,
                                  r.key, r.redo, r.undo);
  }
  for (auto& [txn, records] : groups) {
    std::sort(records.begin(), records.end());
  }
  return groups;
}

/// Both backends wrote the same records; serial (Conventional) execution
/// also orders them identically.
void ExpectSameLog(const std::string& simulated, const std::string& threaded,
                   EngineMode mode) {
  EXPECT_EQ(RecordsByTxn(simulated), RecordsByTxn(threaded));
  if (mode == EngineMode::kConventional) {
    EXPECT_EQ(simulated, threaded);
  }
}

sim::Task<void> DriveSimTatp(Engine* eng, TatpWorkload* w, int n,
                             std::vector<int>* codes) {
  for (int i = 0; i < n; ++i) {
    uint64_t priority = 0;
    Status st = co_await eng->Execute(w->NextTransaction(), 0, &priority);
    codes->push_back(static_cast<int>(st.code()));
  }
  co_await eng->Shutdown();
}

SeqResult RunSimTatp(const EngineConfig& config, uint64_t seed, int n) {
  Simulator sim;
  Engine engine(&sim, config);
  TatpConfig wcfg;
  wcfg.subscribers = 300;
  wcfg.seed = seed;
  TatpWorkload tatp(&engine, wcfg);
  EXPECT_TRUE(tatp.Load().ok());
  engine.Start();
  SeqResult r;
  sim.Spawn(DriveSimTatp(&engine, &tatp, n, &r.codes));
  sim.Run();
  r.tables = DumpTables(engine);
  r.log = engine.log()->buffer();
  return r;
}

SeqResult RunThreadedTatp(const EngineConfig& config, uint64_t seed,
                          int n) {
  Simulator sim;
  Engine engine(&sim, config);
  TatpConfig wcfg;
  wcfg.subscribers = 300;
  wcfg.seed = seed;
  TatpWorkload tatp(&engine, wcfg);
  EXPECT_TRUE(tatp.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 1;
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();
  SeqResult r;
  for (int i = 0; i < n; ++i) {
    uint64_t priority = 0;
    Status st = backend.Execute(tatp.NextTransaction(), &priority);
    r.codes.push_back(static_cast<int>(st.code()));
  }
  backend.Shutdown();  // final flush: DurablePrefix() is the whole stream
  r.tables = DumpTables(engine);
  r.log = backend.wal().DurablePrefix();
  return r;
}

class BackendModeTest : public ::testing::TestWithParam<OracleCase> {};

// The determinism-oracle contract, sequentially: same seed, same workload
// stream -> identical status codes, log records and final table contents
// on both backends. Three seeds per case.
TEST_P(BackendModeTest, TatpSequentialMatchesSimulator) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SeqResult simulated = RunSimTatp(ConfigFor(GetParam()), seed, 200);
    SeqResult threaded = RunThreadedTatp(ConfigFor(GetParam()), seed, 200);
    EXPECT_EQ(simulated.codes, threaded.codes) << "seed " << seed;
    ASSERT_EQ(simulated.tables.size(), threaded.tables.size());
    for (size_t t = 0; t < simulated.tables.size(); ++t) {
      EXPECT_EQ(simulated.tables[t], threaded.tables[t])
          << "seed " << seed << " table " << t;
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectSameLog(simulated.log, threaded.log, ModeOf(GetParam()));
  }
}

sim::Task<void> DriveSimTpcc(Engine* eng, TpccWorkload* w, int n,
                             std::vector<int>* codes) {
  for (int i = 0; i < n; ++i) {
    uint64_t priority = 0;
    Status st = co_await eng->Execute(w->NextTransaction(), 0, &priority);
    codes->push_back(static_cast<int>(st.code()));
  }
  co_await eng->Shutdown();
}

// TPC-C adds dynamic phases (StockLevel) and multi-phase read-write mixes.
TEST_P(BackendModeTest, TpccSequentialMatchesSimulator) {
  TpccConfig wcfg;
  wcfg.customers_per_district = 60;
  wcfg.items = 200;
  wcfg.initial_orders_per_district = 10;

  Simulator sim_a;
  Engine sim_engine(&sim_a, ConfigFor(GetParam()));
  TpccWorkload sim_w(&sim_engine, wcfg);
  ASSERT_TRUE(sim_w.Load().ok());
  sim_engine.Start();
  std::vector<int> sim_codes;
  sim_a.Spawn(DriveSimTpcc(&sim_engine, &sim_w, 120, &sim_codes));
  sim_a.Run();

  Simulator sim_b;
  Engine thr_engine(&sim_b, ConfigFor(GetParam()));
  TpccWorkload thr_w(&thr_engine, wcfg);
  ASSERT_TRUE(thr_w.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 1;
  ThreadedBackend backend(&thr_engine, bcfg);
  backend.Start();
  std::vector<int> thr_codes;
  for (int i = 0; i < 120; ++i) {
    uint64_t priority = 0;
    Status st = backend.Execute(thr_w.NextTransaction(), &priority);
    thr_codes.push_back(static_cast<int>(st.code()));
  }
  backend.Shutdown();

  EXPECT_EQ(sim_codes, thr_codes);
  std::vector<TableDump> a = DumpTables(sim_engine);
  std::vector<TableDump> b = DumpTables(thr_engine);
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t], b[t]) << "table " << t;
  }
  ExpectSameLog(sim_engine.log()->buffer(), backend.wal().DurablePrefix(),
                ModeOf(GetParam()));
}

// Concurrent runs are not deterministic, so the oracle shifts: replay the
// threaded backend's own WAL (redo of committed transactions, in LSN
// order) into a freshly loaded database and demand the same final state.
// Partition locks are held across commit durability, so log order agrees
// with the serialization order on every key.
void ExpectConcurrentTatpMatchesWalReplay(const OracleCase& c,
                                          uint64_t subscribers,
                                          ThreadedStats* stats) {
  const uint64_t seed = 11;
  Simulator sim;
  Engine engine(&sim, ConfigFor(c));
  TatpConfig wcfg;
  wcfg.subscribers = subscribers;
  wcfg.seed = seed;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 5;
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();
  ThreadedBackend::RunOptions options;
  options.clients = 4;
  options.warmup_txns = 0;
  options.measured_txns = 400;
  ThreadedBackend::RunReport report =
      backend.RunClosedLoop([&] { return tatp.NextTransaction(); }, options);
  backend.Shutdown();  // final flush: DurablePrefix() is the whole stream
  EXPECT_GT(report.committed, 0u);
  *stats = backend.stats();

  const std::string stream = backend.wal().DurablePrefix();
  auto parsed = wal::ParseLogStream(Slice(stream));
  ASSERT_TRUE(parsed.ok());

  std::set<uint64_t> committed;
  for (const wal::LogRecord& rec : *parsed) {
    if (rec.type == wal::RecordType::kCommit) committed.insert(rec.txn_id);
  }

  // Oracle: same seed, load only, then redo.
  Simulator oracle_sim;
  Engine oracle(&oracle_sim, ConfigFor(c));
  TatpWorkload oracle_w(&oracle, wcfg);
  ASSERT_TRUE(oracle_w.Load().ok());
  for (const wal::LogRecord& rec : *parsed) {
    if (committed.count(rec.txn_id) == 0) continue;
    engine::Table* table = oracle.db().GetTable(rec.table_id);
    switch (rec.type) {
      case wal::RecordType::kInsert:
      case wal::RecordType::kUpdate:
        ASSERT_TRUE(table->BasePut(rec.key, Slice(rec.redo)).ok());
        break;
      case wal::RecordType::kDelete:
        ASSERT_TRUE(table->BaseDelete(rec.key).ok());
        break;
      default:
        break;  // begin/commit/clr/abort/checkpoint carry no redo here
    }
  }

  std::vector<TableDump> live = DumpTables(engine);
  std::vector<TableDump> replayed = DumpTables(oracle);
  ASSERT_EQ(live.size(), replayed.size());
  for (size_t t = 0; t < live.size(); ++t) {
    EXPECT_EQ(live[t], replayed[t]) << "table " << t;
  }
}

TEST_P(BackendModeTest, TatpConcurrentMatchesWalReplay) {
  ThreadedStats stats;
  ExpectConcurrentTatpMatchesWalReplay(GetParam(), 300, &stats);
}

// The same oracle on 10 subscribers: four clients collide on every key, so
// token waits, parks, wait-die deaths and releases that run the actions
// they woke interleave.
TEST_P(BackendModeTest, TatpHotKeysMatchWalReplay) {
  ThreadedStats stats;
  ExpectConcurrentTatpMatchesWalReplay(GetParam(), 10, &stats);
  if (ModeOf(GetParam()) != EngineMode::kConventional) {
    EXPECT_GT(stats.wait_die_aborts + stats.actions_parked, 0u);
  }
}

// The scan and maintenance ops the workloads above never reach — ScanCount,
// ScanProjection, BulkMerge, Checkpoint, ReorganizeIndex — on a small int
// table with a columnar projection, around one update/insert/delete
// transaction whose single-key steps run concurrently on their partitions.
// Each op's outcome and the final table must agree across backends. The
// bionic case keeps half its rows out of the overlay, so the transaction
// also takes the overlay miss leg.
struct OpsResult {
  int txn = -1;            ///< Status code of the transaction.
  std::vector<int> codes;  ///< Status code per non-transactional op.
  std::vector<uint64_t> counts;
  std::vector<std::pair<uint64_t, int64_t>> aggregates;
  std::vector<TableDump> tables;
  uint64_t miss_installs = 0;  ///< Overlay rows installed after the load.
  std::string durable_log;     ///< Threaded runs: the WAL's durable prefix.
};

std::string IntRec(int64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}
int64_t IntOf(Slice rec) {
  int64_t v;
  std::memcpy(&v, rec.data(), sizeof(v));
  return v;
}

/// Updates ('u'), inserts ('i') and deletes ('d'), one key per step.
Engine::TxnSpec MutatingTxn(engine::Table* t) {
  const std::pair<uint64_t, char> ops[] = {
      {3, 'u'},   {10, 'u'},  {17, 'u'}, {41, 'u'}, {200, 'i'},
      {201, 'i'}, {202, 'i'}, {5, 'd'},  {6, 'd'},  {60, 'd'}};
  Engine::Phase phase;
  for (const auto& [k, op] : ops) {
    Engine::TxnStep step;
    step.table = t;
    step.keys = {index::EncodeKeyU64(k)};
    step.fn = [t, op = op, key = step.keys[0]](
                  Engine::ExecContext& c) -> sim::Task<Status> {
      if (op == 'u') {
        co_return co_await c.engine->Update(c, t, key, IntRec(1000));
      }
      if (op == 'i') co_return co_await c.engine->Insert(c, t, key, IntRec(7));
      co_return co_await c.engine->Delete(c, t, key);
    };
    phase.push_back(std::move(step));
  }
  Engine::TxnSpec spec;
  spec.phases.push_back(std::move(phase));
  return spec;
}

/// One pass of the op sequence. `backend` is null on the simulator; with
/// it, the transaction goes through ThreadedBackend::Execute and the
/// caller drives this task with sim::RunToCompletion.
sim::Task<void> DriveOps(Engine* eng, ThreadedBackend* backend,
                         OpsResult* out) {
  engine::Table* t = eng->db().GetTable("vals");
  Engine::ExecContext ctx;
  ctx.engine = eng;
  auto scan = [&]() -> sim::Task<void> {
    auto n = co_await eng->ScanCount(
        ctx, t, [](Slice rec) { return IntOf(rec) % 3 == 0; });
    out->codes.push_back(static_cast<int>(n.status().code()));
    if (n.ok()) out->counts.push_back(*n);
    auto agg = co_await eng->ScanProjection(
        ctx, t, "val", [](int64_t v) { return v >= 50; });
    out->codes.push_back(static_cast<int>(agg.status().code()));
    if (agg.ok()) out->aggregates.emplace_back(agg->matches, agg->sum);
  };
  co_await scan();
  Status st;
  if (backend != nullptr) {
    st = backend->Execute(MutatingTxn(t));
  } else {
    st = co_await eng->Execute(MutatingTxn(t));
  }
  out->txn = static_cast<int>(st.code());
  co_await scan();
  out->codes.push_back(
      static_cast<int>((co_await eng->BulkMerge(ctx, t)).code()));
  out->codes.push_back(
      static_cast<int>((co_await eng->ReorganizeIndex(ctx, t)).code()));
  out->codes.push_back(static_cast<int>((co_await eng->Checkpoint(ctx)).code()));
  co_await scan();
  if (backend == nullptr) co_await eng->Shutdown();
}

OpsResult RunOps(EngineConfig config, bool threaded) {
  config.overlay_residency = 0.5;
  Simulator sim;
  Engine engine(&sim, config);
  engine::Table* t = engine.CreateTable("vals");
  for (uint64_t i = 0; i < 150; ++i) {
    EXPECT_TRUE(engine
                    .LoadRow(t, index::EncodeKeyU64(i),
                             IntRec(static_cast<int64_t>(i * 7 % 100)))
                    .ok());
  }
  engine.FinalizeLoad();
  EXPECT_TRUE(t->AddColumnarProjection("val", IntOf).ok());
  const uint64_t loaded = t->overlay() ? t->overlay()->stats().installs : 0;
  OpsResult r;
  if (threaded) {
    ThreadedBackend::Config bcfg;
    bcfg.wal.fsync_latency_us = 1;
    ThreadedBackend backend(&engine, bcfg);
    backend.Start();
    sim::RunToCompletion(DriveOps(&engine, &backend, &r));
    r.durable_log = backend.wal().DurablePrefix();
    backend.Shutdown();
  } else {
    engine.Start();
    sim.Spawn(DriveOps(&engine, nullptr, &r));
    sim.Run();
  }
  r.tables = DumpTables(engine);
  if (t->overlay()) r.miss_installs = t->overlay()->stats().installs - loaded;
  return r;
}

TEST_P(BackendModeTest, ScanAndMaintenanceOpsMatchSimulator) {
  const OpsResult simulated = RunOps(ConfigFor(GetParam()), false);
  const OpsResult threaded = RunOps(ConfigFor(GetParam()), true);
  EXPECT_EQ(simulated.txn, static_cast<int>(StatusCode::kOk));
  EXPECT_EQ(simulated.txn, threaded.txn);
  EXPECT_EQ(simulated.codes, threaded.codes);
  EXPECT_EQ(simulated.counts, threaded.counts);
  EXPECT_EQ(simulated.aggregates, threaded.aggregates);
  EXPECT_EQ(simulated.tables, threaded.tables);
  EXPECT_EQ(simulated.miss_installs, threaded.miss_installs);
  if (ModeOf(GetParam()) == EngineMode::kBionic) {
    EXPECT_GT(threaded.miss_installs, 0u);
  }

  auto parsed = wal::ParseLogStream(Slice(threaded.durable_log));
  ASSERT_TRUE(parsed.ok());
  bool checkpointed = false;
  for (const wal::LogRecord& rec : *parsed) {
    checkpointed |= rec.type == wal::RecordType::kCheckpoint;
  }
  EXPECT_TRUE(checkpointed);
}

// Compact storage replaces the paged heap the bionic overlay caches, so it
// runs in the conventional and DORA modes only.
INSTANTIATE_TEST_SUITE_P(
    AllModes, BackendModeTest,
    ::testing::Values(Paged(EngineMode::kConventional),
                      Paged(EngineMode::kDora), Paged(EngineMode::kBionic),
                      Compact(EngineMode::kConventional),
                      Compact(EngineMode::kDora)),
    [](const auto& info) {
      return std::string(engine::EngineModeName(ModeOf(info.param))) +
             (info.param.compact ? "Compact" : "");
    });

// Crash-harness smoke on the threaded group-commit WAL: after Crash(), every
// already-acknowledged write commit must have its commit record inside the
// frozen durable prefix, and no later write transaction is acknowledged.
TEST(ExecBackendCrashTest, AcknowledgedCommitsAreDurable) {
  Simulator sim;
  Engine engine(&sim, HarnessEngineConfig(EngineMode::kDora));
  TatpConfig wcfg;
  wcfg.subscribers = 200;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 20;
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();

  for (int i = 0; i < 150; ++i) {
    uint64_t priority = 0;
    backend.Execute(tatp.NextTransaction(), &priority);
  }
  backend.wal().Crash();

  // Post-crash write transactions must never be acknowledged.
  for (int i = 0; i < 20; ++i) {
    uint64_t priority = 0;
    Status st =
        backend.Execute(tatp.MakeUpdateSubscriberData(i % 200), &priority);
    EXPECT_FALSE(st.ok());
    EXPECT_TRUE(st.IsIOError()) << st.message();
  }

  const ThreadedStats stats = backend.stats();
  const uint64_t acknowledged_writes = stats.commits - stats.read_only_commits;
  EXPECT_GT(stats.durability_failures, 0u);

  const uint64_t durable_commits =
      CountCommitRecords(backend.wal().DurablePrefix());
  // Every acknowledged write commit is durable (the converse — durable but
  // unacknowledged — is legal: the crash may land between flush and ack).
  EXPECT_LE(acknowledged_writes, durable_commits);
  backend.Shutdown();
}

// The same invariant with four clients committing concurrently while the
// crash lands: leaders and followers are mid-flush, and whatever was
// acknowledged before the durable prefix froze must be inside it.
TEST(ExecBackendCrashTest, AcknowledgedCommitsAreDurableConcurrent) {
  Watchdog watchdog("AcknowledgedCommitsAreDurableConcurrent",
                    std::chrono::seconds(120));
  Simulator sim;
  Engine engine(&sim, HarnessEngineConfig(EngineMode::kDora));
  TatpConfig wcfg;
  wcfg.subscribers = 200;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 20;
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();

  constexpr int kClients = 4;
  constexpr int kAfterCrash = 20;  // transactions per client after Crash()
  std::mutex gen_mu;  // workload generators are not thread-safe
  std::atomic<bool> crashed{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      int after_crash = 0;
      while (after_crash < kAfterCrash) {
        if (crashed.load(std::memory_order_acquire)) ++after_crash;
        Engine::TxnSpec spec;
        {
          std::lock_guard<std::mutex> lk(gen_mu);
          spec = tatp.NextTransaction();
        }
        uint64_t priority = 0;
        backend.Execute(std::move(spec), &priority);
      }
    });
  }
  while (backend.stats().commits < 300) std::this_thread::yield();
  backend.wal().Crash();
  crashed.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();

  const ThreadedStats stats = backend.stats();
  const uint64_t acknowledged_writes = stats.commits - stats.read_only_commits;
  EXPECT_GT(acknowledged_writes, 0u);
  EXPECT_GT(stats.durability_failures, 0u);
  EXPECT_LE(acknowledged_writes,
            CountCommitRecords(backend.wal().DurablePrefix()));
  backend.Shutdown();
}

// A crash while the leader sleeps in its fsync and followers are queued
// behind it: nobody is acknowledged, and the durable prefix stays put.
TEST(ExecBackendCrashTest, CrashDuringLeaderFlushFailsLeaderAndFollowers) {
  Watchdog watchdog("CrashDuringLeaderFlushFailsLeaderAndFollowers",
                    std::chrono::seconds(120));
  ThreadedWal::Config cfg;
  cfg.fsync_latency_us = 500000;  // a wide window to queue followers in
  ThreadedWal wal(cfg);

  constexpr int kFollowers = 3;
  std::vector<Status> results(1 + kFollowers);
  auto commit = [&](int i) {
    wal::LogRecord rec;
    rec.type = wal::RecordType::kCommit;
    rec.txn_id = static_cast<uint64_t>(i + 1);
    const wal::Lsn lsn = sim::RunToCompletion(wal.Append(rec, 0));
    results[i] = sim::RunToCompletion(wal.WaitDurable(lsn + 1));
  };
  auto wait_for_waiters = [&](uint64_t n) {
    while (wal.stats().group_commit_waits < n) std::this_thread::yield();
  };
  std::vector<std::thread> threads;
  threads.emplace_back(commit, 0);
  wait_for_waiters(1);  // the leader is in its fsync sleep
  for (int i = 1; i <= kFollowers; ++i) threads.emplace_back(commit, i);
  wait_for_waiters(1 + kFollowers);  // every follower is parked
  ASSERT_EQ(wal.stats().flushes, 0u) << "leader finished before the crash";
  wal.Crash();
  for (auto& t : threads) t.join();

  for (int i = 0; i <= kFollowers; ++i) {
    EXPECT_TRUE(results[i].IsIOError()) << "committer " << i;
  }
  EXPECT_EQ(wal.durable_lsn(), 0u);
  EXPECT_EQ(wal.stats().flushes, 0u);
  EXPECT_TRUE(wal.DurablePrefix().empty());
  EXPECT_TRUE(
      sim::RunToCompletion(wal.WaitDurable(wal.current_lsn())).IsIOError());
}

// With one client nobody can ride another committer's flush, so each write
// commit leads exactly one flush, and every flush has a waiter. (A flusher
// that starts on every append spends 1.2-1.9 flushes per write commit
// here.) The +1 is Shutdown's flush of the tail.
TEST(ExecBackendCrashTest, OneClientFlushesOncePerWriteCommit) {
  Simulator sim;
  Engine engine(&sim, HarnessEngineConfig(EngineMode::kDora));
  TatpConfig wcfg;
  wcfg.subscribers = 1000;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 20;
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();
  ThreadedBackend::RunOptions options;
  options.clients = 1;
  options.warmup_txns = 0;
  options.measured_txns = 2000;
  backend.RunClosedLoop([&] { return tatp.NextTransaction(); }, options);
  backend.Shutdown();

  const ThreadedStats stats = backend.stats();
  const ThreadedWal::Stats wal = backend.wal().stats();
  const uint64_t write_commits = stats.commits - stats.read_only_commits;
  ASSERT_GT(write_commits, 0u);
  EXPECT_LE(wal.flushes, wal.group_commit_waits);
  EXPECT_LE(wal.flushes, write_commits + 1);
}

// Group commit is real: concurrent committers share flushes, so flush
// count stays well below append count under load.
TEST(ExecBackendCrashTest, GroupCommitBatchesFlushes) {
  Simulator sim;
  Engine engine(&sim, HarnessEngineConfig(EngineMode::kDora));
  TatpConfig wcfg;
  wcfg.subscribers = 200;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 100;
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();
  ThreadedBackend::RunOptions options;
  options.clients = 8;
  options.warmup_txns = 0;
  options.measured_txns = 200;
  backend.RunClosedLoop([&] { return tatp.NextTransaction(); }, options);
  const ThreadedWal::Stats wal = backend.wal().stats();
  backend.Shutdown();
  ASSERT_GT(wal.appends, 0u);
  EXPECT_LT(wal.flushes, wal.appends);
}

/// A one-table engine: keys 0..49 of "vals", each an 8-byte int.
engine::Table* LoadVals(Engine* engine) {
  engine::Table* t = engine->CreateTable("vals");
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(engine->LoadRow(t, index::EncodeKeyU64(i), IntRec(0)).ok());
  }
  engine->FinalizeLoad();
  return t;
}

/// One single-action transaction on key `k` of `t`: an update or a read.
/// The step's body records the thread it ran on in `*ran_on`, if given.
Engine::TxnSpec OneKeyTxn(engine::Table* t, uint64_t k, bool write,
                          std::thread::id* ran_on = nullptr) {
  Engine::TxnStep step;
  step.table = t;
  step.keys = {index::EncodeKeyU64(k)};
  step.read_only = !write;
  step.fn = [t, write, ran_on, key = step.keys[0]](
                Engine::ExecContext& c) -> sim::Task<Status> {
    if (ran_on != nullptr) *ran_on = std::this_thread::get_id();
    if (write) co_return co_await c.engine->Update(c, t, key, IntRec(1));
    co_return (co_await c.engine->ReadView(c, t, key)).status();
  };
  Engine::Phase phase;
  phase.push_back(std::move(step));
  Engine::TxnSpec spec;
  spec.phases.push_back(std::move(phase));
  return spec;
}

/// Runs a write of key 7 on its own thread and returns once that writer
/// waits for its commit to be durable, still holding the key's exclusive
/// lock for the rest of a long stubbed fsync.
std::thread StartHeldWrite(ThreadedBackend* backend, engine::Table* t,
                           Status* status) {
  std::thread writer(
      [=] { *status = backend->Execute(OneKeyTxn(t, 7, true)); });
  while (backend->wal().stats().group_commit_waits == 0) {
    std::this_thread::yield();
  }
  return writer;
}

// One client runs every step on its own thread and never meets a lock it
// does not hold: nothing parks and nothing dies.
TEST(ExecBackendInlineTest, OneClientRunsEveryActionInline) {
  for (EngineMode mode : {EngineMode::kDora, EngineMode::kBionic}) {
    SCOPED_TRACE(engine::EngineModeName(mode));
    Simulator sim;
    Engine engine(&sim, HarnessEngineConfig(mode));
    TatpConfig wcfg;
    wcfg.subscribers = 1000;
    TatpWorkload tatp(&engine, wcfg);
    ASSERT_TRUE(tatp.Load().ok());
    ThreadedBackend::Config bcfg;
    bcfg.wal.fsync_latency_us = 1;
    ThreadedBackend backend(&engine, bcfg);
    backend.Start();
    ThreadedBackend::RunOptions options;
    options.clients = 1;
    options.warmup_txns = 0;
    options.measured_txns = 2000;
    backend.RunClosedLoop([&] { return tatp.NextTransaction(); }, options);
    backend.Shutdown();

    const ThreadedStats s = backend.stats();
    EXPECT_GT(s.actions_executed, options.measured_txns);
    EXPECT_EQ(s.actions_parked, 0u);
    EXPECT_EQ(s.wait_die_aborts, 0u);
  }
}

// Park and wake. A younger writer holds key 7 through a long fsync; an
// older reader locks it and parks. The writer's release wakes the parked
// action and retries it on the writer's own thread: both commit.
TEST(ExecBackendInlineTest, ReleaseRunsWokenOlderReaderOnWriterThread) {
  Watchdog watchdog("ReleaseRunsWokenOlderReaderOnWriterThread",
                    std::chrono::seconds(120));
  Simulator sim;
  Engine engine(&sim, HarnessEngineConfig(EngineMode::kDora));
  engine::Table* t = LoadVals(&engine);
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 500000;  // the window the reader parks in
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();
  // Drawn before the writer begins, so the reader is the older one.
  uint64_t older = engine.xct_manager().DrawPriority();
  Status wrote;
  std::thread writer = StartHeldWrite(&backend, t, &wrote);
  const std::thread::id writer_id = writer.get_id();
  std::thread::id read_ran_on;
  const Status read =
      backend.Execute(OneKeyTxn(t, 7, false, &read_ran_on), &older);
  writer.join();
  backend.Shutdown();

  EXPECT_TRUE(wrote.ok()) << wrote.message();
  EXPECT_TRUE(read.ok()) << read.message();
  EXPECT_EQ(read_ran_on, writer_id);
  const ThreadedStats s = backend.stats();
  EXPECT_EQ(s.actions_parked, 1u);
  EXPECT_EQ(s.wait_die_aborts, 0u);
  EXPECT_EQ(s.actions_executed, 2u);
}

// A release waits out the step its partition is running. A second client
// holds the partition's token through a long step while this test releases
// a key an older action is parked on: the release cannot finish before
// that step does, and it runs the action it woke on its own thread.
TEST(ExecBackendInlineTest, ReleaseWaitsForTheRunningStep) {
  Watchdog watchdog("ReleaseWaitsForTheRunningStep",
                    std::chrono::seconds(120));
  Simulator sim;
  EngineConfig cfg = EngineConfig::Dora();
  cfg.num_partitions = 4;
  Engine engine(&sim, cfg);
  ThreadedBackend backend(&engine, ThreadedBackend::Config{});
  backend.Start();
  auto partition_of = [&](const std::string& key) {
    return engine.executor()->Route(txn::LockKey(key).hash());
  };
  const std::string held = "held";
  std::string busy = "busy0";
  for (int i = 1; partition_of(busy) != partition_of(held); ++i) {
    busy = "busy" + std::to_string(i);
  }

  std::atomic<bool> running{false};
  std::atomic<bool> go{false};
  // One single-key action of `xct`. A `spin` body holds its partition
  // until `go`; a body given `ran_on` records the thread it ran on.
  auto action = [&](txn::Xct* xct, dora::Rvp* rvp, const std::string& key,
                    bool spin, std::thread::id* ran_on = nullptr) {
    dora::Action* a = backend.AcquireAction();
    a->xct = xct;
    a->rvp = rvp;
    a->AddLockKey(Slice(key));
    a->fn = [&running, &go, spin,
             ran_on](dora::ActionContext&) -> sim::Task<Status> {
      if (ran_on != nullptr) *ran_on = std::this_thread::get_id();
      if (spin) {
        running.store(true);
        while (!go.load()) std::this_thread::yield();
      }
      co_return Status::OK();
    };
    return a;
  };
  txn::Xct older;
  older.id = older.priority = 1;
  txn::Xct holder;
  holder.id = holder.priority = 2;
  txn::Xct spinner;
  spinner.id = spinner.priority = 3;
  dora::Rvp held_rvp(&sim, 1, /*threaded=*/true);
  dora::Rvp older_rvp(&sim, 1, /*threaded=*/true);
  dora::Rvp spin_rvp(&sim, 1, /*threaded=*/true);

  // The younger holder locks `held`; the older action parks on it; then a
  // second client runs the spinner and keeps the partition's token.
  std::thread::id older_ran_on;
  backend.Run(action(&holder, &held_rvp, held, false));
  ASSERT_TRUE(sim::RunToCompletion(held_rvp.Wait()).ok());
  backend.Run(action(&older, &older_rvp, held, false, &older_ran_on));
  ASSERT_EQ(backend.stats().actions_parked, 1u);
  std::thread spin_client(
      [&] { backend.Run(action(&spinner, &spin_rvp, busy, true)); });
  while (!running.load()) std::this_thread::yield();

  std::atomic<bool> released{false};
  std::thread releaser([&] {
    backend.ReleaseTxnLocks(&holder);
    released.store(true);
  });
  const std::thread::id releaser_id = releaser.get_id();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(released.load());
  go.store(true);
  releaser.join();
  spin_client.join();
  EXPECT_TRUE(sim::RunToCompletion(spin_rvp.Wait()).ok());
  EXPECT_TRUE(sim::RunToCompletion(older_rvp.Wait()).ok());
  EXPECT_EQ(older_ran_on, releaser_id);
  backend.ReleaseTxnLocks(&older);
  backend.ReleaseTxnLocks(&spinner);
  backend.Shutdown();  // CHECKs that every partition's tables are empty

  const ThreadedStats s = backend.stats();
  EXPECT_EQ(s.actions_executed, 3u);
  EXPECT_EQ(s.actions_parked, 1u);
  EXPECT_EQ(s.wait_die_aborts, 0u);
}

// The reverse: a younger reader that meets an older holder inline dies at
// once (wait-die) and commits when it retries after the holder released.
TEST(ExecBackendInlineTest, YoungerInlineReaderDiesAndRetries) {
  Watchdog watchdog("YoungerInlineReaderDiesAndRetries",
                    std::chrono::seconds(120));
  Simulator sim;
  Engine engine(&sim, HarnessEngineConfig(EngineMode::kDora));
  engine::Table* t = LoadVals(&engine);
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 200000;
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();
  Status wrote;
  std::thread writer = StartHeldWrite(&backend, t, &wrote);
  uint64_t younger = 0;  // drawn by Begin, after the writer's
  const Status died = backend.Execute(OneKeyTxn(t, 7, false), &younger);
  writer.join();
  const Status retried = backend.Execute(OneKeyTxn(t, 7, false), &younger);
  backend.Shutdown();

  EXPECT_TRUE(wrote.ok()) << wrote.message();
  EXPECT_TRUE(died.IsAborted()) << died.message();
  EXPECT_TRUE(retried.ok()) << retried.message();
  const ThreadedStats s = backend.stats();
  EXPECT_EQ(s.wait_die_aborts, 1u);
  EXPECT_EQ(s.actions_parked, 0u);
  EXPECT_EQ(s.actions_executed, 2u);
}

// The client may destroy its stack completion the moment Wait() returns,
// while arrivers are still returning from Arrive(). Each round puts a fresh
// completion in the same stack slot, so an arriver that touched the old one
// late would race the next constructor (TSan) or corrupt its count (hang,
// caught by the watchdog). Rounds alternate between prompt arrivals (Wait
// returns from its spin) and slow ones (Wait parks), with one arriver
// reporting a failure on some rounds.
TEST(ThreadedRvpTest, DestroyedAsSoonAsWaitReturns) {
  Watchdog watchdog("DestroyedAsSoonAsWaitReturns", std::chrono::seconds(120));
  constexpr int kArrivers = 4;
  constexpr int kRounds = 3000;
  struct Job {
    dora::Rvp* rvp = nullptr;
    int round = 0;
  };
  // Hands jobs to one arriver. Pop polls before it sleeps, as the RVP's
  // waiter does, so a prompt round arrives while Wait still spins.
  struct Channel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Job> jobs;
    void Push(Job job) {
      {
        std::lock_guard<std::mutex> lk(mu);
        jobs.push_back(job);
      }
      cv.notify_one();
    }
    Job Pop() {
      std::unique_lock<std::mutex> lk(mu);
      for (int spin = 0;
           jobs.empty() && spin < queueing::kSpinYieldsBeforePark; ++spin) {
        lk.unlock();
        std::this_thread::yield();
        lk.lock();
      }
      cv.wait(lk, [&] { return !jobs.empty(); });
      const Job job = jobs.front();
      jobs.pop_front();
      return job;
    }
  };
  std::vector<Channel> channels(kArrivers);
  std::vector<std::thread> arrivers;
  for (int a = 0; a < kArrivers; ++a) {
    arrivers.emplace_back([&, a] {
      for (;;) {
        const Job job = channels[a].Pop();
        if (job.rvp == nullptr) return;
        if (job.round % 8 == 7) {
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        } else if (job.round % 2 == 1) {
          for (int i = 0; i < a * 16; ++i) std::this_thread::yield();
        }
        job.rvp->Arrive(job.round % 5 == 0 && a == job.round % kArrivers
                            ? Status::Aborted("round failure")
                            : Status::OK());
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    dora::Rvp rvp(nullptr, kArrivers, /*threaded=*/true);
    for (auto& channel : channels) channel.Push(Job{&rvp, round});
    EXPECT_EQ(sim::RunToCompletion(rvp.Wait()).IsAborted(), round % 5 == 0)
        << "round " << round;
  }
  for (auto& channel : channels) channel.Push(Job{});
  for (auto& t : arrivers) t.join();
}

// Wall-clock open loop: a real arrival thread offers load through the
// bounded queue while server threads drain it. Smoke-checks the counter
// reconciliation (offered == admitted + shed) and that goodput is real.
// Runs under TSan in CI — the shared queue and report merging must be
// clean.
TEST(ExecBackendOpenLoopTest, OpenLoopOffersShedsAndCommits) {
  Simulator sim;
  Engine engine(&sim, HarnessEngineConfig(EngineMode::kDora));
  TatpConfig wcfg;
  wcfg.subscribers = 500;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  ThreadedBackend backend(&engine, ThreadedBackend::Config{});
  backend.Start();

  ThreadedBackend::OpenLoopOptions options;
  options.offered_tps = 20000;
  options.warmup_s = 0.05;
  options.duration_s = 0.25;
  options.queue_depth = 128;
  options.servers = 4;
  ThreadedBackend::OpenLoopReport report =
      backend.RunOpenLoop([&] { return tatp.NextTransaction(); }, options);
  backend.Shutdown();

  EXPECT_GT(report.offered, 0u);
  EXPECT_EQ(report.offered, report.admitted + report.shed);
  EXPECT_GT(report.completed, 0u);
  EXPECT_GT(report.committed, 0u);
  EXPECT_LE(report.committed, report.completed);
  EXPECT_GT(report.goodput_tps, 0.0);
  EXPECT_EQ(report.sojourn.count(), report.completed);
  EXPECT_GT(report.sojourn.Percentile(50), 0);
}

// Overload on the wall clock: offer far beyond what four servers with a
// slow simulated fsync can absorb; the bounded queue must shed rather
// than grow, and served goodput must survive.
TEST(ExecBackendOpenLoopTest, OpenLoopOverloadSheds) {
  Simulator sim;
  Engine engine(&sim, HarnessEngineConfig(EngineMode::kDora));
  TatpConfig wcfg;
  wcfg.subscribers = 200;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  ThreadedBackend::Config bcfg;
  bcfg.wal.fsync_latency_us = 200;  // throttle service capacity
  ThreadedBackend backend(&engine, bcfg);
  backend.Start();

  ThreadedBackend::OpenLoopOptions options;
  options.offered_tps = 200000;
  options.warmup_s = 0.02;
  options.duration_s = 0.2;
  options.queue_depth = 32;
  options.servers = 2;
  ThreadedBackend::OpenLoopReport report =
      backend.RunOpenLoop([&] { return tatp.NextTransaction(); }, options);
  backend.Shutdown();

  EXPECT_EQ(report.offered, report.admitted + report.shed);
  EXPECT_GT(report.shed, 0u);
  EXPECT_GT(report.committed, 0u);
}

}  // namespace
}  // namespace bionicdb::exec
