// Wall-clock microbenchmark harness: measures HOST time (not simulated
// time) of the hot paths that bound how much simulated work every other
// benchmark can drive per second, plus allocation counts from the counting
// operator-new hook. Emits the JSON rows of bench/bench_util.h (stdout, and
// to a file when a path is given); BENCH_PR*.json snapshots are built from
// these runs. See docs/PERFORMANCE.md.
//
// Usage: wallclock [out.json]
#define BIONICDB_ALLOC_HOOK_DEFINE
#include "bench/alloc_hook.h"

#include <malloc.h>

#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "dora/action.h"
#include "dora/executor.h"
#include "exec/threaded.h"
#include "hw/platform.h"
#include "index/btree.h"
#include "index/codec.h"
#include "sim/sim_queue.h"
#include "wal/record.h"

namespace bionicdb::bench {
namespace {

/// Pre-encoded probe keys so the timed loop measures the tree, not the key
/// encoder. `wide` keys are 16-byte composites (the SSO-busting case that
/// dominates TATP/TPC-C secondary access).
std::vector<std::string> MakeKeys(size_t n, bool wide) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(wide ? index::EncodeKeyU64Pair(i, i * 31)
                        : index::EncodeKeyU64(i));
  }
  return keys;
}

/// The engine's point-read hot path: probe and consume the value bytes
/// without materializing a std::string (GetView). `btree_probe_copy`
/// covers the owning Get() for callers that need ownership.
Row BenchBtreeProbe(const char* name, bool wide, bool copy) {
  const size_t kRows = 200000;
  const size_t kProbes = 2000000;
  const auto keys = MakeKeys(kRows, wide);
  const std::string value(96, 'v');
  index::BTree tree;
  for (const auto& k : keys) {
    BIONICDB_CHECK(tree.Insert(k, value, /*overwrite=*/false).ok());
  }
  Rng rng(42);
  uint64_t sink = 0;
  Timer t;
  if (copy) {
    for (size_t i = 0; i < kProbes; ++i) {
      const std::string& k = keys[rng.Uniform(kRows)];
      auto r = tree.Get(k);
      sink += r->size();
    }
  } else {
    for (size_t i = 0; i < kProbes; ++i) {
      const std::string& k = keys[rng.Uniform(kRows)];
      auto r = tree.GetView(k);
      sink += r->size();
    }
  }
  Row m = t.Stop(name, kProbes);
  BIONICDB_CHECK(sink == kProbes * value.size());
  return m;
}

/// An ascending load, as every loader does. `bytes_per_entry` is the heap
/// the tree holds afterwards (glibc's in-use bytes, chunk headers included)
/// per row; it repeats exactly from run to run on one allocator. `appends`
/// counts the inserts the rightmost-leaf append path served without a
/// descent; their share of the row's ops is fixed by the key count and
/// leaf capacity.
Row BenchBtreeInsert() {
  const size_t kRows = 200000;
  const auto keys = MakeKeys(kRows, /*wide=*/true);
  const std::string value(96, 'v');
  const size_t heap_before = mallinfo2().uordblks;
  index::BTree tree;
  Timer t;
  for (const auto& k : keys) {
    BIONICDB_CHECK(tree.Insert(k, value, /*overwrite=*/false).ok());
  }
  // Read before Stop() builds the row, whose fields are heap blocks too.
  const size_t heap_after = mallinfo2().uordblks;
  Row m = t.Stop("btree_insert_16", kRows);
  BIONICDB_CHECK(tree.size() == kRows);
  // Five decimals: check_bench.py's ceiling compares the unrounded figure.
  m.Add("bytes_per_entry",
        static_cast<double>(heap_after - heap_before) /
            static_cast<double>(kRows),
        5);
  m.Add("appends", static_cast<double>(tree.stats().appends));
  return m;
}

Row BenchQueueCycle() {
  const size_t kOps = 4000000;  // pushes + pops
  const size_t kBurst = 64;
  sim::Simulator sim;
  sim::SimQueue<uint64_t> q(&sim, 1024);
  uint64_t sink = 0;
  Timer t;
  for (size_t i = 0; i < kOps / (2 * kBurst); ++i) {
    for (size_t j = 0; j < kBurst; ++j) BIONICDB_CHECK(q.TryPush(i + j));
    for (size_t j = 0; j < kBurst; ++j) sink += *q.TryPop();
  }
  Row m = t.Stop("queue_cycle", kOps);
  BIONICDB_CHECK(q.empty());
  (void)sink;
  return m;
}

sim::Task<void> DispatchDriver(sim::Simulator* sim, dora::Executor* ex,
                               uint64_t n,
                               const std::vector<std::string>* keys) {
  // One Xct reused across iterations (fresh id/priority each time), actions
  // from the executor's pool, fixed-width lock keys: after the first few
  // cycles warm the pool and the tables' free lists, the
  // dispatch->pop->execute->release cycle runs allocation-free.
  txn::Xct xct;
  for (uint64_t i = 0; i < n; ++i) {
    xct.id = i + 1;
    xct.priority = i + 1;
    dora::Rvp rvp(sim, 1);
    dora::Action* a = ex->AcquireAction();
    a->xct = &xct;
    a->rvp = &rvp;
    a->socket = 0;
    a->AddLockKey(Slice((*keys)[i % keys->size()]));
    a->fn = [](dora::ActionContext&) -> sim::Task<Status> {
      co_return Status::OK();
    };
    co_await ex->Dispatch(a);
    Status st = co_await rvp.Wait();
    BIONICDB_CHECK(st.ok());
    co_await ex->ReleaseTxnLocks(&xct);
  }
  co_await ex->Drain();
}

Row BenchDispatchCycle() {
  const uint64_t kActions = 100000;
  sim::Simulator sim;
  hw::Platform platform(&sim, hw::PlatformSpec::CommodityServer());
  hw::Breakdown bd;
  dora::ExecutorConfig ec;
  ec.num_partitions = 4;
  dora::Executor ex(&platform, ec, nullptr, &bd);
  ex.Start();
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("k" + std::to_string(i));
  sim.Spawn(DispatchDriver(&sim, &ex, kActions, &keys));
  Timer t;
  sim.Run();
  Row m = t.Stop("dispatch_cycle", kActions);
  BIONICDB_CHECK(ex.stats().executed == kActions);
  return m;
}

Row BenchTatpE2e() {
  return RunPinnedTatp([](sim::Simulator& sim, engine::Engine& eng) {
    Timer t;
    sim.Run();
    // Wall cost per *committed* txn (the run also executes warmup txns and
    // aborted attempts; they are part of the price of a committed txn).
    Row m = t.Stop("tatp_e2e_dora", eng.metrics().commits);
    m.Add("sim_txn_per_sec", eng.metrics().TxnPerSecond());
    // Tail percentiles of the measured window (virtual time). The total
    // latency comes from the metrics histogram every run records; the
    // per-stage attribution comes from the flight recorder.
    const Histogram& lat = eng.metrics().latency;
    m.Add("p50_latency_us", static_cast<double>(lat.Percentile(50)) / 1e3);
    m.Add("p99_latency_us", static_cast<double>(lat.Percentile(99)) / 1e3);
    m.Add("p999_latency_us",
          static_cast<double>(lat.Percentile(99.9)) / 1e3);
    obs::FlightRecorder* fr = eng.flight_recorder();
    BIONICDB_CHECK(fr != nullptr);
    for (int i = 0; i < obs::kNumStages; ++i) {
      const auto s = static_cast<obs::Stage>(i);
      const Histogram& h = fr->stage_hist(s);
      m.Add(std::string("stage_") + obs::StageKey(s) + "_p50_us",
            static_cast<double>(h.Percentile(50)) / 1e3);
      m.Add(std::string("stage_") + obs::StageKey(s) + "_p999_us",
            static_cast<double>(h.Percentile(99.9)) / 1e3);
    }
    return m;
  });
}

/// Shared tail of the threaded-backend rows: wall-clock throughput plus the
/// fields check_bench.py's --backend gates key off. Threaded rows are
/// tagged by name (`*_threaded_t<N>`) and carry `threads` and `host_cores`
/// so the gates can be machine-relative — on a 1-core host the sweep
/// measures group-commit overlap, not parallel compute, and the checker
/// must not demand a speedup the hardware cannot produce. Call after
/// Shutdown, which flushes the whole log.
void AddThreadedExtras(Row* m, int threads,
                       const exec::ThreadedBackend::RunReport& rep,
                       exec::ThreadedBackend& backend) {
  const exec::ThreadedStats stats = backend.stats();
  m->Add("txn_per_sec", rep.txn_per_sec);
  m->Add("threads", static_cast<double>(threads));
  m->Add("host_cores",
         static_cast<double>(std::thread::hardware_concurrency()));
  m->Add("committed", static_cast<double>(rep.committed));
  m->Add("aborted_attempts", static_cast<double>(rep.aborted_attempts));
  m->Add("p50_latency_us",
         static_cast<double>(rep.latency.Percentile(50)) / 1e3);
  m->Add("p99_latency_us",
         static_cast<double>(rep.latency.Percentile(99)) / 1e3);
  m->Add("wal_appends", static_cast<double>(rep.wal.appends));
  m->Add("wal_flushes", static_cast<double>(rep.wal.flushes));
  m->Add("wal_group_commit_waits",
         static_cast<double>(rep.wal.group_commit_waits));
  // Warmup included, like the WAL counters: wal_flushes / write_commits is
  // the number of fsyncs a write commit costs.
  m->Add("write_commits",
         static_cast<double>(stats.commits - stats.read_only_commits));
  // The committed write-set's size: records of transactions whose commit
  // record is in the log. An aborted attempt's records do not count.
  auto records = wal::ParseLogStream(Slice(backend.wal().DurablePrefix()));
  BIONICDB_CHECK(records.ok());
  std::unordered_set<uint64_t> committed;
  for (const wal::LogRecord& r : *records) {
    if (r.type == wal::RecordType::kCommit) committed.insert(r.txn_id);
  }
  uint64_t committed_records = 0;
  for (const wal::LogRecord& r : *records) {
    committed_records += committed.count(r.txn_id);
  }
  m->Add("committed_records", static_cast<double>(committed_records));
}

/// TATP on the real-thread backend (exec::ThreadedBackend), closed loop
/// with `threads` client threads. Same engine code as tatp_e2e_dora but
/// host time is the clock and group commit is real: the first waiting
/// committer leads each flush through the default 50us fsync stub — so
/// even on one core the sweep shows durability waits overlapping as
/// clients are added.
Row BenchTatpThreaded(int threads) {
  sim::Simulator sim;
  engine::EngineConfig cfg;  // default: DORA mode, commodity server
  engine::Engine eng(&sim, cfg);
  workload::TatpConfig wcfg;
  wcfg.subscribers = 5000;
  workload::TatpWorkload tatp(&eng, wcfg);
  BIONICDB_CHECK(tatp.Load().ok());
  exec::ThreadedBackend backend(&eng, exec::ThreadedBackend::Config{});
  backend.Start();
  exec::ThreadedBackend::RunOptions opts;
  opts.clients = threads;
  opts.warmup_txns = 1000;
  opts.measured_txns = 6000;
  Timer t;
  exec::ThreadedBackend::RunReport rep =
      backend.RunClosedLoop([&] { return tatp.NextTransaction(); }, opts);
  Row m =
      t.Stop("tatp_threaded_t" + std::to_string(threads), rep.committed);
  backend.Shutdown();
  AddThreadedExtras(&m, threads, rep, backend);
  return m;
}

/// TPC-C (NewOrder/Payment mix with dynamic phases) on the threaded
/// backend — one row at the sweep's widest client count.
Row BenchTpccThreaded(int threads) {
  sim::Simulator sim;
  engine::EngineConfig cfg;
  engine::Engine eng(&sim, cfg);
  workload::TpccConfig wcfg;
  wcfg.warehouses = 2;
  wcfg.customers_per_district = 100;
  wcfg.items = 500;
  wcfg.initial_orders_per_district = 20;
  workload::TpccWorkload tpcc(&eng, wcfg);
  BIONICDB_CHECK(tpcc.Load().ok());
  exec::ThreadedBackend backend(&eng, exec::ThreadedBackend::Config{});
  backend.Start();
  exec::ThreadedBackend::RunOptions opts;
  opts.clients = threads;
  opts.warmup_txns = 500;
  opts.measured_txns = 3000;
  Timer t;
  exec::ThreadedBackend::RunReport rep =
      backend.RunClosedLoop([&] { return tpcc.NextTransaction(); }, opts);
  Row m =
      t.Stop("tpcc_threaded_t" + std::to_string(threads), rep.committed);
  backend.Shutdown();
  AddThreadedExtras(&m, threads, rep, backend);
  return m;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, nullptr, /*grid=*/false);
  std::vector<Row> ms;
  ms.push_back(BenchBtreeProbe("btree_probe_8", /*wide=*/false, false));
  ms.push_back(BenchBtreeProbe("btree_probe_16", /*wide=*/true, false));
  ms.push_back(BenchBtreeProbe("btree_probe_copy_16", /*wide=*/true, true));
  ms.push_back(BenchBtreeInsert());
  ms.push_back(BenchQueueCycle());
  ms.push_back(BenchDispatchCycle());
  ms.push_back(BenchTatpE2e());
  // Threaded-backend sweep: client threads 1 -> 8 on TATP, plus one TPC-C
  // row at the widest point. Runs after the simulated rows so their thread
  // activity cannot perturb the sim measurements.
  for (int threads : {1, 2, 4, 8}) {
    ms.push_back(BenchTatpThreaded(threads));
  }
  ms.push_back(BenchTpccThreaded(8));
  EmitRows(ms, args.out_path);
  return 0;
}

}  // namespace
}  // namespace bionicdb::bench

int main(int argc, char** argv) { return bionicdb::bench::Main(argc, argv); }
