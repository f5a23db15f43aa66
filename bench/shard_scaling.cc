// Sharded scale-out sweep (E16, docs/SHARDING.md): closed-loop TATP on
// an N-shard cluster with virtual-time 2PC, swept along three axes —
//
//   * shard count      (1..8, zero cross-shard traffic): throughput must
//                      be monotone — each shard brings its own DORA
//                      partitions, WAL device, and group-commit stream;
//   * cross-shard mix  (xshard_r*: 0..10% distributed writes at 4
//                      shards): the price of 2PC — two prepares + a
//                      decision record, all durably ordered, per
//                      distributed transaction, with the branches fanned
//                      out in parallel;
//   * snapshot reads   (xsnap_r*: read-only cross-shard pairs): served
//                      by the prepare-free path — tpc_started must stay
//                      0 while snap_committed carries the traffic;
//   * population       (10k..10M subscribers at 4 shards, compact
//                      storage): the memory-lean store keeps a
//                      million-subscriber cluster resident.
//
// Plus two pins:
//   * shard_closed_1 — the pinned run of bench/bench_util.h through the
//     cluster path (1 shard). Its sim_txn_per_sec must equal the
//     2192905.5 passivity pin bit-for-bit: routing a transaction through
//     shard::Cluster adds no events, no draws, no charges.
//   * tpcc_compact_w100 — 100-warehouse TPC-C on compact storage: the
//     row-count scale the slab+prefix-packed layout exists for.
//
// Every row is a seeded virtual-time simulation: byte-identical output
// across --jobs values (the CI determinism diff), host-independent
// numbers. --smoke trims the population sweep for CI.
//
// Usage: shard_scaling [--jobs=N] [--smoke] [out.json]
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "shard/cluster.h"
#include "workload/sharded_tatp.h"

namespace bionicdb::bench {
namespace {

struct RowSpec {
  std::string name;
  uint64_t subscribers = 100000;
  int shards = 4;
  double cross_ratio = 0.0;
  double cross_read_ratio = 0.0;
  bool compact = false;
  workload::DriverConfig driver = PinDriverConfig();
  bool tpcc = false;  ///< tpcc_compact_w100 only.
};

/// Every row runs the pinned run's engine, on paged or compact storage.
engine::EngineConfig ShardEngineConfig(bool compact) {
  engine::EngineConfig cfg = PinEngineConfig();
  cfg.compact_storage = compact;
  return cfg;
}

/// One cluster run. The pin row (shards=1, ratio=0, no compact) walks
/// exactly the pinned run's unsharded schedule.
Row RunShardedTatp(const RowSpec& spec) {
  sim::Simulator sim;
  shard::ClusterConfig cc;
  cc.num_shards = spec.shards;
  cc.engine = ShardEngineConfig(spec.compact);
  shard::Cluster cluster(&sim, cc);

  workload::ShardedTatpConfig wc;
  wc.subscribers = spec.subscribers;
  wc.cross_shard_ratio = spec.cross_ratio;
  wc.cross_read_ratio = spec.cross_read_ratio;
  workload::ShardedTatp tatp(&cluster, wc);
  // One loader thread per row: the grid already runs --jobs rows at once.
  BIONICDB_CHECK(tatp.Load(/*jobs=*/1).ok());

  workload::DriverReport report;
  sim.Spawn(workload::RunClosedLoop(
      &cluster, [&tatp] { return tatp.NextTransaction(); }, spec.driver,
      &report));
  sim.Run();

  // Cluster throughput: committed txns over the longest shard window.
  // (All shards share one virtual clock and close their windows at the
  // same FinishRun, so every shard reports the same elapsed_ns.)
  const double elapsed_ns =
      static_cast<double>(cluster.shard(0)->metrics().elapsed_ns);
  const uint64_t commits = cluster.TotalCommits();

  Row row(spec.name);
  row.Add("sim_txn_per_sec",
          elapsed_ns > 0 ? static_cast<double>(commits) * 1e9 / elapsed_ns
                         : 0.0);
  row.Add("shards", static_cast<double>(spec.shards));
  row.Add("subscribers", static_cast<double>(spec.subscribers));
  row.Add("cross_ratio", spec.cross_ratio, 4);
  row.Add("commits", static_cast<double>(commits));
  row.Add("aborts", static_cast<double>(cluster.TotalAborts()));
  row.Add("cross_shard_submitted",
          static_cast<double>(report.cross_shard_submitted));
  const shard::TwoPhaseCommitStats& tpc = cluster.tpc_stats();
  row.Add("tpc_started", static_cast<double>(tpc.started));
  row.Add("tpc_committed", static_cast<double>(tpc.committed));
  row.Add("tpc_aborted", static_cast<double>(tpc.aborted));
  row.Add("tpc_retired", static_cast<double>(tpc.decisions_retired));
  const shard::SnapshotReadStats& snap = cluster.snap_stats();
  row.Add("snap_started", static_cast<double>(snap.started));
  row.Add("snap_committed", static_cast<double>(snap.committed));
  // Per-phase 2PC attribution, mean over shard 0's finished transactions
  // (zero on rows with no cross-shard traffic): where the distributed
  // commit path spends its time, and what fan-out removed.
  const obs::FlightRecorder* fr = cluster.shard(0)->flight_recorder();
  if (fr != nullptr && fr->enabled()) {
    for (obs::Stage st : {obs::Stage::kTwoPCExec, obs::Stage::kTwoPCPrepare,
                          obs::Stage::kTwoPCDecision,
                          obs::Stage::kTwoPCFinish}) {
      row.Add(std::string("stage_") + obs::StageKey(st) + "_mean_ns",
              fr->stage_hist(st).Mean());
    }
  }
  // Per-shard attribution (satellite: no single aggregate hiding a hot
  // shard) — submitted/retries/gave_up per home shard.
  for (int i = 0; i < spec.shards; ++i) {
    const workload::DriverCounts& s =
        report.per_shard[static_cast<size_t>(i)];
    const std::string p = "shard" + std::to_string(i) + "_";
    row.Add(p + "submitted", static_cast<double>(s.submitted));
    row.Add(p + "retries", static_cast<double>(s.retries));
    row.Add(p + "gave_up", static_cast<double>(s.gave_up));
    row.Add(p + "commits",
            static_cast<double>(cluster.shard(i)->metrics().commits));
  }
  // Latency tails over all shards' windows (shard 0 is representative —
  // placement is modulo, traffic is uniform).
  const Histogram& lat = cluster.shard(0)->metrics().latency;
  row.Add("p50_latency_us", static_cast<double>(lat.Percentile(50)) / 1e3);
  row.Add("p999_latency_us",
          static_cast<double>(lat.Percentile(99.9)) / 1e3);
  if (spec.compact) {
    uint64_t bytes = 0;
    engine::Database& db = cluster.shard(0)->db();
    for (uint32_t t = 0; t < db.num_tables(); ++t) {
      const storage::CompactStore* cs = db.GetTable(t)->compact_store();
      if (cs != nullptr) bytes += cs->memory_bytes();
    }
    row.Add("shard0_compact_mb", static_cast<double>(bytes) / 1e6);
  }
  return row;
}

/// 100-warehouse TPC-C on one compact-storage engine: the row-count
/// scale (~several hundred thousand rows per warehouse group) the
/// compact layout is for.
Row RunTpccCompact(const RowSpec& spec) {
  sim::Simulator sim;
  engine::Engine eng(&sim, ShardEngineConfig(/*compact=*/true));
  workload::TpccConfig wcfg;
  wcfg.warehouses = 100;
  wcfg.districts_per_warehouse = 10;
  wcfg.customers_per_district = 100;
  wcfg.items = 1000;
  wcfg.initial_orders_per_district = 10;
  workload::TpccWorkload tpcc(&eng, wcfg);
  BIONICDB_CHECK(tpcc.Load().ok());
  sim.Spawn(workload::RunClosedLoop(
      &eng, [&tpcc] { return tpcc.NextTransaction(); }, spec.driver,
      nullptr));
  sim.Run();
  Row row(spec.name);
  row.Add("sim_txn_per_sec", eng.metrics().TxnPerSecond());
  row.Add("commits", static_cast<double>(eng.metrics().commits));
  row.Add("aborts", static_cast<double>(eng.metrics().aborts));
  uint64_t bytes = 0;
  for (uint32_t t = 0; t < eng.db().num_tables(); ++t) {
    const storage::CompactStore* cs = eng.db().GetTable(t)->compact_store();
    if (cs != nullptr) bytes += cs->memory_bytes();
  }
  row.Add("compact_mb", static_cast<double>(bytes) / 1e6);
  row.Add("warehouses", 100.0);
  return row;
}

std::vector<RowSpec> BuildSpecs(bool smoke) {
  std::vector<RowSpec> specs;

  // Passivity pin: the pinned run through the cluster path.
  RowSpec pin;
  pin.name = "shard_closed_1";
  pin.subscribers = kPinSubscribers;
  pin.shards = 1;
  specs.push_back(pin);

  // The sweeps: 4 shards of compact storage under 64 clients unless a
  // sweep varies it.
  RowSpec base;
  base.subscribers = smoke ? 20000 : 100000;
  base.compact = true;
  base.driver.clients = 64;
  base.driver.measured_txns = 8000;
  const auto ratio_name = [](const char* prefix, double r) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%g", prefix, r);
    return std::string(buf);
  };

  // Shard-count sweep at zero cross-shard traffic (monotonicity gate).
  for (int shards : {1, 2, 4, 8}) {
    RowSpec s = base;
    s.name = "shard_sweep_s" + std::to_string(shards);
    s.shards = shards;
    specs.push_back(s);
  }

  // Cross-shard ratio ablation. check_bench gates 2PC commits on every
  // positive ratio and decision-record GC at the top one.
  const std::vector<double> ratios =
      smoke ? std::vector<double>{0.0, 0.05}
            : std::vector<double>{0.0, 0.005, 0.01, 0.02, 0.05, 0.1};
  for (double r : ratios) {
    RowSpec s = base;
    s.name = ratio_name("xshard_r", r);
    s.cross_ratio = r;
    specs.push_back(s);
  }

  // Read-only cross-shard pairs: the prepare-free snapshot path.
  // check_bench gates tpc_started == 0 on every xsnap row.
  const std::vector<double> read_ratios =
      smoke ? std::vector<double>{0.05}
            : std::vector<double>{0.01, 0.05, 0.1};
  for (double r : read_ratios) {
    RowSpec s = base;
    s.name = ratio_name("xsnap_r", r);
    s.cross_read_ratio = r;
    specs.push_back(s);
  }

  // Population sweep: 10k -> 10M subscribers, 1% distributed writes.
  const std::vector<uint64_t> pops =
      smoke ? std::vector<uint64_t>{10000}
            : std::vector<uint64_t>{10000, 100000, 1000000, 10000000};
  for (uint64_t subs : pops) {
    RowSpec s = base;
    s.name = "scale_sub" + std::to_string(subs);
    s.subscribers = subs;
    s.cross_ratio = 0.01;
    s.driver.measured_txns = 6000;
    specs.push_back(s);
  }

  // TPC-C at 100 warehouses on compact storage.
  RowSpec tpcc;
  tpcc.name = "tpcc_compact_w100";
  tpcc.tpcc = true;
  tpcc.driver.warmup_txns = 500;
  tpcc.driver.measured_txns = 3000;
  specs.push_back(tpcc);
  return specs;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, "--smoke", /*grid=*/true);
  const std::vector<RowSpec> specs = BuildSpecs(args.flag);
  // Independent seeded simulations, sharded across host threads; results
  // land in spec order, so the JSON is byte-identical for any --jobs (CI
  // diffs --jobs=1 against --jobs=N).
  const std::vector<Row> rows =
      common::RunGrid<Row>(specs.size(), args.jobs, [&](size_t i) {
        return specs[i].tpcc ? RunTpccCompact(specs[i])
                             : RunShardedTatp(specs[i]);
      });
  EmitRows(rows, args.out_path);
  return 0;
}

}  // namespace
}  // namespace bionicdb::bench

int main(int argc, char** argv) { return bionicdb::bench::Main(argc, argv); }
