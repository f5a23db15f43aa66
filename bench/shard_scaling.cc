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
//   * shard_closed_1 — the EXACT unsharded wallclock configuration run
//     through the cluster path (1 shard). Its sim_txn_per_sec must equal
//     the 2192905.5 passivity pin bit-for-bit: routing a transaction
//     through shard::Cluster adds no events, no draws, no charges.
//   * tpcc_compact_w100 — 100-warehouse TPC-C on compact storage: the
//     row-count scale the slab+prefix-packed layout exists for.
//
// Every row is a seeded virtual-time simulation: byte-identical output
// across --jobs values (the CI determinism diff), host-independent
// numbers. --smoke trims the population sweep for CI.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "engine/engine.h"
#include "obs/timeline.h"
#include "shard/cluster.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/sharded_tatp.h"
#include "workload/tpcc.h"

namespace bionicdb::bench {
namespace {

struct RowSpec {
  std::string name;
  uint64_t subscribers = 100000;
  int shards = 4;
  double cross_ratio = 0.0;
  double cross_read_ratio = 0.0;
  bool compact = false;
  int clients = 32;
  uint64_t warmup_txns = 2000;
  uint64_t measured_txns = 6000;
  bool tpcc = false;  ///< tpcc_compact_w100 only.
};

struct Row {
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
};

engine::EngineConfig ShardEngineConfig(bool compact) {
  engine::EngineConfig cfg;  // default: DORA mode, commodity server
  cfg.flight.enabled = true;
  cfg.compact_storage = compact;
  return cfg;
}

/// One cluster run. The pin row (shards=1, ratio=0, no compact) walks
/// exactly the unsharded wallclock schedule.
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
  BIONICDB_CHECK(tatp.Load().ok());

  workload::DriverConfig dcfg;
  dcfg.clients = spec.clients;
  dcfg.warmup_txns = spec.warmup_txns;
  dcfg.measured_txns = spec.measured_txns;
  workload::DriverReport report;
  sim.Spawn(workload::RunClosedLoop(
      &cluster, [&tatp] { return tatp.NextTransaction(); }, dcfg, &report));
  sim.Run();

  // Cluster throughput: committed txns over the longest shard window.
  // (All shards share one virtual clock and close their windows at the
  // same FinishRun, so every shard reports the same elapsed_ns.)
  const double elapsed_ns =
      static_cast<double>(cluster.shard(0)->metrics().elapsed_ns);
  const uint64_t commits = cluster.TotalCommits();

  Row row;
  row.name = spec.name;
  row.fields.emplace_back("sim_txn_per_sec",
                          elapsed_ns > 0
                              ? static_cast<double>(commits) * 1e9 / elapsed_ns
                              : 0.0);
  row.fields.emplace_back("shards", static_cast<double>(spec.shards));
  row.fields.emplace_back("subscribers",
                          static_cast<double>(spec.subscribers));
  row.fields.emplace_back("cross_ratio", spec.cross_ratio);
  row.fields.emplace_back("commits", static_cast<double>(commits));
  row.fields.emplace_back("aborts",
                          static_cast<double>(cluster.TotalAborts()));
  row.fields.emplace_back(
      "cross_shard_submitted",
      static_cast<double>(report.cross_shard_submitted));
  const shard::TwoPhaseCommitStats& tpc = cluster.tpc_stats();
  row.fields.emplace_back("tpc_started", static_cast<double>(tpc.started));
  row.fields.emplace_back("tpc_committed",
                          static_cast<double>(tpc.committed));
  row.fields.emplace_back("tpc_aborted", static_cast<double>(tpc.aborted));
  row.fields.emplace_back("tpc_retired",
                          static_cast<double>(tpc.decisions_retired));
  const shard::SnapshotReadStats& snap = cluster.snap_stats();
  row.fields.emplace_back("snap_started", static_cast<double>(snap.started));
  row.fields.emplace_back("snap_committed",
                          static_cast<double>(snap.committed));
  // Per-phase 2PC attribution, mean over shard 0's finished transactions
  // (zero on rows with no cross-shard traffic): where the distributed
  // commit path spends its time, and what fan-out removed.
  const obs::FlightRecorder* fr = cluster.shard(0)->flight_recorder();
  if (fr != nullptr && fr->enabled()) {
    for (obs::Stage st : {obs::Stage::kTwoPCExec, obs::Stage::kTwoPCPrepare,
                          obs::Stage::kTwoPCDecision,
                          obs::Stage::kTwoPCFinish}) {
      row.fields.emplace_back(
          std::string("stage_") + obs::StageKey(st) + "_mean_ns",
          fr->stage_hist(st).Mean());
    }
  }
  // Per-shard attribution (satellite: no single aggregate hiding a hot
  // shard) — submitted/retries/gave_up per home shard.
  for (int i = 0; i < spec.shards; ++i) {
    const workload::DriverCounts& s =
        report.per_shard[static_cast<size_t>(i)];
    const std::string p = "shard" + std::to_string(i) + "_";
    row.fields.emplace_back(p + "submitted",
                            static_cast<double>(s.submitted));
    row.fields.emplace_back(p + "retries", static_cast<double>(s.retries));
    row.fields.emplace_back(p + "gave_up", static_cast<double>(s.gave_up));
    row.fields.emplace_back(
        p + "commits",
        static_cast<double>(cluster.shard(i)->metrics().commits));
  }
  // Latency tails over all shards' windows (shard 0 is representative —
  // placement is modulo, traffic is uniform).
  const Histogram& lat = cluster.shard(0)->metrics().latency;
  row.fields.emplace_back("p50_latency_us",
                          static_cast<double>(lat.Percentile(50)) / 1e3);
  row.fields.emplace_back("p999_latency_us",
                          static_cast<double>(lat.Percentile(99.9)) / 1e3);
  if (spec.compact) {
    uint64_t bytes = 0;
    engine::Database& db = cluster.shard(0)->db();
    for (uint32_t t = 0; t < db.num_tables(); ++t) {
      const storage::CompactStore* cs = db.GetTable(t)->compact_store();
      if (cs != nullptr) bytes += cs->memory_bytes();
    }
    row.fields.emplace_back("shard0_compact_mb",
                            static_cast<double>(bytes) / 1e6);
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
  workload::DriverConfig dcfg;
  dcfg.clients = spec.clients;
  dcfg.warmup_txns = spec.warmup_txns;
  dcfg.measured_txns = spec.measured_txns;
  sim.Spawn(workload::RunClosedLoop(
      &eng, [&tpcc] { return tpcc.NextTransaction(); }, dcfg, nullptr));
  sim.Run();
  Row row;
  row.name = spec.name;
  row.fields.emplace_back("sim_txn_per_sec", eng.metrics().TxnPerSecond());
  row.fields.emplace_back("commits",
                          static_cast<double>(eng.metrics().commits));
  row.fields.emplace_back("aborts",
                          static_cast<double>(eng.metrics().aborts));
  uint64_t bytes = 0;
  for (uint32_t t = 0; t < eng.db().num_tables(); ++t) {
    const storage::CompactStore* cs = eng.db().GetTable(t)->compact_store();
    if (cs != nullptr) bytes += cs->memory_bytes();
  }
  row.fields.emplace_back("compact_mb", static_cast<double>(bytes) / 1e6);
  row.fields.emplace_back("warehouses", 100.0);
  return row;
}

std::vector<RowSpec> BuildSpecs(bool smoke) {
  std::vector<RowSpec> specs;

  // Passivity pin: the wallclock tatp_e2e_dora configuration, verbatim,
  // through the cluster path.
  {
    RowSpec s;
    s.name = "shard_closed_1";
    s.subscribers = 5000;
    s.shards = 1;
    s.cross_ratio = 0.0;
    s.compact = false;
    s.clients = 32;
    s.warmup_txns = 2000;
    s.measured_txns = 6000;
    specs.push_back(s);
  }

  // Shard-count sweep at zero cross-shard traffic (monotonicity gate).
  const uint64_t sweep_subs = smoke ? 20000 : 100000;
  for (int shards : {1, 2, 4, 8}) {
    RowSpec s;
    s.name = "shard_sweep_s" + std::to_string(shards);
    s.subscribers = sweep_subs;
    s.shards = shards;
    s.cross_ratio = 0.0;
    s.compact = true;
    s.clients = 64;
    s.warmup_txns = 2000;
    s.measured_txns = 8000;
    specs.push_back(s);
  }

  // Cross-shard ratio ablation at 4 shards. check_bench gates 2PC
  // commits on every positive ratio and decision-record GC at the top one.
  const std::vector<double> ratios =
      smoke ? std::vector<double>{0.0, 0.05}
            : std::vector<double>{0.0, 0.005, 0.01, 0.02, 0.05, 0.1};
  for (double r : ratios) {
    RowSpec s;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", r);
    s.name = std::string("xshard_r") + buf;
    s.subscribers = sweep_subs;
    s.shards = 4;
    s.cross_ratio = r;
    s.compact = true;
    s.clients = 64;
    s.warmup_txns = 2000;
    s.measured_txns = 8000;
    specs.push_back(s);
  }

  // Read-only cross-shard pairs at 4 shards: the prepare-free snapshot
  // path. check_bench gates tpc_started == 0 on every xsnap row.
  const std::vector<double> read_ratios =
      smoke ? std::vector<double>{0.05}
            : std::vector<double>{0.01, 0.05, 0.1};
  for (double r : read_ratios) {
    RowSpec s;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", r);
    s.name = std::string("xsnap_r") + buf;
    s.subscribers = sweep_subs;
    s.shards = 4;
    s.cross_ratio = 0.0;
    s.cross_read_ratio = r;
    s.compact = true;
    s.clients = 64;
    s.warmup_txns = 2000;
    s.measured_txns = 8000;
    specs.push_back(s);
  }

  // Population sweep: 10k -> 10M subscribers at 4 shards, 1% distributed
  // writes, compact storage.
  const std::vector<uint64_t> pops =
      smoke ? std::vector<uint64_t>{10000}
            : std::vector<uint64_t>{10000, 100000, 1000000, 10000000};
  for (uint64_t subs : pops) {
    RowSpec s;
    s.name = "scale_sub" + std::to_string(subs);
    s.subscribers = subs;
    s.shards = 4;
    s.cross_ratio = 0.01;
    s.compact = true;
    s.clients = 64;
    s.warmup_txns = 2000;
    s.measured_txns = 6000;
    specs.push_back(s);
  }

  // TPC-C at 100 warehouses on compact storage.
  {
    RowSpec s;
    s.name = "tpcc_compact_w100";
    s.tpcc = true;
    s.clients = 32;
    s.warmup_txns = 500;
    s.measured_txns = 3000;
    specs.push_back(s);
  }
  return specs;
}

void EmitJson(const std::vector<Row>& rows, FILE* f) {
  std::fprintf(f, "{\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "  \"%s\": {", rows[i].name.c_str());
    for (size_t j = 0; j < rows[i].fields.size(); ++j) {
      const auto& [k, v] = rows[i].fields[j];
      // cross_ratio needs sub-percent precision; everything else keeps
      // the wallclock %.1f convention the throughput pin is stated in.
      std::fprintf(f, k == "cross_ratio" ? "%s\"%s\": %.4f" : "%s\"%s\": %.1f",
                   j ? ", " : "", k.c_str(), v);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
}

int Main(int argc, char** argv) {
  bool smoke = false;
  size_t jobs = common::DefaultJobs();
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<size_t>(std::stoul(argv[++i]));
    } else {
      out_path = argv[i];
    }
  }
  const std::vector<RowSpec> specs = BuildSpecs(smoke);
  // Independent seeded simulations, sharded across host threads; results
  // land in spec order, so the JSON is byte-identical for any --jobs (CI
  // diffs --jobs 1 against --jobs 2).
  const std::vector<Row> rows =
      common::RunGrid<Row>(specs.size(), jobs, [&](size_t i) {
        return specs[i].tpcc ? RunTpccCompact(specs[i])
                             : RunShardedTatp(specs[i]);
      });
  EmitJson(rows, stdout);
  if (out_path != nullptr) {
    FILE* f = std::fopen(out_path, "w");
    BIONICDB_CHECK(f != nullptr);
    EmitJson(rows, f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace
}  // namespace bionicdb::bench

int main(int argc, char** argv) { return bionicdb::bench::Main(argc, argv); }
