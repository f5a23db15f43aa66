// Shared helpers for the BionicDB benchmark harness: canned workload runs
// returning the metrics the paper's figures report, table printing, and
// the JSON rows, timer, command line and pinned run of the four JSON
// benches (wallclock, event_queue, overload, shard_scaling) that
// tools/check_bench.py gates.
//
// Benchmarks run deterministic simulations, so the interesting output is
// the *simulated* throughput/energy/breakdown, not host wall time. Each
// figure binary prints paper-style tables of those results and exits;
// host time belongs to bench/wallclock and perfbench.
//
// Header-only on purpose: tier-1 tests (tests/breakdown_test.cc,
// tests/parallel_runner_test.cc) include it too.
#pragma once

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/alloc_hook.h"
#include "common/parallel_for.h"
#include "engine/engine.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

namespace bionicdb::bench {

struct RunResult {
  double txn_per_sec = 0;
  double uj_per_txn = 0;        ///< microjoules per committed transaction
  double mean_latency_us = 0;
  double p95_latency_us = 0;
  /// Tail percentiles of the same virtual-time latency histogram every
  /// transaction-running bench already records (emitted in its JSON).
  double p50_latency_us = 0;
  double p99_latency_us = 0;
  double p999_latency_us = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  obs::BreakdownReport breakdown;  ///< String-keyed Figure-3 components.
  double cpu_utilization = 0;   ///< fraction of core-time busy
  uint64_t pcie_bytes = 0;
  bool degraded = false;        ///< Any degraded-mode event in the window.
  /// Stage attribution (flight recorder): per-stage latency percentiles in
  /// StageKey order. Only populated when the engine ran with
  /// config.flight.enabled (has_stages says so).
  bool has_stages = false;
  std::array<double, obs::kNumStages> stage_p50_us{};
  std::array<double, obs::kNumStages> stage_p99_us{};
  std::array<double, obs::kNumStages> stage_p999_us{};
};

struct WorkloadScale {
  uint64_t tatp_subscribers = 5000;
  int tpcc_items = 500;
  int tpcc_customers = 60;
  int tpcc_districts = 10;
  /// Enough concurrency to keep agents awake and group commit amortized.
  int clients = 32;
  /// Enough warmup to heat the buffer pool (cold 5 ms SAS reads otherwise
  /// dominate and convoy DORA partitions).
  uint64_t warmup_txns = 2500;
  uint64_t measured_txns = 4000;
};

inline RunResult CollectResult(engine::Engine& engine,
                               const WorkloadScale& scale) {
  // Everything flows through the metrics registry: the same named metrics
  // any other consumer (trace_dump, tests, future exporters) reads. Each
  // bench used to poke engine internals by hand; drift between them is
  // gone because there is one producer per quantity.
  RunResult r;
  const obs::Registry& reg = engine.registry();
  r.txn_per_sec = reg.Value("engine.txn_per_sec");
  r.uj_per_txn = reg.Value("engine.uj_per_txn");
  const Histogram* lat = reg.GetHistogram("engine.latency_ns");
  r.mean_latency_us = lat->Mean() / 1e3;
  r.p95_latency_us = static_cast<double>(lat->Percentile(95)) / 1e3;
  r.p50_latency_us = static_cast<double>(lat->Percentile(50)) / 1e3;
  r.p99_latency_us = static_cast<double>(lat->Percentile(99)) / 1e3;
  r.p999_latency_us = static_cast<double>(lat->Percentile(99.9)) / 1e3;
  // Stage attribution rides along when the flight recorder was on (the
  // registry carries one histogram per stage under a stable dotted name).
  if (reg.Has("engine.txn.total_ns")) {
    r.has_stages = true;
    for (int i = 0; i < obs::kNumStages; ++i) {
      const auto s = static_cast<obs::Stage>(i);
      const Histogram* h = reg.GetHistogram(
          std::string("engine.txn.stage.") + obs::StageKey(s) + "_ns");
      r.stage_p50_us[static_cast<size_t>(i)] =
          static_cast<double>(h->Percentile(50)) / 1e3;
      r.stage_p99_us[static_cast<size_t>(i)] =
          static_cast<double>(h->Percentile(99)) / 1e3;
      r.stage_p999_us[static_cast<size_t>(i)] =
          static_cast<double>(h->Percentile(99.9)) / 1e3;
    }
  }
  r.commits = static_cast<uint64_t>(reg.Value("engine.commits"));
  r.aborts = static_cast<uint64_t>(reg.Value("engine.aborts"));
  r.breakdown = engine.BreakdownSnapshot();
  r.cpu_utilization = reg.Value("platform.cpu_utilization");
  r.pcie_bytes = static_cast<uint64_t>(reg.Value("sim.pcie.bytes"));
  r.degraded = reg.Value("engine.degraded") != 0.0;
  return r;
}

/// TATP standard mix on the given engine configuration.
inline RunResult RunTatpMix(const engine::EngineConfig& config,
                            const WorkloadScale& scale = {}) {
  sim::Simulator sim;
  engine::Engine engine(&sim, config);
  workload::TatpConfig wcfg;
  wcfg.subscribers = scale.tatp_subscribers;
  workload::TatpWorkload tatp(&engine, wcfg);
  BIONICDB_CHECK(tatp.Load().ok());
  workload::DriverConfig dcfg;
  dcfg.clients = scale.clients;
  dcfg.warmup_txns = scale.warmup_txns;
  dcfg.measured_txns = scale.measured_txns;
  sim.Spawn(workload::RunClosedLoop(
      &engine, [&]() { return tatp.NextTransaction(); }, dcfg, nullptr));
  sim.Run();
  return CollectResult(engine, scale);
}

/// A single TATP transaction type, repeated.
inline RunResult RunTatpSingle(const engine::EngineConfig& config,
                               workload::TatpTxnType type,
                               const WorkloadScale& scale = {}) {
  sim::Simulator sim;
  engine::Engine engine(&sim, config);
  workload::TatpConfig wcfg;
  wcfg.subscribers = scale.tatp_subscribers;
  workload::TatpWorkload tatp(&engine, wcfg);
  BIONICDB_CHECK(tatp.Load().ok());
  auto next = [&]() -> engine::Engine::TxnSpec {
    const uint64_t s = tatp.RandomSubscriber();
    switch (type) {
      case workload::TatpTxnType::kGetSubscriberData:
        return tatp.MakeGetSubscriberData(s);
      case workload::TatpTxnType::kUpdateSubscriberData:
        return tatp.MakeUpdateSubscriberData(s);
      case workload::TatpTxnType::kUpdateLocation:
        return tatp.MakeUpdateLocation(tatp.SubNbr(s), 1234);
      case workload::TatpTxnType::kGetAccessData:
        return tatp.MakeGetAccessData(s);
      default:
        return tatp.MakeGetSubscriberData(s);
    }
  };
  workload::DriverConfig dcfg;
  dcfg.clients = scale.clients;
  dcfg.warmup_txns = scale.warmup_txns;
  dcfg.measured_txns = scale.measured_txns;
  sim.Spawn(workload::RunClosedLoop(&engine, next, dcfg, nullptr));
  sim.Run();
  return CollectResult(engine, scale);
}

/// TPC-C mix (or a single type when `only` is set).
inline RunResult RunTpcc(const engine::EngineConfig& config,
                         const WorkloadScale& scale = {},
                         const workload::TpccTxnType* only = nullptr) {
  sim::Simulator sim;
  engine::Engine engine(&sim, config);
  workload::TpccConfig wcfg;
  wcfg.items = scale.tpcc_items;
  wcfg.customers_per_district = scale.tpcc_customers;
  wcfg.districts_per_warehouse = scale.tpcc_districts;
  workload::TpccWorkload tpcc(&engine, wcfg);
  BIONICDB_CHECK(tpcc.Load().ok());
  auto next = [&]() -> engine::Engine::TxnSpec {
    if (only == nullptr) return tpcc.NextTransaction();
    switch (*only) {
      case workload::TpccTxnType::kStockLevel:
        return tpcc.MakeStockLevel(
            0, sim.rng().Uniform(static_cast<uint64_t>(scale.tpcc_districts)),
            15);
      case workload::TpccTxnType::kNewOrder:
        return tpcc.MakeNewOrder(
            0, sim.rng().Uniform(static_cast<uint64_t>(scale.tpcc_districts)));
      case workload::TpccTxnType::kPayment:
        return tpcc.MakePayment(
            0, sim.rng().Uniform(static_cast<uint64_t>(scale.tpcc_districts)),
            sim.rng().Uniform(static_cast<uint64_t>(scale.tpcc_customers)));
      default:
        return tpcc.NextTransaction();
    }
  };
  workload::DriverConfig dcfg;
  dcfg.clients = scale.clients;
  dcfg.warmup_txns = scale.warmup_txns;
  dcfg.measured_txns = scale.measured_txns;
  sim.Spawn(workload::RunClosedLoop(&engine, next, dcfg, nullptr));
  sim.Run();
  return CollectResult(engine, scale);
}

/// Deterministic multi-core sweep: runs `n` independent configuration
/// points (each building its own Simulator + Engine inside `make`) across
/// up to `jobs` host threads and returns the results in point order, so a
/// sweep's printed table is byte-identical whatever the job count.
/// jobs == 0 means common::DefaultJobs() (BIONICDB_JOBS env, else cores).
template <typename Make>
std::vector<RunResult> RunSweep(size_t n, Make&& make, size_t jobs = 0) {
  if (jobs == 0) jobs = common::DefaultJobs();
  return common::RunGrid<RunResult>(n, jobs, std::forward<Make>(make));
}

inline void PrintHeader(const char* title) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", title);
  std::printf("==================================================================\n");
}

inline void PrintResultRow(const std::string& label, const RunResult& r) {
  std::printf("%-28s %10.0f txn/s  %8.2f uJ/txn  %8.1f us p95  cpu %4.0f%%\n",
              label.c_str(), r.txn_per_sec, r.uj_per_txn, r.p95_latency_us,
              r.cpu_utilization * 100.0);
}

inline void PrintBreakdown(const std::string& label, const RunResult& r) {
  std::printf("%s\n%s", label.c_str(), r.breakdown.ToTable().c_str());
}

// ------------------------------------------------------------ JSON rows --

/// One row of a JSON bench: a name and ordered numeric fields, each
/// printed with its own number of decimals.
struct Row {
  struct Field {
    std::string key;
    double value = 0;
    int decimals = 1;
  };
  std::string name;
  int decimals = 1;  ///< Used by Add() calls that name none.
  std::vector<Field> fields;

  Row() = default;
  explicit Row(std::string row_name, int default_decimals = 1)
      : name(std::move(row_name)), decimals(default_decimals) {}

  void Add(std::string key, double value) {
    Add(std::move(key), value, decimals);
  }
  void Add(std::string key, double value, int field_decimals) {
    fields.push_back({std::move(key), value, field_decimals});
  }
  /// The unrounded value of field `key`, which must exist.
  double Value(const std::string& key) const {
    for (const Field& f : fields) {
      if (f.key == key) return f.value;
    }
    BIONICDB_CHECK_MSG(false, "row %s has no field %s", name.c_str(),
                       key.c_str());
    return 0;
  }
};

/// The one schema check_bench.py reads: a flat object of rows,
/// {"row": {"key": value, ...}, ...}, one row per line.
inline std::string FormatRows(const std::vector<Row>& rows) {
  std::string out = "{\n";
  char num[400];  // %.*f of any double at up to 80 decimals
  for (size_t i = 0; i < rows.size(); ++i) {
    out += "  \"" + rows[i].name + "\": {";
    for (size_t j = 0; j < rows[i].fields.size(); ++j) {
      const Row::Field& f = rows[i].fields[j];
      std::snprintf(num, sizeof(num), "%.*f", f.decimals, f.value);
      out += (j ? ", \"" : "\"") + f.key + "\": " + num;
    }
    out += i + 1 < rows.size() ? "},\n" : "}\n";
  }
  return out + "}\n";
}

/// Prints the rows to stdout and, when `path` is non-empty, to that file.
inline void EmitRows(const std::vector<Row>& rows, const std::string& path) {
  const std::string json = FormatRows(rows);
  std::fputs(json.c_str(), stdout);
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  BIONICDB_CHECK_MSG(f != nullptr, "cannot write %s", path.c_str());
  std::fputs(json.c_str(), f);
  std::fclose(f);
}

/// Host wall time and allocation count (bench/alloc_hook.h; zero unless
/// the binary defines the hook) from construction to Stop().
class Timer {
 public:
  Timer()
      : start_(std::chrono::steady_clock::now()), allocs0_(AllocCount()) {}

  /// A row holding the four standard fields: ns_per_op, allocs_per_op,
  /// ops and wall_ms. The clock and the allocation counter are read
  /// before the row is built, so the row's own allocations are not
  /// counted (tatp_e2e_dora's allocs_per_op is gated).
  Row Stop(const std::string& name, uint64_t ops) const {
    const auto end = std::chrono::steady_clock::now();
    const uint64_t allocs = AllocCount() - allocs0_;
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count());
    const double n = static_cast<double>(ops);
    Row row(name);
    row.Add("ns_per_op", ops ? ns / n : 0, 1);
    row.Add("allocs_per_op", ops ? static_cast<double>(allocs) / n : 0, 3);
    row.Add("ops", n, 0);
    row.Add("wall_ms", ns / 1e6, 1);
    return row;
  }

 private:
  std::chrono::steady_clock::time_point start_;
  uint64_t allocs0_;
};

/// The command line of a JSON bench.
struct BenchArgs {
  std::string out_path;  ///< Empty: stdout only.
  size_t jobs = 0;       ///< Grid threads: --jobs=N, else DefaultJobs().
  bool flag = false;     ///< The bench's own boolean flag was given.
};

/// Accepts an optional output path in any position, `--jobs=N` (N >= 1)
/// when `grid`, and the bench's own boolean `flag` (nullptr: none).
/// Anything else prints a usage line and exits 2.
inline BenchArgs ParseBenchArgs(int argc, char** argv, const char* flag,
                                bool grid) {
  BenchArgs args;
  args.jobs = common::DefaultJobs();
  bool ok = true;
  for (int i = 1; i < argc && ok; ++i) {
    const char* a = argv[i];
    if (flag != nullptr && std::strcmp(a, flag) == 0) {
      args.flag = true;
    } else if (grid && std::strncmp(a, "--jobs=", 7) == 0) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(a + 7, &end, 10);
      ok = a[7] >= '0' && a[7] <= '9' && *end == '\0' && n >= 1;
      args.jobs = static_cast<size_t>(n);
    } else if (a[0] != '-' && args.out_path.empty()) {
      args.out_path = a;
    } else {
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "usage: %s%s%s%s%s [out.json]\n", argv[0],
                 grid ? " [--jobs=N]" : "", flag != nullptr ? " [" : "",
                 flag != nullptr ? flag : "", flag != nullptr ? "]" : "");
    std::exit(2);
  }
  return args;
}

// The pinned run: closed-loop TATP on the default DORA engine with the
// flight recorder on. check_bench.py holds its sim_txn_per_sec at exactly
// 2192905.5 in wallclock (tatp_e2e_dora), overload (overload_closed_dora)
// and shard_scaling (shard_closed_1, through a 1-shard cluster): neither
// the recorder, the threaded backend's engine hooks, the admission
// machinery nor the cluster layer may move the simulated schedule.

inline constexpr uint64_t kPinSubscribers = 5000;

/// The default DORA engine with the (passive) flight recorder on.
inline engine::EngineConfig PinEngineConfig() {
  engine::EngineConfig cfg;
  cfg.flight.enabled = true;
  return cfg;
}

inline workload::DriverConfig PinDriverConfig() {
  workload::DriverConfig d;
  d.clients = 32;
  d.warmup_txns = 2000;
  d.measured_txns = 6000;
  return d;
}

/// Loads the pinned run on one engine and spawns its closed loop; `run`
/// drives the simulator (so a caller can time just that) and reads the
/// engine afterwards. Returns what `run` returns.
template <typename Run>
auto RunPinnedTatp(Run&& run) {
  sim::Simulator sim;
  engine::Engine eng(&sim, PinEngineConfig());
  workload::TatpConfig wcfg;
  wcfg.subscribers = kPinSubscribers;
  workload::TatpWorkload tatp(&eng, wcfg);
  BIONICDB_CHECK(tatp.Load().ok());
  // The driver coroutine holds its config by reference until it ends.
  const workload::DriverConfig dcfg = PinDriverConfig();
  sim.Spawn(workload::RunClosedLoop(
      &eng, [&]() { return tatp.NextTransaction(); }, dcfg, nullptr));
  return run(sim, eng);
}

}  // namespace bionicdb::bench
