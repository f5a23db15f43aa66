// Shared helpers for the BionicDB benchmark harness: canned workload runs
// returning the metrics the paper's figures report, plus table printing.
//
// Benchmarks run deterministic simulations, so the interesting output is
// the *simulated* throughput/energy/breakdown, not host wall time. Each
// figure binary prints paper-style tables of those results and exits;
// host time belongs to bench/wallclock and perfbench.
//
// Header-only on purpose: tier-1 tests (tests/breakdown_test.cc) include
// it too.
#pragma once

#include <array>
#include <cstdio>
#include <string>
#include <vector>

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

}  // namespace bionicdb::bench
