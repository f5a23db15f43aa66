// Benchmark drivers.
//
//  * RunClosedLoop — N clients, each submitting transactions back-to-back,
//    with a warmup wave (populating caches) excluded from the measurement
//    window. Offered load is capped by service capacity by construction,
//    so the engine never sees overload. One body drives an engine::Engine
//    or a shard::Cluster; a 1-shard cluster run is bit-identical to the
//    same run on the unsharded engine (same spawns, same RNG draws, same
//    waves).
//  * RunOpenLoop — an arrival PROCESS (workload/arrival.h) offers load
//    independently of service completions, through the engine's bounded
//    admission queue (queueing/admission.h). Offered load may exceed
//    capacity: the queue sheds, latency is measured as end-to-end sojourn
//    (queue wait charged to the timeline's admit stage), and memory stays
//    bounded no matter how large the client population is. See
//    EXPERIMENTS.md ("Open-loop overload methodology").
#pragma once

#include <functional>
#include <vector>

#include "common/histogram.h"
#include "engine/engine.h"
#include "shard/cluster.h"
#include "workload/arrival.h"

namespace bionicdb::workload {

/// Produces the next transaction to submit.
using NextTxnFn = std::function<engine::Engine::TxnSpec()>;

struct DriverConfig {
  int clients = 8;
  uint64_t warmup_txns = 200;    ///< Total across all clients.
  uint64_t measured_txns = 2000; ///< Total across all clients.
  /// Re-execute a transaction that aborted (wait-die) up to this many
  /// times, with a short backoff. Non-Aborted failures are not retried.
  int max_retries = 30;
  SimTime retry_backoff_ns = 20000;
  /// Read every page through the buffer pool before the warmup wave, so
  /// measurement reflects a warm cache (cold 5 ms disk reads otherwise
  /// convoy DORA partitions mid-measurement).
  bool preheat = true;
};

/// Clamps a config to runnable values: clients >= 1 (zero clients used to
/// hang RunWave forever — and divide by zero splitting the wave), retries
/// and backoff non-negative. Both drivers funnel their service knobs
/// through here; call it directly to see what a config will actually run.
DriverConfig ValidatedDriverConfig(DriverConfig config);

/// Outcome counters of the measured wave.
struct DriverCounts {
  uint64_t submitted = 0;
  uint64_t retries = 0;
  uint64_t gave_up = 0;  ///< Aborted and out of retry budget.
  uint64_t failed = 0;   ///< Non-aborted failures (I/O, durability) — never
                         ///< retried, so not counted in gave_up.
};

/// The inherited totals are the sums of `per_shard`.
struct DriverReport : DriverCounts {
  uint64_t cross_shard_submitted = 0;  ///< Multi-fragment transactions.
  /// The same counters per HOME shard — the lowest shard a transaction
  /// touches, which for a distributed transaction is also its 2PC
  /// coordinator — so a hot or abort-prone shard is not averaged away.
  /// An engine is home shard 0 of 1.
  std::vector<DriverCounts> per_shard;
};

/// Runs the full benchmark inside the simulator: starts the agents, runs
/// the warmup wave, resets stats, runs the measured wave, closes the
/// measurement window, and drains the agents. Spawn this on the simulator
/// and call sim.Run().
sim::Task<void> RunClosedLoop(engine::Engine* engine, NextTxnFn next,
                              const DriverConfig& config,
                              DriverReport* report = nullptr);
sim::Task<void> RunClosedLoop(shard::Cluster* cluster,
                              std::function<shard::ShardedTxn()> next,
                              const DriverConfig& config,
                              DriverReport* report = nullptr);

// ----------------------------------------------------------- open loop --

struct OpenLoopConfig {
  /// Arrival process + lazily-sampled client population.
  ArrivalConfig arrival;
  /// Warmup: arrivals flow but nothing is counted; ResetStats() fires at
  /// the boundary so engine metrics cover the measured window only.
  SimTime warmup_ns = 2000000;
  SimTime measure_ns = 10000000;
  /// Service-side knobs, validated through ValidatedDriverConfig like the
  /// closed loop: `clients` = concurrent open-loop servers draining the
  /// admission queue (the service parallelism), plus max_retries /
  /// retry_backoff_ns / preheat. warmup_txns/measured_txns are unused —
  /// the open loop measures in virtual TIME, not transaction count.
  DriverConfig service;
};

struct OpenLoopReport {
  // Driver-side counters over the measured window.
  uint64_t offered = 0;    ///< Arrivals generated.
  uint64_t shed = 0;       ///< Requests shed at admission (rejected
                           ///< arrivals, or queue entries evicted by
                           ///< ShedPolicy::kDropOldest).
  uint64_t completed = 0;  ///< Requests served to a final status.
  uint64_t committed = 0;
  uint64_t gave_up = 0;    ///< Aborted and out of retry budget.
  uint64_t failed = 0;     ///< Non-aborted failures.
  uint64_t retries = 0;
  /// End-to-end sojourn (arrival -> final status, virtual ns) of every
  /// completed request in the window; shed requests are not latency
  /// samples — read them from `shed` / shed_rate().
  Histogram sojourn_ns;
  /// Admission-queue counters over the window (engine-side view).
  engine::AdmissionStats admission;

  double shed_rate() const {
    return offered ? static_cast<double>(shed) / static_cast<double>(offered)
                   : 0.0;
  }
  /// Committed txns per virtual second of measured window.
  double goodput_tps(SimTime window_ns) const {
    return window_ns > 0 ? static_cast<double>(committed) * 1e9 /
                               static_cast<double>(window_ns)
                         : 0.0;
  }
};

/// Open-loop driver. Requires an engine built with config.admission
/// .enabled (it drives engine->admission()). Spawns `service.clients`
/// server tasks plus one arrival task, runs warmup + measured windows in
/// virtual time, drains the residual queue, and shuts the engine down.
/// Spawn on the simulator and call sim.Run().
sim::Task<void> RunOpenLoop(engine::Engine* engine, NextTxnFn next,
                            const OpenLoopConfig& config,
                            OpenLoopReport* report = nullptr);

}  // namespace bionicdb::workload
