// Engine configurations: the three architectures the benchmarks compare.
//
//  * Conventional — shared-everything multicore baseline: 2PL lock manager,
//    latched B+Trees, buffer pool, CAS-contended software log.
//  * Dora — the data-oriented architecture of [10, 11]: logical partitions,
//    queues and rendezvous points, thread-local locking; all in software.
//  * Bionic — the paper's proposal (Figure 4): DORA software structure with
//    tree probes, logging, queue management, the overlay database, and the
//    enhanced scanner offloaded to (simulated) reconfigurable hardware.
#pragma once

#include <string>
#include <string_view>

#include "hw/log_unit.h"
#include "hw/platform.h"
#include "hw/queue_engine.h"
#include "hw/scanner_unit.h"
#include "hw/tree_probe_unit.h"
#include "index/btree.h"
#include "obs/profiler.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "queueing/admission.h"
#include "queueing/scheduler.h"
#include "sim/fault.h"

namespace bionicdb::engine {

enum class EngineMode { kConventional, kDora, kBionic };

const char* EngineModeName(EngineMode m);
/// The lowercase name the command-line tools take: "conventional", "dora"
/// or "bionic".
const char* EngineModeArg(EngineMode m);
/// Parses a name EngineModeArg returns; false for any other string.
bool ParseEngineMode(std::string_view name, EngineMode* mode);

/// Per-unit offload switches (the E9 ablation knobs). Only consulted in
/// kBionic mode.
struct OffloadConfig {
  bool tree_probe = true;
  bool logging = true;
  bool queueing = true;
  bool overlay = true;  ///< Overlay database instead of the buffer pool.
  bool scanner = true;

  static OffloadConfig AllOn() { return OffloadConfig{}; }
  static OffloadConfig AllOff() {
    return OffloadConfig{false, false, false, false, false};
  }
};

struct EngineConfig {
  EngineMode mode = EngineMode::kDora;
  hw::PlatformSpec platform = hw::PlatformSpec::CommodityServer();

  int num_partitions = 6;   ///< DORA logical partitions (== agents).
  /// Conventional engine: worker-pool size == max in-flight transactions
  /// (blocked workers do not hold cores, so pools are sized well past the
  /// core count, as real servers do).
  int workers = 64;
  size_t bpool_frames = 16384;
  int sockets = 1;          ///< Sockets sharing the log (contention knob).
  double overlay_residency = 1.0;  ///< Fraction of rows resident FPGA-side.
  /// Overlay entry budget per table (0 == unlimited). Past it, clean rows
  /// are evicted FIFO and re-fetched from base data on demand (§5.6).
  size_t overlay_capacity = 0;

  /// Memory-lean table storage for scale sweeps (storage/compact.h): rows
  /// in slabbed heaps behind front-coded packed key indexes instead of
  /// slotted pages + primary B+Tree. Bulk-load then Engine::FinalizeLoad()
  /// before serving. Probe costs are charged identically (synthetic
  /// fanout-64 height); buffer-pool charges disappear with the pool. Runs
  /// on the simulator and the real-thread backend alike; not supported
  /// with the bionic overlay (the Engine constructor CHECKs it).
  bool compact_storage = false;

  /// Deterministic fault schedule for the simulated I/O stack. Empty (the
  /// default) means an infallible platform — no injector is created.
  sim::FaultPlan fault_plan;

  /// Bounded admission layer for open-loop load (see queueing/admission.h).
  /// Disabled by default: closed-loop drivers call Execute() directly and
  /// their pinned schedules are untouched.
  AdmissionConfig admission;

  /// Observability switch. Disabled (the default) costs one predicted-
  /// not-taken branch per record site and allocates nothing; enabled, the
  /// engine traces every layer and samples utilization/queue-depth
  /// timelines (see docs/OBSERVABILITY.md).
  obs::TraceConfig trace;

  /// Flight recorder: per-transaction causal timelines + a bounded
  /// reservoir of the K slowest and a deterministic sample of ordinary
  /// transactions. Purely passive (no simulator events, no RNG), so
  /// enabling it never perturbs virtual-time results.
  obs::FlightConfig flight;

  /// Virtual-time sampling profiler: periodically snapshots what every
  /// DORA agent, hardware unit, and the WAL flush pipeline is doing.
  /// Enabling it adds wakeup events to the simulation (read-only ones),
  /// so virtual-time results may differ from a profile-off run.
  obs::ProfileConfig profile;

  OffloadConfig offload = OffloadConfig::AllOff();
  index::BTreeConfig index_config;
  queueing::DozePolicy doze;
  hw::TreeProbeConfig probe_config;
  hw::LogUnitConfig log_unit_config;
  hw::QueueEngineConfig queue_engine_config;
  hw::ScannerConfig scanner_config;

  /// Shared-everything software baseline on a commodity server.
  static EngineConfig Conventional();
  /// Software DORA on a commodity server (the Figure-3 system).
  static EngineConfig Dora();
  /// The bionic hybrid on the Convey HC-2 platform, all units offloaded.
  static EngineConfig Bionic();
  /// The preset of `mode`: one of the three above.
  static EngineConfig For(EngineMode mode);
};

}  // namespace bionicdb::engine
