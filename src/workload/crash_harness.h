// Crash-recovery property harness: runs a workload (TATP or TPC-C) once on
// a shard::Cluster, under an optional fault plan, captures every shard's
// WAL image, and then checks recovery at arbitrary crash points — with a
// corpus of tail corruptions — against a committed-transaction oracle
// computed from the logs themselves.
//
// One shard is the unsharded engine (the cluster's passivity pin), so the
// same harness checks single-engine recovery and distributed recovery.
// While the workload runs, the harness samples CONSISTENT cluster-wide
// crash points: every shard's durable LSN at one virtual instant.
// Coordinator and participant crashes both fall out of such cuts:
//  * a cut landing after prepares but before the coordinator's decision
//    record is a COORDINATOR crash — recovery must presume abort on
//    every participant (stats.prepared_aborted > 0);
//  * a cut landing after the decision but before a participant's local
//    commit record is a PARTICIPANT crash — recovery must commit the
//    prepared branch from the surviving decision record
//    (stats.prepared_committed > 0).
// The 2PC protocol makes the decision durable before any branch commits,
// so consistent cuts can never strand a committed branch without its
// decision; CheckCrashPoint verifies exactly that, plus per-gtid
// cross-shard atomicity.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "engine/config.h"
#include "sim/fault.h"
#include "wal/log_manager.h"
#include "wal/record.h"
#include "wal/recovery.h"

namespace bionicdb::workload {

/// How the simulated crash mangles the log tail.
enum class TailFault {
  kCleanCut,  ///< Pure truncation at the crash point.
  kZeroFill,  ///< Truncation followed by preallocated-file zero padding.
  kBitFlip,   ///< Last durable record hit by a single flipped bit.
};

const char* TailFaultName(TailFault f);

struct CrashHarnessConfig {
  engine::EngineMode mode = engine::EngineMode::kDora;
  uint64_t seed = 1;
  bool use_tpcc = false;  ///< false == TATP.
  /// TATP spreads its subscribers over every shard; TPC-C needs exactly
  /// one.
  int num_shards = 1;
  /// Probability that a TATP transaction is a two-shard distributed
  /// write (needs num_shards > 1).
  double cross_shard_ratio = 0.0;
  int clients = 4;
  int txns = 200;   ///< Transactions across all clients.
  int scale = 100;  ///< TATP subscribers / TPC-C customers per district.
  sim::FaultPlan fault_plan;  ///< Applied to the original run only.

  /// The distributed-recovery corpus: TATP on 3 shards over 60
  /// subscribers, 40% of transactions two-shard writes, 300 transactions.
  static CrashHarnessConfig ThreeShardCrossShard();
};

/// The engine every shard of the harness runs in `mode`: the mode's
/// preset, with 4 partitions for DORA and Bionic.
engine::EngineConfig HarnessEngineConfig(engine::EngineMode mode);

/// One shard's log as the original run left it.
struct ShardLog {
  std::string log;  ///< Full in-memory log image.
  wal::Lsn durable_lsn = 0;
  wal::LogStats log_stats;
};

/// Everything the original (crashing) run produced. Counters are
/// cluster-wide totals.
struct CrashRunResult {
  std::vector<ShardLog> shards;  ///< Indexed by shard id.
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t tpc_commits = 0;  ///< Distributed (2PC) commits.
  uint64_t faults_injected = 0;
  uint64_t durability_failures = 0;
  uint64_t hw_fallbacks = 0;
  SimTime end_time_ns = 0;  ///< When the driver finished.
  uint64_t events_processed = 0;
};

class CrashHarness {
 public:
  explicit CrashHarness(const CrashHarnessConfig& config);

  /// One crash: shard i's log survives up to byte cuts[i], then the tail
  /// is mangled by `fault` (randomized by `seed`: zero-run length, flipped
  /// bit). Multi-shard points take clean cuts only: a bit flip destroys a
  /// durable record, and 2PC atomicity does not survive losing one (a lost
  /// kCoordCommit strands participants that already committed).
  struct CrashPoint {
    std::vector<size_t> cuts;
    TailFault fault = TailFault::kCleanCut;
    uint64_t seed = 0;
  };

  /// A consistent crash point the run passed through: every shard's
  /// durable LSN at virtual time `time`, as a clean cut.
  struct CutSample {
    SimTime time = 0;
    CrashPoint point;
  };

  /// Runs the workload (once; lazily) and returns the captured run.
  const CrashRunResult& Run();

  /// Start offsets of every record in `shard`'s captured log, ascending.
  const std::vector<size_t>& record_offsets(int shard);

  /// Every consistent cut sampled while the workload ran (every 200 us of
  /// virtual time, consecutive duplicates collapsed), ascending in time.
  const std::vector<CutSample>& samples();

  /// Crashes the cluster at `point`, recovers every shard of a freshly
  /// loaded cluster from its mangled image (decisions collected across ALL
  /// surviving prefixes), and compares each shard's logical state with the
  /// committed-transaction oracle for its surviving prefix, then checks
  /// that no 2PC transaction committed on some shards and aborted on
  /// others. Returns "" on success, a divergence description otherwise.
  /// `stats` (optional) accumulates every shard's recovery stats.
  ///
  /// Thread-safe once the original run has happened (Run() or any prior
  /// check): after that, all harness state it touches is read-only, and
  /// every call builds its own fresh cluster.
  std::string CheckCrashPoint(const CrashPoint& point,
                              wal::RecoveryStats* stats = nullptr);

  /// Checks every point, fanned out across up to `jobs` host threads (the
  /// original run happens first, serially, so the parallel phase only reads
  /// shared state). Results come back in point order — byte-identical to a
  /// jobs=1 run regardless of thread scheduling. `stats` (optional)
  /// accumulates the recovery stats of every point.
  std::vector<std::string> CheckCrashPoints(
      const std::vector<CrashPoint>& points, size_t jobs,
      wal::RecoveryStats* stats = nullptr);

 private:
  using State = std::map<std::string, std::string>;

  void EnsureRan();

  CrashHarnessConfig cfg_;
  bool ran_ = false;
  CrashRunResult result_;
  std::vector<CutSample> samples_;
  // Per shard, indexed by shard id.
  std::vector<State> initial_states_;  ///< After Load, before any txn.
  std::vector<std::vector<std::string>> table_names_;  ///< By table id.
  std::vector<std::vector<wal::LogRecord>> records_;
  std::vector<std::vector<size_t>> offsets_;
};

}  // namespace bionicdb::workload
