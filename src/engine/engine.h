// Engine: the bionic DBMS facade. Wires the simulated platform, storage,
// indexes, WAL, transaction management, DORA execution, and the four
// hardware units into one of three architectures (see config.h), and
// exposes the transactional and analytic API the workloads run against.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "dora/executor.h"
#include "engine/config.h"
#include "engine/database.h"
#include "engine/metrics.h"
#include "hw/cost_model.h"
#include "hw/log_unit.h"
#include "hw/platform.h"
#include "hw/queue_engine.h"
#include "hw/scanner_unit.h"
#include "hw/tree_probe_unit.h"
#include "index/btree.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "txn/lock_manager.h"
#include "txn/xct_manager.h"
#include "wal/log_manager.h"

namespace bionicdb::exec {
class ThreadedBackend;
}

namespace bionicdb::engine {

class Engine {
 public:
  Engine(sim::Simulator* sim, const EngineConfig& config);
  ~Engine();
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(Engine);

  // ------------------------------------------------------------- context --
  /// Carried through every timed operation. `core_held` tells the cost
  /// helpers whether the caller already occupies a CPU core (DORA agents
  /// in synchronous mode) or must attach per work chunk.
  struct ExecContext {
    Engine* engine = nullptr;
    txn::Xct* xct = nullptr;
    int socket = 0;
    bool core_held = false;
  };

  // ------------------------------------------------------- setup & state --
  Table* CreateTable(const std::string& name);
  /// Untimed bulk load; overlay residency is drawn per row from the
  /// configured fraction (deterministic under the simulator seed).
  Status LoadRow(Table* table, Slice key, Slice record);
  /// Seals compact tables' bulk loads (storage/compact.h) — call after the
  /// last LoadRow, before serving. No-op for paged tables.
  void FinalizeLoad();

  Database& db() { return *db_; }
  hw::Platform& platform() { return *platform_; }
  sim::Simulator* simulator() { return sim_; }
  const EngineConfig& config() const { return config_; }

  // --------------------------------------------------- row operations ----
  // All are timed: they charge CPU cost-model work to the Figure-3
  // components, occupy devices, and may await hardware units.
  sim::Task<Result<std::string>> Read(ExecContext& ctx, Table* table,
                                      Slice key);

  /// Zero-copy point read: same timing and outcomes as Read(), but the
  /// record comes back as a view aliasing engine-owned memory (the
  /// overlay's leaf arena or the row's slotted page) instead of a fresh
  /// std::string. The view is only guaranteed until the caller's next
  /// co_await (other transactions may run and move the bytes) — decode or
  /// copy it before suspending.
  sim::Task<Result<Slice>> ReadView(ExecContext& ctx, Table* table,
                                    Slice key);

  /// Batched point reads. On the hardware probe path all probes are issued
  /// concurrently and overlap in the pipelined tree probe unit ("no need
  /// for those requests to arrive simultaneously" — §5.3); in software they
  /// execute back-to-back. Results are positionally aligned with `keys`.
  sim::Task<std::vector<Result<std::string>>> MultiRead(
      ExecContext& ctx, Table* table, const std::vector<std::string>& keys);

  /// Updates a row. `known_old` (optional) supplies the before-image when
  /// the caller just read the row — skipping the second index probe, as an
  /// engine that keeps the located leaf position would. It may point at a
  /// ReadView() view: the bytes are consumed before the first suspension.
  sim::Task<Status> Update(ExecContext& ctx, Table* table, Slice key,
                           Slice record, const Slice* known_old = nullptr);
  sim::Task<Status> Insert(ExecContext& ctx, Table* table, Slice key,
                           Slice record);
  sim::Task<Status> Delete(ExecContext& ctx, Table* table, Slice key);

  /// Secondary-index probe: skey -> primary key.
  sim::Task<Result<std::string>> ProbeSecondary(ExecContext& ctx, Table* table,
                                                const std::string& index_name,
                                                Slice skey);
  /// Secondary-index maintenance (timed; functional insert).
  sim::Task<Status> InsertSecondary(ExecContext& ctx, Table* table,
                                    const std::string& index_name, Slice skey,
                                    Slice pkey);

  /// Primary-key range read over [lo, hi), up to `limit` rows (0 ==
  /// unlimited). Returns (key, record) pairs merged across base + overlay.
  sim::Task<Result<std::vector<std::pair<std::string, std::string>>>>
  RangeRead(ExecContext& ctx, Table* table, Slice lo, Slice hi, size_t limit);

  /// Secondary-index range read over [lo, hi): returns (skey, pkey) pairs
  /// in index order, up to `limit` (0 == unlimited). Timed like a primary
  /// range probe; secondary indexes live beside the primary in the same
  /// (overlay or host) memory.
  sim::Task<Result<std::vector<std::pair<std::string, std::string>>>>
  RangeReadIndex(ExecContext& ctx, Table* table,
                 const std::string& index_name, Slice lo, Slice hi,
                 size_t limit);

  // ----------------------------------------------------------- analytics --
  /// Full-table predicate count: the enhanced-scanner path (§5.2) when
  /// offloaded, a CPU scan otherwise. Overlay deltas are patched in.
  sim::Task<Result<uint64_t>> ScanCount(ExecContext& ctx, Table* table,
                                        const std::function<bool(Slice)>& pred);

  /// Aggregate over a named columnar projection (Figure 4's "Columnar
  /// database"): count and sum of values matching `pred` (null == all).
  /// The projection is as of the last bulk merge; the overlay's dirty
  /// delta is patched in at query time, so results reflect live data.
  struct ProjectionAggregate {
    uint64_t matches = 0;
    int64_t sum = 0;
  };
  sim::Task<Result<ProjectionAggregate>> ScanProjection(
      ExecContext& ctx, Table* table, const std::string& projection_name,
      const std::function<bool(int64_t)>& pred = nullptr);

  // ---------------------------------------------------------- maintenance --
  /// Bulk-merges a table's overlay delta back to base storage (§5.6) and
  /// refreshes its columnar projections.
  sim::Task<Status> BulkMerge(ExecContext& ctx, Table* table);

  /// Quiescent checkpoint: bulk-merges every overlay (or flushes the
  /// buffer pool), then appends a durable kCheckpoint record. Recovery
  /// replays only the log suffix after it. Call between transactions (no
  /// in-flight writers).
  sim::Task<Status> Checkpoint(ExecContext& ctx);

  /// Rebuilds a table's primary index at optimal fill ("Tree SMO & reorg"
  /// stays in software in Figure 4). Timed per-entry; call when churn has
  /// hollowed the tree.
  sim::Task<Status> ReorganizeIndex(ExecContext& ctx, Table* table);

  // ---------------------------------------------------------- transactions --
  struct TxnStep {
    Table* table = nullptr;
    /// Keys this step locks (2PL row locks / DORA partition-local locks).
    /// keys[0] also routes the step to its partition.
    std::vector<std::string> keys;
    bool read_only = false;
    std::function<sim::Task<Status>(ExecContext&)> fn;
  };
  using Phase = std::vector<TxnStep>;
  struct TxnSpec {
    std::vector<Phase> phases;
    /// Optional generator for phases whose shape is only known at run time
    /// (e.g. TPC-C StockLevel probes the stock of whatever items the
    /// order-line scan returned). Invoked with 0, 1, ... after the static
    /// phases; fills `*out` and returns true, or returns false when done.
    std::function<bool(int, Phase*)> dynamic_phases;
  };

  /// Runs one transaction to commit or abort: ExecuteBranch, then
  /// FinishBranch(commit = the phases succeeded). Conventional mode
  /// executes steps inline under 2PL; DORA/Bionic dispatch each phase's
  /// steps as actions and join at an RVP. Records metrics. Returns the
  /// execution failure if there was one, otherwise the finish status.
  ///
  /// `priority` (optional): wait-die timestamp carried across retries. On
  /// entry *priority == 0 assigns a fresh timestamp and writes it back;
  /// a retry passes the same pointer so the transaction ages instead of
  /// forever dying to older peers.
  ///
  /// `arrival_ts` (optional): when >= 0, the transaction's true arrival
  /// time — an open-loop server passes the admission-queue enqueue
  /// timestamp so the recorded latency is the end-to-end SOJOURN time and
  /// the queue wait lands in the timeline's admit stage. Purely an
  /// accounting origin: it never changes scheduling, so the default (-1,
  /// "arrived now") leaves closed-loop runs bit-identical.
  sim::Task<Status> Execute(TxnSpec spec, int socket = 0,
                            uint64_t* priority = nullptr,
                            SimTime arrival_ts = -1);

  // ----------------------------------------------- transaction lifecycle --
  /// A transaction between its phases and its finish: produced by
  /// ExecuteBranch, finished by FinishBranch. Meanwhile it holds its locks
  /// and (conventional mode) its worker-pool slot. Execute holds one for a
  /// moment; a 2PC branch holds one across prepare and decision.
  struct BranchHandle {
    std::unique_ptr<txn::Xct> xct;
    obs::TxnTimeline* tl = nullptr;
    SimTime start = 0;
    int socket = 0;
    uint64_t span_id = 0;
  };

  /// Begins a transaction and runs `spec`'s phases, stopping BEFORE the
  /// commit protocol with the transaction active and its locks held.
  /// Whatever the result, the caller must then FinishBranch(h, ...) —
  /// false on failure — to commit or undo and release. `priority` and
  /// `arrival_ts` are Execute's.
  sim::Task<Status> ExecuteBranch(BranchHandle* h, TxnSpec spec, int socket,
                                  uint64_t* priority,
                                  SimTime arrival_ts = -1);
  /// 2PC phase 1 on this branch: durable yes-vote for `gtid` (read-only
  /// branches vote for free). Charged to the timeline's 2pc_prepare stage.
  /// `wait_durable = false` appends the prepare without waiting: the
  /// coordinator-colocated branch uses this because the decision record —
  /// appended later to the SAME log at a higher LSN — cannot become durable
  /// without the prepare preceding it (monotone durable prefix), and a
  /// crash before the decision is durable resolves presumed-abort whether
  /// or not the prepare survived.
  sim::Task<Status> PrepareBranch(BranchHandle* h, uint64_t gtid,
                                  bool wait_durable = true);
  /// Coordinator decision record for `gtid`, appended to THIS engine's log
  /// and made durable; charged to `coord`'s 2pc_decision stage.
  sim::Task<Status> LogCoordCommit(BranchHandle* coord, uint64_t gtid);
  /// Decision-record GC marker for `gtid` on THIS engine's log: append
  /// only, no durability wait. Call only after every branch of the
  /// transaction finished committing (their kCommit records are durable).
  sim::Task<Status> LogCoordForget(uint64_t gtid, int socket);
  /// Ends the transaction: commit (commit record + durability wait) or
  /// abort (undo + CLRs; returns OK). Releases locks, records
  /// latency/metrics, frees the slot. For a 2PC branch this is phase 2.
  sim::Task<Status> FinishBranch(BranchHandle* h, bool commit);

  /// Request payload flowing through the bounded admission layer.
  struct AdmittedTxn {
    TxnSpec spec;
    uint64_t client = 0;  ///< Lazily-generated client id (routes sockets).
  };

  /// Bounded open-loop admission queue; null unless config.admission
  /// .enabled. Arrival generators Offer() into it, open-loop servers
  /// PopBatch() from it (see workload::RunOpenLoop).
  AdmissionQueue<AdmittedTxn>* admission() { return admission_.get(); }

  // ------------------------------------------------------------ lifecycle --
  /// Spawns DORA agents (no-op for the conventional engine).
  void Start();

  /// Reads every table's pages through the buffer pool once (timed; run it
  /// during warmup). No-op when the overlay replaces the pool.
  sim::Task<void> PreheatBufferPool();
  /// Drains agents; await after all submitted transactions completed.
  sim::Task<void> Shutdown();

  /// Zeroes metrics/breakdown/energy and restarts the measurement window
  /// (call after warmup).
  void ResetStats();
  /// Closes the measurement window: fills metrics().elapsed_ns/joules.
  void FinishRun();

  // ------------------------------------------------------------- telemetry --
  RunMetrics& metrics() { return metrics_; }
  hw::Breakdown& breakdown() { return breakdown_; }
  /// Every run quantity under a stable dotted name ("engine.commits",
  /// "breakdown.btree_ns", "wal.flush_retries", ...). Bound directly to the
  /// live fields — reading is always current; see docs/OBSERVABILITY.md.
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }
  /// Tracer shared by every layer; null-object (disabled) unless
  /// config.trace.enabled.
  obs::Tracer* tracer() { return tracer_.get(); }
  /// Flight recorder; null unless config.flight.enabled.
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }
  /// Time-in-state sampling profiler; null unless config.profile.enabled.
  obs::Profiler* profiler() { return profiler_.get(); }
  /// Figure-3 component breakdown of the measurement window so far.
  obs::BreakdownReport BreakdownSnapshot() const {
    return obs::BreakdownReport::FromRegistry(registry_);
  }
  /// Live degraded-mode check: unlike metrics().Degraded(), this also sees
  /// abandoned flushes that happened since ResetStats() but before
  /// FinishRun() copied the WAL stats over.
  bool Degraded() const {
    return metrics_.Degraded() ||
           log_->stats().flush_failures > log_baseline_.flush_failures;
  }
  wal::LogManager* log() { return log_.get(); }
  /// Null unless config.fault_plan is non-empty.
  sim::FaultInjector* fault_injector() { return fault_.get(); }
  txn::XctManager& xct_manager() { return *xm_; }
  txn::LockManager* lock_manager() { return lm_.get(); }
  dora::Executor* executor() { return executor_.get(); }
  hw::TreeProbeUnit* probe_unit() { return probe_unit_.get(); }
  hw::LogInsertionUnit* log_unit() { return log_unit_.get(); }
  hw::QueueEngine* queue_engine() { return queue_engine_.get(); }
  hw::ScannerUnit* scanner_unit() { return scanner_unit_.get(); }
  storage::BufferPool* buffer_pool() { return bpool_.get(); }
  storage::SimDisk* data_disk() { return data_disk_.get(); }

  /// Deterministic partition of a key (0 for the conventional engine).
  /// Workloads must group a step's keys by partition: DORA's local locks
  /// are only sound when every access to a key lands on the same agent.
  uint32_t PartitionOf(const Table* table, Slice key) const {
    if (!executor_) return 0;
    // Must agree with the executor's routing, which hashes the action's
    // qualified first lock key.
    return executor_->Route(QualifiedKey(table, key).hash());
  }

  /// True when rows live in the overlay instead of buffer-pooled pages.
  bool UseOverlay() const {
    return config_.mode == EngineMode::kBionic && config_.offload.overlay;
  }
  /// True when index probes run on the hardware tree probe engine.
  bool UseHwProbe() const {
    return config_.mode == EngineMode::kBionic && config_.offload.tree_probe;
  }

  // ------------------------------------------------- threaded backend ----
  /// Attaches (or detaches, with nullptr) the real-thread execution
  /// backend. While attached, every row/scan operation runs its one body
  /// with cost charges and simulated devices skipped, its shared
  /// structures latched per table, and the XctManager logging to the
  /// backend's ThreadedWal (log() stays the simulated log). Works with
  /// paged and compact storage. Call after tables are created and loaded;
  /// normally done by exec::ThreadedBackend::Start()/Shutdown(). See
  /// docs/EXECUTION.md.
  void AttachThreadedBackend(exec::ThreadedBackend* backend);
  bool threaded() const { return threaded_ != nullptr; }
  exec::ThreadedBackend* threaded_backend() { return threaded_; }

 private:
  friend class exec::ThreadedBackend;
  // ---- cost helpers -------------------------------------------------------
  /// Executes `ns` of CPU work charged to component `c`. Attaches a core
  /// unless the context already holds one.
  sim::Task<void> CpuWork(ExecContext& ctx, double ns, hw::Component c);
  /// Charges CPU energy + breakdown without occupying a core (front-end /
  /// driver-side work).
  sim::Task<void> CpuWorkNoCore(double ns, hw::Component c);
  /// Charges `t` of elapsed CPU time to the energy meter and component
  /// `c`. Never on threads: both are plain counters.
  void ChargeCpu(SimTime t, hw::Component c);

  /// Index probe timing for `levels` node visits (software cost model or
  /// hardware probe engine round trip). `key_bytes` sizes the comparator
  /// work for variable-length keys.
  sim::Task<void> ProbeCost(ExecContext& ctx, int levels,
                            uint32_t key_bytes = 8);

  /// Append to the WAL through the XctManager, charging elapsed time to
  /// the Log component.
  sim::Task<Status> LogWriteTimed(ExecContext& ctx, wal::RecordType type,
                                  Table* table, Slice key, Slice redo,
                                  Slice undo);

  sim::Task<void> MultiReadOne(ExecContext ctx, Table* table, std::string key,
                               Result<std::string>* out, int* remaining,
                               sim::Completion* done);

  /// Overlay read with §5.6 miss handling (abort -> software fetch from
  /// base -> install -> retry). Returns a view into the overlay leaf arena.
  sim::Task<Result<Slice>> ReadOverlayView(ExecContext& ctx, Table* table,
                                           Slice key);
  /// Buffer-pool read. Returns a view into the row's slotted page.
  sim::Task<Result<Slice>> ReadPagedView(ExecContext& ctx, Table* table,
                                         Slice key);

  /// Functional rollback of one undo entry (latched): the applier both
  /// backends hand to XctManager::Abort.
  void ApplyUndo(const txn::UndoEntry& entry);

  /// Abort helper shared by both execution paths.
  sim::Task<Status> AbortTxn(ExecContext& ctx, txn::Xct* xct);
  sim::Task<Status> CommitTxn(ExecContext& ctx, txn::Xct* xct);
  sim::Task<void> ReleaseAllLocks(txn::Xct* xct);

  // The phase runners of both backends. On threads they never suspend:
  // each action runs on the caller's thread under its partition's token
  // (exec::ThreadedBackend::Run), and the RVP blocks.
  sim::Task<Status> RunPhaseConventional(Phase& phase, ExecContext& ctx);
  sim::Task<Status> RunPhaseDora(Phase& phase, ExecContext& ctx);
  sim::Task<Status> RunAllPhases(TxnSpec& spec, ExecContext& ctx);

  /// The lock key "t<table id>:<key>" both lock managers and DORA routing
  /// use.
  static txn::LockKey QualifiedKey(const Table* table, Slice key) {
    return txn::LockKey(table->id(), key);
  }

  // ---- threaded-backend latches and device bypass ------------------------
  // Each op has one body; on real threads the cost helpers return at once,
  // so the body runs synchronously on the client thread that runs its step.
  // Physical structures are latched per table (and the SimDisk page map by
  // disk_mu_); logical row conflicts are excluded by the partition-local
  // locks (or the conventional-mode global mutex), as in the simulator.
  // On the simulator every latch is an empty lock.
  using ReadLock = std::shared_lock<std::shared_mutex>;
  using WriteLock = std::unique_lock<std::shared_mutex>;
  ReadLock ReadLatch(const Table* table);
  WriteLock WriteLatch(const Table* table);
  ReadLock DiskReadLatch();
  WriteLock DiskWriteLatch();
  /// A transaction's undo chain and log state are shared by its
  /// concurrently running actions on threads.
  std::unique_lock<std::mutex> XctLatch(txn::Xct* xct);
  /// Copies a view out of engine memory that other threads may move
  /// (identity on the simulator). Take it while the latch is held.
  Slice ScratchCopy(Slice v);
  /// Pins `id` in the buffer pool; threads bypass the pool and get the
  /// device page a frame would alias.
  sim::Task<Result<storage::Page*>> FetchPage(storage::PageId id);
  void UnpinPage(storage::PageId id, bool dirty);

  /// Binds every RunMetrics field, breakdown component, WAL/fault counter,
  /// and platform gauge into registry_ (construction time, once).
  void RegisterMetrics();
  /// Ticks sampler_ at config.trace.sample_interval_ns until Shutdown.
  sim::Task<void> SamplerLoop();
  /// Ticks profiler_ at config.profile.interval_ns until Shutdown.
  sim::Task<void> ProfilerLoop();

  sim::Simulator* sim_;
  EngineConfig config_;
  /// Created before the platform so links/units can intern at setup time.
  std::unique_ptr<obs::Tracer> tracer_;
  /// Must outlive platform_ (links keep a raw pointer); declared first.
  std::unique_ptr<sim::FaultInjector> fault_;
  std::unique_ptr<hw::Platform> platform_;
  std::unique_ptr<storage::SimDisk> data_disk_;
  std::unique_ptr<storage::SimDisk> log_disk_;
  std::unique_ptr<storage::BufferPool> bpool_;
  std::unique_ptr<Database> db_;

  std::unique_ptr<hw::TreeProbeUnit> probe_unit_;
  std::unique_ptr<hw::LogInsertionUnit> log_unit_;
  std::unique_ptr<hw::QueueEngine> queue_engine_;
  std::unique_ptr<hw::ScannerUnit> scanner_unit_;

  std::unique_ptr<wal::LogManager> log_;
  std::unique_ptr<txn::XctManager> xm_;
  std::unique_ptr<txn::LockManager> lm_;
  std::unique_ptr<dora::Executor> executor_;

  /// Conventional mode: admission throttle modeling the worker pool.
  std::unique_ptr<sim::Semaphore> workers_sem_;

  /// Open-loop bounded admission queue (config.admission.enabled only).
  std::unique_ptr<AdmissionQueue<AdmittedTxn>> admission_;

  /// Real-thread backend, when attached (never set on simulator runs; the
  /// ops' `threaded_` legs are always skipped there, keeping simulated
  /// results bit-identical).
  exec::ThreadedBackend* threaded_ = nullptr;
  /// Per-table reader/writer locks for threaded runs, indexed by table
  /// id. Sized in AttachThreadedBackend.
  std::vector<std::unique_ptr<std::shared_mutex>> table_mu_;
  /// Engine-wide lock for the SimDisk page MAP, which every paged table
  /// shares and the per-table locks therefore cannot cover. BasePut can
  /// AllocPage (map insert) → exclusive; all other base-data access only
  /// looks pages up → shared. Page CONTENTS need no disk lock: a page
  /// belongs to exactly one table and is guarded by that table's mutex.
  /// Always acquired inside a table-lock scope, never the reverse.
  std::shared_mutex disk_mu_;

  hw::Breakdown breakdown_;
  RunMetrics metrics_;
  obs::Registry registry_;
  std::unique_ptr<obs::TimelineSampler> sampler_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::Profiler> profiler_;
  bool sampler_running_ = false;
  SimTime epoch_ = 0;
  /// Measurement-window baselines, snapped in ResetStats(): the WAL and the
  /// fault injector count cumulatively from construction, so FinishRun()
  /// subtracts these to keep warmup out of the reported window.
  wal::LogStats log_baseline_;
  uint64_t faults_baseline_ = 0;
  /// "engine/txn" async-span interning (one begin/end pair per Execute).
  uint16_t trace_txn_track_ = 0;
  uint16_t trace_txn_name_ = 0;
  uint16_t trace_commit_name_ = 0;
  uint16_t trace_abort_name_ = 0;
  uint8_t trace_txn_cat_ = 0;
  uint64_t trace_txn_seq_ = 0;
};

}  // namespace bionicdb::engine
