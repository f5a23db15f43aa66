// XctManager: transaction lifecycle — id allocation, WAL integration
// (lazy Begin, write logging with undo capture, group-committed Commit,
// CLR-producing Abort). One manager serves an engine on both backends: the
// threaded backend points it at its own log (set_log) and calls it from
// many threads, so its id counter is atomic and its stats counters take
// relaxed atomic increments.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/macros.h"
#include "common/status.h"
#include "sim/task.h"
#include "txn/xct.h"
#include "wal/log_manager.h"

namespace bionicdb::txn {

struct XctManagerStats {
  uint64_t started = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t read_only_commits = 0;  ///< Commits that skipped the log entirely.
  uint64_t prepared = 0;           ///< 2PC yes-votes logged (write branches).
  uint64_t decisions_logged = 0;   ///< Coordinator commit decisions logged.
  uint64_t decisions_retired = 0;  ///< kCoordForget GC markers appended.
};

class XctManager {
 public:
  explicit XctManager(wal::LogManager* log) : log_(log) {}
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(XctManager);

  /// Starts a transaction. No log record yet (written lazily on first
  /// write — read-only transactions never touch the log).
  std::unique_ptr<Xct> Begin();
  /// Begin() into a fresh caller-owned descriptor.
  void Begin(Xct* xct);

  /// Logs a forward operation and records its undo entry. `redo` is the
  /// after-image, `undo` the before-image. On threads the caller holds the
  /// transaction's mutex (its actions share the LSN and undo chains).
  sim::Task<Status> LogWrite(Xct* xct, wal::RecordType type,
                             uint32_t table_id, std::string key,
                             std::string redo, std::string undo, int socket);

  /// Commits: appends the commit record and waits for durability (group
  /// commit). Read-only transactions commit without logging.
  sim::Task<Status> Commit(Xct* xct, int socket);

  /// The two halves of Commit, for callers that account the CPU-bound
  /// append separately from the (idle) durability wait. Returns the commit
  /// record's LSN, or kInvalidLsn for a read-only transaction (in which
  /// case the transaction is already committed and the wait is a no-op).
  sim::Task<wal::Lsn> AppendCommitRecord(Xct* xct, int socket);
  sim::Task<Status> WaitCommitDurable(Xct* xct, wal::Lsn commit_lsn);

  /// Aborts: applies the undo chain backwards through `applier` (which
  /// must functionally revert the operation), logging a CLR per logged
  /// undo entry — secondary-index entries were never logged and get none —
  /// and a final abort record. Abort needs no durability wait.
  using UndoApplier = std::function<void(const UndoEntry&)>;
  sim::Task<Status> Abort(Xct* xct, const UndoApplier& applier, int socket);

  /// 2PC participant yes-vote for the branch `xct` of the cluster-wide
  /// transaction `gtid`, in two halves so callers account the CPU-bound
  /// append separately from the (idle) durability wait. The append writes
  /// a kPrepare record (gtid in its key, wal::PrepareGtid decodes it); a
  /// read-only branch votes yes without logging and gets kInvalidLsn,
  /// which needs no wait. The branch stays kActive: it must subsequently
  /// be finished with a commit (coordinator decided commit) or Abort
  /// (presumed abort).
  sim::Task<wal::Lsn> AppendPrepareRecord(Xct* xct, uint64_t gtid,
                                          int socket);
  sim::Task<Status> WaitPrepareDurable(wal::Lsn prepare_lsn);

  /// Coordinator commit decision for `gtid`: appends kCoordCommit to this
  /// manager's log and waits for durability. Presumed abort means no
  /// record is ever written for the abort decision.
  sim::Task<Status> LogCommitDecision(uint64_t gtid, int socket);

  /// Decision-record GC: appends kCoordForget for `gtid` once every
  /// participant's branch commit record is durable. Append-only, no
  /// durability wait — losing the marker in a crash merely means the
  /// decision survives one recovery longer than necessary.
  sim::Task<Status> LogForgetDecision(uint64_t gtid, int socket);

  /// Draws a fresh wait-die priority WITHOUT starting a transaction. The
  /// distributed layer pins one priority across all branches of a
  /// cluster-wide transaction and must fix it before branches race to
  /// Begin() on their home shards. Consumes a transaction id, so the
  /// priority is unique within this manager's domain slice (see
  /// SetPriorityDomain).
  uint64_t DrawPriority() { return EncodePriority(NextId()); }

  /// Makes this manager's priorities globally unique across a cluster:
  /// every priority it hands out (Begin() and DrawPriority()) becomes
  /// `id * stride + offset`, so managers configured with the same stride
  /// and distinct offsets draw from disjoint residue classes. Wait-die
  /// needs this — LockManager::ShouldDie breaks conflicts with a strict
  /// `<` on priority, so two distinct transactions that TIE (possible
  /// when N per-shard counters all start at 1) would both wait and can
  /// hold-and-wait in a cycle across shards that neither ever breaks.
  /// The default (stride 1, offset 0) keeps priority == id exactly, so
  /// single-engine behavior is bit-identical. Call before any Begin().
  void SetPriorityDomain(uint64_t stride, uint64_t offset) {
    BIONICDB_CHECK(stride >= 1 && offset < stride);
    prio_stride_ = stride;
    prio_offset_ = offset;
  }

  /// Read it only while no transaction is in flight on threads.
  const XctManagerStats& stats() const { return stats_; }
  wal::LogManager* log() { return log_; }
  /// Redirects every later record to `log`. Call only while no
  /// transaction is in flight.
  void set_log(wal::LogManager* log) { log_ = log; }

 private:
  static void Bump(uint64_t& counter) {
    std::atomic_ref<uint64_t>(counter).fetch_add(1,
                                                 std::memory_order_relaxed);
  }

  sim::Task<Status> EnsureBeginLogged(Xct* xct, int socket);
  TxnId NextId() { return next_txn_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t EncodePriority(TxnId id) const {
    return id * prio_stride_ + prio_offset_;
  }

  wal::LogManager* log_;
  std::atomic<TxnId> next_txn_{1};
  uint64_t prio_stride_ = 1;  ///< See SetPriorityDomain.
  uint64_t prio_offset_ = 0;
  XctManagerStats stats_;
};

}  // namespace bionicdb::txn
