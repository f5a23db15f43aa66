// Virtual-time two-phase commit across engine shards (presumed abort),
// with parallel branch fan-out and prepare-free snapshot reads.
//
// Protocol, all inside one simulator so every step is timed:
//
//   execute   — fragments run CONCURRENTLY as spawned sim tasks on their
//               home shards (the coordinator's fragment runs inline —
//               no self-hop), sharing one wait-die priority drawn up
//               front so the distributed transaction ages as a unit.
//               Each branch ends with its locks still held.
//   phase 1   — PrepareBranch overlapped into each branch's task: as soon
//               as a branch's execution succeeds it appends its kPrepare
//               record (tagged with the global transaction id) and waits
//               for durability in its own WAL, without waiting for
//               sibling branches. Read-only branches vote yes for free.
//               The coordinator-colocated branch appends its prepare
//               WITHOUT a durability wait: the decision record lands on
//               the same log at a higher LSN, and the durable prefix is
//               monotone, so a durable decision implies a durable
//               prepare — and a crash before the decision is durable is
//               presumed abort whether or not the prepare survived.
//   decision  — the coordinator (the first fragment's shard) appends a
//               kCoordCommit record to ITS log and waits for durability
//               BEFORE any branch commits. Presumed abort: no decision
//               record is ever written for aborts.
//   phase 2   — FinishBranch fans out too: local commit record (group
//               committed) or undo + CLRs; locks release here.
//   forget    — once EVERY branch's commit is durable, the coordinator
//               appends a kCoordForget marker (no durability wait),
//               retiring the decision record: each branch now resolves
//               through its own local kCommit, so CollectDecisions drops
//               the gtid. Losing the marker only delays retirement.
//
// Deadlock safety without a sequential ascending-shard order: all
// branches share one pinned wait-die priority, and wait-die only ever
// blocks an OLDER (lower-priority-number) waiter behind a YOUNGER holder
// — a younger waiter dies instead. Any hold-and-wait cycle across shards
// would therefore need strictly increasing ages around the loop, which is
// impossible — PROVIDED no two transactions ever tie. Per-shard XctManager
// counters all start at 1, so ties across shards are real: the Cluster
// constructor therefore gives each shard's manager a disjoint priority
// residue class (priority = id * num_shards + shard_id, see
// XctManager::SetPriorityDomain), making every priority in the cluster —
// local or pinned-distributed — globally unique, so the strict `<` in
// LockManager::ShouldDie always breaks a conflict one way. Fragments are
// still sorted ascending so the coordinator choice (and the gtid draw)
// stays deterministic.
//
// Because the decision is durable before any branch's commit record is
// even appended, a crash cut at any consistent virtual-time point leaves
// the cluster recoverable: wal::Recover commits a prepared branch iff
// the decision survives in SOME shard's log (wal::CollectDecisions), and
// presumes abort otherwise. The forget marker preserves this: it is
// appended only after every branch's kCommit is durable, so any
// consistent cut that contains the forget also contains every branch's
// commit record, and those branches win locally without the decision.
// workload::CrashHarness checks exactly this against an oracle at every
// consistent cut it samples.
//
// Snapshot reads: a fully read-only distributed transaction never enters
// 2PC. Run fans its fragments out exactly like execute above but skips
// phase 1; the join point — all fragments done, all shared locks still
// held — is the transaction's consistent virtual-time read point (strict
// 2PL: no writer can have slipped between any fragment's reads). Then
// every branch commits read-only: no gtid, no kPrepare, no kCoordCommit,
// no held write locks, zero WAL traffic.
//
// Both kinds of transaction share one fan-out-and-join (RunBranchTask)
// and one finish fan-out (FinishAll), which serves the commit and every
// abort exit alike.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "shard/router.h"
#include "sim/task.h"

namespace bionicdb::shard {

struct TwoPhaseCommitStats {
  uint64_t started = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;            ///< All aborts (sum of the three below).
  uint64_t exec_aborts = 0;        ///< A fragment failed during execution.
  uint64_t vote_failures = 0;      ///< A prepare never became durable.
  uint64_t decision_failures = 0;  ///< The decision record was lost.
  uint64_t decisions_retired = 0;  ///< kCoordForget GC markers appended.
};

/// Prepare-free cross-shard read-only transactions (snapshot reads).
struct SnapshotReadStats {
  uint64_t started = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;  ///< A fragment failed (e.g. wait-die victim).
};

class TwoPhaseCommit {
 public:
  /// `shards[i]` must be the engine for shard id i.
  explicit TwoPhaseCommit(std::vector<engine::Engine*> shards)
      : shards_(std::move(shards)) {}

  /// Runs one distributed transaction (>= 2 fragments on distinct
  /// shards) to a cluster-wide commit or abort: a snapshot read when
  /// IsReadOnlyTxn(txn), 2PC otherwise. `priority` follows the same
  /// pinned wait-die contract as Engine::Execute. Returns OK on commit,
  /// Aborted if any fragment aborted (retryable), or the underlying
  /// failure.
  sim::Task<Status> Run(ShardedTxn txn, int socket, uint64_t* priority);

  /// True iff every step of every fragment is read-only (and no fragment
  /// has dynamic phases, whose shape — and writes — are unknown up front).
  static bool IsReadOnlyTxn(const ShardedTxn& txn);

  const TwoPhaseCommitStats& stats() const { return stats_; }
  const SnapshotReadStats& snap_stats() const { return snap_stats_; }
  void ResetStats() {
    stats_ = {};
    snap_stats_ = {};
  }

 private:
  /// Sorts fragments ascending, checks distinct shards.
  static void OrderFragments(ShardedTxn* txn);
  /// Pins the shared wait-die priority before any branch races to Begin().
  uint64_t* PinPriority(int coord, uint64_t* priority, uint64_t* local);

  engine::Engine* shard(int id) const {
    return shards_[static_cast<size_t>(id)];
  }

  /// Finishes every branch concurrently — commit or abort — charging each
  /// branch's 2pc_finish stage from `since`. True iff every finish
  /// returned OK (every commit record durable).
  sim::Task<bool> FinishAll(std::vector<engine::Engine::BranchHandle>* branches,
                            const ShardedTxn& txn, bool commit, SimTime since);

  std::vector<engine::Engine*> shards_;
  uint64_t next_gtid_ = 1;
  TwoPhaseCommitStats stats_;
  SnapshotReadStats snap_stats_;
};

}  // namespace bionicdb::shard
