// Crash recovery over the durable log prefix ("log sync & recovery" stays
// in software in Figure 4).
//
// BionicDB's overlay (§5.6) buffers all writes in memory and merges them to
// base data only after commit, so durable base state never contains loser
// updates (no-steal). Recovery is therefore redo-winners: an analysis pass
// finds committed transactions, and a redo pass re-applies their changes in
// LSN order. CLRs and Abort records are honored (an aborted transaction's
// changes are never redone).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "wal/record.h"

namespace bionicdb::wal {

/// Applies redo effects during recovery. engine::BaseStorageTarget
/// (engine/database.h) redoes into a database's base storage; WAL tests
/// use an in-memory map.
class RecoveryTarget {
 public:
  virtual ~RecoveryTarget() = default;
  virtual void RedoInsert(uint32_t table_id, Slice key, Slice value) = 0;
  virtual void RedoUpdate(uint32_t table_id, Slice key, Slice value) = 0;
  virtual void RedoDelete(uint32_t table_id, Slice key) = 0;
};

struct RecoveryStats {
  uint64_t records_scanned = 0;
  uint64_t committed_txns = 0;
  uint64_t loser_txns = 0;       ///< In-flight or explicitly aborted.
  uint64_t redo_applied = 0;
  uint64_t redo_skipped = 0;     ///< Loser records not redone.
  /// 2PC branches resolved through the decision set: prepared with a
  /// committed gtid (redone even without a local commit record), and
  /// prepared in-doubt (no decision anywhere -> presumed abort).
  uint64_t prepared_committed = 0;
  uint64_t prepared_aborted = 0;
  /// Coordinator records seen in THIS log: commit decisions and the
  /// forget markers that retire them (decision GC).
  uint64_t decision_records = 0;
  uint64_t forget_records = 0;
  /// LSN (stream offset) of the last checkpoint record, if any.
  Lsn checkpoint_lsn = kInvalidLsn;
  /// How the stream ended; kind == kNone means a clean record boundary.
  TornTailInfo torn_tail;
};

/// Cluster-wide commit decisions for distributed (2PC) recovery: the union
/// of kCoordCommit gtids found in every shard's durable log prefix, MINUS
/// the gtids retired by a later kCoordForget (decision GC — the forget is
/// only appended once every participant's branch commit record is durable,
/// so a retired gtid's branches all resolve through their local kCommit).
/// Built by CollectDecisions over each log, then passed to every shard's
/// Recover call so prepared-but-undecided branches resolve presumed-abort.
struct DistributedDecisions {
  std::unordered_set<uint64_t> committed_gtids;
  uint64_t collected = 0;  ///< kCoordCommit records seen (pre-GC total).
  uint64_t retired = 0;    ///< kCoordForget records seen (gtids erased).
};

/// Scans `stream` for coordinator decision records (kCoordCommit inserts
/// the gtid, kCoordForget erases it). Tolerates a torn tail exactly like
/// Recover; run it over EVERY shard log before any shard recovers.
Status CollectDecisions(Slice stream, DistributedDecisions* out);

/// Decodes the gtid a prepare record carries (8 bytes, big-endian, in
/// `key`). Returns 0 for a malformed key.
uint64_t PrepareGtid(const LogRecord& rec);

/// The inverse: the 8-byte big-endian key a kPrepare record carries.
std::string EncodeGtid(uint64_t gtid);

/// Replays the durable log `stream` into `target`. Returns Corruption if
/// the stream is damaged mid-way (a torn tail is fine).
///
/// Checkpoints: a kCheckpoint record asserts that every effect logged
/// before it is already reflected in durable base data and that no
/// transaction was in flight (quiescent checkpoint — what Engine::
/// Checkpoint produces by bulk-merging overlays / flushing the pool
/// first). Recovery therefore replays only the suffix after the last
/// durable checkpoint.
///
/// `decisions` (optional) enables distributed recovery: a transaction with
/// a durable kPrepare record whose gtid is in the decision set is a winner
/// even without a local commit record (the coordinator decided commit; the
/// branch crashed before appending its own). A prepared transaction whose
/// gtid is NOT in the set is presumed aborted.
Status Recover(Slice stream, RecoveryTarget* target, RecoveryStats* stats,
               const DistributedDecisions* decisions = nullptr);

}  // namespace bionicdb::wal
