// Transaction descriptors: state machine, undo chain, lock bookkeeping.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "txn/lock_key.h"
#include "wal/record.h"

namespace bionicdb::obs {
struct TxnTimeline;
}

namespace bionicdb::txn {

using TxnId = uint64_t;

enum class XctState : uint8_t {
  kActive,
  kCommitting,  ///< Commit record appended, awaiting durability.
  kCommitted,
  kAborted,
};

const char* XctStateName(XctState s);

/// One entry of the in-memory undo chain (applied backwards on abort).
struct UndoEntry {
  wal::RecordType type;  ///< kInsert / kUpdate / kDelete (the forward op).
  uint32_t table_id;
  std::string key;
  std::string before;  ///< Before-image (empty for inserts).
  /// Non-empty for secondary-index maintenance: the op targeted this index
  /// rather than the table's rows. Secondary entries are derived data —
  /// they are undone on abort but never logged (recovery rebuilds them).
  std::string index_name;
};

/// A transaction. Created by the XctManager; owned by the engine for the
/// duration of execution.
struct Xct {
  TxnId id = 0;
  /// Wait-die priority timestamp: smaller == older == wins conflicts.
  /// Equal to `id` for first attempts; a retried transaction carries its
  /// original priority so it ages instead of thrashing.
  uint64_t priority = 0;
  XctState state = XctState::kActive;
  wal::Lsn last_lsn = wal::kInvalidLsn;  ///< Head of the log chain.
  bool begin_logged = false;  ///< Begin record written lazily on first write.
  std::vector<UndoEntry> undo_chain;

  /// Locks held, for release at end of transaction: (partition id, key)
  /// for DORA local locks, (0, key) for the 2PL LockManager's one table.
  std::vector<std::pair<uint32_t, LockKey>> held_locks;

  /// Tail-latency attribution record (obs/timeline.h), owned by the
  /// engine's FlightRecorder. Null unless the recorder is enabled; every
  /// charge site gates on the pointer, so the disabled cost is one
  /// predicted branch.
  obs::TxnTimeline* timeline = nullptr;

  /// Threaded backend only: serializes the mutable fields above
  /// (undo_chain, held_locks, last_lsn, begin_logged) when actions of one
  /// transaction run concurrently on different threads (a parked action
  /// runs on the client whose release woke it).
  /// Lock/release sites take it for the duration of one call and never
  /// nest two transactions' mutexes, so no ordering discipline is needed.
  /// The simulator backend is single-threaded and never locks it.
  std::mutex mu;

  bool read_only() const { return undo_chain.empty() && !begin_logged; }
};

}  // namespace bionicdb::txn
