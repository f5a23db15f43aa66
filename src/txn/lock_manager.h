// LockManager: the conventional baseline's centralized two-phase locking,
// with shared/exclusive modes and wait-die deadlock avoidance. DORA's whole
// point (§5.1) is eliminating this component; it exists here so the
// Conventional-vs-DORA-vs-Bionic comparison is real.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "txn/lock_key.h"
#include "txn/xct.h"

namespace bionicdb::txn {

enum class LockMode : uint8_t { kShared, kExclusive };

struct LockStats {
  uint64_t acquires = 0;
  uint64_t waits = 0;       ///< Acquires that blocked.
  uint64_t wait_die_aborts = 0;
  SimTime wait_ns = 0;
};

class LockManager {
 public:
  explicit LockManager(sim::Simulator* sim) : sim_(sim) {}
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(LockManager);

  /// Acquires `key` in `mode` for `xct`. Blocks while incompatible holders
  /// exist; wait-die: a younger requester conflicting with an older holder
  /// aborts immediately (Status::Aborted). Re-entrant; upgrades S->X when
  /// the holder is alone.
  sim::Task<Status> Acquire(Xct* xct, LockKey key, LockMode mode);

  /// Releases every lock `xct` holds (commit/abort time).
  void ReleaseAll(Xct* xct);

  const LockStats& stats() const { return stats_; }
  size_t num_locked_keys() const { return table_.size(); }

 private:
  struct Holder {
    TxnId txn;
    uint64_t priority;
    LockMode mode;
  };
  struct LockState {
    std::vector<Holder> holders;
    sim::CondVar* waiters = nullptr;  // lazily created
    int waiting = 0;
  };

  bool Compatible(const LockState& ls, TxnId txn, LockMode mode) const;
  /// Frees `key`'s slot (and CondVar) once nothing holds, waits on, or is
  /// queued behind it. Without this, a key whose waiters all die via
  /// wait-die keeps its entry forever: ReleaseAll only reclaims when no
  /// waiter is registered at release time.
  void MaybeReclaim(const LockKey& key);
  /// True when some incompatible holder is older (higher priority) than
  /// the requester: wait-die lets the older transaction wait; the younger
  /// one must die. Priorities survive retries, so retried transactions age.
  bool ShouldDie(const LockState& ls, const Xct& xct, LockMode mode) const;

  sim::Simulator* sim_;
  std::unordered_map<LockKey, LockState, LockKeyHash> table_;
  LockStats stats_;
};

}  // namespace bionicdb::txn
