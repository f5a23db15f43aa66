// Partition: a logical partition with its input queue, partition-local lock
// table, and parked-action lists. "DORA divides the database into logical
// partitions backed by a common buffer pool and logging infrastructure, and
// then structures the access patterns of threads so that at most one thread
// touches any particular datum" (§5.1).
//
// Local locks support shared/exclusive modes and use wait-die for deadlock
// avoidance across rendezvous points: an action that conflicts with an
// older transaction dies (its transaction aborts and retries); one that
// conflicts only with younger transactions parks until release. All waits
// therefore point old -> young and no cycle can form.
//
// Both tables are keyed by fixed-width txn::LockKeys and hold only live
// state: a lock entry is erased when its last holder leaves, a parked list
// once it is woken. Erased nodes go on per-partition free lists and are
// re-keyed on the next insert. So the tables never outgrow the locks held
// at one time, and locking a key, warm or fresh, allocates nothing once
// the free lists have warmed up.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "dora/action.h"
#include "sim/sim_queue.h"
#include "txn/lock_key.h"

namespace bionicdb::dora {

struct PartitionStats {
  /// Lock attempts that parked; a woken action that parks again counts
  /// again.
  uint64_t lock_conflicts = 0;
  uint64_t wait_die_aborts = 0;
};

enum class LockOutcome { kGranted, kParked, kDie };

/// What a partition's agent is doing right now, for the sampling profiler
/// (obs::Profiler). Updated with plain stores by the agent loop; indices
/// are the profiler's state indices and must stay stable.
enum class AgentState : uint8_t { kIdle = 0, kRunning = 1, kDozing = 2 };

class Partition {
 public:
  Partition(sim::Simulator* sim, uint32_t id, size_t queue_capacity)
      : id_(id), queue_(sim, queue_capacity) {}
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(Partition);

  uint32_t id() const { return id_; }
  sim::SimQueue<Action*>& queue() { return queue_; }

  /// Tries to take every lock the action needs, all-or-nothing.
  ///  kGranted: all acquired (recorded on the transaction).
  ///  kParked: a younger transaction holds a conflicting lock; the action
  ///           waits on that key and re-runs on release.
  ///  kDie: an older transaction holds a conflicting lock; the caller must
  ///        fail the action so the transaction aborts (wait-die).
  LockOutcome TryLockAll(Action* action);

  /// Releases all locks `xct` holds in this partition, appending parked
  /// actions that may now be runnable to `*ready` (the caller re-enqueues
  /// them through the normal queue so ordering costs stay honest).
  void ReleaseLocks(txn::Xct* xct, std::vector<Action*>* ready);

  const PartitionStats& stats() const { return stats_; }

  AgentState agent_state() const { return agent_state_; }
  void set_agent_state(AgentState s) { agent_state_ = s; }

  /// Keys some transaction holds a lock on.
  size_t lock_entries() const { return locks_.size(); }
  /// Keys with at least one parked action.
  size_t parked_entries() const { return parked_.size(); }
  size_t parked_actions() const {
    size_t n = 0;
    for (auto& [key, actions] : parked_) n += actions.size();
    return n;
  }

 private:
  struct Holder {
    txn::TxnId txn;
    uint64_t priority;
    bool shared;
  };

  using LockTable =
      std::unordered_map<txn::LockKey, std::vector<Holder>, txn::LockKeyHash>;
  using ParkTable =
      std::unordered_map<txn::LockKey, std::vector<Action*>, txn::LockKeyHash>;

  uint32_t id_;
  sim::SimQueue<Action*> queue_;
  LockTable locks_;
  ParkTable parked_;
  std::vector<LockTable::node_type> free_locks_;
  std::vector<ParkTable::node_type> free_parked_;
  PartitionStats stats_;
  AgentState agent_state_ = AgentState::kIdle;
};

}  // namespace bionicdb::dora
