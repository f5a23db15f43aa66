// Actions and rendezvous points: the units of data-oriented execution
// ([10, 11], the paper's §5 starting point).
//
// A transaction is decomposed into actions, each touching data of exactly
// one logical partition. Actions of one phase run in parallel on their
// partitions and join at a rendezvous point (RVP); the next phase launches
// when the RVP fires. At most one agent thread ever touches a partition's
// data, so actions need no latches — only cheap partition-local locks held
// until commit.
//
// Actions are pooled (ActionPool) and hold their lock keys as fixed-width
// txn::LockKeys in a per-action vector that keeps its capacity across
// reuse, so the steady-state dispatch cycle — acquire, fill, route,
// execute, release — performs no heap allocations once the pool has warmed
// up.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/inplace_function.h"
#include "common/slice.h"
#include "common/status.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "txn/lock_key.h"
#include "txn/xct.h"

namespace bionicdb::exec {
class ThreadedRvp;
}

namespace bionicdb::dora {

class Partition;

/// Joins `count` actions; the awaiting coroutine (the transaction driver)
/// resumes when the last arrives. The first non-OK status wins.
class Rvp {
 public:
  Rvp(sim::Simulator* sim, int count)
      : remaining_(count), done_(sim) {
    if (count == 0) done_.Set();  // empty phases complete immediately
  }

  /// Called by the executing agent when an action finishes.
  void Arrive(Status st) {
    if (!st.ok() && agg_.ok()) agg_ = st;
    if (--remaining_ == 0) done_.Set();
  }

  /// Awaited by the transaction driver.
  sim::Task<Status> Wait() {
    co_await done_.Wait();
    co_return agg_;
  }

  int remaining() const { return remaining_; }

 private:
  int remaining_;
  Status agg_;
  sim::Completion done_;
};

/// Execution context handed to an action body by the partition agent.
struct ActionContext {
  txn::Xct* xct = nullptr;
  Partition* partition = nullptr;
  int socket = 0;
};

/// Action bodies are small capture sets (an engine pointer, a step pointer,
/// a socket); 64 bytes of inline storage holds them without allocating.
using ActionFn =
    common::InplaceFunction<sim::Task<Status>(ActionContext&), 64>;

/// One unit of partitioned work.
struct Action {
  txn::Xct* xct = nullptr;
  /// Shared (read) locks instead of exclusive ones.
  bool shared_locks = false;
  ActionFn fn;
  Rvp* rvp = nullptr;
  /// Rendezvous for the threaded backend (exec::ThreadedBackend); exactly
  /// one of rvp/trvp is set depending on which substrate dispatched the
  /// action.
  exec::ThreadedRvp* trvp = nullptr;
  int socket = 0;
  /// Timeline bookkeeping (obs::TxnTimeline attribution): when the action
  /// entered its partition queue, and — if it parked on a local lock —
  /// when. Plain stores on the dispatch path; only read when the owning
  /// transaction carries a timeline.
  SimTime enqueue_ts = 0;
  SimTime parked_since = 0;

  /// Appends a partition-local lock key (all-or-nothing; held until the
  /// transaction finishes), usually a qualified key "t<id>:<key>".
  void AddLockKey(const txn::LockKey& key) { keys_.push_back(key); }

  /// Appends exactly the bytes of `raw` as a lock key.
  void AddLockKey(Slice raw) { keys_.emplace_back(raw.ToView()); }

  size_t num_lock_keys() const { return keys_.size(); }

  const txn::LockKey& lock_key(size_t i) const { return keys_[i]; }

  /// Sorts the lock keys bytewise. Deterministic lock order across actions
  /// is what makes partition-local wait-die deadlock-free.
  void SortLockKeys() { std::sort(keys_.begin(), keys_.end()); }

  /// Clears logical state for reuse; lock-key capacity is retained.
  void Reset() {
    xct = nullptr;
    shared_locks = false;
    fn = nullptr;
    rvp = nullptr;
    trvp = nullptr;
    socket = 0;
    enqueue_ts = 0;
    parked_since = 0;
    keys_.clear();
  }

 private:
  std::vector<txn::LockKey> keys_;
};

/// Freelist of Actions. Release() resets logical state but keeps each
/// action's lock-key capacity, so a warmed pool hands out ready-to-fill
/// actions without touching the allocator.
class ActionPool {
 public:
  Action* Acquire() {
    if (free_.empty()) {
      all_.push_back(std::make_unique<Action>());
      return all_.back().get();
    }
    Action* a = free_.back();
    free_.pop_back();
    return a;
  }

  void Release(Action* a) {
    a->Reset();
    free_.push_back(a);
  }

  size_t allocated() const { return all_.size(); }

 private:
  std::vector<std::unique_ptr<Action>> all_;
  std::vector<Action*> free_;
};

}  // namespace bionicdb::dora
