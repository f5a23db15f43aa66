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
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/inplace_function.h"
#include "common/macros.h"
#include "common/slice.h"
#include "common/status.h"
#include "queueing/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "txn/lock_key.h"
#include "txn/xct.h"

namespace bionicdb::dora {

class Partition;

/// Joins `count` actions; the awaiting transaction driver resumes when the
/// last arrives. The first non-OK status wins.
///
/// On the simulator the driver suspends on a sim::Completion. On real
/// threads (`threaded`, exec::ThreadedBackend) agents arrive from their own
/// threads and Wait() blocks the driver's thread without suspending: it
/// spins for kSpinYieldsBeforePark yields, then parks on the condvar, so a
/// short phase hands control back without a futex round trip.
///
/// The waiter may destroy the RVP as soon as Wait() returns (it lives on
/// the driver's stack or frame). A threaded arriver touches it only up to
/// its decrement — unless that decrement is the last one and finds the
/// waiter parked, in which case the arriver wakes it under the mutex the
/// waiter must reacquire before it can return. The acq_rel decrement also
/// carries the happens-before edge from each agent's writes (locks recorded
/// on the Xct, undo entries, table mutations) to the driver past Wait().
class Rvp {
 public:
  Rvp(sim::Simulator* sim, int count, bool threaded = false)
      : state_(static_cast<uint32_t>(count)), threaded_(threaded),
        done_(sim) {
    if (count == 0) done_.Set();  // empty phases complete immediately
  }
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(Rvp);

  /// Called by the executing agent when an action finishes.
  void Arrive(Status st = Status::OK()) {
    // Read before the decrement: past it, a threaded waiter may already
    // have destroyed the RVP.
    const bool threaded = threaded_;
    if (!st.ok()) {
      std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
      if (threaded) lk.lock();
      if (agg_.ok()) agg_ = std::move(st);
    }
    const uint32_t prev = state_.fetch_sub(1, std::memory_order_acq_rel);
    if (!threaded) {
      if (prev == 1) done_.Set();
      return;
    }
    if (prev != (kParked | 1)) return;  // not last, or waiter still spinning
    std::lock_guard<std::mutex> lk(mu_);
    woken_ = true;
    cv_.notify_one();
  }

  /// Awaited by the transaction driver.
  sim::Task<Status> Wait() {
    if (threaded_) co_return Block();
    co_await done_.Wait();
    co_return agg_;
  }

 private:
  /// Set in state_ by a threaded waiter that has given up spinning.
  static constexpr uint32_t kParked = 1u << 31;

  Status Block() {
    for (int spin = 0; spin < queueing::kSpinYieldsBeforePark; ++spin) {
      if (state_.load(std::memory_order_acquire) == 0) return agg_;
      std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lk(mu_);
    // Flag the wait so the last arriver wakes us, unless it already came.
    uint32_t s = state_.load(std::memory_order_acquire);
    while (s != 0 && !state_.compare_exchange_weak(s, s | kParked,
                                                   std::memory_order_acq_rel,
                                                   std::memory_order_acquire)) {
    }
    if (s != 0) cv_.wait(lk, [&] { return woken_; });
    return agg_;
  }

  std::atomic<uint32_t> state_;  // arrivals outstanding | kParked
  const bool threaded_;
  sim::Completion done_;  // simulator only
  // Threaded only: mu_ guards agg_'s writes and woken_; the waiter reads
  // agg_ once every arrival is in.
  std::mutex mu_;
  std::condition_variable cv_;
  Status agg_;
  bool woken_ = false;
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
