// MpscBlockingQueue<T>: the threaded backend's partition mailbox — a
// lock-free ring on the fast path, mutex/condvar only to sleep and wake.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/macros.h"
#include "queueing/mpmc.h"
#include "queueing/scheduler.h"

namespace bionicdb::exec {

/// Bounded blocking queue for real threads. Producers are the client/driver
/// threads dispatching actions and queuing the actions their releases woke;
/// the single consumer is the partition's agent thread (the ring itself is
/// MPMC-safe, so "single consumer" is a usage convention, not a correctness
/// requirement).
///
/// Layout reuses the allocation-free Vyukov sequence-slot ring from PR 2's
/// queueing::MpmcQueue: the steady-state push/pop cycle is two CAS-free
/// atomic RMWs and never touches the allocator. The mutex/condvar pair is
/// engaged only when the consumer has exhausted its spin budget and must
/// actually sleep; producers skip the lock entirely unless `sleepers_`
/// says someone is (or is about to be) parked.
template <typename T>
class MpscBlockingQueue {
 public:
  explicit MpscBlockingQueue(size_t capacity) : ring_(capacity) {}
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(MpscBlockingQueue);

  /// Blocking push: spins (yielding) while the ring is full. Backpressure on
  /// a full partition mailbox is expected to be transient — the agent drains
  /// continuously — so a sleep path on the producer side isn't worth its
  /// complexity.
  void Push(T item) {
    while (!ring_.TryPush(item)) std::this_thread::yield();
    // Dekker pair with Pop's registration. The ring publishes through a
    // release store, which may otherwise be reordered after the load below
    // (x86 does store->load reordering): the consumer would miss the item
    // and we would miss its registration. With a seq_cst fence on both
    // sides, either its re-check sees the item or we see it and wake it.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_relaxed) > 0) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_.notify_all();
    }
  }

  /// Snapshot of the ring (queueing::MpmcQueue::Empty): clients check it
  /// before running a step inline, so as not to overtake queued work.
  bool Empty() const { return ring_.Empty(); }

  /// Blocking pop: brief spin, then park on the condvar. The re-check after
  /// registering in `sleepers_` (under the lock, behind a fence) closes the
  /// lost-wakeup window against Push's post-publish sleeper check.
  T Pop() {
    for (int spin = 0; spin < queueing::kSpinYieldsBeforePark; ++spin) {
      if (auto item = ring_.TryPop()) return std::move(*item);
      std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lk(mu_);
    sleepers_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (;;) {
      if (auto item = ring_.TryPop()) {
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
        return std::move(*item);
      }
      cv_.wait(lk);
    }
  }

 private:
  queueing::MpmcQueue<T> ring_;
  std::atomic<int> sleepers_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace bionicdb::exec
