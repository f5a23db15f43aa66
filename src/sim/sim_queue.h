// SimQueue<T>: bounded FIFO with awaitable push/pop, the building block for
// DORA action queues and hardware work queues.
#pragma once

#include <optional>
#include <utility>

#include "common/macros.h"
#include "queueing/fifo_ring.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bionicdb::sim {

/// Bounded multi-producer multi-consumer queue over simulated time.
/// Push blocks when full (backpressure); Pop blocks when empty. FIFO on
/// both sides, deterministic wakeups.
///
/// Storage is a fixed ring buffer sized once at construction, so the
/// steady-state push/pop cycle never touches the allocator. The simulator
/// is single-threaded, so the ring is a plain non-atomic FIFO — no fences
/// on the hot path; the semaphores serialize logical access. For a real
/// cross-thread queue see queueing::MpmcQueue.
template <typename T>
class SimQueue {
 public:
  // The ring rounds capacity up to a power of two; the `space_` semaphore
  // enforces the exact logical bound.
  SimQueue(Simulator* sim, size_t capacity)
      : sim_(sim), capacity_(capacity), space_(sim, static_cast<int64_t>(capacity)),
        items_(sim, 0), ring_(capacity) {}
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(SimQueue);

  /// Awaiter for Push/Pop: acquires the given semaphore (inline when a unit
  /// is free, else suspending in its FIFO), then applies the queue effect in
  /// await_resume. A plain awaiter instead of a Task<> keeps the
  /// steady-state push/pop cycle free of coroutine frames — the awaiter
  /// lives in the caller's frame, doubling as the semaphore's waiter node.
  struct PushAwaiter : Semaphore::Awaiter {
    SimQueue* queue;
    T item;
    PushAwaiter(SimQueue* q, T it)
        : Semaphore::Awaiter(&q->space_), queue(q), item(std::move(it)) {}
    void await_resume() { queue->DoPush(std::move(item)); }
  };

  struct PopAwaiter : Semaphore::Awaiter {
    SimQueue* queue;
    explicit PopAwaiter(SimQueue* q)
        : Semaphore::Awaiter(&q->items_), queue(q) {}
    T await_resume() { return queue->DoPop(); }
  };

  /// Blocking push (waits while the queue is full).
  PushAwaiter Push(T item) { return PushAwaiter(this, std::move(item)); }

  /// Non-blocking push. Returns false if the queue is full.
  bool TryPush(T item) {
    if (!space_.TryAcquire()) return false;
    DoPush(std::move(item));
    return true;
  }

  /// Blocking pop (waits while the queue is empty).
  PopAwaiter Pop() { return PopAwaiter(this); }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    if (!items_.TryAcquire()) return std::nullopt;
    return DoPop();
  }

  size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  size_t capacity() const { return capacity_; }
  uint64_t pushes() const { return pushes_; }
  uint64_t pops() const { return pops_; }
  size_t high_watermark() const { return high_watermark_; }
  size_t num_blocked_consumers() const { return items_.num_waiters(); }
  size_t num_blocked_producers() const { return space_.num_waiters(); }

 private:
  void DoPush(T item) {
    BIONICDB_CHECK(ring_.TryPush(std::move(item)));
    size_t depth = ring_.size();
    if (depth > high_watermark_) high_watermark_ = depth;
    ++pushes_;
    items_.Release();
  }

  T DoPop() {
    std::optional<T> item = ring_.TryPop();
    BIONICDB_DCHECK(item.has_value());
    ++pops_;
    space_.Release();
    return std::move(*item);
  }

  Simulator* sim_;
  size_t capacity_;
  Semaphore space_;
  Semaphore items_;
  queueing::FifoRing<T> ring_;
  uint64_t pushes_ = 0;
  uint64_t pops_ = 0;
  size_t high_watermark_ = 0;
};

}  // namespace bionicdb::sim
