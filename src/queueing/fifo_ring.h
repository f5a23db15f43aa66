// FifoRing<T>: plain (non-atomic) bounded FIFO ring for single-threaded use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "common/macros.h"

namespace bionicdb::queueing {

/// Fixed-capacity FIFO over a power-of-two ring buffer with plain (non-atomic)
/// head/tail counters. This is the storage layer for contexts that are
/// guaranteed single-threaded — notably sim::SimQueue, where the simulator's
/// one host thread serializes every producer and consumer, so atomic
/// counters and acquire/release fences would buy nothing and cost a few
/// cycles per push/pop on the hottest path in the codebase.
///
/// No slot is reserved: all `capacity` (rounded up to a power of two) slots
/// are usable, because fullness is derived from the head-tail difference
/// rather than index equality.
template <typename T>
class FifoRing {
 public:
  explicit FifoRing(size_t capacity)
      : cap_(RoundUpPow2(capacity)),
        mask_(cap_ - 1),
        buf_(std::make_unique<T[]>(cap_)) {}
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(FifoRing);

  /// Appends an item. Returns false when full.
  bool TryPush(T item) {
    if (head_ - tail_ == cap_) return false;
    buf_[head_ & mask_] = std::move(item);
    ++head_;
    return true;
  }

  /// Removes the oldest item. Returns nullopt when empty.
  std::optional<T> TryPop() {
    if (head_ == tail_) return std::nullopt;
    T item = std::move(buf_[tail_ & mask_]);
    ++tail_;
    return item;
  }

  size_t size() const { return head_ - tail_; }
  bool empty() const { return head_ == tail_; }
  size_t capacity() const { return cap_; }

 private:
  static size_t RoundUpPow2(size_t n) {
    size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  const size_t cap_;
  const size_t mask_;
  std::unique_ptr<T[]> buf_;
  size_t head_ = 0;
  size_t tail_ = 0;
};

}  // namespace bionicdb::queueing
