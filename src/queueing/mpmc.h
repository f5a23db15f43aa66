// MpmcQueue: bounded multi-producer multi-consumer queue (Vyukov-style
// sequence-number slots). The threaded backend's action pool keeps its
// freelist in one; thread-safe under real concurrency.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>

#include "common/macros.h"

namespace bionicdb::queueing {

template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_ = std::make_unique<Slot[]>(cap);
    cap_ = cap;
    mask_ = cap - 1;
    for (size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(MpmcQueue);

  bool TryPush(T item) {
    size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const size_t seq = s.seq.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          s.value = std::move(item);
          s.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  std::optional<T> TryPop() {
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const size_t seq = s.seq.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          T item = std::move(s.value);
          s.seq.store(pos + mask_ + 1, std::memory_order_release);
          return item;
        }
      } else if (diff < 0) {
        return std::nullopt;  // empty
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  size_t capacity() const { return cap_; }

 private:
  struct Slot {
    std::atomic<size_t> seq{0};
    T value{};
  };

  std::unique_ptr<Slot[]> slots_;
  size_t cap_;
  size_t mask_;
  alignas(64) std::atomic<size_t> head_{0};
  alignas(64) std::atomic<size_t> tail_{0};
};

}  // namespace bionicdb::queueing
