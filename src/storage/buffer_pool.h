// BufferPool: the conventional engine's page cache — hash lookup, pin/unpin,
// clock eviction, dirty write-back. The paper's §5.6 replaces this entire
// component with the overlay database; keeping a real one lets the ablation
// benchmarks compare the two designs.
//
// Frames *alias* the simulated device's pages rather than copying them:
// there is exactly one functional copy of every page, so untimed helpers
// (bulk load, rollback, recovery checks) and the timed transaction path
// always see the same bytes. The pool still fully models residency, pins,
// clock eviction, miss reads, and dirty write-backs for timing and stats.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "sim/task.h"
#include "storage/disk.h"
#include "storage/page.h"

namespace bionicdb::storage {

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
};

class BufferPool {
 public:
  BufferPool(sim::Simulator* sim, SimDisk* disk, size_t frames);
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(BufferPool);

  /// Returns the page pinned in memory, charging a device read on a miss
  /// (timed). Fails with ResourceExhausted if every frame is pinned.
  sim::Task<Result<Page*>> Fetch(PageId id);

  /// Drops a pin; `dirty` marks the frame for write-back before eviction.
  void Unpin(PageId id, bool dirty);

  /// Allocates a new page on disk and pins it (no read needed).
  sim::Task<Result<Page*>> NewPage();

  /// Writes back every dirty frame (timed).
  sim::Task<Status> FlushAll();

  /// Maps a page that was just materialized in memory (fresh allocation on
  /// an insert path) into a frame WITHOUT a device read — the bytes never
  /// lived only on disk. No-op if already cached. The frame is left
  /// unpinned and dirty.
  sim::Task<Status> InstallLoaded(PageId id);

  /// True if `id` currently occupies a frame.
  bool IsCached(PageId id) const { return map_.count(id) > 0; }
  int PinCount(PageId id) const;

  size_t frame_count() const { return frames_.size(); }
  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats{}; }

 private:
  struct Frame {
    Page* page = nullptr;  ///< Aliases the device page.
    PageId pid = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    bool referenced = false;
    bool valid = false;
  };

  /// Picks a victim frame via the clock hand; write-back timing if dirty.
  /// Returns nullptr if all frames are pinned.
  sim::Task<Frame*> EvictOne();

  sim::Simulator* sim_;
  SimDisk* disk_;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> map_;
  size_t clock_hand_ = 0;
  BufferPoolStats stats_;
};

}  // namespace bionicdb::storage
