// Overlay database (§5.6): "Rather than a buffer pool, the bionic system
// would employ two data pools... the FPGA side maintains an in-memory
// overlay of the database. The overlay serves to cache reads and to buffer
// writes until they can be bulk-merged back to the on-disk data (replacing
// the buffer pool)... the overlay will consist entirely of various indexes
// that can be probed by the hardware engine."
//
// The overlay is an index keyed like the table's primary key, holding full
// records plus tombstones for deletes. It tracks dirtiness per key so bulk
// merge ships only changed rows, and exposes the delta needed to patch
// historical data requested by queries (the SAP HANA-style read path).
//
// Entry state lives in the first byte of each index value, so the overlay
// keeps no per-key bookkeeping beside the index:
//  * kClean ('L') — a cached copy of base data, evictable;
//  * kDirty ('W') — a buffered insert or update, pinned until the merge;
//  * kTombstone ('D') — a buffered delete; always dirty, and dropped from
//    the overlay by the merge.
// The merge delta is read by walking the index in key order.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "index/btree.h"

namespace bionicdb::engine {

struct OverlayStats {
  uint64_t hits = 0;
  uint64_t misses = 0;     ///< Probes that had to fall back to base data.
  uint64_t installs = 0;   ///< Rows cached after a base fetch.
  uint64_t merges = 0;     ///< Bulk-merge rounds.
  uint64_t merged_rows = 0;
};

/// One table's in-memory overlay.
///
/// Space management: the overlay lives in finite FPGA-side memory. With a
/// nonzero `capacity_entries`, installing a clean row past the limit
/// evicts the oldest clean entry (dirty rows are pinned until the next
/// bulk merge); evicted keys become §5.6 misses that abort the hardware
/// probe and refetch from base data.
class Overlay {
 public:
  /// Entry states: the tag byte in front of every overlay value.
  static constexpr char kClean = 'L';
  static constexpr char kDirty = 'W';
  static constexpr char kTombstone = 'D';

  explicit Overlay(const index::BTreeConfig& config,
                   size_t capacity_entries = 0)
      : index_(config), capacity_(capacity_entries) {}
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(Overlay);

  /// Read through the overlay. Outcomes:
  ///  * a live record: returns it (hit);
  ///  * a tombstone: NotFound (hit — the delete is authoritative);
  ///  * key absent: OutOfMemory — the hardware probe "aborts so that
  ///    software can trigger a data fetch and then retry" (§5.6).
  Result<std::string> Get(Slice key) const;

  /// Traced variant reporting index levels visited (for probe costing).
  Result<std::string> GetTraced(Slice key, int* node_visits) const;

  /// Zero-copy read through the overlay (same outcomes as Get). The view
  /// aliases the overlay index's leaf arena, minus the tag byte, and is
  /// invalidated by the next overlay write — copy before suspending.
  Result<Slice> GetView(Slice key) const;
  Result<Slice> GetTracedView(Slice key, int* node_visits) const;

  /// Buffers a write (insert or update). Marks the key dirty.
  void Put(Slice key, Slice record) { WriteDirty(key, Tag(kDirty, record)); }

  /// Buffers a delete (tombstone). Marks the key dirty.
  void Delete(Slice key) { WriteDirty(key, Tag(kTombstone, Slice())); }

  /// Caches a clean record fetched from base data (read caching). A dirty
  /// entry stays dirty, now holding `record`.
  void InstallClean(Slice key, Slice record);

  /// Drops a clean entry (overlay space management). Dirty entries cannot
  /// be evicted before a merge.
  Status EvictClean(Slice key);

  /// Physically removes an entry, dirty or not (rollback of an
  /// overlay-only insert). No-op if absent.
  void RemoveEntry(Slice key);

  bool IsDirty(Slice key) const {
    auto tagged = index_.Peek(key);
    return tagged.ok() && IsDirtyTag((*tagged)[0]);
  }
  size_t dirty_count() const { return dirty_count_; }
  size_t entries() const { return index_.size(); }
  int index_height() const { return index_.height(); }
  const index::BTree& index() const { return index_; }
  const OverlayStats& stats() const { return stats_; }

  size_t capacity() const { return capacity_; }
  uint64_t clean_evictions() const { return clean_evictions_; }

  /// The write-back delta: sorted (key, record-or-tombstone) pairs; clears
  /// dirtiness. nullopt record == delete. Tombstones leave the overlay;
  /// written rows stay as clean cached entries.
  std::vector<std::pair<std::string, std::optional<std::string>>> TakeDirty();

  /// The patch set a query must apply over base data (dirty entries only,
  /// without clearing them).
  std::vector<std::pair<std::string, std::optional<std::string>>>
  DirtySnapshot() const;

 private:
  static std::string Tag(char tag, Slice record) {
    std::string v(1, tag);
    v.append(record.data(), record.size());
    return v;
  }
  /// `tag` is a tag byte, or Upsert's -1 for a key that was absent.
  static bool IsDirtyTag(int tag) { return tag == kDirty || tag == kTombstone; }

  /// Stores a dirty-tagged value, counting the key if it was not dirty.
  void WriteDirty(Slice key, const std::string& tagged);

  /// Evicts clean entries until under capacity. Dirty entries are skipped.
  void EnforceCapacity();

  index::BTree index_;
  size_t dirty_count_ = 0;
  size_t capacity_;
  /// Approximate-FIFO eviction candidates (may contain stale keys; checked
  /// against the index at eviction time). Kept only when capacity_ > 0.
  std::deque<std::string> clean_fifo_;
  uint64_t clean_evictions_ = 0;
  mutable OverlayStats stats_;
};

}  // namespace bionicdb::engine
