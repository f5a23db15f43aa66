// Memory-lean table storage: a front-coded packed key index over a slabbed
// record heap, with a small sorted delta for post-load mutations.
//
// The paged heap + pointer-rich B+Tree cost hundreds of bytes per row —
// fine at TATP's default 5k subscribers, prohibitive at the 10M-subscriber
// end of the scale sweep. CompactStore replaces both for tables that are
// bulk-loaded once and then served:
//
//  * PackedKeyIndex — keys in sorted order, front-coded in blocks of 64
//    (block-first keys stored whole for binary search; every other key as
//    shared-prefix-length + suffix against its predecessor). Values are a
//    flat u64 array of SlabHeap handles, updatable in place.
//  * SlabHeap — records back to back in 64 KiB slabs (storage/slab.h).
//  * delta — a std::map over keys inserted or deleted after Finalize().
//    Reads check it first; Compact() folds it back into the packed form.
//
// Probe cost is modeled as a constant-height tree of fanout 64 over the
// block directory (height() below); the engine charges ProbeCost(height)
// per lookup exactly as it does B+Tree node visits, so compact mode is a
// memory trade, not a free-lunch speedup.
//
// Untimed and functional like the rest of storage/. Not thread-safe: the
// real-thread execution backend refuses compact tables (simulator-task
// discipline only).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/slab.h"

namespace bionicdb::storage {

/// Immutable sorted key -> u64 dictionary, front-coded. Built once from a
/// sorted run; only the values are mutable afterwards.
class PackedKeyIndex {
 public:
  static constexpr size_t kBlockEntries = 64;
  static constexpr size_t kNpos = ~size_t{0};
  /// Front-coding headroom: keys longer than this don't fit the u8
  /// shared-prefix field's scratch reconstruction buffer.
  static constexpr size_t kMaxKeyBytes = 255;

  PackedKeyIndex() = default;
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(PackedKeyIndex);

  /// Builds from `run`, which must be sorted by key with no duplicates
  /// (checked). Replaces any previous content.
  void Build(std::vector<std::pair<std::string, uint64_t>>&& run);

  /// Exact-match rank, or kNpos.
  size_t Rank(Slice key) const;
  /// Rank of the first key >= `key` (size() when none).
  size_t LowerBound(Slice key) const;

  uint64_t value(size_t rank) const { return values_[rank]; }
  void set_value(size_t rank, uint64_t v) { values_[rank] = v; }

  size_t size() const { return values_.size(); }
  /// Synthetic probe height: a fanout-64 tree over the block directory,
  /// charged per lookup like B+Tree node visits.
  int height() const { return height_; }
  uint64_t memory_bytes() const;

  /// Sequential decoder. key() views the cursor's scratch buffer: valid
  /// until Next() or destruction.
  class Iterator {
   public:
    bool Valid() const { return rank_ < idx_->size(); }
    void Next();
    Slice key() const { return Slice(buf_, len_); }
    uint64_t value() const { return idx_->values_[rank_]; }
    size_t rank() const { return rank_; }

   private:
    friend class PackedKeyIndex;
    Iterator(const PackedKeyIndex* idx, size_t rank);

    const PackedKeyIndex* idx_;
    size_t rank_;
    uint32_t pos_ = 0;  ///< Arena offset of the NEXT encoded entry.
    char buf_[kMaxKeyBytes + 1];
    size_t len_ = 0;
  };
  Iterator IteratorAt(size_t rank) const { return Iterator(this, rank); }

 private:
  friend class Iterator;
  Slice BlockFirst(size_t block) const;

  std::string arena_;               ///< Encoded non-first entries, per block.
  std::vector<uint32_t> block_off_; ///< Arena offset of each block.
  std::string first_arena_;         ///< Block-first keys, concatenated.
  std::vector<uint32_t> first_off_; ///< size num_blocks + 1.
  std::vector<uint64_t> values_;
  int height_ = 1;
};

/// The compact table store: load -> Finalize -> serve, with a sorted delta
/// absorbing whatever mutates afterwards.
class CompactStore {
 public:
  CompactStore() = default;
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(CompactStore);

  /// Bulk-load staging (any key order; sorted at Finalize).
  Status Load(Slice key, Slice record);
  /// Seals the staged rows into the packed index. Rows loaded after a
  /// Finalize (or put on a never-finalized store) live in the delta.
  void Finalize();
  bool finalized() const { return finalized_; }

  bool Contains(Slice key) const;
  /// `visits` (optional) receives the modeled probe cost in node visits.
  Result<Slice> Get(Slice key, int* visits) const;
  Status Put(Slice key, Slice record);  ///< Upsert.
  Status Delete(Slice key);

  /// In-order walk of [lo, hi) — empty `hi` means unbounded — over packed
  /// rows patched with the delta. `fn` returns false to stop early.
  void Scan(Slice lo, Slice hi,
            const std::function<bool(Slice key, Slice record)>& fn) const;

  /// Folds the delta back into the packed form (the compact analogue of a
  /// B+Tree rebuild). Returns the number of entries merged.
  size_t Compact();

  int height() const { return index_.height(); }
  uint64_t memory_bytes() const;

 private:
  /// Delta value: a SlabHeap handle, or kInvalidHandle marking a deleted
  /// packed key (tombstone).
  static constexpr uint64_t kTombstone = SlabHeap::kInvalidHandle;

  SlabHeap heap_;
  PackedKeyIndex index_;
  std::vector<std::pair<std::string, uint64_t>> staging_;
  std::map<std::string, uint64_t> delta_;
  bool finalized_ = false;
};

}  // namespace bionicdb::storage
