// BTree: from-scratch in-memory B+Tree over byte-string keys.
//
// This is the functional structure behind both probe paths:
//  * the software probe (costed per node visit by hw::CostModel), and
//  * the hardware tree probe engine (§5.3), which walks the same logical
//    nodes through SG-DRAM — concurrency control is resolved *before* a
//    request reaches the tree (DORA's single-owner partitions), so the
//    structure itself carries no latches on the probe path.
//
// SMOs (splits, empty-node removal, height changes) are handled here in
// software, exactly as the paper prescribes ("space allocation, inode
// splits, and index reorganization are handled in software").
//
// Deletion uses empty-node removal rather than full merge/borrow
// rebalancing: underflowed nodes are allowed (they only waste space, never
// break ordering or uniform depth), and nodes are unlinked when they empty
// (except a parent's lone child, so iterators step over empty leaves).
//
// Node layout: each node is one sorted array of 16-byte slots over one
// byte arena. A slot holds {u32 offset, u16 key length, u16 value length,
// u64 key prefix}; the arena stores each entry's key bytes followed by its
// value bytes (inner nodes store keys only, with value length 0). A leaf
// is therefore two heap blocks, and binary search resolves most
// comparisons from the cached prefixes in the slot array alone. Point
// reads can return views into the arena (GetView) without materializing a
// std::string. Keys and values are at most 65,535 bytes each (a CHECK
// failure above that).
//
// Space: deleted and overwritten bytes become dead space that compaction
// reclaims once a node is mostly dead. A split keeps the split point; the
// half that did not take the new key moves into exact-size storage, and
// the half that took it keeps the grown arrays (compacted in place). An
// ascending load thus leaves every leaf but the last one exact-fit, and
// the first insert into an exact-fit leaf reallocates two blocks.
//
// Ascending inserts: the tree keeps a pointer to its rightmost leaf (the
// fast path disk B-trees such as PostgreSQL's nbtree use for increasing
// keys). An insert appends there without a descent when the leaf is
// non-empty, holds fewer than leaf_capacity entries and the key is above
// its last key. Every separator on the right spine is at most that last
// key, so the descent would reach the same leaf and position: nodes,
// split points and BTreeStats come out byte for byte as the descent makes
// them. Duplicates, full leaves and every other key descend. A split of
// the rightmost leaf moves the pointer to the new sibling, unlinking an
// empty rightmost leaf moves it to the left neighbour, and Rebuild
// re-derives it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace bionicdb::index {

struct BTreeConfig {
  /// Max children per inner node ("high node branching factors mean the
  /// entire index fits in memory for most datasets" — §5.3).
  int inner_fanout = 64;
  /// Max records per leaf.
  int leaf_capacity = 64;
};

struct BTreeStats {
  uint64_t probes = 0;        ///< Point lookups served.
  uint64_t node_visits = 0;   ///< Total nodes touched by probes.
  uint64_t inserts = 0;
  uint64_t appends = 0;       ///< Inserts appended without a descent.
  uint64_t deletes = 0;
  uint64_t splits = 0;        ///< Leaf + inner splits (software SMOs).
};

class BTree {
 public:
  explicit BTree(const BTreeConfig& config = {});
  ~BTree();
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(BTree);

  /// Inserts key -> value. With `overwrite` false, an existing key fails
  /// with AlreadyExists; with true, the value is replaced (upsert).
  Status Insert(Slice key, Slice value, bool overwrite = false);

  /// Insert with overwrite that also reports what it replaced, in the one
  /// descent Insert makes: returns the first byte of the key's previous
  /// value (as an unsigned char), or -1 when the key was new or that value
  /// was empty. Callers that keep a tag byte in front of each value read
  /// the old tag this way. Like every write, not a probe.
  int Upsert(Slice key, Slice value);

  /// Point lookup returning an owned copy of the value.
  Result<std::string> Get(Slice key) const;

  /// Point lookup that also reports the number of node visits (the probe
  /// depth the cost models consume).
  Result<std::string> GetTraced(Slice key, int* node_visits) const;

  /// Zero-copy point lookup: the returned slice aliases the leaf's arena
  /// and is valid until the next modifying call on this tree
  /// (insert/update/delete/rebuild). Callers that need the bytes past a
  /// write — or past a coroutine suspension that could interleave one —
  /// must copy.
  Result<Slice> GetView(Slice key) const;

  /// GetView + node-visit count (see GetTraced).
  Result<Slice> GetTracedView(Slice key, int* node_visits) const;

  /// GetView for bookkeeping reads: the same view, but not a probe, so
  /// BTreeStats (what the cost models and benchmarks count) stay put.
  Result<Slice> Peek(Slice key) const;

  /// Replaces the value of an existing key.
  Status Update(Slice key, Slice value);

  /// Removes a key.
  Status Delete(Slice key);

  bool Contains(Slice key) const { return Get(key).ok(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of levels root->leaf (1 for a lone leaf). This is what the
  /// tree probe unit's latency scales with.
  int height() const { return height_; }
  const BTreeStats& stats() const { return stats_; }
  const BTreeConfig& config() const { return config_; }

  /// Forward iterator over [start, end) in key order. The iterator is
  /// invalidated by writes.
  class Iterator {
   public:
    bool Valid() const { return node_ != nullptr; }
    Slice key() const;
    Slice value() const;
    void Next();

   private:
    friend class BTree;
    const void* node_ = nullptr;  // Leaf*
    size_t idx_ = 0;
    std::string end_;  // empty == unbounded
    bool bounded_ = false;
  };

  /// Iterator positioned at the first key >= `start`.
  Iterator Seek(Slice start) const;
  /// Iterator over keys in [start, end).
  Iterator SeekRange(Slice start, Slice end) const;
  /// Iterator from the smallest key.
  Iterator Begin() const;

  /// Rebuilds the tree bottom-up at `fill_factor` occupancy (index
  /// reorganization — the paper keeps SMOs and reorg in software). O(n);
  /// restores minimal height and dense leaves after deletion churn.
  /// Invalidates iterators. Probe/insert statistics are preserved.
  Status Rebuild(double fill_factor = 0.9);

  /// Structural invariant check (uniform depth, ordered keys, separator
  /// correctness, slots inside the arena, arena size = live + dead bytes,
  /// no value bytes in inner nodes, the append pointer on the rightmost
  /// leaf). For tests; O(n).
  Status CheckInvariants() const;

 private:
  struct Node;
  struct Inner;
  struct Leaf;

  Leaf* FindLeaf(Slice key, int* node_visits) const;
  static Leaf* LeftmostLeafFor(Node* node);

  /// Binary searches over a node's key refs: first separator > key (inner
  /// routing) and first key >= key (leaf position).
  static size_t ChildIndex(const Node& node, Slice key);
  static size_t LowerBound(const Node& node, Slice key);

  /// Shared body of Insert and Upsert; *prev (if set) receives Upsert's
  /// result.
  Status InsertImpl(Slice key, Slice value, bool overwrite, int* prev);

  /// Recursive insert; returns a (separator, new right sibling) pair when
  /// the child split.
  struct SplitResult {
    bool split = false;
    std::string separator;
    Node* right = nullptr;
  };
  SplitResult InsertRec(Node* node, Slice key, Slice value, bool overwrite,
                        int* prev, Status* st);

  /// Recursive delete; sets *empty when `node` has no entries left.
  Status DeleteRec(Node* node, Slice key, bool* empty);

  Status CheckNode(const Node* node, int depth, const Slice* lo,
                   const Slice* hi, int* leaf_depth) const;

  void FreeNode(Node* node);

  BTreeConfig config_;
  Node* root_;
  Leaf* rightmost_;  ///< Where ascending inserts append (see top).
  size_t size_ = 0;
  int height_ = 1;
  mutable BTreeStats stats_;
};

}  // namespace bionicdb::index
