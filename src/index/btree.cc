#include "index/btree.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace bionicdb::index {

namespace {

/// Compact a node arena once dead bytes dominate and the arena is big
/// enough for the copy to pay off.
constexpr size_t kCompactMinBytes = 1024;

/// Largest key or value a slot can describe.
constexpr size_t kMaxEntryBytes = UINT16_MAX;

}  // namespace

/// First eight key bytes as a big-endian word, zero-padded. Byte order on
/// these words never contradicts lexicographic byte order (zero padding can
/// only tie against real bytes, never exceed them), so binary search can
/// resolve most comparisons from the slot array alone and only touch the
/// arena on prefix ties.
inline uint64_t KeyPrefix(Slice key) {
  unsigned char buf[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::memcpy(buf, key.data(), key.size() < 8 ? key.size() : 8);
  uint64_t le;
  std::memcpy(&le, buf, 8);
  return __builtin_bswap64(le);
}

/// One entry of a node: where its bytes sit in the arena (key, then
/// value), their lengths, and the cached search prefix.
struct BTreeSlot {
  uint32_t off;
  uint16_t klen;
  uint16_t vlen;
  uint64_t prefix;

  size_t bytes() const { return size_t{klen} + vlen; }
};
static_assert(sizeof(BTreeSlot) == 16);

struct BTree::Node {
  bool leaf;
  /// Sorted entry slots.
  std::vector<BTreeSlot> slots;
  /// Entry bytes, key then value; may contain dead gaps from deletes and
  /// overwrites. arena.size() == live bytes + dead.
  std::vector<char> arena;
  uint32_t dead = 0;

  explicit Node(bool is_leaf) : leaf(is_leaf) {}

  size_t NumKeys() const { return slots.size(); }

  Slice KeyAt(size_t i) const {
    const BTreeSlot& s = slots[i];
    return Slice(arena.data() + s.off, s.klen);
  }

  Slice ValueAt(size_t i) const {
    const BTreeSlot& s = slots[i];
    return Slice(arena.data() + s.off + s.klen, s.vlen);
  }

  /// Grows the arena by `n` bytes (one geometric reallocation at most) and
  /// returns the offset of the new bytes.
  uint32_t Extend(size_t n) {
    const size_t off = arena.size();
    BIONICDB_CHECK(off + n <= UINT32_MAX);
    arena.resize(off + n);
    return static_cast<uint32_t>(off);
  }

  /// Appends the entry's bytes and inserts its slot at sorted position
  /// `pos`.
  void InsertEntry(size_t pos, Slice key, Slice value) {
    BIONICDB_CHECK(key.size() <= kMaxEntryBytes);
    BIONICDB_CHECK(value.size() <= kMaxEntryBytes);
    const uint32_t off = Extend(key.size() + value.size());
    std::memcpy(arena.data() + off, key.data(), key.size());
    std::memcpy(arena.data() + off + key.size(), value.data(), value.size());
    slots.insert(slots.begin() + static_cast<long>(pos),
                 BTreeSlot{off, static_cast<uint16_t>(key.size()),
                           static_cast<uint16_t>(value.size()),
                           KeyPrefix(key)});
  }

  /// Appends an entry at the end (bulk-build path; keys arrive sorted).
  void AppendEntry(Slice key, Slice value) {
    InsertEntry(slots.size(), key, value);
  }

  /// Overwrites the value at `pos`: in place when the new value fits in the
  /// old one's bytes, otherwise the entry is re-appended at the arena end
  /// (the old bytes become dead).
  void SetValue(size_t pos, Slice value) {
    BIONICDB_CHECK(value.size() <= kMaxEntryBytes);
    BTreeSlot& s = slots[pos];
    const auto vlen = static_cast<uint16_t>(value.size());
    if (vlen <= s.vlen) {
      std::memmove(arena.data() + s.off + s.klen, value.data(), vlen);
      dead += s.vlen - vlen;
      s.vlen = vlen;
      return;
    }
    const uint32_t off = Extend(s.klen + value.size());
    std::memcpy(arena.data() + off, arena.data() + s.off, s.klen);
    std::memcpy(arena.data() + off + s.klen, value.data(), vlen);
    dead += static_cast<uint32_t>(s.bytes());
    s.off = off;
    s.vlen = vlen;
  }

  void EraseEntry(size_t pos) {
    dead += static_cast<uint32_t>(slots[pos].bytes());
    slots.erase(slots.begin() + static_cast<long>(pos));
  }

  /// Rewrites the arena with only live bytes, in exact-size storage.
  /// Invalidates views.
  void Compact() {
    std::vector<char> fresh(arena.size() - dead);
    size_t w = 0;
    for (BTreeSlot& s : slots) {
      std::memcpy(fresh.data() + w, arena.data() + s.off, s.bytes());
      s.off = static_cast<uint32_t>(w);
      w += s.bytes();
    }
    arena = std::move(fresh);
    dead = 0;
  }

  void MaybeCompact() {
    if (dead > arena.size() / 2 && arena.size() >= kCompactMinBytes) {
      Compact();
    }
  }

  /// Slides the live bytes to the front of the arena, keeping its
  /// capacity. Entries move in ascending offset order, so no move
  /// overwrites bytes that have yet to move; slots are re-sorted by offset
  /// for the moves (and back by key) only when the two orders differ.
  void CompactInPlace() {
    const auto by_off = [](const BTreeSlot& a, const BTreeSlot& b) {
      return a.off < b.off;
    };
    const bool key_order_is_offset_order =
        std::is_sorted(slots.begin(), slots.end(), by_off);
    if (!key_order_is_offset_order) {
      std::sort(slots.begin(), slots.end(), by_off);
    }
    size_t w = 0;
    for (BTreeSlot& s : slots) {
      if (s.off != w) {
        std::memmove(arena.data() + w, arena.data() + s.off, s.bytes());
      }
      s.off = static_cast<uint32_t>(w);
      w += s.bytes();
    }
    arena.resize(w);
    dead = 0;
    if (!key_order_is_offset_order) {
      const char* base = arena.data();
      std::sort(slots.begin(), slots.end(),
                [base](const BTreeSlot& a, const BTreeSlot& b) {
                  if (a.prefix != b.prefix) return a.prefix < b.prefix;
                  return Slice(base + a.off, a.klen) <
                         Slice(base + b.off, b.klen);
                });
    }
  }

  /// Copies entries [from, to) of `src` into this empty node, in
  /// exact-size storage.
  void CopyEntriesExact(const Node& src, size_t from, size_t to) {
    size_t bytes = 0;
    for (size_t i = from; i < to; ++i) bytes += src.slots[i].bytes();
    slots.reserve(to - from);
    arena.reserve(bytes);
    for (size_t i = from; i < to; ++i) {
      const BTreeSlot& s = src.slots[i];
      const uint32_t off = Extend(s.bytes());
      std::memcpy(arena.data() + off, src.arena.data() + s.off, s.bytes());
      slots.push_back(BTreeSlot{off, s.klen, s.vlen, s.prefix});
    }
  }

  /// Keeps only entries [from, to), in this node's own (grown) storage.
  void KeepEntries(size_t from, size_t to) {
    slots.erase(slots.begin() + static_cast<long>(to), slots.end());
    slots.erase(slots.begin(), slots.begin() + static_cast<long>(from));
    CompactInPlace();
  }

  /// Splits this node's entries with the empty node `right`: [0, left_end)
  /// stay here, [right_begin, n) move right (inner splits skip the
  /// separator between them). The half that took the new entry keeps the
  /// grown storage; the other half moves into exact-size storage.
  void SplitEntries(Node* right, size_t left_end, size_t right_begin,
                    bool right_took_new) {
    const size_t n = NumKeys();
    if (right_took_new) {
      std::swap(slots, right->slots);
      std::swap(arena, right->arena);
      std::swap(dead, right->dead);
      CopyEntriesExact(*right, 0, left_end);
      right->KeepEntries(right_begin, n);
    } else {
      right->CopyEntriesExact(*this, right_begin, n);
      KeepEntries(0, left_end);
    }
  }
};

struct BTree::Inner : BTree::Node {
  // children.size() == slots.size() + 1; child[i] holds keys < key[i],
  // child[i+1] holds keys >= key[i].
  std::vector<Node*> children;
  Inner() : Node(false) {}
};

struct BTree::Leaf : BTree::Node {
  Leaf* next = nullptr;
  Leaf() : Node(true) {}

  /// The value stored under `key` in this leaf.
  Result<Slice> Find(Slice key) const {
    const size_t pos = LowerBound(*this, key);
    if (pos < NumKeys() && KeyAt(pos) == key) return ValueAt(pos);
    return Status::NotFound("key not in index");
  }
};

/// Index of the child covering `key` in an inner node: first separator
/// greater than key.
size_t BTree::ChildIndex(const Node& node, Slice key) {
  const char* base = node.arena.data();
  const BTreeSlot* slots = node.slots.data();
  const uint64_t kp = KeyPrefix(key);
  size_t lo = 0, hi = node.slots.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const BTreeSlot& r = slots[mid];
    const int c = (r.prefix != kp)
                      ? (r.prefix < kp ? -1 : 1)
                      : Slice(base + r.off, r.klen).Compare(key);
    if (c <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Index of the first key >= `key` in a node.
size_t BTree::LowerBound(const Node& node, Slice key) {
  const char* base = node.arena.data();
  const BTreeSlot* slots = node.slots.data();
  const uint64_t kp = KeyPrefix(key);
  size_t lo = 0, hi = node.slots.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const BTreeSlot& r = slots[mid];
    const int c = (r.prefix != kp)
                      ? (r.prefix < kp ? -1 : 1)
                      : Slice(base + r.off, r.klen).Compare(key);
    if (c < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

BTree::Leaf* BTree::LeftmostLeafFor(Node* node) {
  while (!node->leaf) node = static_cast<Inner*>(node)->children.front();
  return static_cast<Leaf*>(node);
}

BTree::BTree(const BTreeConfig& config) : config_(config) {
  BIONICDB_CHECK(config_.inner_fanout >= 3);
  BIONICDB_CHECK(config_.leaf_capacity >= 2);
  root_ = new Leaf();
}

BTree::~BTree() { FreeNode(root_); }

void BTree::FreeNode(Node* node) {
  if (!node->leaf) {
    for (Node* c : static_cast<Inner*>(node)->children) FreeNode(c);
  }
  if (node->leaf) {
    delete static_cast<Leaf*>(node);
  } else {
    delete static_cast<Inner*>(node);
  }
}

BTree::Leaf* BTree::FindLeaf(Slice key, int* node_visits) const {
  int visits = 0;
  Node* node = root_;
  ++visits;
  while (!node->leaf) {
    Inner* inner = static_cast<Inner*>(node);
    node = inner->children[ChildIndex(*inner, key)];
    ++visits;
  }
  if (node_visits) *node_visits = visits;
  return static_cast<Leaf*>(node);
}

Status BTree::Insert(Slice key, Slice value, bool overwrite) {
  return InsertImpl(key, value, overwrite, nullptr);
}

int BTree::Upsert(Slice key, Slice value) {
  int prev = -1;
  BIONICDB_CHECK(InsertImpl(key, value, /*overwrite=*/true, &prev).ok());
  return prev;
}

Status BTree::InsertImpl(Slice key, Slice value, bool overwrite, int* prev) {
  Status st = Status::OK();
  SplitResult split = InsertRec(root_, key, value, overwrite, prev, &st);
  if (!st.ok()) return st;
  if (split.split) {
    Inner* new_root = new Inner();
    new_root->AppendEntry(split.separator, Slice());
    new_root->children.push_back(root_);
    new_root->children.push_back(split.right);
    root_ = new_root;
    ++height_;
  }
  return Status::OK();
}

BTree::SplitResult BTree::InsertRec(Node* node, Slice key, Slice value,
                                    bool overwrite, int* prev, Status* st) {
  if (node->leaf) {
    Leaf* leaf = static_cast<Leaf*>(node);
    const size_t pos = LowerBound(*leaf, key);
    if (pos < leaf->NumKeys() && leaf->KeyAt(pos) == key) {
      if (!overwrite) {
        *st = Status::AlreadyExists("duplicate key");
        return {};
      }
      if (prev != nullptr) {
        const Slice old = leaf->ValueAt(pos);
        *prev = old.empty() ? -1 : static_cast<unsigned char>(old[0]);
      }
      leaf->SetValue(pos, value);
      leaf->MaybeCompact();
      return {};
    }
    leaf->InsertEntry(pos, key, value);
    ++size_;
    ++stats_.inserts;
    if (leaf->NumKeys() <= static_cast<size_t>(config_.leaf_capacity)) {
      return {};
    }
    // Split the leaf: the upper half moves to a new right sibling.
    Leaf* right = new Leaf();
    const size_t mid = leaf->NumKeys() / 2;
    leaf->SplitEntries(right, mid, mid, /*right_took_new=*/pos >= mid);
    right->next = leaf->next;
    leaf->next = right;
    ++stats_.splits;
    SplitResult out;
    out.split = true;
    out.separator = right->KeyAt(0).ToString();
    out.right = right;
    return out;
  }

  Inner* inner = static_cast<Inner*>(node);
  const size_t ci = ChildIndex(*inner, key);
  SplitResult child_split =
      InsertRec(inner->children[ci], key, value, overwrite, prev, st);
  if (!st->ok() || !child_split.split) return {};

  inner->InsertEntry(ci, child_split.separator, Slice());
  inner->children.insert(inner->children.begin() + static_cast<long>(ci) + 1,
                         child_split.right);
  if (inner->children.size() <= static_cast<size_t>(config_.inner_fanout)) {
    return {};
  }
  // Split the inner node: the middle separator moves up. The new child sits
  // at ci + 1, so the right half took it when ci + 1 > mid.
  Inner* right = new Inner();
  const size_t n = inner->NumKeys();
  const size_t mid = n / 2;
  SplitResult out;
  out.split = true;
  out.separator = inner->KeyAt(mid).ToString();
  const bool right_took_new = ci >= mid;
  inner->SplitEntries(right, mid, mid + 1, right_took_new);
  const long left_children = static_cast<long>(mid) + 1;
  if (right_took_new) {
    std::swap(inner->children, right->children);
    inner->children.assign(right->children.begin(),
                           right->children.begin() + left_children);
    right->children.erase(right->children.begin(),
                          right->children.begin() + left_children);
  } else {
    right->children.assign(inner->children.begin() + left_children,
                           inner->children.end());
    inner->children.resize(mid + 1);
  }
  ++stats_.splits;
  out.right = right;
  return out;
}

Result<std::string> BTree::Get(Slice key) const {
  int visits = 0;
  return GetTraced(key, &visits);
}

Result<std::string> BTree::GetTraced(Slice key, int* node_visits) const {
  Result<Slice> view = GetTracedView(key, node_visits);
  if (!view.ok()) return view.status();
  return view->ToString();
}

Result<Slice> BTree::GetView(Slice key) const {
  int visits = 0;
  return GetTracedView(key, &visits);
}

Result<Slice> BTree::GetTracedView(Slice key, int* node_visits) const {
  Leaf* leaf = FindLeaf(key, node_visits);
  // The probe path is the one BTree entry point that runs under SHARED
  // table ownership on the threaded backend (mutations are exclusive), so
  // these two counters are the only stats that concurrent threads bump.
  // Relaxed atomic_ref keeps the struct layout (and the single-threaded
  // simulator's plain reads) while making the increments race-free.
  std::atomic_ref<uint64_t>(stats_.probes).fetch_add(
      1, std::memory_order_relaxed);
  std::atomic_ref<uint64_t>(stats_.node_visits)
      .fetch_add(static_cast<uint64_t>(*node_visits),
                 std::memory_order_relaxed);
  return leaf->Find(key);
}

Result<Slice> BTree::Peek(Slice key) const {
  return FindLeaf(key, nullptr)->Find(key);
}

Status BTree::Update(Slice key, Slice value) {
  Leaf* leaf = FindLeaf(key, nullptr);
  const size_t pos = LowerBound(*leaf, key);
  if (pos < leaf->NumKeys() && leaf->KeyAt(pos) == key) {
    leaf->SetValue(pos, value);
    leaf->MaybeCompact();
    return Status::OK();
  }
  return Status::NotFound("key not in index");
}

Status BTree::Delete(Slice key) {
  bool root_empty = false;
  Status st = DeleteRec(root_, key, &root_empty);
  if (!st.ok()) return st;
  // Shrink the tree: an inner root with one child is replaced by it.
  while (!root_->leaf && static_cast<Inner*>(root_)->children.size() == 1) {
    Inner* old = static_cast<Inner*>(root_);
    root_ = old->children[0];
    old->children.clear();
    delete old;
    --height_;
  }
  return Status::OK();
}

Status BTree::DeleteRec(Node* node, Slice key, bool* empty) {
  if (node->leaf) {
    Leaf* leaf = static_cast<Leaf*>(node);
    const size_t pos = LowerBound(*leaf, key);
    if (pos >= leaf->NumKeys() || leaf->KeyAt(pos) != key) {
      return Status::NotFound("key not in index");
    }
    leaf->EraseEntry(pos);
    leaf->MaybeCompact();
    --size_;
    ++stats_.deletes;
    *empty = leaf->NumKeys() == 0;
    return Status::OK();
  }

  Inner* inner = static_cast<Inner*>(node);
  const size_t ci = ChildIndex(*inner, key);
  bool child_empty = false;
  BIONICDB_RETURN_NOT_OK(DeleteRec(inner->children[ci], key, &child_empty));
  if (child_empty && inner->children.size() > 1) {
    // Unlink the empty child. If it is a leaf, splice the leaf chain.
    Node* victim = inner->children[ci];
    if (victim->leaf) {
      Leaf* vleaf = static_cast<Leaf*>(victim);
      // Find the left neighbor leaf to re-link. Walking from the leftmost
      // leaf is O(#leaves) but deletion-to-empty is rare.
      Leaf* prev = nullptr;
      for (Leaf* l = LeftmostLeafFor(root_); l != nullptr && l != vleaf;
           l = l->next) {
        prev = l;
      }
      if (prev) prev->next = vleaf->next;
    }
    FreeNode(victim);
    inner->children.erase(inner->children.begin() + static_cast<long>(ci));
    inner->EraseEntry(ci < inner->NumKeys() ? ci : inner->NumKeys() - 1);
    inner->MaybeCompact();
  }
  *empty = inner->children.empty();
  return Status::OK();
}

BTree::Iterator BTree::Seek(Slice start) const {
  Iterator it;
  int visits = 0;
  Leaf* leaf = FindLeaf(start, &visits);
  size_t pos = LowerBound(*leaf, start);
  // Deletes can leave runs of empty leaves (a lone child is never
  // unlinked), so step past every exhausted leaf, not just this one.
  while (leaf != nullptr && pos >= leaf->NumKeys()) {
    leaf = leaf->next;
    pos = 0;
  }
  it.node_ = leaf;
  it.idx_ = pos;
  return it;
}

BTree::Iterator BTree::SeekRange(Slice start, Slice end) const {
  Iterator it = Seek(start);
  it.bounded_ = true;
  it.end_ = end.ToString();
  // Clamp immediately if the first key is already out of range.
  if (it.Valid() && it.key().Compare(Slice(it.end_)) >= 0) it.node_ = nullptr;
  return it;
}

BTree::Iterator BTree::Begin() const {
  Iterator it;
  Leaf* leaf = LeftmostLeafFor(root_);
  // Skip empty leaves (an empty tree is one empty leaf: end).
  while (leaf != nullptr && leaf->NumKeys() == 0) leaf = leaf->next;
  it.node_ = leaf;
  it.idx_ = 0;
  return it;
}

Slice BTree::Iterator::key() const {
  const Leaf* leaf = static_cast<const Leaf*>(node_);
  return leaf->KeyAt(idx_);
}

Slice BTree::Iterator::value() const {
  const Leaf* leaf = static_cast<const Leaf*>(node_);
  return leaf->ValueAt(idx_);
}

void BTree::Iterator::Next() {
  const Leaf* leaf = static_cast<const Leaf*>(node_);
  ++idx_;
  while (leaf && idx_ >= leaf->NumKeys()) {
    leaf = leaf->next;
    idx_ = 0;
  }
  node_ = leaf;
  if (node_ && bounded_ && key().Compare(Slice(end_)) >= 0) {
    node_ = nullptr;
  }
}

Status BTree::Rebuild(double fill_factor) {
  if (fill_factor <= 0.0 || fill_factor > 1.0) {
    return Status::InvalidArgument("fill factor must be in (0, 1]");
  }
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(size_);
  for (Iterator it = Begin(); it.Valid(); it.Next()) {
    entries.emplace_back(it.key().ToString(), it.value().ToString());
  }
  FreeNode(root_);

  if (entries.empty()) {
    root_ = new Leaf();
    height_ = 1;
    return Status::OK();
  }

  // Build the leaf level at the target fill.
  const size_t per_leaf = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(config_.leaf_capacity) *
                             fill_factor));
  std::vector<std::pair<Node*, std::string>> level;  // (node, min key)
  Leaf* prev = nullptr;
  for (size_t i = 0; i < entries.size(); i += per_leaf) {
    Leaf* leaf = new Leaf();
    const size_t end = std::min(entries.size(), i + per_leaf);
    size_t bytes = 0;
    for (size_t j = i; j < end; ++j) {
      bytes += entries[j].first.size() + entries[j].second.size();
    }
    leaf->slots.reserve(end - i);
    leaf->arena.reserve(bytes);
    for (size_t j = i; j < end; ++j) {
      leaf->AppendEntry(entries[j].first, entries[j].second);
    }
    if (prev != nullptr) prev->next = leaf;
    prev = leaf;
    level.emplace_back(leaf, leaf->KeyAt(0).ToString());
  }

  // Build inner levels bottom-up until a single root remains.
  const size_t per_inner = std::max<size_t>(
      2, static_cast<size_t>(static_cast<double>(config_.inner_fanout) *
                             fill_factor));
  int levels = 1;
  while (level.size() > 1) {
    std::vector<std::pair<Node*, std::string>> next_level;
    for (size_t i = 0; i < level.size(); i += per_inner) {
      Inner* inner = new Inner();
      const size_t end = std::min(level.size(), i + per_inner);
      size_t bytes = 0;
      for (size_t j = i + 1; j < end; ++j) bytes += level[j].second.size();
      inner->slots.reserve(end - i - 1);
      inner->arena.reserve(bytes);
      inner->children.reserve(end - i);
      for (size_t j = i; j < end; ++j) {
        inner->children.push_back(level[j].first);
        if (j > i) inner->AppendEntry(level[j].second, Slice());
      }
      next_level.emplace_back(inner, level[i].second);
    }
    level = std::move(next_level);
    ++levels;
  }
  root_ = level.front().first;
  height_ = levels;
  return Status::OK();
}

Status BTree::CheckInvariants() const {
  int leaf_depth = -1;
  BIONICDB_RETURN_NOT_OK(CheckNode(root_, 1, nullptr, nullptr, &leaf_depth));
  // The leaf chain links exactly the tree's leaves, left to right.
  const Leaf* chained = LeftmostLeafFor(root_);
  std::vector<const Node*> stack{root_};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (!node->leaf) {
      const auto& children = static_cast<const Inner*>(node)->children;
      stack.insert(stack.end(), children.rbegin(), children.rend());
      continue;
    }
    if (node != chained) {
      return Status::Corruption("leaf chain skips or repeats a leaf");
    }
    chained = static_cast<const Leaf*>(node)->next;
  }
  if (chained != nullptr) {
    return Status::Corruption("leaf chain runs past the last leaf");
  }
  return Status::OK();
}

Status BTree::CheckNode(const Node* node, int depth, const Slice* lo,
                        const Slice* hi, int* leaf_depth) const {
  // Keys sorted strictly ascending and within (lo, hi]. Slot sanity: every
  // slot must lie inside the arena (catches layout bugs before they turn
  // into wild reads), inner slots carry no value bytes, and the arena holds
  // exactly the live bytes plus the dead ones.
  size_t live = 0;
  for (size_t i = 0; i < node->NumKeys(); ++i) {
    const BTreeSlot& r = node->slots[i];
    if (static_cast<size_t>(r.off) + r.bytes() > node->arena.size()) {
      return Status::Corruption("slot outside arena");
    }
    if (!node->leaf && r.vlen != 0) {
      return Status::Corruption("inner slot carries value bytes");
    }
    live += r.bytes();
    if (r.prefix != KeyPrefix(node->KeyAt(i))) {
      return Status::Corruption("stale cached key prefix");
    }
    if (i > 0 && !(node->KeyAt(i - 1) < node->KeyAt(i))) {
      return Status::Corruption("keys out of order");
    }
    if (lo && node->KeyAt(i).Compare(*lo) < 0) {
      return Status::Corruption("key below subtree lower bound");
    }
    if (hi && node->KeyAt(i).Compare(*hi) >= 0) {
      return Status::Corruption("key above subtree upper bound");
    }
  }
  if (live + node->dead != node->arena.size()) {
    return Status::Corruption("arena size is not live + dead bytes");
  }
  if (node->leaf) {
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("non-uniform leaf depth");
    }
    if (depth != height_) {
      return Status::Corruption("height_ does not match actual depth");
    }
    return Status::OK();
  }
  const Inner* inner = static_cast<const Inner*>(node);
  if (inner->children.size() != inner->slots.size() + 1) {
    return Status::Corruption("inner child/separator count mismatch");
  }
  for (size_t i = 0; i < inner->children.size(); ++i) {
    const Slice clo_s = (i == 0) ? Slice() : inner->KeyAt(i - 1);
    const Slice chi_s =
        (i == inner->NumKeys()) ? Slice() : inner->KeyAt(i);
    const Slice* clo = (i == 0) ? lo : &clo_s;
    const Slice* chi = (i == inner->NumKeys()) ? hi : &chi_s;
    BIONICDB_RETURN_NOT_OK(
        CheckNode(inner->children[i], depth + 1, clo, chi, leaf_depth));
  }
  return Status::OK();
}

}  // namespace bionicdb::index
