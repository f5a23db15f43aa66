// LockKey: a lock-table key held inline at a fixed width.
//
// Both lock managers lock qualified keys, "t<table id>:<row key>": the
// conventional engine's 2PL LockManager and DORA's partition-local tables
// alike, and DORA routes an action by the FNV-1a hash of its first sorted
// key. A LockKey holds those exact bytes in a fixed buffer rather than a
// std::string, so building, copying, storing and erasing a key never
// touches the allocator, while hashing and ordering see the same bytes as
// the string form: routing and lock order are unchanged.
//
// A key longer than kCapacity is a programming error and CHECK-fails. The
// longest key today is TPC-C's 30-byte "t2:oc:" plus three u64s.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/hash.h"
#include "common/macros.h"
#include "common/slice.h"

namespace bionicdb::txn {

class LockKey {
 public:
  /// Bytes one key can hold; with the length byte a key is 40 bytes.
  static constexpr size_t kCapacity = 39;

  LockKey() = default;

  /// Exactly the bytes of `raw`.
  explicit LockKey(std::string_view raw) { Append(raw); }

  /// The qualified key "t<table_id>:<key>".
  LockKey(uint32_t table_id, Slice key) {
    char digits[10];
    size_t n = 0;
    do {
      digits[n++] = static_cast<char>('0' + table_id % 10);
      table_id /= 10;
    } while (table_id != 0);
    bytes_[len_++] = 't';
    while (n != 0) bytes_[len_++] = digits[--n];
    bytes_[len_++] = ':';
    Append(key.ToView());
  }

  std::string_view view() const { return {bytes_, len_}; }

  /// FNV-1a over the bytes: what DORA routes on and the tables hash.
  uint64_t hash() const { return common::HashBytes(view()); }

  friend bool operator==(const LockKey& a, const LockKey& b) {
    return a.view() == b.view();
  }
  /// Bytewise, the order of the string form.
  friend bool operator<(const LockKey& a, const LockKey& b) {
    return a.view() < b.view();
  }

 private:
  void Append(std::string_view s) {
    BIONICDB_CHECK_MSG(len_ + s.size() <= kCapacity,
                       "lock key of %zu bytes exceeds LockKey::kCapacity %zu",
                       len_ + s.size(), kCapacity);
    if (s.empty()) return;
    std::memcpy(bytes_ + len_, s.data(), s.size());
    len_ = static_cast<uint8_t>(len_ + s.size());
  }

  uint8_t len_ = 0;
  char bytes_[kCapacity] = {};
};

/// Not noexcept, so libstdc++'s unordered_map caches each node's hash and
/// neither bucket scans nor rehashes re-hash a key.
struct LockKeyHash {
  size_t operator()(const LockKey& k) const {
    return static_cast<size_t>(k.hash());
  }
};

}  // namespace bionicdb::txn
