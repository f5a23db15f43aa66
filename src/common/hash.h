// Byte hashing shared by the routing paths. DORA routing must be stable
// across every caller that hashes the same qualified key — the executor's
// Dispatch, its lock-release re-dispatch, the threaded backend's Dispatch
// and Engine::PartitionOf all have to agree, so they all funnel through
// these functions (via txn::LockKey::hash).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bionicdb::common {

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a 64-bit hash.
inline uint64_t HashBytes(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = kFnvOffsetBasis;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline uint64_t HashBytes(std::string_view sv) {
  return HashBytes(sv.data(), sv.size());
}

/// SplitMix64 finalizer: a full-avalanche bijection over uint64_t. Routing
/// applies it before the modulo so that structured hashes (or std::hash's
/// identity on integers) still spread across partitions.
inline uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace bionicdb::common
