// TATP (Telecom Application Transaction Processing) benchmark: the
// workload behind the paper's Figure 3 left bar (UpdateSubscriberData).
// Full standard mix: 4 tables, 7 transaction types, NURand-free uniform
// subscriber selection per the TATP spec.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/random.h"
#include "engine/engine.h"

namespace bionicdb::workload {

#pragma pack(push, 1)
struct SubscriberRow {
  uint64_t s_id;
  char sub_nbr[15];
  uint8_t bit[10];
  uint8_t hex[10];
  uint8_t byte2[10];
  uint32_t msc_location;
  uint32_t vlr_location;
};

struct AccessInfoRow {
  uint64_t s_id;
  uint8_t ai_type;  // 1..4
  uint8_t data1;
  uint8_t data2;
  char data3[3];
  char data4[5];
};

struct SpecialFacilityRow {
  uint64_t s_id;
  uint8_t sf_type;  // 1..4
  uint8_t is_active;
  uint8_t error_cntrl;
  uint8_t data_a;
  char data_b[5];
};

struct CallForwardingRow {
  uint64_t s_id;
  uint8_t sf_type;
  uint8_t start_time;  // 0, 8, 16
  uint8_t end_time;
  char numberx[15];
};
#pragma pack(pop)

template <typename Row>
std::string EncodeRow(const Row& row) {
  return std::string(reinterpret_cast<const char*>(&row), sizeof(Row));
}
template <typename Row>
Row DecodeRow(Slice s) {
  Row row;
  BIONICDB_CHECK_MSG(s.size() == sizeof(Row),
                     "record size %zu != row size %zu", s.size(),
                     sizeof(Row));
  std::memcpy(&row, s.data(), sizeof(Row));
  return row;
}

enum class TatpTxnType : int {
  kGetSubscriberData = 0,  // 35%
  kGetNewDestination,      // 10%
  kGetAccessData,          // 35%
  kUpdateSubscriberData,   //  2%  <- Figure 3 left
  kUpdateLocation,         // 14%
  kInsertCallForwarding,   //  2%
  kDeleteCallForwarding,   //  2%
  kNumTypes
};

const char* TatpTxnTypeName(TatpTxnType t);

/// The standard mix: the transaction type of a uniform roll in [0, 100).
TatpTxnType TatpMixType(uint64_t roll);

struct TatpConfig {
  uint64_t subscribers = 10000;
  uint64_t seed = 1;
  /// Shard-ownership filter (workload/sharded_tatp.h): Load() populates
  /// only subscribers with s_id % num_shards == shard. The loader still
  /// draws the FULL RNG stream, so every owned row is byte-identical to
  /// the same row in an unsharded load — a shard's tables are exactly a
  /// partition of the global database. Defaults load everything.
  uint64_t shard = 0;
  uint64_t num_shards = 1;
};

struct TatpCounts {
  uint64_t attempts[static_cast<int>(TatpTxnType::kNumTypes)] = {};
};

class TatpWorkload {
 public:
  TatpWorkload(engine::Engine* engine, const TatpConfig& config);

  /// Creates and populates the four TATP tables (untimed).
  Status Load();

  /// Draws a transaction from the standard mix.
  engine::Engine::TxnSpec NextTransaction(TatpTxnType* type_out = nullptr);

  /// Builds a transaction of an externally-chosen type against an
  /// externally-chosen subscriber (the sharded workload draws both from
  /// its own mix RNG, then routes here so builder-side draws come from
  /// the owning shard's stream). Consumes exactly the RNG draws the
  /// matching branch of NextTransaction would.
  engine::Engine::TxnSpec BuildTransaction(TatpTxnType type, uint64_t s_id);

  /// Individual builders (used by targeted benchmarks).
  engine::Engine::TxnSpec MakeGetSubscriberData(uint64_t s_id);
  engine::Engine::TxnSpec MakeGetNewDestination(uint64_t s_id);
  engine::Engine::TxnSpec MakeGetAccessData(uint64_t s_id);
  engine::Engine::TxnSpec MakeUpdateSubscriberData(uint64_t s_id);
  engine::Engine::TxnSpec MakeUpdateLocation(const std::string& sub_nbr,
                                             uint32_t new_location);
  engine::Engine::TxnSpec MakeInsertCallForwarding(uint64_t s_id);
  engine::Engine::TxnSpec MakeDeleteCallForwarding(uint64_t s_id);

  uint64_t RandomSubscriber() { return rng_.Uniform(config_.subscribers); }
  std::string SubNbr(uint64_t s_id) const;

  engine::Table* subscriber() { return subscriber_; }
  engine::Table* access_info() { return access_info_; }
  engine::Table* special_facility() { return special_facility_; }
  engine::Table* call_forwarding() { return call_forwarding_; }
  const TatpCounts& counts() const { return counts_; }
  const TatpConfig& config() const { return config_; }

 private:
  engine::Engine* engine_;
  TatpConfig config_;
  Rng rng_;
  engine::Table* subscriber_ = nullptr;
  engine::Table* access_info_ = nullptr;
  engine::Table* special_facility_ = nullptr;
  engine::Table* call_forwarding_ = nullptr;
  TatpCounts counts_;
};

}  // namespace bionicdb::workload
