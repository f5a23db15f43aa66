#include "workload/tatp.h"

#include <cstdio>
#include <cstring>

#include "index/codec.h"

namespace bionicdb::workload {

using engine::Engine;
using index::EncodeKeyU64;
using index::EncodeKeyU64Pair;
using index::EncodeKeyU64Triple;

const char* TatpTxnTypeName(TatpTxnType t) {
  switch (t) {
    case TatpTxnType::kGetSubscriberData:
      return "GetSubscriberData";
    case TatpTxnType::kGetNewDestination:
      return "GetNewDestination";
    case TatpTxnType::kGetAccessData:
      return "GetAccessData";
    case TatpTxnType::kUpdateSubscriberData:
      return "UpdateSubscriberData";
    case TatpTxnType::kUpdateLocation:
      return "UpdateLocation";
    case TatpTxnType::kInsertCallForwarding:
      return "InsertCallForwarding";
    case TatpTxnType::kDeleteCallForwarding:
      return "DeleteCallForwarding";
    case TatpTxnType::kNumTypes:
      break;
  }
  return "?";
}

TatpWorkload::TatpWorkload(engine::Engine* engine, const TatpConfig& config)
    : engine_(engine), config_(config), rng_(config.seed) {}

std::string TatpWorkload::SubNbr(uint64_t s_id) const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%015llu",
                static_cast<unsigned long long>(s_id));
  return std::string(buf, 15);
}

Status TatpWorkload::Load() {
  subscriber_ = engine_->CreateTable("SUBSCRIBER");
  access_info_ = engine_->CreateTable("ACCESS_INFO");
  special_facility_ = engine_->CreateTable("SPECIAL_FACILITY");
  call_forwarding_ = engine_->CreateTable("CALL_FORWARDING");
  BIONICDB_RETURN_NOT_OK(subscriber_->AddSecondaryIndex("sub_nbr"));

  BIONICDB_CHECK(config_.num_shards >= 1 &&
                 config_.shard < config_.num_shards);
  Rng load_rng(config_.seed ^ 0x10ad1234u);
  for (uint64_t s = 0; s < config_.subscribers; ++s) {
    // Ownership gates only the LoadRow calls, never the RNG draws: every
    // shard walks the same stream, so shard tables partition the global
    // database row-for-row.
    const bool owned = s % config_.num_shards == config_.shard;
    SubscriberRow row{};
    row.s_id = s;
    for (int i = 0; i < 10; ++i) {
      row.bit[i] = static_cast<uint8_t>(load_rng.Uniform(2));
      row.hex[i] = static_cast<uint8_t>(load_rng.Uniform(16));
      row.byte2[i] = static_cast<uint8_t>(load_rng.Uniform(256));
    }
    row.msc_location = static_cast<uint32_t>(load_rng.Next());
    row.vlr_location = static_cast<uint32_t>(load_rng.Next());
    if (owned) {
      const std::string nbr = SubNbr(s);
      std::memcpy(row.sub_nbr, nbr.data(), 15);
      BIONICDB_RETURN_NOT_OK(
          engine_->LoadRow(subscriber_, EncodeKeyU64(s), EncodeRow(row)));
      BIONICDB_RETURN_NOT_OK(
          subscriber_->LoadSecondaryEntry("sub_nbr", nbr, EncodeKeyU64(s)));
    }

    // 1-4 ACCESS_INFO rows with distinct ai_type.
    const int n_ai = static_cast<int>(load_rng.UniformRange(1, 4));
    for (int t = 1; t <= n_ai; ++t) {
      AccessInfoRow ai{};
      ai.s_id = s;
      ai.ai_type = static_cast<uint8_t>(t);
      ai.data1 = static_cast<uint8_t>(load_rng.Uniform(256));
      ai.data2 = static_cast<uint8_t>(load_rng.Uniform(256));
      if (owned) {
        BIONICDB_RETURN_NOT_OK(engine_->LoadRow(
            access_info_, EncodeKeyU64Pair(s, static_cast<uint64_t>(t)),
            EncodeRow(ai)));
      }
    }

    // 1-4 SPECIAL_FACILITY rows; each with 0-3 CALL_FORWARDING rows.
    const int n_sf = static_cast<int>(load_rng.UniformRange(1, 4));
    for (int t = 1; t <= n_sf; ++t) {
      SpecialFacilityRow sf{};
      sf.s_id = s;
      sf.sf_type = static_cast<uint8_t>(t);
      sf.is_active = load_rng.Bernoulli(0.85) ? 1 : 0;
      sf.data_a = static_cast<uint8_t>(load_rng.Uniform(256));
      if (owned) {
        BIONICDB_RETURN_NOT_OK(engine_->LoadRow(
            special_facility_, EncodeKeyU64Pair(s, static_cast<uint64_t>(t)),
            EncodeRow(sf)));
      }
      const int n_cf = static_cast<int>(load_rng.UniformRange(0, 3));
      for (int c = 0; c < n_cf; ++c) {
        CallForwardingRow cf{};
        cf.s_id = s;
        cf.sf_type = static_cast<uint8_t>(t);
        cf.start_time = static_cast<uint8_t>(8 * c);  // 0, 8, 16
        cf.end_time = static_cast<uint8_t>(8 * c + load_rng.UniformRange(1, 8));
        if (owned) {
          BIONICDB_RETURN_NOT_OK(engine_->LoadRow(
              call_forwarding_,
              EncodeKeyU64Triple(s, static_cast<uint64_t>(t), cf.start_time),
              EncodeRow(cf)));
        }
      }
    }
  }
  // Seals compact-storage tables (no-op otherwise).
  engine_->FinalizeLoad();
  return Status::OK();
}

namespace {

/// Lock/routing key for a CALL_FORWARDING (s_id, sf_type) group: all
/// operations on a group use the same logical range lock so DORA routing
/// stays consistent (see Engine::PartitionOf).
std::string CfGroupKey(uint64_t s_id, uint64_t sf_type) {
  return EncodeKeyU64Pair(s_id, sf_type);
}

}  // namespace

Engine::TxnSpec TatpWorkload::MakeGetSubscriberData(uint64_t s_id) {
  Engine::TxnSpec spec;
  Engine* eng = engine_;
  engine::Table* table = subscriber_;
  const std::string key = EncodeKeyU64(s_id);
  Engine::TxnStep step;
  step.table = table;
  step.keys = {key};
  step.read_only = true;
  step.fn = [eng, table, key](Engine::ExecContext& ctx) -> sim::Task<Status> {
    auto r = co_await eng->ReadView(ctx, table, key);
    // A missing subscriber is a valid TATP outcome, not a system abort.
    if (!r.ok() && !r.status().IsNotFound()) co_return r.status();
    co_return Status::OK();
  };
  spec.phases.push_back({std::move(step)});
  return spec;
}

Engine::TxnSpec TatpWorkload::MakeGetAccessData(uint64_t s_id) {
  Engine::TxnSpec spec;
  Engine* eng = engine_;
  engine::Table* table = access_info_;
  const std::string key =
      EncodeKeyU64Pair(s_id, static_cast<uint64_t>(rng_.UniformRange(1, 4)));
  Engine::TxnStep step;
  step.table = table;
  step.keys = {key};
  step.read_only = true;
  step.fn = [eng, table, key](Engine::ExecContext& ctx) -> sim::Task<Status> {
    auto r = co_await eng->ReadView(ctx, table, key);
    if (!r.ok() && !r.status().IsNotFound()) co_return r.status();
    co_return Status::OK();
  };
  spec.phases.push_back({std::move(step)});
  return spec;
}

Engine::TxnSpec TatpWorkload::MakeGetNewDestination(uint64_t s_id) {
  struct State {
    bool active = false;
  };
  auto state = std::make_shared<State>();
  Engine::TxnSpec spec;
  Engine* eng = engine_;
  const uint64_t sf_type = static_cast<uint64_t>(rng_.UniformRange(1, 4));

  // Phase 1: is the facility active?
  {
    engine::Table* table = special_facility_;
    const std::string key = EncodeKeyU64Pair(s_id, sf_type);
    Engine::TxnStep step;
    step.table = table;
    step.keys = {key};
    step.read_only = true;
    step.fn = [eng, table, key,
               state](Engine::ExecContext& ctx) -> sim::Task<Status> {
      auto r = co_await eng->ReadView(ctx, table, key);
      if (r.ok()) {
        state->active = DecodeRow<SpecialFacilityRow>(*r).is_active != 0;
      } else if (!r.status().IsNotFound()) {
        co_return r.status();
      }
      co_return Status::OK();
    };
    spec.phases.push_back({std::move(step)});
  }

  // Phase 2: read the forwarding entries for the active facility.
  {
    engine::Table* table = call_forwarding_;
    Engine::TxnStep step;
    step.table = table;
    step.keys = {CfGroupKey(s_id, sf_type)};
    step.read_only = true;
    const std::string lo = EncodeKeyU64Triple(s_id, sf_type, 0);
    const std::string hi = EncodeKeyU64Triple(s_id, sf_type, 24);
    step.fn = [eng, table, lo, hi,
               state](Engine::ExecContext& ctx) -> sim::Task<Status> {
      if (!state->active) co_return Status::OK();
      auto rows = co_await eng->RangeRead(ctx, table, lo, hi, 0);
      if (!rows.ok()) co_return rows.status();
      co_return Status::OK();
    };
    spec.phases.push_back({std::move(step)});
  }
  return spec;
}

Engine::TxnSpec TatpWorkload::MakeUpdateSubscriberData(uint64_t s_id) {
  Engine::TxnSpec spec;
  Engine* eng = engine_;
  const uint64_t sf_type = static_cast<uint64_t>(rng_.UniformRange(1, 4));
  const uint8_t new_bit = static_cast<uint8_t>(rng_.Uniform(2));
  const uint8_t new_data_a = static_cast<uint8_t>(rng_.Uniform(256));

  Engine::Phase phase;
  // Step A: update SUBSCRIBER.bit_1.
  {
    engine::Table* table = subscriber_;
    const std::string key = EncodeKeyU64(s_id);
    Engine::TxnStep step;
    step.table = table;
    step.keys = {key};
    step.fn = [eng, table, key,
               new_bit](Engine::ExecContext& ctx) -> sim::Task<Status> {
      // Zero-copy read-modify-write: the view is decoded and handed to
      // Update as the before-image without suspending in between.
      auto r = co_await eng->ReadView(ctx, table, key);
      if (!r.ok()) co_return r.status();
      SubscriberRow row = DecodeRow<SubscriberRow>(*r);
      row.bit[0] = new_bit;
      co_return co_await eng->Update(ctx, table, key, EncodeRow(row), &*r);
    };
    phase.push_back(std::move(step));
  }
  // Step B: update SPECIAL_FACILITY.data_a (62.5% hit rate per spec).
  {
    engine::Table* table = special_facility_;
    const std::string key = EncodeKeyU64Pair(s_id, sf_type);
    Engine::TxnStep step;
    step.table = table;
    step.keys = {key};
    step.fn = [eng, table, key,
               new_data_a](Engine::ExecContext& ctx) -> sim::Task<Status> {
      auto r = co_await eng->ReadView(ctx, table, key);
      if (!r.ok()) {
        co_return r.status().IsNotFound() ? Status::OK() : r.status();
      }
      SpecialFacilityRow row = DecodeRow<SpecialFacilityRow>(*r);
      row.data_a = new_data_a;
      co_return co_await eng->Update(ctx, table, key, EncodeRow(row), &*r);
    };
    phase.push_back(std::move(step));
  }
  spec.phases.push_back(std::move(phase));
  return spec;
}

Engine::TxnSpec TatpWorkload::MakeUpdateLocation(const std::string& sub_nbr,
                                                 uint32_t new_location) {
  struct State {
    std::string s_key;
  };
  auto state = std::make_shared<State>();
  Engine::TxnSpec spec;
  Engine* eng = engine_;
  engine::Table* table = subscriber_;

  // Phase 1: resolve sub_nbr through the secondary index.
  {
    Engine::TxnStep step;
    step.table = table;
    step.keys = {"nbr:" + sub_nbr};  // index-entry lock
    step.read_only = true;
    step.fn = [eng, table, sub_nbr,
               state](Engine::ExecContext& ctx) -> sim::Task<Status> {
      auto r = co_await eng->ProbeSecondary(ctx, table, "sub_nbr", sub_nbr);
      if (!r.ok()) co_return r.status();
      state->s_key = *r;
      co_return Status::OK();
    };
    spec.phases.push_back({std::move(step)});
  }
  // Phase 2: update vlr_location. The row lock key must be known at
  // dispatch time for DORA routing, so it is recomputed from the number
  // (TATP sub_nbr encodes s_id).
  {
    const uint64_t s_id = std::stoull(sub_nbr);
    const std::string key = EncodeKeyU64(s_id);
    Engine::TxnStep step;
    step.table = table;
    step.keys = {key};
    step.fn = [eng, table, key, state,
               new_location](Engine::ExecContext& ctx) -> sim::Task<Status> {
      if (state->s_key.empty()) co_return Status::OK();  // unknown number
      auto r = co_await eng->ReadView(ctx, table, state->s_key);
      if (!r.ok()) co_return r.status();
      SubscriberRow row = DecodeRow<SubscriberRow>(*r);
      row.vlr_location = new_location;
      co_return co_await eng->Update(ctx, table, state->s_key,
                                     EncodeRow(row), &*r);
    };
    spec.phases.push_back({std::move(step)});
  }
  return spec;
}

Engine::TxnSpec TatpWorkload::MakeInsertCallForwarding(uint64_t s_id) {
  Engine::TxnSpec spec;
  Engine* eng = engine_;
  const uint64_t sf_type = static_cast<uint64_t>(rng_.UniformRange(1, 4));
  const uint8_t start_time = static_cast<uint8_t>(8 * rng_.Uniform(3));

  // Phase 1: check the facility exists (read SPECIAL_FACILITY).
  {
    engine::Table* table = special_facility_;
    const std::string key = EncodeKeyU64Pair(s_id, sf_type);
    Engine::TxnStep step;
    step.table = table;
    step.keys = {key};
    step.read_only = true;
    step.fn = [eng, table, key](Engine::ExecContext& ctx) -> sim::Task<Status> {
      auto r = co_await eng->ReadView(ctx, table, key);
      if (!r.ok() && !r.status().IsNotFound()) co_return r.status();
      co_return Status::OK();
    };
    spec.phases.push_back({std::move(step)});
  }
  // Phase 2: insert the forwarding row (AlreadyExists is a valid TATP
  // outcome).
  {
    engine::Table* table = call_forwarding_;
    CallForwardingRow row{};
    row.s_id = s_id;
    row.sf_type = static_cast<uint8_t>(sf_type);
    row.start_time = start_time;
    row.end_time = static_cast<uint8_t>(start_time + 1 + rng_.Uniform(8));
    const std::string key = EncodeKeyU64Triple(s_id, sf_type, start_time);
    const std::string record = EncodeRow(row);
    Engine::TxnStep step;
    step.table = table;
    step.keys = {CfGroupKey(s_id, sf_type)};
    step.fn = [eng, table, key,
               record](Engine::ExecContext& ctx) -> sim::Task<Status> {
      Status st = co_await eng->Insert(ctx, table, key, record);
      if (st.IsAlreadyExists()) co_return Status::OK();
      co_return st;
    };
    spec.phases.push_back({std::move(step)});
  }
  return spec;
}

Engine::TxnSpec TatpWorkload::MakeDeleteCallForwarding(uint64_t s_id) {
  Engine::TxnSpec spec;
  Engine* eng = engine_;
  const uint64_t sf_type = static_cast<uint64_t>(rng_.UniformRange(1, 4));
  const uint8_t start_time = static_cast<uint8_t>(8 * rng_.Uniform(3));
  engine::Table* table = call_forwarding_;
  const std::string key = EncodeKeyU64Triple(s_id, sf_type, start_time);
  Engine::TxnStep step;
  step.table = table;
  step.keys = {CfGroupKey(s_id, sf_type)};
  step.fn = [eng, table, key](Engine::ExecContext& ctx) -> sim::Task<Status> {
    Status st = co_await eng->Delete(ctx, table, key);
    if (st.IsNotFound()) co_return Status::OK();
    co_return st;
  };
  spec.phases.push_back({std::move(step)});
  return spec;
}

TatpTxnType TatpMixType(uint64_t roll) {
  if (roll < 35) return TatpTxnType::kGetSubscriberData;
  if (roll < 45) return TatpTxnType::kGetNewDestination;
  if (roll < 80) return TatpTxnType::kGetAccessData;
  if (roll < 82) return TatpTxnType::kUpdateSubscriberData;
  if (roll < 96) return TatpTxnType::kUpdateLocation;
  if (roll < 98) return TatpTxnType::kInsertCallForwarding;
  return TatpTxnType::kDeleteCallForwarding;
}

Engine::TxnSpec TatpWorkload::NextTransaction(TatpTxnType* type_out) {
  const uint64_t s_id = RandomSubscriber();
  const TatpTxnType type = TatpMixType(rng_.Uniform(100));
  if (type_out) *type_out = type;
  return BuildTransaction(type, s_id);
}

Engine::TxnSpec TatpWorkload::BuildTransaction(TatpTxnType type,
                                               uint64_t s_id) {
  ++counts_.attempts[static_cast<int>(type)];
  switch (type) {
    case TatpTxnType::kGetSubscriberData:
      return MakeGetSubscriberData(s_id);
    case TatpTxnType::kGetNewDestination:
      return MakeGetNewDestination(s_id);
    case TatpTxnType::kGetAccessData:
      return MakeGetAccessData(s_id);
    case TatpTxnType::kUpdateSubscriberData:
      return MakeUpdateSubscriberData(s_id);
    case TatpTxnType::kUpdateLocation:
      return MakeUpdateLocation(SubNbr(s_id),
                                static_cast<uint32_t>(rng_.Next()));
    case TatpTxnType::kInsertCallForwarding:
      return MakeInsertCallForwarding(s_id);
    case TatpTxnType::kDeleteCallForwarding:
      return MakeDeleteCallForwarding(s_id);
    case TatpTxnType::kNumTypes:
      break;
  }
  BIONICDB_CHECK(false);
  return {};
}

}  // namespace bionicdb::workload
