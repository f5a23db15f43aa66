// End-to-end workload tests: TATP and TPC-C running through all three
// engine architectures, checking functional invariants (money conservation,
// order-line consistency, cross-engine equivalence) and mix shape.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "engine/engine.h"
#include "index/codec.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

namespace bionicdb::workload {
namespace {

using engine::Engine;
using engine::EngineConfig;
using engine::EngineMode;
using engine::EngineModeName;
using index::EncodeKeyU64;
using index::EncodeKeyU64Pair;
using index::EncodeKeyU64Triple;
using sim::Simulator;
using sim::Task;

EngineConfig ConfigFor(EngineMode mode) {
  switch (mode) {
    case EngineMode::kConventional:
      return EngineConfig::Conventional();
    case EngineMode::kDora: {
      EngineConfig c = EngineConfig::Dora();
      c.num_partitions = 4;
      return c;
    }
    case EngineMode::kBionic: {
      EngineConfig c = EngineConfig::Bionic();
      c.num_partitions = 4;
      return c;
    }
  }
  return EngineConfig::Dora();
}

class WorkloadModeTest : public ::testing::TestWithParam<EngineMode> {};

// -------------------------------------------------------------------- TATP --

TEST_P(WorkloadModeTest, TatpMixRunsClean) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(GetParam()));
  TatpConfig wcfg;
  wcfg.subscribers = 500;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());
  EXPECT_EQ(tatp.subscriber()->rows(), 500u);

  DriverConfig dcfg;
  dcfg.clients = 4;
  dcfg.warmup_txns = 50;
  dcfg.measured_txns = 400;
  DriverReport report;
  sim.Spawn(RunClosedLoop(
      &engine, [&]() { return tatp.NextTransaction(); }, dcfg, &report));
  sim.Run();

  EXPECT_EQ(report.submitted, 400u);
  // Every submission commits (possibly after wait-die retries).
  EXPECT_EQ(engine.metrics().commits, 400u - report.gave_up);
  EXPECT_EQ(report.gave_up, 0u);
  EXPECT_GT(engine.metrics().TxnPerSecond(), 0.0);
  EXPECT_GT(engine.metrics().joules, 0.0);
}

TEST_P(WorkloadModeTest, TatpUpdateLocationRoundTrip) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(GetParam()));
  TatpConfig wcfg;
  wcfg.subscribers = 100;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  engine.Start();
  sim.Spawn([](Engine* eng, TatpWorkload* tatp) -> Task<> {
    Status st = co_await eng->Execute(
        tatp->MakeUpdateLocation(tatp->SubNbr(42), 0xBEEF));
    EXPECT_TRUE(st.ok()) << st.ToString();
    co_await eng->Shutdown();
  }(&engine, &tatp));
  sim.Run();

  // Verify functionally through the table.
  auto rows = tatp.subscriber()->ScanAll();
  SubscriberRow row = DecodeRow<SubscriberRow>(Slice(rows[42].second));
  const uint32_t vlr = row.vlr_location;
  const uint64_t sid = row.s_id;
  EXPECT_EQ(vlr, 0xBEEFu);
  EXPECT_EQ(sid, 42u);
}

TEST_P(WorkloadModeTest, TatpInsertThenDeleteCallForwarding) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(GetParam()));
  TatpConfig wcfg;
  wcfg.subscribers = 50;
  TatpWorkload tatp(&engine, wcfg);
  ASSERT_TRUE(tatp.Load().ok());

  const size_t before = tatp.call_forwarding()->ScanAll().size();
  engine.Start();
  sim.Spawn([](Engine* eng, TatpWorkload* tatp) -> Task<> {
    for (int i = 0; i < 20; ++i) {
      (void)co_await eng->Execute(tatp->MakeInsertCallForwarding(7));
      (void)co_await eng->Execute(tatp->MakeDeleteCallForwarding(7));
    }
    co_await eng->Shutdown();
  }(&engine, &tatp));
  sim.Run();
  // Inserts and deletes on the same subscriber must cancel out or leave at
  // most the 12 possible (sf_type x start_time) combinations.
  const size_t after = tatp.call_forwarding()->ScanAll().size();
  EXPECT_LE(after, before + 12);
}

// -------------------------------------------------------------------- TPCC --

TEST_P(WorkloadModeTest, TpccNewOrderConsistency) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(GetParam()));
  TpccConfig wcfg;
  wcfg.items = 200;
  wcfg.customers_per_district = 30;
  wcfg.districts_per_warehouse = 4;
  wcfg.initial_orders_per_district = 10;
  TpccWorkload tpcc(&engine, wcfg);
  ASSERT_TRUE(tpcc.Load().ok());

  engine.Start();
  int committed = 0;
  sim.Spawn([](Engine* eng, TpccWorkload* tpcc, int* committed) -> Task<> {
    for (int i = 0; i < 10; ++i) {
      Status st = co_await eng->Execute(tpcc->MakeNewOrder(0, 1));
      if (st.ok()) ++*committed;
    }
    co_await eng->Shutdown();
  }(&engine, &tpcc, &committed));
  sim.Run();
  EXPECT_EQ(committed, 10);

  // District (0,1)'s next_o_id advanced by exactly the committed count.
  DistrictRow dr{};
  for (auto& [key, rec] : tpcc.district()->ScanAll()) {
    DistrictRow row = DecodeRow<DistrictRow>(Slice(rec));
    if (row.w_id == 0 && row.d_id == 1) dr = row;
  }
  const uint64_t next_o = dr.next_o_id;
  EXPECT_EQ(next_o,
            static_cast<uint64_t>(wcfg.initial_orders_per_district) + 10);

  // Each committed order produced ORDER and ORDER_LINE rows (visible via
  // the patched logical scan).
  std::map<std::string, std::string> orders;
  for (auto& [k, v] : tpcc.orders()->ScanAll()) orders[k] = v;
  std::map<std::string, std::string> lines;
  for (auto& [k, v] : tpcc.order_line()->ScanAll()) lines[k] = v;
  for (uint64_t o = static_cast<uint64_t>(wcfg.initial_orders_per_district);
       o < dr.next_o_id; ++o) {
    const std::string okey = EncodeKeyU64Triple(0, 1, o);
    ASSERT_TRUE(orders.count(okey)) << "order " << o;
    OrderRow orow = DecodeRow<OrderRow>(Slice(orders[okey]));
    int found = 0;
    for (int32_t ol = 0; ol < orow.ol_cnt; ++ol) {
      found += lines.count(okey + EncodeKeyU64(static_cast<uint32_t>(ol)));
    }
    const int32_t ol_cnt = orow.ol_cnt;
    EXPECT_EQ(found, ol_cnt) << "order " << o;
  }
}

TEST_P(WorkloadModeTest, TpccPaymentConservesMoney) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(GetParam()));
  TpccConfig wcfg;
  wcfg.items = 100;
  wcfg.customers_per_district = 20;
  wcfg.districts_per_warehouse = 2;
  TpccWorkload tpcc(&engine, wcfg);
  ASSERT_TRUE(tpcc.Load().ok());

  engine.Start();
  sim.Spawn([](Engine* eng, TpccWorkload* tpcc) -> Task<> {
    for (int i = 0; i < 25; ++i) {
      Status st = co_await eng->Execute(
          tpcc->MakePayment(0, static_cast<uint64_t>(i % 2),
                            static_cast<uint64_t>(i % 20)));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    co_await eng->Shutdown();
  }(&engine, &tpcc));
  sim.Run();

  // Sum of district ytd == warehouse ytd == sum of history amounts.
  int64_t w_ytd = 0, d_ytd = 0, h_sum = 0;
  for (auto& [key, rec] : tpcc.warehouse()->ScanAll()) {
    w_ytd += DecodeRow<WarehouseRow>(Slice(rec)).ytd_cents;
  }
  for (auto& [key, rec] : tpcc.district()->ScanAll()) {
    d_ytd += DecodeRow<DistrictRow>(Slice(rec)).ytd_cents;
  }
  for (auto& [key, rec] : tpcc.history()->ScanAll()) {
    h_sum += DecodeRow<HistoryRow>(Slice(rec)).amount_cents;
  }
  EXPECT_GT(w_ytd, 0);
  EXPECT_EQ(w_ytd, d_ytd);
  EXPECT_EQ(w_ytd, h_sum);
}

TEST_P(WorkloadModeTest, TpccStockLevelCountsBelowThreshold) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(GetParam()));
  TpccConfig wcfg;
  wcfg.items = 100;
  wcfg.customers_per_district = 10;
  wcfg.districts_per_warehouse = 2;
  wcfg.initial_orders_per_district = 25;
  TpccWorkload tpcc(&engine, wcfg);
  ASSERT_TRUE(tpcc.Load().ok());

  engine.Start();
  Status result;
  sim.Spawn([](Engine* eng, TpccWorkload* tpcc, Status* out) -> Task<> {
    *out = co_await eng->Execute(tpcc->MakeStockLevel(0, 0, 100));
    co_await eng->Shutdown();
  }(&engine, &tpcc, &result));
  sim.Run();
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_EQ(engine.metrics().commits, 1u);
}

TEST_P(WorkloadModeTest, TpccMixedRunStaysConsistent) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(GetParam()));
  TpccConfig wcfg;
  wcfg.items = 200;
  wcfg.customers_per_district = 20;
  wcfg.districts_per_warehouse = 4;
  TpccWorkload tpcc(&engine, wcfg);
  ASSERT_TRUE(tpcc.Load().ok());

  DriverConfig dcfg;
  dcfg.clients = 4;
  dcfg.warmup_txns = 20;
  dcfg.measured_txns = 150;
  DriverReport report;
  sim.Spawn(RunClosedLoop(
      &engine, [&]() { return tpcc.NextTransaction(); }, dcfg, &report));
  sim.Run();

  const auto& m = engine.metrics();
  // With wait-die retries (pinned priorities), almost every submission
  // commits; under the single-warehouse Payment hotspot a handful may
  // exhaust their retry budget.
  EXPECT_EQ(m.commits, 150u - report.gave_up);
  EXPECT_LE(report.gave_up, 8u);

  // Warehouse/district/history money invariant must hold under the mix.
  int64_t w_ytd = 0, d_ytd = 0, h_sum = 0;
  for (auto& [key, rec] : tpcc.warehouse()->ScanAll()) {
    w_ytd += DecodeRow<WarehouseRow>(Slice(rec)).ytd_cents;
  }
  for (auto& [key, rec] : tpcc.district()->ScanAll()) {
    d_ytd += DecodeRow<DistrictRow>(Slice(rec)).ytd_cents;
  }
  for (auto& [key, rec] : tpcc.history()->ScanAll()) {
    h_sum += DecodeRow<HistoryRow>(Slice(rec)).amount_cents;
  }
  EXPECT_EQ(w_ytd, d_ytd);
  EXPECT_EQ(w_ytd, h_sum);
}

INSTANTIATE_TEST_SUITE_P(AllModes, WorkloadModeTest,
                         ::testing::Values(EngineMode::kConventional,
                                           EngineMode::kDora,
                                           EngineMode::kBionic),
                         [](const ::testing::TestParamInfo<EngineMode>& info) {
                           return EngineModeName(info.param);
                         });

// ------------------------------------------------------------ determinism --

TEST(WorkloadDeterminismTest, SameSeedSameResult) {
  auto run = []() {
    Simulator sim;
    Engine engine(&sim, ConfigFor(EngineMode::kDora));
    TatpConfig wcfg;
    wcfg.subscribers = 200;
    TatpWorkload tatp(&engine, wcfg);
    BIONICDB_CHECK(tatp.Load().ok());
    DriverConfig dcfg;
    dcfg.clients = 3;
    dcfg.warmup_txns = 10;
    dcfg.measured_txns = 120;
    sim.Spawn(RunClosedLoop(
        &engine, [&]() { return tatp.NextTransaction(); }, dcfg, nullptr));
    sim.Run();
    return std::tuple{engine.metrics().commits, sim.Now(),
                      engine.breakdown().TotalNs(),
                      engine.log()->current_lsn()};
  };
  EXPECT_EQ(run(), run());
}

// --------------------------------------------- cross-engine equivalence --

TEST(WorkloadEquivalenceTest, AllEnginesProduceIdenticalTatpState) {
  // Running the same deterministic transaction sequence through each
  // architecture must yield identical logical table contents: the bionic
  // engine changes *where* work happens, never *what* is computed.
  auto final_state = [](EngineMode mode) {
    Simulator sim;
    Engine engine(&sim, ConfigFor(mode));
    TatpConfig wcfg;
    wcfg.subscribers = 100;
    wcfg.seed = 99;
    TatpWorkload tatp(&engine, wcfg);
    BIONICDB_CHECK(tatp.Load().ok());
    engine.Start();
    sim.Spawn([](Engine* eng, TatpWorkload* tatp) -> Task<> {
      // One client, fixed sequence: identical functional outcome required.
      for (int i = 0; i < 60; ++i) {
        (void)co_await eng->Execute(tatp->NextTransaction());
      }
      co_await eng->Shutdown();
    }(&engine, &tatp));
    sim.Run();
    return engine.db().Snapshot();
  };
  auto conventional = final_state(EngineMode::kConventional);
  auto dora = final_state(EngineMode::kDora);
  auto bionic = final_state(EngineMode::kBionic);
  EXPECT_EQ(conventional, dora);
  EXPECT_EQ(dora, bionic);
}

}  // namespace
}  // namespace bionicdb::workload

namespace bionicdb::workload {
namespace {

// ------------------------------------------- Delivery / OrderStatus (TPC-C) --

class TpccFullMixTest : public ::testing::TestWithParam<engine::EngineMode> {};

TEST_P(TpccFullMixTest, DeliveryDrainsNewOrdersAndCreditsCustomers) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(GetParam()));
  TpccConfig wcfg;
  wcfg.items = 100;
  wcfg.customers_per_district = 20;
  wcfg.districts_per_warehouse = 3;
  wcfg.initial_orders_per_district = 5;
  TpccWorkload tpcc(&engine, wcfg);
  ASSERT_TRUE(tpcc.Load().ok());

  // All initial orders are pending (no NEW_ORDER rows were loaded), so add
  // fresh orders first: 2 NewOrders per district.
  engine.Start();
  int64_t delivered_sum = 0;
  sim.Spawn([](Engine* eng, TpccWorkload* tpcc,
               int64_t* delivered_sum) -> Task<> {
    for (uint64_t d = 0; d < 3; ++d) {
      for (int i = 0; i < 2; ++i) {
        Status st = co_await eng->Execute(tpcc->MakeNewOrder(0, d));
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
    }
    // One delivery pops the oldest order of every district.
    Status st = co_await eng->Execute(tpcc->MakeDelivery(0, 7));
    EXPECT_TRUE(st.ok()) << st.ToString();
    // A second delivery pops the remaining ones.
    st = co_await eng->Execute(tpcc->MakeDelivery(0, 8));
    EXPECT_TRUE(st.ok()) << st.ToString();
    // A third has nothing to do but still commits.
    st = co_await eng->Execute(tpcc->MakeDelivery(0, 9));
    EXPECT_TRUE(st.ok()) << st.ToString();
    co_await eng->Shutdown();
    (void)delivered_sum;
  }(&engine, &tpcc, &delivered_sum));
  sim.Run();

  // NEW_ORDER is empty; the 6 new orders carry carriers 7 or 8.
  EXPECT_TRUE(tpcc.new_order()->ScanAll().empty());
  int delivered = 0;
  int64_t credited = 0;
  for (auto& [k, rec] : tpcc.orders()->ScanAll()) {
    OrderRow row = DecodeRow<OrderRow>(Slice(rec));
    if (row.o_id >= 5 && (row.carrier_id == 7 || row.carrier_id == 8)) {
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 6);
  // Customer balances moved by exactly the delivered line totals: compare
  // against a direct recomputation.
  std::map<std::pair<uint64_t, uint64_t>, int64_t> expected_credit;
  for (auto& [k, rec] : tpcc.order_line()->ScanAll()) {
    OrderLineRow ol = DecodeRow<OrderLineRow>(Slice(rec));
    if (ol.o_id < 5) continue;  // initial orders were never delivered
    const uint64_t d_id = ol.d_id, o_id = ol.o_id;
    expected_credit[{d_id, o_id}] += ol.amount_cents;
  }
  for (auto& [key, sum] : expected_credit) credited += sum;
  int64_t balance_delta = 0;
  for (auto& [k, rec] : tpcc.customer()->ScanAll()) {
    balance_delta +=
        DecodeRow<CustomerRow>(Slice(rec)).balance_cents - (-1000);
  }
  EXPECT_EQ(balance_delta, credited);
}

TEST_P(TpccFullMixTest, OrderStatusFindsNewestOrder) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(GetParam()));
  TpccConfig wcfg;
  wcfg.items = 100;
  wcfg.customers_per_district = 5;
  wcfg.districts_per_warehouse = 2;
  wcfg.initial_orders_per_district = 8;
  TpccWorkload tpcc(&engine, wcfg);
  ASSERT_TRUE(tpcc.Load().ok());
  engine.Start();
  sim.Spawn([](Engine* eng, TpccWorkload* tpcc) -> Task<> {
    // Every customer of district 0 gets an order-status query; all commit.
    for (uint64_t c = 0; c < 5; ++c) {
      Status st = co_await eng->Execute(tpcc->MakeOrderStatus(0, 0, c));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    co_await eng->Shutdown();
  }(&engine, &tpcc));
  sim.Run();
  EXPECT_EQ(engine.metrics().commits, 5u);
}

TEST_P(TpccFullMixTest, FullFiveTxnMixStaysConsistent) {
  Simulator sim;
  Engine engine(&sim, ConfigFor(GetParam()));
  TpccConfig wcfg;
  wcfg.items = 200;
  wcfg.customers_per_district = 20;
  wcfg.districts_per_warehouse = 4;
  TpccWorkload tpcc(&engine, wcfg);
  ASSERT_TRUE(tpcc.Load().ok());
  DriverConfig dcfg;
  dcfg.clients = 4;
  dcfg.warmup_txns = 20;
  dcfg.measured_txns = 200;
  DriverReport report;
  sim.Spawn(RunClosedLoop(
      &engine, [&]() { return tpcc.NextTransaction(); }, dcfg, &report));
  sim.Run();
  EXPECT_EQ(engine.metrics().commits, 200u - report.gave_up);
  EXPECT_LE(report.gave_up, 10u);
  // The Payment money invariant must survive the full mix (Delivery only
  // moves money between ORDER_LINE totals and customer balances).
  int64_t w_ytd = 0, d_ytd = 0, h_sum = 0;
  for (auto& [k, rec] : tpcc.warehouse()->ScanAll())
    w_ytd += DecodeRow<WarehouseRow>(Slice(rec)).ytd_cents;
  for (auto& [k, rec] : tpcc.district()->ScanAll())
    d_ytd += DecodeRow<DistrictRow>(Slice(rec)).ytd_cents;
  for (auto& [k, rec] : tpcc.history()->ScanAll())
    h_sum += DecodeRow<HistoryRow>(Slice(rec)).amount_cents;
  EXPECT_EQ(w_ytd, d_ytd);
  EXPECT_EQ(w_ytd, h_sum);
}

INSTANTIATE_TEST_SUITE_P(AllModes, TpccFullMixTest,
                         ::testing::Values(engine::EngineMode::kConventional,
                                           engine::EngineMode::kDora,
                                           engine::EngineMode::kBionic),
                         [](const ::testing::TestParamInfo<engine::EngineMode>&
                                info) { return EngineModeName(info.param); });

}  // namespace
}  // namespace bionicdb::workload
