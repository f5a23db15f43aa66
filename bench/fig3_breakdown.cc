// E3 — Figure 3: "Time breakdown of a highly-optimized transaction
// processing system running two types of transactions on a conventional
// multicore system": TATP UpdateSubscriberData (left bar) and TPC-C
// StockLevel (right bar) on the software DORA engine.
//
// Reproduction target (shape, per the paper's text): StockLevel spends
// >= 40% of its time in B+Tree management ("OLTP workloads are
// index-bound, spending in some cases 40% or more of total transaction
// time traversing various index structures (e.g. Figure 3 (right))");
// the update workload's largest single component is log management; both
// show double-digit DORA/queue and buffer-pool overheads — "the remaining
// overheads fall into four main categories: (a) B+tree index probes;
// (b) Logging; (c) Queue management and (d) Buffer pool management."
#include <cstdio>

#include "bench/bench_util.h"

using namespace bionicdb;
using bench::RunResult;
using bench::WorkloadScale;

namespace {

RunResult RunUpdSubData() {
  WorkloadScale scale;
  scale.measured_txns = 4000;
  return bench::RunTatpSingle(engine::EngineConfig::Dora(),
                              workload::TatpTxnType::kUpdateSubscriberData,
                              scale);
}

RunResult RunStockLevel() {
  WorkloadScale scale;
  scale.measured_txns = 1500;  // each StockLevel touches ~200 rows
  const workload::TpccTxnType only = workload::TpccTxnType::kStockLevel;
  return bench::RunTpcc(engine::EngineConfig::Dora(), scale, &only);
}

void PrintFigure3() {
  bench::PrintHeader(
      "Figure 3: time breakdown, software DORA engine (percent of CPU time)");
  RunResult upd = RunUpdSubData();
  RunResult stock = RunStockLevel();

  std::printf("%-14s %22s %22s\n", "component", "TATP UpdSubData",
              "TPCC StockLevel");
  for (int i = 0; i < hw::kNumComponents; ++i) {
    const auto c = static_cast<hw::Component>(i);
    std::printf("%-14s %20.1f%% %20.1f%%\n", hw::ComponentName(c),
                upd.breakdown.Percent(hw::ComponentKey(c)),
                stock.breakdown.Percent(hw::ComponentKey(c)));
  }
  std::printf("\nThroughput: UpdSubData %.0f txn/s, StockLevel %.0f txn/s\n",
              upd.txn_per_sec, stock.txn_per_sec);
  // The shape assertions themselves are tier-1 now (tests/breakdown_test);
  // this print is the human-readable rendition of the same checks.
  std::printf("Shape checks: StockLevel Btree %.1f%% (paper: ~40%%+); "
              "UpdSubData Log %.1f%% (paper: largest single block, got "
              "\"%s\")\n",
              stock.breakdown.Percent("btree"), upd.breakdown.Percent("log"),
              upd.breakdown.LargestComponent().c_str());
}

}  // namespace

int main() {
  PrintFigure3();
  return 0;
}
