// Telecom scenario: the TATP benchmark (the paper's Figure-3 left workload)
// on all three architectures, printing the comparison a capacity planner
// would want: throughput, tail latency, energy per transaction, and where
// the CPU time goes.
//
//   $ ./examples/telecom_tatp
#include <cstdio>

#include "engine/engine.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/tatp.h"

using namespace bionicdb;

namespace {

void RunOne(engine::EngineMode mode) {
  sim::Simulator sim;
  engine::Engine engine(&sim, engine::EngineConfig::For(mode));
  workload::TatpConfig wcfg;
  wcfg.subscribers = 10000;
  workload::TatpWorkload tatp(&engine, wcfg);
  BIONICDB_CHECK(tatp.Load().ok());

  workload::DriverConfig dcfg;
  dcfg.clients = 32;
  dcfg.warmup_txns = 2000;
  dcfg.measured_txns = 6000;
  workload::DriverReport report;
  sim.Spawn(workload::RunClosedLoop(
      &engine, [&]() { return tatp.NextTransaction(); }, dcfg, &report));
  sim.Run();

  const auto& m = engine.metrics();
  std::printf("\n--- %s ---\n", engine::EngineModeName(mode));
  std::printf("throughput: %.0f txn/s   latency p50/p95: %s / %s\n",
              m.TxnPerSecond(),
              FormatNanos(static_cast<double>(m.latency.Percentile(50)))
                  .c_str(),
              FormatNanos(static_cast<double>(m.latency.Percentile(95)))
                  .c_str());
  std::printf("energy: %.2f uJ/txn   cpu busy: %.0f%%   retries: %llu\n",
              m.MicrojoulesPerTxn(),
              engine.platform().cpu().Utilization(m.elapsed_ns) * 100.0,
              static_cast<unsigned long long>(report.retries));
  std::printf("CPU time by component:\n%s",
              engine.breakdown().ToTable().c_str());
}

}  // namespace

int main() {
  std::printf("TATP, 10k subscribers, standard 7-transaction mix, 32 clients\n");
  RunOne(engine::EngineMode::kConventional);
  RunOne(engine::EngineMode::kDora);
  RunOne(engine::EngineMode::kBionic);
  std::printf(
      "\nNote how the bionic bars empty the Btree/Bpool/Log components:\n"
      "those operations run on the FPGA units, and software keeps only\n"
      "the managerial role the paper predicts.\n");
  return 0;
}
