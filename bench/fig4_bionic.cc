// E4 — Figure 4 / §5 end-to-end: the three architectures on TATP and TPC-C
// mixes. The paper's prediction is NOT that the bionic engine is faster —
// "effective hardware support need not always increase raw performance; the
// true goal is to reduce net energy use" — so the decisive column is
// microjoules per transaction, with throughput at least competitive and
// CPU utilization dropping sharply as work moves to the FPGA units.
#include <cstdio>

#include "bench/bench_util.h"

using namespace bionicdb;
using bench::RunResult;
using bench::WorkloadScale;

namespace {

void PrintFigure4() {
  bench::PrintHeader(
      "Figure 4 / S5: Conventional vs DORA vs Bionic (TATP mix)");
  WorkloadScale scale;
  RunResult results[3];
  const engine::EngineMode modes[] = {engine::EngineMode::kConventional,
                                      engine::EngineMode::kDora,
                                      engine::EngineMode::kBionic};
  for (int i = 0; i < 3; ++i) {
    results[i] = bench::RunTatpMix(engine::EngineConfig::For(modes[i]), scale);
    bench::PrintResultRow(engine::EngineModeName(modes[i]), results[i]);
  }
  std::printf("\nEnergy: bionic uses %.1fx less energy per txn than DORA, "
              "%.1fx less than conventional\n",
              results[1].uj_per_txn / results[2].uj_per_txn,
              results[0].uj_per_txn / results[2].uj_per_txn);

  std::printf("\nPer-architecture CPU-time breakdowns (TATP mix):\n");
  for (int i = 0; i < 3; ++i) {
    bench::PrintBreakdown(engine::EngineModeName(modes[i]), results[i]);
  }

  bench::PrintHeader(
      "Figure 4 / S5: Conventional vs DORA vs Bionic (TPC-C mix)");
  WorkloadScale tscale;
  tscale.measured_txns = 1500;
  for (int i = 0; i < 3; ++i) {
    RunResult r = bench::RunTpcc(engine::EngineConfig::For(modes[i]), tscale);
    bench::PrintResultRow(engine::EngineModeName(modes[i]), r);
  }
}

}  // namespace

int main() {
  PrintFigure4();
  return 0;
}
