// E14 (engine-level companion to E8) — §5.4: "Although log contention can
// be alleviated for single-socket systems with some considerable effort,
// multi-socket systems remain an open challenge due to socket-to-socket
// communication latencies."
//
// Scale the machine from 1 to 4 sockets (6 cores each) and run the
// log-heaviest TATP transaction (UpdateSubscriberData) on the software
// DORA engine vs the bionic engine with the hardware log. Software gains
// cores but pays cross-socket log contention and queue cacheline bouncing;
// the hardware log's per-socket aggregation sidesteps both.
#include <cstdio>

#include "bench/bench_util.h"

using namespace bionicdb;
using bench::RunResult;
using bench::WorkloadScale;

namespace {

RunResult RunSockets(bool bionic, int sockets) {
  engine::EngineConfig config =
      bionic ? engine::EngineConfig::Bionic() : engine::EngineConfig::Dora();
  config.platform.cpu_sockets = sockets;
  config.sockets = sockets;
  config.num_partitions = 6 * sockets;  // one agent per core
  WorkloadScale scale;
  scale.clients = 16 * sockets;
  scale.measured_txns = 4000;
  return bench::RunTatpSingle(config,
                              workload::TatpTxnType::kUpdateSubscriberData,
                              scale);
}

void PrintSocketScaling() {
  bench::PrintHeader(
      "S5.4 socket scaling: TATP UpdateSubscriberData (log-bound)");
  std::printf("%-10s %-22s %-22s %-10s\n", "sockets", "DORA sw log (txn/s)",
              "bionic hw log (txn/s)", "hw/sw");
  const int socket_counts[] = {1, 2, 4};
  // Grid point 2*i is software, 2*i+1 hardware at socket_counts[i]; the
  // six simulations shard across host cores via the shared sweep runner.
  const std::vector<RunResult> grid = bench::RunSweep(6, [&](size_t i) {
    return RunSockets(/*bionic=*/i % 2 == 1, socket_counts[i / 2]);
  });
  double sw1 = 0, sw4 = 0, hw4 = 0;
  for (size_t i = 0; i < 3; ++i) {
    const int sockets = socket_counts[i];
    const RunResult& sw = grid[2 * i];
    const RunResult& hw = grid[2 * i + 1];
    if (sockets == 1) sw1 = sw.txn_per_sec;
    if (sockets == 4) {
      sw4 = sw.txn_per_sec;
      hw4 = hw.txn_per_sec;
    }
    std::printf("%-10d %20.0f %22.0f %9.2fx\n", sockets, sw.txn_per_sec,
                hw.txn_per_sec, hw.txn_per_sec / sw.txn_per_sec);
  }
  std::printf("\nSoftware scaling 1->4 sockets: %.2fx (24 cores vs 6; the\n"
              "central log and cross-socket queues eat the rest — [7]'s\n"
              "open challenge). The hardware log turns the same machine\n"
              "into a %.1fx advantage at 4 sockets.\n",
              sw4 / sw1, hw4 / sw4);
}

}  // namespace

int main() {
  PrintSocketScaling();
  return 0;
}
