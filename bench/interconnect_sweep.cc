// E13 — "The bionic DBMS is *coming*" — but when?
//
// E4 found the vision's sharpest boundary: on lock-heavy TPC-C, hardware
// probe round trips sit inside lock scopes, and the 2 us PCIe round trip
// of the 2012 platform (Figure 2) makes the bionic engine lose throughput
// to software. That is an *interconnect* property, not an architectural
// one. This sweep re-runs the E4 comparison while shrinking the
// CPU<->FPGA round trip from the paper's PCIe (2 us) through successive
// interconnect generations down to CXL/coherent-fabric territory
// (~100 ns), asking the title's question empirically: at which round
// trip, if any, the bionic engine reaches DORA on each workload. The
// verdict is computed from the rows, never written in advance.
#include <cstdio>
#include <iterator>

#include "bench/bench_util.h"

using namespace bionicdb;
using bench::RunResult;
using bench::WorkloadScale;

namespace {

engine::EngineConfig BionicWithRtt(SimTime round_trip_ns) {
  engine::EngineConfig config = engine::EngineConfig::Bionic();
  config.platform.pcie.latency_ns = round_trip_ns / 2;  // one-way
  return config;
}

void PrintSweep() {
  bench::PrintHeader(
      "When does the bionic DBMS arrive? CPU<->FPGA round-trip sweep");

  WorkloadScale tscale;
  tscale.measured_txns = 1500;
  WorkloadScale ascale;
  struct Gen {
    const char* label;
    SimTime rtt_ns;
  } gens[] = {
      {"2012 PCIe (paper)", 2000}, {"PCIe gen4-ish", 1000},
      {"PCIe gen5-ish", 500},      {"CXL-class", 200},
      {"coherent fabric", 100},
  };
  constexpr size_t kGens = std::size(gens);

  // One grid point per independent simulation: 3 software baselines, then
  // (TPC-C, TATP) per interconnect generation. Each point builds its own
  // Simulator + Engine, so the whole sweep shards across host cores with
  // output identical to the old serial loop.
  const std::vector<RunResult> grid =
      bench::RunSweep(3 + 2 * kGens, [&](size_t i) -> RunResult {
        if (i == 0) return bench::RunTpcc(engine::EngineConfig::Dora(), tscale);
        if (i == 1)
          return bench::RunTpcc(engine::EngineConfig::Conventional(), tscale);
        if (i == 2)
          return bench::RunTatpMix(engine::EngineConfig::Dora(), ascale);
        const Gen& g = gens[(i - 3) / 2];
        return (i - 3) % 2 == 0
                   ? bench::RunTpcc(BionicWithRtt(g.rtt_ns), tscale)
                   : bench::RunTatpMix(BionicWithRtt(g.rtt_ns), ascale);
      });
  const RunResult& dora_tpcc = grid[0];
  const RunResult& conv_tpcc = grid[1];
  const RunResult& dora_tatp = grid[2];

  std::printf("software baselines: TPC-C DORA %.0f txn/s, conventional %.0f "
              "txn/s; TATP DORA %.0f txn/s\n\n",
              dora_tpcc.txn_per_sec, conv_tpcc.txn_per_sec,
              dora_tatp.txn_per_sec);
  std::printf("%-22s %14s %12s %14s %12s\n", "round trip (bionic)",
              "TPC-C txn/s", "vs DORA", "TATP txn/s", "vs DORA");
  for (size_t gi = 0; gi < kGens; ++gi) {
    const RunResult& tpcc = grid[3 + 2 * gi];
    const RunResult& tatp = grid[4 + 2 * gi];
    std::printf("%-22s %14.0f %11.3fx %14.0f %11.3fx\n", gens[gi].label,
                tpcc.txn_per_sec, tpcc.txn_per_sec / dora_tpcc.txn_per_sec,
                tatp.txn_per_sec, tatp.txn_per_sec / dora_tatp.txn_per_sec);
  }

  // For each workload: the slowest round trip from which every faster one
  // also reaches DORA (or its best ratio if there is none), then any dip
  // below DORA after a slower round trip already reached it.
  std::printf("\nVerdict, from the rows above:\n");
  const auto verdict = [&](const char* workload, size_t first,
                           const RunResult& dora) {
    const auto ratio = [&](size_t gi) {
      return grid[first + 2 * gi].txn_per_sec / dora.txn_per_sec;
    };
    size_t stay = kGens;
    while (stay > 0 && ratio(stay - 1) >= 1.0) --stay;
    if (stay < kGens) {
      std::printf("  %s reaches DORA to stay from a %lld ns round trip (%s): "
                  "%.3fx.\n",
                  workload, static_cast<long long>(gens[stay].rtt_ns),
                  gens[stay].label, ratio(stay));
    } else {
      size_t best = 0;
      for (size_t gi = 1; gi < kGens; ++gi) {
        if (ratio(gi) > ratio(best)) best = gi;
      }
      std::printf("  %s reaches DORA to stay at no swept round trip; its "
                  "best is %.3fx at %lld ns (%s).\n",
                  workload, ratio(best),
                  static_cast<long long>(gens[best].rtt_ns), gens[best].label);
    }
    size_t reached = kGens;  // the slowest round trip that reaches DORA
    for (size_t gi = 0; gi < stay; ++gi) {
      if (ratio(gi) >= 1.0) {
        if (reached == kGens) reached = gi;
      } else if (reached < gi) {
        std::printf("  %s dips below DORA at %lld ns (%s): %.3fx, after "
                    "reaching it at %lld ns: %.3fx.\n",
                    workload, static_cast<long long>(gens[gi].rtt_ns),
                    gens[gi].label, ratio(gi),
                    static_cast<long long>(gens[reached].rtt_ns),
                    ratio(reached));
      }
    }
  };
  verdict("TPC-C", 3, dora_tpcc);
  verdict("TATP", 4, dora_tatp);
}

}  // namespace

int main() {
  PrintSweep();
  return 0;
}
