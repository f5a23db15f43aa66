// E7 — §5.3 claim: "giving a pipelined tree probe unit direct access to
// memory (bypassing the cache) should allow the unit to saturate using only
// perhaps a dozen outstanding requests, with no need for those requests to
// arrive simultaneously."
//
// Sweep the offered concurrency (outstanding probes) and report probe
// throughput: it should climb ~linearly and flatten right around the unit's
// hardware context count (12), far below the SG-DRAM bandwidth limit.
// A second sweep compares against a software prober pinned to CPU cores.
#include <cstdio>

#include "hw/platform.h"
#include "hw/tree_probe_unit.h"
#include "index/btree.h"
#include "index/codec.h"
#include "sim/simulator.h"

using namespace bionicdb;

namespace {

constexpr int kTreeLevels = 4;

/// Probes/second with `offered` concurrent clients against the HW unit.
double HwProbeRate(int offered, int contexts) {
  sim::Simulator sim;
  hw::Platform platform(&sim, hw::PlatformSpec::ConveyHC2());
  hw::TreeProbeConfig cfg;
  cfg.contexts = contexts;
  hw::TreeProbeUnit unit(&platform, cfg);
  constexpr int kProbesPerClient = 200;
  for (int i = 0; i < offered; ++i) {
    sim.Spawn([](hw::TreeProbeUnit* u) -> sim::Task<> {
      for (int p = 0; p < kProbesPerClient; ++p) {
        co_await u->Probe(kTreeLevels);
      }
    }(&unit));
  }
  sim.Run();
  return static_cast<double>(offered) * kProbesPerClient * 1e9 /
         static_cast<double>(sim.Now());
}

/// Probes/second of the software path: `offered` workers on the 6 cores.
double SwProbeRate(int offered) {
  sim::Simulator sim;
  hw::Platform platform(&sim, hw::PlatformSpec::CommodityServer());
  const double probe_ns = platform.cost().BtreeProbeNs(kTreeLevels, 64);
  constexpr int kProbesPerClient = 200;
  for (int i = 0; i < offered; ++i) {
    sim.Spawn([](hw::Platform* p, double ns) -> sim::Task<> {
      for (int j = 0; j < kProbesPerClient; ++j) {
        co_await p->cpu().Attach();
        co_await p->cpu().Work(static_cast<SimTime>(ns));
        p->cpu().Detach();
      }
    }(&platform, probe_ns));
  }
  sim.Run();
  return static_cast<double>(offered) * kProbesPerClient * 1e9 /
         static_cast<double>(sim.Now());
}

void PrintSaturation() {
  std::printf("\n=================================================================\n");
  std::printf("S5.3: tree probe unit saturation vs outstanding requests\n");
  std::printf("(4-level tree; unit has 12 hardware contexts)\n");
  std::printf("=================================================================\n");
  std::printf("%-12s %-18s %-18s\n", "outstanding", "HW probes/s",
              "SW probes/s (6 cores)");
  double hw_at_12 = 0, hw_at_48 = 0, hw_at_1 = 0;
  for (int offered : {1, 2, 4, 8, 12, 16, 24, 32, 48}) {
    const double hw = HwProbeRate(offered, 12);
    const double sw = SwProbeRate(offered);
    if (offered == 1) hw_at_1 = hw;
    if (offered == 12) hw_at_12 = hw;
    if (offered == 48) hw_at_48 = hw;
    std::printf("%-12d %15.0f %18.0f\n", offered, hw, sw);
  }
  std::printf("\nSaturation check: 12 outstanding reach %.0f%% of the rate at "
              "48 outstanding; 1 outstanding reaches only %.0f%%.\n",
              100.0 * hw_at_12 / hw_at_48, 100.0 * hw_at_1 / hw_at_48);
  std::printf("SG-DRAM bandwidth ceiling (64B/visit): %.0f Mprobes/s — the "
              "unit saturates on contexts, not memory, exactly as S5.3 "
              "argues.\n",
              80e9 / 64 / kTreeLevels / 1e6);
}

}  // namespace

int main() {
  PrintSaturation();
  return 0;
}
