// E2 — Figure 2 validation: the simulated platform must deliver exactly the
// bandwidth and latency the Convey HC-2 spec sheet advertises on every
// datapath (SG-DRAM 80 GB/s / 400 ns, host DDR3 20 GB/s / 400 ns, PCIe
// 4 GB/s / 2 us RTT, SAS 12 Gbps / 5 ms, SSD 500 MB/s / 20 us).
#include <cstdio>

#include "hw/platform.h"
#include "sim/resource.h"
#include "sim/simulator.h"

using namespace bionicdb;
using hw::Platform;
using hw::PlatformSpec;

namespace {

struct LinkProbe {
  double measured_gbps;
  double measured_latency_ns;
};

/// Measures a link by timing one small (latency-dominated) and one large
/// (bandwidth-dominated) transfer.
LinkProbe Probe(double gbps, SimTime latency_ns) {
  LinkProbe out{};
  {
    sim::Simulator sim;
    sim::Link link(&sim, "probe", gbps, latency_ns);
    sim.Spawn([](sim::Link* l) -> sim::Task<> {
      co_await l->Transfer(1);
    }(&link));
    sim.Run();
    out.measured_latency_ns = static_cast<double>(sim.Now());
  }
  {
    sim::Simulator sim;
    sim::Link link(&sim, "probe", gbps, latency_ns);
    constexpr uint64_t kBytes = 1ull << 30;  // 1 GiB
    sim.Spawn([](sim::Link* l) -> sim::Task<> {
      co_await l->Transfer(kBytes);
    }(&link));
    sim.Run();
    const double seconds =
        static_cast<double>(sim.Now() - latency_ns) / 1e9;
    out.measured_gbps = static_cast<double>(kBytes) / 1e9 / seconds;
  }
  return out;
}

void PrintFigure2() {
  const PlatformSpec spec = PlatformSpec::ConveyHC2();
  std::printf("\n=================================================================\n");
  std::printf("Figure 2: platform datapaths, spec vs measured (simulated)\n");
  std::printf("=================================================================\n");
  std::printf("%-12s %12s %12s %14s %14s\n", "datapath", "spec GB/s",
              "meas GB/s", "spec latency", "meas latency");
  struct Row {
    const char* name;
    hw::DeviceSpec dev;
  } rows[] = {
      {"sg_dram", spec.sg_dram},   {"host_dram", spec.host_dram},
      {"pcie", spec.pcie},         {"sas_disk", spec.sas_disk},
      {"ssd", spec.ssd},
  };
  for (const Row& row : rows) {
    LinkProbe p = Probe(row.dev.gbps, row.dev.latency_ns);
    std::printf("%-12s %12.1f %12.2f %11lld ns %11.0f ns\n", row.name,
                row.dev.gbps, p.measured_gbps,
                static_cast<long long>(row.dev.latency_ns),
                p.measured_latency_ns - 1.0 /*1B serialization*/);
  }
  std::printf("\nPCIe round trip: %lld ns (paper: 2 us)\n",
              static_cast<long long>(2 * spec.pcie.latency_ns));
}

}  // namespace

int main() {
  PrintFigure2();
  return 0;
}
