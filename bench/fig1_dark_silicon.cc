// E1 — Figure 1: "Fraction of chip (from top-left) utilized at various
// degrees of parallelism", 2011 (64 cores) vs 2018 (1024 cores, power
// envelope applied). Also reproduces the §2 projection ("20% of transistors
// outside the 2018 power envelope, shrinking 30-50% each generation") and
// the Hill-Marty argument against pure homogeneous scaling.
#include <cstdio>

#include "darksilicon/amdahl.h"
#include "darksilicon/power.h"

namespace ds = bionicdb::darksilicon;

namespace {

void PrintFigure1() {
  ds::DarkSiliconModel model;
  auto rows = ds::ComputeFigure1(model);
  std::printf("\n=================================================================\n");
  std::printf("Figure 1: fraction of chip utilized vs serial fraction\n");
  std::printf("=================================================================\n");
  std::printf("%-14s %-22s %-22s\n", "serial frac", "2011 (64 cores)",
              "2018 (1024c, 80% power)");
  for (const auto& row : rows) {
    std::printf("%9.2f%%     %8.1f%%              %8.1f%%\n",
                row.serial_fraction * 100.0, row.utilization_2011_64c * 100.0,
                row.utilization_2018_1024c * 100.0);
  }
  std::printf("\nPaper shape check: 0.1%% serial suffices in 2011 (>90%%) but\n"
              "wastes over half the 2018 chip; even 0.01%% serial cannot beat\n"
              "the 80%% power envelope ('Over power budget' region).\n");

  std::printf("\nDark-silicon projection (S2):\n");
  std::printf("%-8s %-8s %-20s\n", "year", "cores", "powerable fraction");
  for (const auto& gen : model.Project(2026)) {
    std::printf("%-8d %-8d %8.1f%%\n", gen.year, gen.cores,
                gen.powerable_fraction * 100.0);
  }

  std::printf("\nHill-Marty speedups at 256 BCEs (why homogeneous multicore\n"
              "stalls and heterogeneity wins):\n");
  std::printf("%-14s %-12s %-12s %-12s\n", "serial frac", "symmetric-1",
              "asymmetric*", "dynamic");
  for (double s : {0.1, 0.01, 0.001}) {
    const double r = ds::BestAsymmetricBigCore(s, 256);
    std::printf("%9.2f%%    %8.1fx    %8.1fx    %8.1fx\n", s * 100,
                ds::HillMartySymmetricSpeedup(s, 256, 1),
                ds::HillMartyAsymmetricSpeedup(s, 256, r),
                ds::HillMartyDynamicSpeedup(s, 256));
  }
}

}  // namespace

int main() {
  PrintFigure1();
  return 0;
}
