// E9 — §5.2/§5.5-5.6 ablation: "we propose an architecture that offloads
// four major operations to hardware: tree probes, overlay management, log
// buffering, and queue management." Which offload buys what?
//
// Runs the TATP mix on the bionic platform with each unit toggled
// individually (one-on sweeps and one-off sweeps around the all-on
// configuration), reporting throughput and energy per transaction.
#include <cstdio>

#include "bench/bench_util.h"

using namespace bionicdb;
using bench::RunResult;
using bench::WorkloadScale;

namespace {

engine::EngineConfig BionicWith(engine::OffloadConfig offload) {
  engine::EngineConfig c = engine::EngineConfig::Bionic();
  c.offload = offload;
  return c;
}

void PrintAblation() {
  bench::PrintHeader("S5 ablation: per-unit offload contribution (TATP mix)");
  WorkloadScale scale;

  struct Row {
    const char* label;
    engine::OffloadConfig offload;
  };
  engine::OffloadConfig all_on = engine::OffloadConfig::AllOn();
  engine::OffloadConfig all_off = engine::OffloadConfig::AllOff();

  std::vector<Row> rows;
  rows.push_back({"all software (on FPGA box)", all_off});
  {
    engine::OffloadConfig o = all_off;
    o.tree_probe = true;
    rows.push_back({"+ tree probe engine", o});
  }
  {
    engine::OffloadConfig o = all_off;
    o.logging = true;
    rows.push_back({"+ log insertion unit", o});
  }
  {
    engine::OffloadConfig o = all_off;
    o.queueing = true;
    rows.push_back({"+ queue engine", o});
  }
  {
    engine::OffloadConfig o = all_off;
    o.overlay = true;
    rows.push_back({"+ overlay (no bpool)", o});
  }
  rows.push_back({"all units (bionic)", all_on});
  {
    engine::OffloadConfig o = all_on;
    o.tree_probe = false;
    rows.push_back({"bionic - tree probe", o});
  }
  {
    engine::OffloadConfig o = all_on;
    o.logging = false;
    rows.push_back({"bionic - log unit", o});
  }
  {
    engine::OffloadConfig o = all_on;
    o.overlay = false;
    rows.push_back({"bionic - overlay", o});
  }

  for (const Row& row : rows) {
    RunResult r = bench::RunTatpMix(BionicWith(row.offload), scale);
    bench::PrintResultRow(row.label, r);
  }
  std::printf("\n(The overlay replaces the buffer pool entirely — §5.6; the\n"
              "probe engine empties the Btree component; the log unit\n"
              "removes the central CAS path. Software coordination — Xct,\n"
              "Dora, front-end — remains, as Figure 4 prescribes.)\n");
}

}  // namespace

int main() {
  PrintAblation();
  return 0;
}
