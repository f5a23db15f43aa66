// E10 — §3/§5.2: "a sufficiently efficient OLTP engine could even run on
// the same machine as the analytics, allowing up-to-the-second intelligence
// on live data" and "Netezza-style filtering at the FPGA should ease
// bandwidth concerns for queries."
//
// Run a TATP OLTP mix while an analytics client continuously issues
// full-table scan queries. Compare the bionic engine with and without the
// enhanced scanner, and the software engine, on: OLTP throughput while
// scanning, scan latency, and bytes crossing the PCI bus.
#include <cstdio>

#include "bench/bench_util.h"

using namespace bionicdb;

namespace {

struct HybridResult {
  double oltp_txn_per_sec = 0;
  double scan_ms_mean = 0;
  uint64_t scans = 0;
  double pcie_mb = 0;
  double scan_freshness_hits = 0;  ///< Scans that saw unmerged updates.
  /// OLTP tail under concurrent analytics: does the scan wave stretch the
  /// p99.9, and which stage eats the extra time?
  double oltp_p50_us = 0;
  double oltp_p999_us = 0;
  const char* tail_stage = "";     ///< Stage with the largest p99.9.
  double tail_stage_p999_us = 0;
};

HybridResult RunHybrid(const engine::EngineConfig& base_config) {
  sim::Simulator sim;
  engine::EngineConfig config = base_config;
  // Passive tail-latency attribution; never perturbs simulated results.
  config.flight.enabled = true;
  engine::Engine engine(&sim, config);
  workload::TatpConfig wcfg;
  wcfg.subscribers = 20000;  // ~1.2MB subscriber table to scan
  workload::TatpWorkload tatp(&engine, wcfg);
  BIONICDB_CHECK(tatp.Load().ok());
  engine.Start();

  struct State {
    bool stop = false;
    uint64_t scans = 0;
    SimTime scan_ns = 0;
    uint64_t fresh = 0;
    sim::Completion started;
    explicit State(sim::Simulator* s) : started(s) {}
  } state(&sim);

  // Analytics client: back-to-back predicate scans over SUBSCRIBER.
  sim.Spawn([](engine::Engine* eng, workload::TatpWorkload* tatp,
               State* st) -> sim::Task<> {
    engine::Engine::ExecContext ctx;
    ctx.engine = eng;
    co_await st->started.Wait();  // analytics joins once OLTP is warm
    while (!st->stop) {
      const SimTime t0 = eng->simulator()->Now();
      auto r = co_await eng->ScanCount(ctx, tatp->subscriber(), [](Slice rec) {
        // low vlr_location nibble == 0: a ~6% selectivity predicate.
        return rec.size() >= 1 &&
               (static_cast<unsigned char>(rec[rec.size() - 4]) & 0x0F) == 0;
      });
      if (r.ok() && *r > 0) ++st->fresh;
      st->scan_ns += eng->simulator()->Now() - t0;
      ++st->scans;
      // Dashboard-style cadence: a fresh scan every 100 us of think time.
      co_await sim::Delay{eng->simulator(), 100 * kMicrosecond};
    }
  }(&engine, &tatp, &state));

  // OLTP wave.
  sim.Spawn([](engine::Engine* eng, workload::TatpWorkload* tatp,
               State* st) -> sim::Task<> {
    co_await eng->PreheatBufferPool();
    eng->ResetStats();
    st->started.Set();
    workload::DriverConfig dcfg;
    dcfg.clients = 32;
    dcfg.warmup_txns = 0;
    dcfg.measured_txns = 20000;
    dcfg.preheat = false;
    // Run the waves inline (RunClosedLoop would drain agents; we stop the
    // analytics client first instead).
    workload::DriverReport report;
    co_await workload::RunClosedLoop(
        eng, [tatp]() { return tatp->NextTransaction(); }, dcfg, &report);
    st->stop = true;
  }(&engine, &tatp, &state));

  sim.Run();

  HybridResult out;
  out.oltp_txn_per_sec = engine.metrics().TxnPerSecond();
  out.scans = state.scans;
  out.scan_ms_mean = state.scans
                         ? static_cast<double>(state.scan_ns) /
                               static_cast<double>(state.scans) / 1e6
                         : 0.0;
  out.pcie_mb = static_cast<double>(
                    engine.platform().pcie().bytes_transferred()) /
                1e6;
  out.scan_freshness_hits = static_cast<double>(state.fresh);
  const Histogram& lat = engine.metrics().latency;
  out.oltp_p50_us = static_cast<double>(lat.Percentile(50)) / 1e3;
  out.oltp_p999_us = static_cast<double>(lat.Percentile(99.9)) / 1e3;
  obs::FlightRecorder* fr = engine.flight_recorder();
  for (int i = 0; i < obs::kNumStages; ++i) {
    const auto s = static_cast<obs::Stage>(i);
    const double p999 =
        static_cast<double>(fr->stage_hist(s).Percentile(99.9)) / 1e3;
    if (p999 > out.tail_stage_p999_us) {
      out.tail_stage_p999_us = p999;
      out.tail_stage = obs::StageKey(s);
    }
  }
  return out;
}

void PrintHybrid() {
  bench::PrintHeader(
      "S3/S5.2: OLTP + concurrent analytics on one box (20k subscribers)");
  struct Row {
    const char* label;
    engine::EngineConfig config;
  };
  engine::EngineConfig bionic_no_scan = engine::EngineConfig::Bionic();
  bionic_no_scan.offload.scanner = false;
  Row rows[] = {
      {"Conventional + CPU scans", engine::EngineConfig::Conventional()},
      {"Bionic, scanner OFF", bionic_no_scan},
      {"Bionic, scanner ON", engine::EngineConfig::Bionic()},
  };
  std::printf("%-26s %12s %10s %12s %12s %10s %16s\n", "configuration",
              "OLTP txn/s", "scans", "scan mean", "PCIe MB", "p99.9 us",
              "tail stage");
  for (const Row& row : rows) {
    HybridResult r = RunHybrid(row.config);
    std::printf("%-26s %12.0f %10llu %10.2fms %12.1f %10.1f %10s %.1fus\n",
                row.label, r.oltp_txn_per_sec,
                static_cast<unsigned long long>(r.scans), r.scan_ms_mean,
                r.pcie_mb, r.oltp_p999_us, r.tail_stage,
                r.tail_stage_p999_us);
  }
  std::printf("\nThe enhanced scanner keeps query bytes off the PCI bus\n"
              "(selection/projection at the FPGA), so scans neither starve\n"
              "the OLTP side's PCIe traffic nor burn host CPU — and every\n"
              "scan sees the overlay's unmerged updates (live data).\n");
}

}  // namespace

int main() {
  PrintHybrid();
  return 0;
}
