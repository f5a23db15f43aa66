// Open-loop overload curves: latency vs offered load through saturation.
//
// Sweeps a grid of (engine mode x arrival process x offered load) open-loop
// points in the simulator — each point its own Simulator + Engine with the
// bounded admission queue enabled — and emits, per point, goodput, shed
// rate, and p50/p99/p99.9 end-to-end sojourn (queue wait included, charged
// to the admit stage). The curves show the saturation knee: goodput
// plateaus at service capacity, the shed rate climbs toward 1, and the
// p99.9 of served requests blows up to the full-queue wait.
//
// Also emits:
//  * one closed-loop row of the pinned run (bench/bench_util.h), whose
//    sim_txn_per_sec is pinned by tools/check_bench.py — proof that the
//    admission machinery is inert when disabled;
//  * wall-clock open-loop rows driving exec::ThreadedBackend with a real
//    arrival thread (suppressed by --sim-only, which keeps the output
//    deterministic for the cross---jobs byte-identity check).
//
// Usage: overload [--jobs=N] [--sim-only] [out.json]
// Simulated rows are byte-identical for any --jobs (each grid point is a
// self-contained simulation; common::RunGrid returns them in grid order).
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "exec/threaded.h"

namespace bionicdb::bench {
namespace {

// ------------------------------------------------------------ sim points --

struct SimPoint {
  engine::EngineMode mode = engine::EngineMode::kDora;
  workload::ArrivalProcess process = workload::ArrivalProcess::kPoisson;
  double offered_tps = 0;
};

const char* ModeTag(engine::EngineMode m) {
  return m == engine::EngineMode::kBionic ? "bionic" : "dora";
}

std::string PointName(const SimPoint& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "overload_%s_%s_%.0fk", ModeTag(p.mode),
                workload::ArrivalProcessName(p.process),
                p.offered_tps / 1000.0);
  return buf;
}

constexpr SimTime kWarmupNs = 2000000;    // 2 ms virtual warmup
constexpr SimTime kMeasureNs = 10000000;  // 10 ms virtual measured window

Row RunSimPoint(const SimPoint& p) {
  sim::Simulator sim;
  engine::EngineConfig cfg = engine::EngineConfig::For(p.mode);
  cfg.flight.enabled = true;
  cfg.admission.enabled = true;
  cfg.admission.depth = 512;
  engine::Engine eng(&sim, cfg);
  workload::TatpConfig wcfg;
  wcfg.subscribers = 5000;
  workload::TatpWorkload tatp(&eng, wcfg);
  BIONICDB_CHECK(tatp.Load().ok());

  workload::OpenLoopConfig ocfg;
  ocfg.arrival.process = p.process;
  ocfg.arrival.offered_tps = p.offered_tps;
  ocfg.warmup_ns = kWarmupNs;
  ocfg.measure_ns = kMeasureNs;
  ocfg.service.clients = 64;
  ocfg.service.max_retries = 8;
  workload::OpenLoopReport rep;
  sim.Spawn(workload::RunOpenLoop(
      &eng, [&]() { return tatp.NextTransaction(); }, ocfg, &rep));
  sim.Run();

  Row row(PointName(p), 3);
  row.Add("offered_tps", p.offered_tps);
  row.Add("arrivals", static_cast<double>(rep.offered));
  row.Add("shed", static_cast<double>(rep.shed));
  row.Add("shed_rate", rep.shed_rate());
  row.Add("completed", static_cast<double>(rep.completed));
  row.Add("committed", static_cast<double>(rep.committed));
  row.Add("gave_up", static_cast<double>(rep.gave_up));
  row.Add("failed", static_cast<double>(rep.failed));
  row.Add("retries", static_cast<double>(rep.retries));
  row.Add("goodput_tps", rep.goodput_tps(kMeasureNs));
  row.Add("p50_us",
          static_cast<double>(rep.sojourn_ns.Percentile(50)) / 1e3);
  row.Add("p99_us",
          static_cast<double>(rep.sojourn_ns.Percentile(99)) / 1e3);
  row.Add("p999_us",
          static_cast<double>(rep.sojourn_ns.Percentile(99.9)) / 1e3);
  const obs::FlightRecorder* fr = eng.flight_recorder();
  row.Add("admit_p999_us",
          static_cast<double>(
              fr->stage_hist(obs::Stage::kAdmit).Percentile(99.9)) /
              1e3);
  row.Add("queue_max_depth", static_cast<double>(rep.admission.max_depth));
  return row;
}

// The pinned run, with no admission queue: its sim_txn_per_sec carries the
// cross-PR passivity pin.
Row RunClosedLoopPin() {
  return RunPinnedTatp([](sim::Simulator& sim, engine::Engine& eng) {
    sim.Run();
    Row row("overload_closed_dora", 3);
    // %.1f, matching wallclock's tatp_e2e_dora emission: the checker pins
    // this field to the exact same literal in both files.
    row.Add("sim_txn_per_sec", eng.metrics().TxnPerSecond(), 1);
    row.Add("commits", static_cast<double>(eng.metrics().commits));
    const Histogram& lat = eng.metrics().latency;
    row.Add("p50_us", static_cast<double>(lat.Percentile(50)) / 1e3);
    row.Add("p99_us", static_cast<double>(lat.Percentile(99)) / 1e3);
    row.Add("p999_us", static_cast<double>(lat.Percentile(99.9)) / 1e3);
    return row;
  });
}

// ------------------------------------------------------- wall-clock rows --

Row RunThreadedPoint(double offered_tps) {
  sim::Simulator sim;
  engine::EngineConfig cfg = engine::EngineConfig::Dora();
  engine::Engine eng(&sim, cfg);
  workload::TatpConfig wcfg;
  wcfg.subscribers = 5000;
  workload::TatpWorkload tatp(&eng, wcfg);
  BIONICDB_CHECK(tatp.Load().ok());
  exec::ThreadedBackend backend(&eng, exec::ThreadedBackend::Config{});
  backend.Start();

  exec::ThreadedBackend::OpenLoopOptions options;
  options.offered_tps = offered_tps;
  options.warmup_s = 0.1;
  options.duration_s = 0.4;
  options.queue_depth = 256;
  options.servers = 4;
  exec::ThreadedBackend::OpenLoopReport rep =
      backend.RunOpenLoop([&] { return tatp.NextTransaction(); }, options);
  backend.Shutdown();

  char buf[64];
  std::snprintf(buf, sizeof(buf), "overload_threaded_o%.0fk",
                offered_tps / 1000.0);
  Row row(buf, 3);
  row.Add("offered_tps", offered_tps);
  row.Add("arrivals", static_cast<double>(rep.offered));
  row.Add("admitted", static_cast<double>(rep.admitted));
  row.Add("shed", static_cast<double>(rep.shed));
  row.Add("completed", static_cast<double>(rep.completed));
  row.Add("committed", static_cast<double>(rep.committed));
  row.Add("goodput_tps", rep.goodput_tps);
  row.Add("p50_us", static_cast<double>(rep.sojourn.Percentile(50)) / 1e3);
  row.Add("p99_us", static_cast<double>(rep.sojourn.Percentile(99)) / 1e3);
  row.Add("p999_us",
          static_cast<double>(rep.sojourn.Percentile(99.9)) / 1e3);
  row.Add("host_cores",
          static_cast<double>(std::thread::hardware_concurrency()));
  return row;
}

// ------------------------------------------------------------------ main --

int Main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, "--sim-only",
                                        /*grid=*/true);
  using engine::EngineMode;
  using workload::ArrivalProcess;
  std::vector<SimPoint> grid;
  for (EngineMode mode : {EngineMode::kDora, EngineMode::kBionic}) {
    // Poisson offered-load sweep through the saturation knee (DORA
    // capacity on this setup is ~2.2M txn/s; bionic is higher, so the
    // sweep extends to 8M to drive both modes deep into shedding).
    for (double tps : {250e3, 500e3, 1e6, 2e6, 3e6, 4e6, 6e6, 8e6}) {
      grid.push_back({mode, ArrivalProcess::kPoisson, tps});
    }
    // One burst-storm and one diurnal point near the knee: same average
    // offered load, very different tails.
    grid.push_back({mode, ArrivalProcess::kBursty, 2e6});
    grid.push_back({mode, ArrivalProcess::kDiurnal, 2e6});
  }
  std::vector<Row> rows = common::RunGrid<Row>(
      grid.size(), args.jobs, [&](size_t i) { return RunSimPoint(grid[i]); });
  rows.push_back(RunClosedLoopPin());
  if (!args.flag) {
    rows.push_back(RunThreadedPoint(20e3));
    rows.push_back(RunThreadedPoint(80e3));
  }

  EmitRows(rows, args.out_path);
  return 0;
}

}  // namespace
}  // namespace bionicdb::bench

int main(int argc, char** argv) { return bionicdb::bench::Main(argc, argv); }
