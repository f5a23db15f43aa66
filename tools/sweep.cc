// sweep: deterministic multi-core experiment runner CLI.
//
// Runs a named experiment grid — each configuration point a fully
// independent Simulator + Engine — sharded across host threads, and prints
// one line of *simulated* metrics per point, in point order. Because every
// number printed is virtual-time output of a seeded simulation, stdout is
// byte-identical for any --jobs value; CI diffs --jobs 1 against --jobs N
// to hold the runner to that. Wall-clock timing goes to stderr.
//
// Usage: sweep [--grid=interconnect|sockets|crash|all] [--jobs=N]
//   --grid   which grid to run (default: all)
//   --jobs   host threads (default: BIONICDB_JOBS env, else cores)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel_for.h"
#include "workload/crash_harness.h"

using namespace bionicdb;
using bench::RunResult;
using bench::WorkloadScale;

namespace {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PrintPoint(const char* grid, const std::string& label,
                const RunResult& r) {
  std::printf("%-12s %-28s %10.0f txn/s %9.2f uJ/txn %9.1f us p95 %8llu ok\n",
              grid, label.c_str(), r.txn_per_sec, r.uj_per_txn,
              r.p95_latency_us,
              static_cast<unsigned long long>(r.commits));
}

/// CPU<->FPGA round-trip sweep (bench/interconnect_sweep at CI scale).
void RunInterconnectGrid(size_t jobs) {
  struct Point {
    const char* label;
    SimTime rtt_ns;
    bool tpcc;
  };
  std::vector<Point> points;
  for (SimTime rtt : {2000, 500, 100}) {
    points.push_back({"bionic_tpcc", rtt, true});
    points.push_back({"bionic_tatp", rtt, false});
  }
  WorkloadScale tscale;
  tscale.measured_txns = 800;
  WorkloadScale ascale;
  ascale.measured_txns = 2000;
  const std::vector<RunResult> grid = bench::RunSweep(
      points.size(),
      [&](size_t i) {
        engine::EngineConfig config = engine::EngineConfig::Bionic();
        config.platform.pcie.latency_ns = points[i].rtt_ns / 2;  // one-way
        return points[i].tpcc ? bench::RunTpcc(config, tscale)
                              : bench::RunTatpMix(config, ascale);
      },
      jobs);
  for (size_t i = 0; i < grid.size(); ++i) {
    PrintPoint("interconnect",
               std::string(points[i].label) + "@rtt" +
                   std::to_string(points[i].rtt_ns),
               grid[i]);
  }
}

/// Socket scaling (bench/socket_scaling at CI scale).
void RunSocketsGrid(size_t jobs) {
  const int socket_counts[] = {1, 2, 4};
  const std::vector<RunResult> grid = bench::RunSweep(
      6,
      [&](size_t i) {
        const int sockets = socket_counts[i / 2];
        engine::EngineConfig config = (i % 2 == 1)
                                          ? engine::EngineConfig::Bionic()
                                          : engine::EngineConfig::Dora();
        config.platform.cpu_sockets = sockets;
        config.sockets = sockets;
        config.num_partitions = 6 * sockets;
        WorkloadScale scale;
        scale.clients = 16 * sockets;
        scale.measured_txns = 2000;
        return bench::RunTatpSingle(
            config, workload::TatpTxnType::kUpdateSubscriberData, scale);
      },
      jobs);
  for (size_t i = 0; i < grid.size(); ++i) {
    PrintPoint("sockets",
               std::string(i % 2 == 1 ? "bionic" : "dora") + "@s" +
                   std::to_string(socket_counts[i / 2]),
               grid[i]);
  }
}

/// Checks `points` on `harness`, printing one line per point and a summary
/// line; exits 1 on any divergence.
void CheckAndPrint(
    workload::CrashHarness* harness,
    const std::vector<workload::CrashHarness::CrashPoint>& points,
    const char* summary_tag, size_t jobs) {
  const std::vector<std::string> failures =
      harness->CheckCrashPoints(points, jobs);
  size_t bad = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (failures[i].empty()) {
      std::string cuts;
      for (size_t cut : points[i].cuts) {
        cuts += (cuts.empty() ? "" : ",") + std::to_string(cut);
      }
      std::printf("crash        %-10s cut=%-8s ok\n",
                  workload::TailFaultName(points[i].fault), cuts.c_str());
    } else {
      ++bad;
      std::printf("crash        FAIL %s\n", failures[i].c_str());
    }
  }
  std::printf("crash        %zu points%s, %zu divergent\n", points.size(),
              summary_tag, bad);
  if (bad != 0) std::exit(1);
}

/// Crash-recovery corpora: every (cut, fault) point recovers a fresh engine
/// from a mangled log image and diffs it against the committed oracle; then
/// every consistent cut sampled on a 3-shard cluster running 40%
/// cross-shard transactions recovers all three shards and checks 2PC
/// atomicity.
void RunCrashGrid(size_t jobs) {
  workload::CrashHarnessConfig cfg;
  cfg.mode = engine::EngineMode::kDora;
  cfg.seed = 11;
  cfg.clients = 2;
  cfg.txns = 120;
  cfg.scale = 80;
  workload::CrashHarness harness(cfg);
  const std::vector<size_t>& offsets = harness.record_offsets(0);
  const size_t log_size = harness.Run().shards[0].log.size();

  std::vector<workload::CrashHarness::CrashPoint> points;
  const size_t stride = offsets.size() < 12 ? 1 : offsets.size() / 12;
  for (size_t i = stride; i < offsets.size(); i += stride) {
    for (workload::TailFault fault :
         {workload::TailFault::kCleanCut, workload::TailFault::kZeroFill,
          workload::TailFault::kBitFlip}) {
      points.push_back({{offsets[i] + 3}, fault,
                        cfg.seed ^ (offsets[i] * 0x9E3779B97F4A7C15ull)});
    }
  }
  points.push_back({{log_size}, workload::TailFault::kCleanCut, cfg.seed});
  CheckAndPrint(&harness, points, "", jobs);

  workload::CrashHarness sharded_harness(
      workload::CrashHarnessConfig::ThreeShardCrossShard());
  std::vector<workload::CrashHarness::CrashPoint> cuts;
  for (const auto& s : sharded_harness.samples()) cuts.push_back(s.point);
  CheckAndPrint(&sharded_harness, cuts, " on 3 shards", jobs);
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid = "all";
  size_t jobs = common::DefaultJobs();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--grid=", 7) == 0) {
      grid = arg + 7;
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      const long v = std::strtol(arg + 7, nullptr, 10);
      if (v >= 1) jobs = static_cast<size_t>(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }

  const double t0 = WallSeconds();
  if (grid == "interconnect" || grid == "all") RunInterconnectGrid(jobs);
  if (grid == "sockets" || grid == "all") RunSocketsGrid(jobs);
  if (grid == "crash" || grid == "all") RunCrashGrid(jobs);
  std::fprintf(stderr, "sweep: grid=%s jobs=%zu wall=%.2fs\n", grid.c_str(),
               jobs, WallSeconds() - t0);
  return 0;
}
