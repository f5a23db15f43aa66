// bionicdb_cli: run any workload x engine x knob combination and print a
// full report (throughput, latency, energy, Figure-3 breakdown, unit
// statistics). The Swiss-army knife for exploring the design space beyond
// the canned benchmarks.
//
//   bionicdb_cli --workload=tatp --engine=bionic --txns=10000 --breakdown
//   bionicdb_cli --workload=tpcc --engine=dora --clients=16 --sockets=2
//   bionicdb_cli --engine=bionic --offload=tree,log --residency=0.8
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "engine/engine.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

using namespace bionicdb;

namespace {

struct Options {
  std::string workload = "tatp";
  engine::EngineMode mode = engine::EngineMode::kBionic;
  uint64_t txns = 5000;
  uint64_t warmup = 1000;
  int clients = 32;
  int sockets = 1;
  int partitions = 0;  // 0 == cores * sockets
  uint64_t subscribers = 10000;
  int items = 1000;
  double residency = 1.0;
  size_t overlay_capacity = 0;
  std::string offload = "all";
  uint64_t seed = 1;
  SimTime pcie_rtt_ns = 0;  // 0 == platform default
  bool breakdown = false;
  bool unit_stats = false;
};

void Usage() {
  std::printf(
      "usage: bionicdb_cli [options]\n"
      "  --workload=tatp|tpcc       workload mix (default tatp)\n"
      "  --engine=conventional|dora|bionic   architecture (default bionic)\n"
      "  --txns=N                   measured transactions (default 5000)\n"
      "  --warmup=N                 warmup transactions (default 1000)\n"
      "  --clients=N                closed-loop clients (default 32)\n"
      "  --sockets=N                CPU sockets, 6 cores each (default 1)\n"
      "  --partitions=N             DORA partitions (default cores*sockets)\n"
      "  --subscribers=N            TATP scale (default 10000)\n"
      "  --items=N                  TPC-C item count (default 1000)\n"
      "  --offload=LIST|all|none    bionic units: tree,log,queue,overlay,\n"
      "                             scanner (default all)\n"
      "  --residency=F              overlay initial residency (default 1.0)\n"
      "  --overlay-capacity=N       overlay row budget, 0=unlimited\n"
      "  --pcie-rtt-ns=N            override CPU<->FPGA round trip\n"
      "  --seed=N                   workload seed (default 1)\n"
      "  --breakdown                print the Figure-3 component table\n"
      "  --unit-stats               print hardware unit statistics\n");
}

bool ParseArg(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseArg(argv[i], "--workload", &v)) {
      opt->workload = v;
    } else if (ParseArg(argv[i], "--engine", &v)) {
      if (!engine::ParseEngineMode(v, &opt->mode)) {
        std::fprintf(stderr, "unknown engine '%s'\n", v.c_str());
        return false;
      }
    } else if (ParseArg(argv[i], "--txns", &v)) {
      opt->txns = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "--warmup", &v)) {
      opt->warmup = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "--clients", &v)) {
      opt->clients = std::atoi(v.c_str());
    } else if (ParseArg(argv[i], "--sockets", &v)) {
      opt->sockets = std::atoi(v.c_str());
    } else if (ParseArg(argv[i], "--partitions", &v)) {
      opt->partitions = std::atoi(v.c_str());
    } else if (ParseArg(argv[i], "--subscribers", &v)) {
      opt->subscribers = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "--items", &v)) {
      opt->items = std::atoi(v.c_str());
    } else if (ParseArg(argv[i], "--offload", &v)) {
      opt->offload = v;
    } else if (ParseArg(argv[i], "--residency", &v)) {
      opt->residency = std::atof(v.c_str());
    } else if (ParseArg(argv[i], "--overlay-capacity", &v)) {
      opt->overlay_capacity = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseArg(argv[i], "--pcie-rtt-ns", &v)) {
      opt->pcie_rtt_ns = std::atoll(v.c_str());
    } else if (ParseArg(argv[i], "--seed", &v)) {
      opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--breakdown") == 0) {
      opt->breakdown = true;
    } else if (std::strcmp(argv[i], "--unit-stats") == 0) {
      opt->unit_stats = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

engine::EngineConfig BuildConfig(const Options& opt) {
  engine::EngineConfig config = engine::EngineConfig::For(opt.mode);
  config.platform.cpu_sockets = opt.sockets;
  config.sockets = opt.sockets;
  config.num_partitions = opt.partitions > 0
                              ? opt.partitions
                              : config.platform.cpu_cores * opt.sockets;
  config.overlay_residency = opt.residency;
  config.overlay_capacity = opt.overlay_capacity;
  if (opt.pcie_rtt_ns > 0) config.platform.pcie.latency_ns = opt.pcie_rtt_ns / 2;
  if (opt.mode == engine::EngineMode::kBionic) {
    engine::OffloadConfig off = engine::OffloadConfig::AllOff();
    if (opt.offload == "all") {
      off = engine::OffloadConfig::AllOn();
    } else if (opt.offload != "none") {
      std::string rest = opt.offload;
      while (!rest.empty()) {
        const size_t comma = rest.find(',');
        const std::string unit = rest.substr(0, comma);
        if (unit == "tree") off.tree_probe = true;
        else if (unit == "log") off.logging = true;
        else if (unit == "queue") off.queueing = true;
        else if (unit == "overlay") off.overlay = true;
        else if (unit == "scanner") off.scanner = true;
        else {
          std::fprintf(stderr, "unknown offload unit '%s'\n", unit.c_str());
          std::exit(2);
        }
        if (comma == std::string::npos) break;
        rest = rest.substr(comma + 1);
      }
    }
    config.offload = off;
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    Usage();
    return 2;
  }

  sim::Simulator sim;
  engine::Engine engine(&sim, BuildConfig(opt));

  std::unique_ptr<workload::TatpWorkload> tatp;
  std::unique_ptr<workload::TpccWorkload> tpcc;
  workload::NextTxnFn next;
  if (opt.workload == "tatp") {
    workload::TatpConfig wcfg;
    wcfg.subscribers = opt.subscribers;
    wcfg.seed = opt.seed;
    tatp = std::make_unique<workload::TatpWorkload>(&engine, wcfg);
    BIONICDB_CHECK(tatp->Load().ok());
    next = [&tatp]() { return tatp->NextTransaction(); };
  } else if (opt.workload == "tpcc") {
    workload::TpccConfig wcfg;
    wcfg.items = opt.items;
    wcfg.seed = opt.seed;
    tpcc = std::make_unique<workload::TpccWorkload>(&engine, wcfg);
    BIONICDB_CHECK(tpcc->Load().ok());
    next = [&tpcc]() { return tpcc->NextTransaction(); };
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  workload::DriverConfig dcfg;
  dcfg.clients = opt.clients;
  dcfg.warmup_txns = opt.warmup;
  dcfg.measured_txns = opt.txns;
  workload::DriverReport report;
  sim.Spawn(workload::RunClosedLoop(&engine, next, dcfg, &report));
  sim.Run();

  const auto& m = engine.metrics();
  std::printf("bionicdb_cli: %s on %s (%s), %d clients, %d socket(s)\n",
              opt.workload.c_str(), engine::EngineModeName(engine.config().mode),
              engine.config().platform.name.c_str(), opt.clients, opt.sockets);
  std::printf("  committed:   %llu (%llu retries, %llu gave up)\n",
              static_cast<unsigned long long>(m.commits),
              static_cast<unsigned long long>(report.retries),
              static_cast<unsigned long long>(report.gave_up));
  std::printf("  throughput:  %.0f txn/s over %s of virtual time\n",
              m.TxnPerSecond(),
              FormatNanos(static_cast<double>(m.elapsed_ns)).c_str());
  std::printf("  latency:     %s\n", m.latency.Summary().c_str());
  std::printf("  energy:      %.2f uJ/txn (%.2f J total)\n",
              m.MicrojoulesPerTxn(), m.joules);
  std::printf("  cpu busy:    %.1f%%\n",
              engine.platform().TotalCpuUtilization(m.elapsed_ns) * 100.0);
  if (opt.breakdown) {
    std::printf("  CPU time by component:\n%s",
                engine.breakdown().ToTable().c_str());
  }
  if (opt.unit_stats && engine.config().platform.has_fpga) {
    std::printf("  tree probe engine: %llu probes, peak %d/%d contexts\n",
                static_cast<unsigned long long>(
                    engine.probe_unit()->probes_completed()),
                engine.probe_unit()->max_active(),
                engine.probe_unit()->contexts());
    std::printf("  log unit: %llu records in %llu batches (%.1f/batch)\n",
                static_cast<unsigned long long>(engine.log_unit()->records()),
                static_cast<unsigned long long>(engine.log_unit()->batches()),
                engine.log_unit()->MeanBatchRecords());
    std::printf("  queue engine: %llu ops; scanner: %.1f MB scanned\n",
                static_cast<unsigned long long>(
                    engine.queue_engine()->operations()),
                static_cast<double>(engine.scanner_unit()->bytes_scanned()) /
                    1e6);
    std::printf("  pcie: %.1f MB\n",
                static_cast<double>(
                    engine.platform().pcie().bytes_transferred()) /
                    1e6);
  }
  return 0;
}
