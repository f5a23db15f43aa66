// trace_dump — run a TATP workload with tracing enabled and write the
// Chrome trace-event JSON (open in chrome://tracing or https://ui.perfetto.dev).
//
//   trace_dump -o trace.json                      # bionic mode, defaults
//   trace_dump --mode=dora --txns=2000 -o t.json
//   trace_dump --validate -o trace.json           # also: determinism + JSON
//   trace_dump --tail                             # p50-vs-p99.9 attribution
//
// --validate runs the identical simulation twice and requires byte-identical
// exports (the tracer is keyed to virtual time only), checks the JSON is
// structurally well formed, and checks spans landed on every layer the
// chosen mode exercises (sim/engine/wal always; dora in dora+bionic; hw in
// bionic). It also warns when the bounded trace ring dropped events
// (obs.trace.dropped nonzero): exported timelines have holes. Exit code is
// non-zero on any failure, so CI can gate on it.
//
// --tail runs TATP and TPC-C with the flight recorder + profiler on and
// prints, per workload, the stage-attribution table comparing the p50
// cohort against the p99.9 tail plus the time-in-state profiles; the
// retained outlier transactions are exported as Chrome-trace waterfalls
// (flight_tatp.json / flight_tpcc.json). Each workload runs twice and the
// reports must be byte-identical, so the mode doubles as a determinism
// gate for the whole attribution pipeline.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "engine/config.h"
#include "engine/engine.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

using namespace bionicdb;

namespace {

struct Options {
  engine::EngineMode mode = engine::EngineMode::kBionic;
  uint64_t txns = 2000;
  uint64_t warmup = 500;
  int clients = 16;
  uint64_t subscribers = 2000;
  uint64_t seed = 42;
  std::string out = "trace.json";
  bool validate = false;
  bool tail = false;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--mode=bionic|dora|conventional] [--txns=N] [--warmup=N]\n"
      "          [--clients=N] [--subscribers=N] [--seed=S] [--validate]\n"
      "          [--tail] [-o FILE]\n",
      argv0);
}

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--validate") == 0) {
      opt->validate = true;
    } else if (std::strcmp(argv[i], "--tail") == 0) {
      opt->tail = true;
    } else if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      opt->out = argv[++i];
    } else if (ParseFlag(argv[i], "--out", &v) || ParseFlag(argv[i], "-o", &v)) {
      opt->out = v;
    } else if (ParseFlag(argv[i], "--mode", &v)) {
      if (!engine::ParseEngineMode(v, &opt->mode)) {
        std::fprintf(stderr, "unknown --mode=%s\n", v);
        return false;
      }
    } else if (ParseFlag(argv[i], "--txns", &v)) {
      opt->txns = std::strtoull(v, nullptr, 10);
    } else if (ParseFlag(argv[i], "--warmup", &v)) {
      opt->warmup = std::strtoull(v, nullptr, 10);
    } else if (ParseFlag(argv[i], "--clients", &v)) {
      opt->clients = std::atoi(v);
    } else if (ParseFlag(argv[i], "--subscribers", &v)) {
      opt->subscribers = std::strtoull(v, nullptr, 10);
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

struct RunOutput {
  std::string json;
  std::vector<std::string> tracks;
  uint64_t events = 0;
  uint64_t dropped = 0;
  uint64_t commits = 0;
};

RunOutput RunOnce(const Options& opt) {
  engine::EngineConfig config = engine::EngineConfig::For(opt.mode);
  config.trace.enabled = true;

  sim::Simulator sim;
  sim.SeedRng(opt.seed);
  engine::Engine engine(&sim, config);
  workload::TatpConfig wcfg;
  wcfg.subscribers = opt.subscribers;
  workload::TatpWorkload tatp(&engine, wcfg);
  BIONICDB_CHECK(tatp.Load().ok());

  workload::DriverConfig dcfg;
  dcfg.clients = opt.clients;
  dcfg.warmup_txns = opt.warmup;
  dcfg.measured_txns = opt.txns;
  sim.Spawn(workload::RunClosedLoop(
      &engine, [&]() { return tatp.NextTransaction(); }, dcfg, nullptr));
  sim.Run();

  const obs::Tracer* tracer = engine.tracer();
  BIONICDB_CHECK(tracer != nullptr);
  RunOutput out;
  out.json = tracer->ExportChromeTrace();
  for (size_t t = 0; t < tracer->num_tracks(); ++t) {
    out.tracks.push_back(tracer->track_name(static_cast<uint16_t>(t)));
  }
  out.events = tracer->total_recorded();
  out.dropped = tracer->dropped();
  out.commits = engine.metrics().commits;
  return out;
}

// ------------------------------------------------------------- tail mode --

struct TailOutput {
  std::string attribution;  ///< TailReport::ToTable()
  std::string profile;      ///< Profiler::ToTable()
  std::string outlier_json; ///< Chrome trace of the retained slowest txns.
  uint64_t commits = 0;
};

TailOutput RunTailOnce(const Options& opt, bool tpcc) {
  engine::EngineConfig config = engine::EngineConfig::For(opt.mode);
  config.trace.enabled = true;   // carries the outlier export
  config.flight.enabled = true;
  config.profile.enabled = true;

  sim::Simulator sim;
  sim.SeedRng(opt.seed);
  engine::Engine engine(&sim, config);
  workload::DriverConfig dcfg;
  dcfg.clients = opt.clients;
  dcfg.warmup_txns = opt.warmup;
  dcfg.measured_txns = opt.txns;

  std::unique_ptr<workload::TatpWorkload> tatp;
  std::unique_ptr<workload::TpccWorkload> tpcc_wl;
  if (tpcc) {
    workload::TpccConfig wcfg;
    tpcc_wl = std::make_unique<workload::TpccWorkload>(&engine, wcfg);
    BIONICDB_CHECK(tpcc_wl->Load().ok());
    sim.Spawn(workload::RunClosedLoop(
        &engine, [&]() { return tpcc_wl->NextTransaction(); }, dcfg,
        nullptr));
  } else {
    workload::TatpConfig wcfg;
    wcfg.subscribers = opt.subscribers;
    tatp = std::make_unique<workload::TatpWorkload>(&engine, wcfg);
    BIONICDB_CHECK(tatp->Load().ok());
    sim.Spawn(workload::RunClosedLoop(
        &engine, [&]() { return tatp->NextTransaction(); }, dcfg, nullptr));
  }
  sim.Run();

  obs::FlightRecorder* fr = engine.flight_recorder();
  BIONICDB_CHECK(fr != nullptr);
  TailOutput out;
  out.attribution = fr->MakeTailReport().ToTable();
  out.profile = engine.profiler()->ToTable();
  // Outlier-only trace: drop the run's spans, keep the interned tracks,
  // and emit just the retained slowest transactions as stage waterfalls.
  obs::Tracer* tracer = engine.tracer();
  tracer->Clear();
  fr->ExportOutliers(tracer);
  out.outlier_json = tracer->ExportChromeTrace();
  out.commits = engine.metrics().commits;
  return out;
}

/// Runs one workload twice, requires byte-identical reports (the whole
/// attribution pipeline is keyed to virtual time), prints them, and writes
/// the outlier trace. Returns the number of failures.
int RunTailWorkload(const Options& opt, bool tpcc, const char* label,
                    const char* outlier_path) {
  int failures = 0;
  TailOutput first = RunTailOnce(opt, tpcc);
  TailOutput second = RunTailOnce(opt, tpcc);
  if (first.attribution != second.attribution ||
      first.profile != second.profile ||
      first.outlier_json != second.outlier_json) {
    std::fprintf(stderr,
                 "FAIL: %s tail report not deterministic across re-runs "
                 "(seed %llu)\n",
                 label, static_cast<unsigned long long>(opt.seed));
    ++failures;
  }
  std::printf("== %s: stage attribution, p50 cohort vs p99.9 tail "
              "(%llu commits) ==\n%s\n",
              label, static_cast<unsigned long long>(first.commits),
              first.attribution.c_str());
  std::printf("== %s: time-in-state profiles ==\n%s\n", label,
              first.profile.c_str());
  std::FILE* f = std::fopen(outlier_path, "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", outlier_path);
    return failures + 1;
  }
  std::fwrite(first.outlier_json.data(), 1, first.outlier_json.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu bytes, slowest-txn waterfalls)\n\n",
              outlier_path, first.outlier_json.size());
  return failures;
}

/// Minimal structural check: balanced {} and [] outside of strings, legal
/// escape handling, and the expected envelope. Not a full JSON parser —
/// enough to catch the classes of bug an exporter actually has (unescaped
/// quotes, truncation, missing commas don't unbalance, but broken nesting
/// and dangling strings do).
bool CheckJsonStructure(const std::string& s, std::string* err) {
  int depth_obj = 0, depth_arr = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth_obj; break;
      case '}': --depth_obj; break;
      case '[': ++depth_arr; break;
      case ']': --depth_arr; break;
      default: break;
    }
    if (depth_obj < 0 || depth_arr < 0) {
      *err = "unbalanced close bracket";
      return false;
    }
  }
  if (in_string) { *err = "unterminated string"; return false; }
  if (depth_obj != 0 || depth_arr != 0) { *err = "unbalanced brackets"; return false; }
  if (s.rfind("{\"displayTimeUnit\"", 0) != 0) {
    *err = "missing trace envelope";
    return false;
  }
  if (s.find("\"traceEvents\"") == std::string::npos) {
    *err = "missing traceEvents array";
    return false;
  }
  return true;
}

bool HasTrackWithPrefix(const std::vector<std::string>& tracks,
                        const char* prefix) {
  for (const std::string& t : tracks) {
    if (t.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

int Validate(const Options& opt, const RunOutput& first) {
  int failures = 0;
  std::string err;
  if (!CheckJsonStructure(first.json, &err)) {
    std::fprintf(stderr, "FAIL: JSON structure: %s\n", err.c_str());
    ++failures;
  }

  // Layer coverage: every layer this mode exercises must have a track with
  // at least one span on it (tracks are only registered by live components,
  // and an instrumented component that never ran still shows up — so also
  // require events were recorded at all).
  std::vector<const char*> required = {"sim/", "engine/", "wal/"};
  if (opt.mode != engine::EngineMode::kConventional) {
    required.push_back("dora/");
  }
  if (opt.mode == engine::EngineMode::kBionic) required.push_back("hw/");
  for (const char* prefix : required) {
    if (!HasTrackWithPrefix(first.tracks, prefix)) {
      std::fprintf(stderr, "FAIL: no trace track with prefix \"%s\"\n", prefix);
      ++failures;
    }
  }
  if (first.events == 0) {
    std::fprintf(stderr, "FAIL: no trace events recorded\n");
    ++failures;
  }
  if (first.commits == 0) {
    std::fprintf(stderr, "FAIL: workload committed nothing\n");
    ++failures;
  }
  // Dropped events are a warning, not a failure: the trace is still valid
  // JSON, but timelines have holes — grow TraceConfig::ring_capacity.
  if (first.dropped != 0) {
    std::fprintf(stderr,
                 "WARN: obs.trace.dropped = %llu — the bounded ring dropped "
                 "events; the exported timeline is incomplete\n",
                 static_cast<unsigned long long>(first.dropped));
  }

  // Determinism: the tracer is keyed to virtual time, so the same seed must
  // reproduce the export byte for byte.
  RunOutput second = RunOnce(opt);
  if (second.json != first.json) {
    std::fprintf(stderr,
                 "FAIL: re-run with seed %llu produced a different trace "
                 "(%zu vs %zu bytes)\n",
                 static_cast<unsigned long long>(opt.seed), first.json.size(),
                 second.json.size());
    ++failures;
  }

  if (failures == 0) {
    std::printf("validate: OK (json structure, %zu tracks across %zu layers, "
                "deterministic re-run)\n",
                first.tracks.size(), required.size());
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    Usage(argv[0]);
    return 2;
  }

  if (opt.tail) {
    int failures = 0;
    failures += RunTailWorkload(opt, /*tpcc=*/false, "TATP",
                                "flight_tatp.json");
    failures += RunTailWorkload(opt, /*tpcc=*/true, "TPC-C",
                                "flight_tpcc.json");
    if (failures != 0) {
      std::fprintf(stderr, "tail: %d check(s) failed\n", failures);
      return 1;
    }
    return 0;
  }

  RunOutput run = RunOnce(opt);
  std::printf("mode=%s commits=%llu events=%llu dropped=%llu tracks=%zu\n",
              engine::EngineModeArg(opt.mode),
              static_cast<unsigned long long>(run.commits),
              static_cast<unsigned long long>(run.events),
              static_cast<unsigned long long>(run.dropped), run.tracks.size());

  std::FILE* f = std::fopen(opt.out.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", opt.out.c_str());
    return 1;
  }
  std::fwrite(run.json.data(), 1, run.json.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu bytes)\n", opt.out.c_str(), run.json.size());

  if (opt.validate) {
    const int failures = Validate(opt, run);
    if (failures != 0) {
      std::fprintf(stderr, "validate: %d check(s) failed\n", failures);
      return 1;
    }
  }
  return 0;
}
