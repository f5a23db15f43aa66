// Benchmark runner: one workload, one measured run, in this process.
//
//   perfbench_runner --workload <tatp_shard4|tpcc_bionic|tatp_threaded>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--spans <file>] [--max-extra-seconds <s>]
//                    [--setup-only <0|1>]
//
// The clients live here, not in the library drivers: each is a closed loop
// that draws a spec from a public generator (ShardedTatp, TpccWorkload,
// TatpWorkload::NextTransaction), calls the public Execute of the system
// under test (shard::Cluster, engine::Engine, exec::ThreadedBackend), and
// times the request from its first attempt to its final status, retries and
// backoff included. Throughput counts requests the clients saw commit.
//
// Simulated workloads measure a fixed stretch of virtual time after a fixed
// warmup. Every metric covers the requests that complete inside it, so all
// but the host-time ones are exact for a seed. tatp_threaded measures
// --seconds of host time in 100 ms slices, longer while the hypervisor
// steals the vCPUs.
//
// --trace 1 turns on the engine's passive flight recorder, the allocation
// counter and this file's span log; --trace 0 runs with all three off.
// --setup-only 1 stops at the first measured request and reports only the
// set-up times.
//
// Output: "progress attempted=<n>" lines while measuring, then one JSON
// object as the last line (see perfbench/README.md for its fields). A
// tatp_threaded run whose clients stay stuck inside Execute exits with
// kExitStuck instead.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/engine.h"
#include "exec/threaded.h"
#include "shard/cluster.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "workload/sharded_tatp.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using bionicdb::SimTime;
using bionicdb::Slice;
using bionicdb::Status;
namespace dora = bionicdb::dora;
namespace engine = bionicdb::engine;
namespace exec = bionicdb::exec;
namespace hw = bionicdb::hw;
namespace obs = bionicdb::obs;
namespace shard = bionicdb::shard;
namespace sim = bionicdb::sim;
namespace workload = bionicdb::workload;

// ------------------------------------------------------ allocation count --
// Counted only while g_count_allocs is set (traced runs); untraced runs pay
// one predictable branch per allocation.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};
thread_local uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t n, std::size_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    ++t_allocs;
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n ? n : 1)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) std::abort();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n) { return CountedAlloc(n, 0); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

// ------------------------------------------------------------ host clock --

using Clock = std::chrono::steady_clock;
const Clock::time_point g_process_start = Clock::now();

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - g_process_start)
      .count();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Exact nearest-rank percentile of raw samples (sorted in place).
int64_t Percentile(std::vector<int64_t>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const size_t n = samples->size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return (*samples)[rank - 1];
}

double Mean(const std::vector<int64_t>& samples) {
  double sum = 0.0;
  for (int64_t v : samples) sum += static_cast<double>(v);
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ----------------------------------------------------------------- spans --
// The benchmark's own spans: set-up phases and, per request, the request,
// its generator call and each Execute attempt. Kept in memory while the
// run lasts and written out at exit (one binary record per span).

enum SpanName : uint16_t {
  kSpanSetup = 0,
  kSpanConstruct,
  kSpanLoad,
  kSpanWarmup,
  kSpanRequest,
  kSpanNext,
  kSpanExecute,
  kNumSpanNames
};
const char* const kSpanNames[kNumSpanNames] = {
    "setup",   "setup.construct", "setup.load",    "setup.warmup",
    "request", "workload.next",   "engine.execute"};

constexpr uint32_t kNoParent = 0xffffffffu;

struct Span {
  uint64_t request = 0;  ///< Shared by every span of one request; 0 = set-up.
  uint32_t parent = kNoParent;
  uint16_t name = 0;
  uint16_t pad = 0;
  int64_t host_start = 0, host_end = 0;  ///< ns since process start.
  int64_t virt_start = -1, virt_end = -1;  ///< Virtual ns; -1 = none.
};

class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void Enable(size_t reserve) {
    enabled_ = true;
    spans_.reserve(reserve);
  }

  /// Opens a span; returns its index (the id children use as parent).
  uint32_t Begin(SpanName name, uint64_t request, uint32_t parent,
                 int64_t virt_start = -1) {
    std::lock_guard<std::mutex> lk(mu_);
    Span s;
    s.request = request;
    s.parent = parent;
    s.name = name;
    s.host_start = HostNs();
    s.virt_start = virt_start;
    spans_.push_back(s);
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t id, int64_t virt_end = -1) {
    const int64_t now = HostNs();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[id].host_end = now;
    spans_[id].virt_end = virt_end;
  }

  /// Binary dump: a one-line JSON header naming the record layout, then the
  /// raw records.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"format\":\"perfbench-spans-1\",\"count\":%zu,"
                 "\"record_bytes\":%zu,\"fields\":[\"request:u64\","
                 "\"parent:u32\",\"name:u16\",\"pad:u16\",\"host_start_ns:i64\","
                 "\"host_end_ns:i64\",\"virt_start_ns:i64\",\"virt_end_ns:i64\"],"
                 "\"names\":[",
                 spans_.size(), sizeof(Span));
    for (int i = 0; i < kNumSpanNames; ++i) {
      std::fprintf(f, "%s\"%s\"", i ? "," : "", kSpanNames[i]);
    }
    std::fprintf(f, "]}\n");
    const size_t n = std::fwrite(spans_.data(), sizeof(Span), spans_.size(), f);
    return std::fclose(f) == 0 && n == spans_.size();
  }

  size_t size() const { return spans_.size(); }

 private:
  bool enabled_ = false;
  std::mutex mu_;  // threaded clients share the log
  std::vector<Span> spans_;
};

SpanLog g_spans;

/// Scoped set-up span (no-op when tracing is off).
class SetupSpan {
 public:
  SetupSpan(SpanName name, uint32_t parent)
      : id_(g_spans.enabled() ? g_spans.Begin(name, 0, parent) : kNoParent) {}
  ~SetupSpan() { End(); }
  uint32_t id() const { return id_; }

  /// Closes the span before its scope ends (idempotent).
  void End() {
    if (id_ != kNoParent && open_) g_spans.End(id_);
    open_ = false;
  }

 private:
  uint32_t id_;
  bool open_ = true;
};

// ---------------------------------------------------------------- result --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  /// How far tatp_threaded may run past --seconds to collect clean slices.
  double max_extra_s = 50.0;
  bool setup_only = false;
};

struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, uint64_t> samples;
  std::map<std::string, bool> checks;
  /// Exact virtual-time outputs (simulated workloads): the traced run must
  /// reproduce every one bit for bit.
  std::map<std::string, double> exact;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double host_seconds = 0.0;  ///< Host length of the measured window.
};

/// JSON number; non-finite values (never expected) print as null.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename Map, typename Fmt>
std::string JsonObject(const Map& m, Fmt fmt) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += "\"" + k + "\":" + fmt(v);
  }
  return out + "}";
}

void PrintResult(const Result& r, const Args& args) {
  char head[512];
  std::snprintf(head, sizeof(head),
                "{\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"trace\":%d,\"seconds\":%s,\"host_cores\":%u,"
                "\"build_type\":\"%s\",\"attempted\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"host_seconds\":%s",
                args.workload.c_str(), args.seed, args.trace ? 1 : 0,
                Num(args.seconds).c_str(), std::thread::hardware_concurrency(),
                PERFBENCH_BUILD_TYPE, r.attempted, r.failed,
                Num(r.host_seconds).c_str());
  const std::string out =
      std::string(head) + ",\"metrics\":" + JsonObject(r.metrics, Num) +
      ",\"exact\":" + JsonObject(r.exact, Num) + ",\"samples\":" +
      JsonObject(r.samples,
                 [](uint64_t v) { return std::to_string(v); }) +
      ",\"checks\":" +
      JsonObject(r.checks,
                 [](bool v) { return std::string(v ? "true" : "false"); }) +
      "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void Progress(uint64_t attempted) {
  std::printf("progress attempted=%" PRIu64 "\n", attempted);
  std::fflush(stdout);
}

/// Set-up phase durations; total_ns runs from the process's start to its
/// first measured request.
struct SetupTimes {
  int64_t construct_ns = 0, load_ns = 0, warmup_ns = 0, total_ns = 0;

  void Report(Result* r) const {
    r->metrics["setup_s"] = static_cast<double>(total_ns) * 1e-9;
    r->metrics["setup.construct_s"] = static_cast<double>(construct_ns) * 1e-9;
    r->metrics["setup.load_s"] = static_cast<double>(load_ns) * 1e-9;
    r->metrics["setup.warmup_s"] = static_cast<double>(warmup_ns) * 1e-9;
  }
};

/// Ends a --setup-only run once its set-up is timed: prints the set-up
/// metrics and leaves without tearing down the target, whose clients are
/// still running.
[[noreturn]] void ExitAfterSetup(const SetupTimes& t, const Args& args) {
  Result r;
  t.Report(&r);
  PrintResult(r, args);
  std::_Exit(0);
}

// ------------------------------------------------------- layer counters --
// Cumulative counters read from each engine's public stats; the window
// value of each is (close - open).

struct LayerCounters {
  uint64_t dora_executed = 0, dora_reparks = 0, dora_conflicts = 0,
           dora_wait_die = 0;
  uint64_t idx_probes = 0, idx_visits = 0, idx_splits = 0;
  uint64_t bpool_hits = 0, bpool_misses = 0;
  uint64_t ov_hits = 0, ov_misses = 0, ov_installs = 0;
  uint64_t wal_appends = 0, wal_bytes = 0, wal_flushes = 0;
  uint64_t pcie_bytes = 0;
  uint64_t branch_commits = 0;
  uint64_t events = 0;

  static void AddIndex(const bionicdb::index::BTree& t, LayerCounters* c) {
    c->idx_probes += t.stats().probes;
    c->idx_visits += t.stats().node_visits;
    c->idx_splits += t.stats().splits;
  }

  void AddEngine(engine::Engine& e,
                 const std::vector<std::string>& secondaries) {
    if (dora::Executor* ex = e.executor()) {
      dora_executed += ex->stats().executed;
      dora_reparks += ex->stats().reparks;
      for (int p = 0; p < ex->num_partitions(); ++p) {
        const auto& ps = ex->partition(static_cast<uint32_t>(p))->stats();
        dora_conflicts += ps.lock_conflicts;
        dora_wait_die += ps.wait_die_aborts;
      }
    }
    for (uint32_t id = 0; id < e.db().num_tables(); ++id) {
      engine::Table* t = e.db().GetTable(id);
      AddIndex(t->primary(), this);
      for (const std::string& name : secondaries) {
        if (auto* s = t->secondary(name)) AddIndex(*s, this);
      }
      if (engine::Overlay* ov = t->overlay()) {
        AddIndex(ov->index(), this);
        ov_hits += ov->stats().hits;
        ov_misses += ov->stats().misses;
        ov_installs += ov->stats().installs;
      }
    }
    if (e.buffer_pool() != nullptr) {
      bpool_hits += e.buffer_pool()->stats().hits;
      bpool_misses += e.buffer_pool()->stats().misses;
    }
    wal_appends += e.log()->stats().appends;
    wal_bytes += e.log()->stats().bytes_appended;
    wal_flushes += e.log()->stats().flushes;
    pcie_bytes += e.platform().pcie().bytes_transferred();
    branch_commits += e.metrics().commits;
  }

  LayerCounters Minus(const LayerCounters& b) const {
    LayerCounters d;
    d.dora_executed = dora_executed - b.dora_executed;
    d.dora_reparks = dora_reparks - b.dora_reparks;
    d.dora_conflicts = dora_conflicts - b.dora_conflicts;
    d.dora_wait_die = dora_wait_die - b.dora_wait_die;
    d.idx_probes = idx_probes - b.idx_probes;
    d.idx_visits = idx_visits - b.idx_visits;
    d.idx_splits = idx_splits - b.idx_splits;
    d.bpool_hits = bpool_hits - b.bpool_hits;
    d.bpool_misses = bpool_misses - b.bpool_misses;
    d.ov_hits = ov_hits - b.ov_hits;
    d.ov_misses = ov_misses - b.ov_misses;
    d.ov_installs = ov_installs - b.ov_installs;
    d.wal_appends = wal_appends - b.wal_appends;
    d.wal_bytes = wal_bytes - b.wal_bytes;
    d.wal_flushes = wal_flushes - b.wal_flushes;
    d.pcie_bytes = pcie_bytes - b.pcie_bytes;
    d.branch_commits = branch_commits - b.branch_commits;
    d.events = events - b.events;
    return d;
  }
};

/// index.* and storage.* over a window delta, per committed request.
void AddIndexStorageMetrics(const LayerCounters& d, double commits,
                            std::map<std::string, double>* m) {
  (*m)["index.probes_per_txn"] =
      Ratio(static_cast<double>(d.idx_probes), commits);
  (*m)["index.visits_per_probe"] = Ratio(static_cast<double>(d.idx_visits),
                                         static_cast<double>(d.idx_probes));
  (*m)["index.splits_per_txn"] =
      Ratio(static_cast<double>(d.idx_splits), commits);
  (*m)["storage.bpool_hit_ratio"] =
      Ratio(static_cast<double>(d.bpool_hits),
            static_cast<double>(d.bpool_hits + d.bpool_misses));
  (*m)["storage.overlay_hit_ratio"] =
      Ratio(static_cast<double>(d.ov_hits),
            static_cast<double>(d.ov_hits + d.ov_misses));
  (*m)["storage.overlay_installs_per_txn"] =
      Ratio(static_cast<double>(d.ov_installs), commits);
}

// ------------------------------------------------------------ parameters --

/// Client retry policy: linear backoff with jitter, as the library drivers
/// do. The cap is far above any retry chain seen on these workloads; the
/// pinned wait-die priority makes a retried request older each time, so it
/// eventually wins every conflict.
constexpr int kMaxRetries = 1000;
constexpr int64_t kRetryBackoffNs = 20000;

// ====================================================== simulated runs ====

/// Measurement state shared by the simulated clients, the window task and
/// the host loop. Single-threaded (the simulator's thread).
struct SimLoop {
  explicit SimLoop(sim::Simulator* s) : sim(s), clients_done(s) {}

  sim::Simulator* sim;
  int clients = 0;
  int live_clients = 0;
  sim::Completion clients_done;
  bool trace = false;

  // Flipped by the window task, in virtual time.
  bool open = false;    ///< Inside the measured window.
  bool closed = false;  ///< The window has ended; clients issue no more.

  uint64_t next_request = 0;
  // Measured requests: started inside the window.
  uint64_t started = 0, finished = 0, gave_up = 0, errors = 0;
  // Completions inside the window.
  uint64_t commits = 0, attempts = 0;
  int64_t backoff_ns = 0;
  std::vector<int64_t> latency;
  // Generator cost inside the window (traced runs).
  int64_t gen_ns = 0;
  uint64_t gen_calls = 0, gen_allocs = 0;

  // Window boundaries on the host side.
  int64_t host_open_ns = 0, host_close_ns = 0;
  uint64_t allocs = 0, alloc_bytes = 0;

  std::vector<engine::Engine*> engines;
  std::vector<std::string> secondaries;
  LayerCounters open_counters, close_counters;
  // Read at window close (after FinishRun).
  double joules = 0.0;
  double cpu_util = 0.0;
  hw::Breakdown breakdown;
  /// Per-stage virtual ns of the flight recorder's deterministic sample of
  /// the window's transactions (traced runs).
  std::array<std::vector<int64_t>, obs::kNumStages> stage;

  LayerCounters ReadCounters() const {
    LayerCounters c;
    for (engine::Engine* e : engines) c.AddEngine(*e, secondaries);
    c.events = sim->events_processed();
    return c;
  }

  void Complete(bool measured, SimTime v0, const Status& st, int n_attempts,
                int64_t backoff) {
    const bool ok = st.ok();
    if (measured) {
      ++finished;
      if (st.IsAborted()) {
        ++gave_up;
      } else if (!ok) {
        ++errors;
      }
    }
    if (!open) return;
    attempts += static_cast<uint64_t>(n_attempts);
    backoff_ns += backoff;
    if (ok) ++commits;
    // A failed request misses every latency limit.
    latency.push_back(ok ? sim->Now() - v0
                         : std::numeric_limits<int64_t>::max());
  }
};

/// One closed-loop virtual client.
template <typename Target>
sim::Task<void> SimClient(Target* target, SimLoop* L, int socket) {
  sim::Simulator* sim = L->sim;
  while (!L->closed) {
    const bool measured = L->open;
    const uint64_t request = ++L->next_request;
    if (measured) ++L->started;
    uint32_t req_span = kNoParent;
    uint32_t next_span = kNoParent;
    int64_t g0 = 0;
    uint64_t a0 = 0;
    if (L->trace) {
      req_span = g_spans.Begin(kSpanRequest, request, kNoParent, sim->Now());
      next_span = g_spans.Begin(kSpanNext, request, req_span, sim->Now());
      g0 = HostNs();
      a0 = t_allocs;
    }
    typename Target::Txn txn = target->Next();
    if (L->trace) {
      if (measured) {
        L->gen_ns += HostNs() - g0;
        L->gen_allocs += t_allocs - a0;
        ++L->gen_calls;
      }
      g_spans.End(next_span, sim->Now());
    }
    const SimTime v0 = sim->Now();
    Status st;
    uint64_t priority = 0;  // pinned across retries so the request ages
    int attempts = 0;
    int64_t backoff = 0;
    for (;;) {
      typename Target::Txn copy = txn;
      ++attempts;
      const uint32_t exec_span =
          L->trace ? g_spans.Begin(kSpanExecute, request, req_span, sim->Now())
                   : kNoParent;
      st = co_await target->Execute(std::move(copy), socket, &priority);
      if (L->trace) g_spans.End(exec_span, sim->Now());
      if (!st.IsAborted() || attempts > kMaxRetries) break;
      const SimTime d =
          kRetryBackoffNs * attempts +
          static_cast<SimTime>(sim->rng().Uniform(kRetryBackoffNs));
      backoff += d;
      co_await sim::Delay{sim, d};
    }
    if (L->trace) g_spans.End(req_span, sim->Now());
    L->Complete(measured, v0, st, attempts, backoff);
  }
  if (--L->live_clients == 0) L->clients_done.Set();
}

/// Opens the measured window after the warmup and closes it `window_ns`
/// later. Apart from its two timer events it only reads state, so it never
/// perturbs the schedule.
template <typename Target>
sim::Task<void> SimWindow(Target* target, SimLoop* L, SimTime warmup_ns,
                          SimTime window_ns) {
  co_await sim::Delay{L->sim, warmup_ns};
  target->ResetStats();
  L->open_counters = L->ReadCounters();
  const uint64_t allocs0 = g_allocs.load();
  const uint64_t alloc_bytes0 = g_alloc_bytes.load();
  if (L->trace) g_count_allocs.store(true);
  L->host_open_ns = HostNs();
  L->open = true;
  co_await sim::Delay{L->sim, window_ns};
  L->host_close_ns = HostNs();
  g_count_allocs.store(false);
  L->allocs = g_allocs.load() - allocs0;
  L->alloc_bytes = g_alloc_bytes.load() - alloc_bytes0;
  L->open = false;
  L->closed = true;
  target->FinishRun();
  L->close_counters = L->ReadCounters();
  for (engine::Engine* e : L->engines) {
    L->joules += e->metrics().joules;
    L->cpu_util += e->platform().TotalCpuUtilization(e->metrics().elapsed_ns) /
                   static_cast<double>(L->engines.size());
    for (int c = 0; c < hw::kNumComponents; ++c) {
      const auto comp = static_cast<hw::Component>(c);
      L->breakdown.Charge(comp, e->breakdown().ns(comp));
    }
    if (obs::FlightRecorder* fr = e->flight_recorder()) {
      for (const obs::TxnTimeline& tl : fr->Sampled()) {
        for (size_t s = 0; s < L->stage.size(); ++s) {
          L->stage[s].push_back(tl.stage_ns[s]);
        }
      }
    }
  }
}

/// Boots the target, spawns the clients and the window task, and shuts the
/// target down once every client has exited.
template <typename Target>
sim::Task<void> SimBoot(Target* target, SimLoop* L, SimTime warmup_ns,
                        SimTime window_ns) {
  target->Start();
  co_await target->Preheat();
  L->live_clients = L->clients;
  for (int c = 0; c < L->clients; ++c) {
    L->sim->Spawn(SimClient(target, L, 0));
  }
  L->sim->Spawn(SimWindow(target, L, warmup_ns, window_ns));
  co_await L->clients_done.Wait();
  co_await target->Shutdown();
}

struct SimParams {
  int clients = 0;
  SimTime warmup_ns = 0;
  /// Virtual length of the measured window per host second asked for:
  /// sized so a window takes about --seconds on a 4-core x86 host.
  SimTime window_ns_per_host_s = 0;
  SimTime slice_ns = 0;  ///< Host-throughput sub-window, virtual.
};

/// Sets up a simulated target (construct, load, boot, preheat, warmup) and
/// measures it. A Target supplies: Txn, Load(), Next(), Execute(), Start(),
/// Preheat(), Shutdown(), ResetStats(), FinishRun(), engines(),
/// secondaries() and Check(Result*, commits).
template <typename Target>
Result RunSimulated(const Args& args, const SimParams& p) {
  Result r;
  const SimTime window_ns = static_cast<SimTime>(
      args.seconds * static_cast<double>(p.window_ns_per_host_s));
  SetupTimes setup_times;
  SetupSpan setup(kSpanSetup, kNoParent);
  int64_t t0 = HostNs();
  auto sim = std::make_unique<sim::Simulator>();
  sim->SeedRng(args.seed);
  std::unique_ptr<Target> target;
  {
    SetupSpan s(kSpanConstruct, setup.id());
    target = std::make_unique<Target>(sim.get(), args.seed, args.trace);
  }
  setup_times.construct_ns = HostNs() - t0;
  t0 = HostNs();
  {
    SetupSpan s(kSpanLoad, setup.id());
    BIONICDB_CHECK(target->Load().ok());
  }
  setup_times.load_ns = HostNs() - t0;

  SimLoop L(sim.get());
  L.clients = p.clients;
  L.trace = args.trace;
  L.engines = target->engines();
  L.secondaries = target->secondaries();
  t0 = HostNs();
  sim->Spawn(SimBoot(target.get(), &L, p.warmup_ns, window_ns));
  {
    SetupSpan s(kSpanWarmup, setup.id());
    while (!L.open) sim->RunUntil(sim->Now() + p.slice_ns);
  }
  setup.End();
  setup_times.warmup_ns = L.host_open_ns - t0;
  setup_times.total_ns = L.host_open_ns;
  if (args.setup_only) ExitAfterSetup(setup_times, args);

  // ---- measured window ----
  L.latency.reserve(static_cast<size_t>(args.seconds * 2e6));
  std::vector<double> slice_rates;
  int64_t prev_host = L.host_open_ns;
  uint64_t prev_commits = 0;
  int64_t next_progress = prev_host + 1000000000;
  while (!L.closed) {
    sim->RunUntil(sim->Now() + p.slice_ns);
    if (L.closed) break;  // partial last slice
    const int64_t now = HostNs();
    slice_rates.push_back(Ratio(static_cast<double>(L.commits - prev_commits),
                                (now - prev_host) * 1e-9));
    prev_host = now;
    prev_commits = L.commits;
    if (now >= next_progress) {
      Progress(L.started);
      next_progress = now + 1000000000;
    }
  }
  r.metrics["peak_rss_mb"] = PeakRssMb();
  sim->Run();  // drain: every in-flight request reaches its final status

  // ---- end-to-end (exact for a seed, apart from host time) ----
  const double vsec = static_cast<double>(window_ns) * 1e-9;
  const double host_s = (L.host_close_ns - L.host_open_ns) * 1e-9;
  const double commits = static_cast<double>(L.commits);
  auto& m = r.metrics;
  m["txn_per_s"] = commits / vsec;
  m["mean_us"] = Mean(L.latency) * 1e-3;
  m["p99_us"] = Percentile(&L.latency, 99.0) * 1e-3;
  m["latency.p50_us"] = Percentile(&L.latency, 50.0) * 1e-3;
  m["latency.p999_us"] = Percentile(&L.latency, 99.9) * 1e-3;
  m["hw.uj_per_txn"] = Ratio(L.joules * 1e6, commits);
  m["host.txn_per_s"] = Median(slice_rates);
  m["txn.fail_ratio"] = Ratio(static_cast<double>(L.gave_up + L.errors),
                              static_cast<double>(L.started));
  r.samples["latency"] = L.latency.size();
  r.samples["commits"] = L.commits;
  r.samples["host_slices"] = slice_rates.size();
  r.host_seconds = host_s;

  // ---- per layer (all but the host-time ones exact for a seed) ----
  const LayerCounters d = L.close_counters.Minus(L.open_counters);
  m["workload.gen_ns_per_txn"] = Ratio(static_cast<double>(L.gen_ns),
                                       static_cast<double>(L.gen_calls));
  m["workload.gen_allocs_per_txn"] = Ratio(
      static_cast<double>(L.gen_allocs), static_cast<double>(L.gen_calls));
  m["sim.events_per_txn"] = Ratio(static_cast<double>(d.events), commits);
  m["sim.host_ns_per_event"] =
      Ratio(host_s * 1e9, static_cast<double>(d.events));
  m["host.allocs_per_txn"] = Ratio(static_cast<double>(L.allocs), commits);
  m["host.alloc_bytes_per_txn"] =
      Ratio(static_cast<double>(L.alloc_bytes), commits);
  m["txn.commit_ratio"] = Ratio(commits, static_cast<double>(L.attempts));
  m["txn.backoff_us_per_txn"] =
      Ratio(static_cast<double>(L.backoff_ns) * 1e-3, commits);
  m["dora.actions_per_txn"] =
      Ratio(static_cast<double>(d.dora_executed), commits);
  m["dora.reparks_per_txn"] =
      Ratio(static_cast<double>(d.dora_reparks), commits);
  m["dora.lock_conflicts_per_txn"] =
      Ratio(static_cast<double>(d.dora_conflicts), commits);
  m["dora.wait_die_per_txn"] =
      Ratio(static_cast<double>(d.dora_wait_die), commits);
  AddIndexStorageMetrics(d, commits, &m);
  m["wal.appends_per_txn"] =
      Ratio(static_cast<double>(d.wal_appends), commits);
  m["wal.bytes_per_txn"] = Ratio(static_cast<double>(d.wal_bytes), commits);
  m["wal.appends_per_flush"] = Ratio(static_cast<double>(d.wal_appends),
                                     static_cast<double>(d.wal_flushes));
  for (int c = 0; c < hw::kNumComponents; ++c) {
    const auto comp = static_cast<hw::Component>(c);
    m[std::string("hw.") + hw::ComponentKey(comp) + "_ns_per_txn"] =
        Ratio(static_cast<double>(L.breakdown.ns(comp)), commits);
  }
  m["hw.cpu_utilization"] = L.cpu_util;
  m["hw.pcie_bytes_per_txn"] =
      Ratio(static_cast<double>(d.pcie_bytes), commits);
  m["shard.branch_commits_per_txn"] =
      Ratio(static_cast<double>(d.branch_commits), commits);
  for (int s = 0; s < obs::kNumStages; ++s) {
    const std::string key =
        std::string("obs.") + obs::StageKey(static_cast<obs::Stage>(s));
    std::vector<int64_t>* v = &L.stage[static_cast<size_t>(s)];
    m[key + "_p50_us"] = Percentile(v, 50.0) * 1e-3;
    m[key + "_p999_us"] = Percentile(v, 99.9) * 1e-3;
  }
  if (L.trace) r.samples["stage"] = L.stage[0].size();
  setup_times.Report(&r);
  target->Check(&r, commits);
  // Everything computed from virtual time and counts alone: a traced run
  // of the same seed must reproduce each bit for bit.
  for (const auto& [k, v] : m) {
    if (k.rfind("host.", 0) == 0 || k.rfind("setup", 0) == 0 ||
        k.rfind("workload.", 0) == 0 || k.rfind("obs.", 0) == 0 ||
        k == "sim.host_ns_per_event" || k == "peak_rss_mb") {
      continue;
    }
    r.exact[k] = v;
  }

  // ---- output checks ----
  r.checks["every_request_final"] =
      L.finished == L.started && L.live_clients == 0;
  r.checks["window_committed"] = L.commits > 0;
  r.attempted = L.started;
  r.failed = L.gave_up + L.errors;
  return r;
}

/// The traced run's flight recorder keeps a deterministic 1-in-N sample of
/// whole timelines, from which obs.<stage> percentiles are computed
/// exactly (its own per-stage histograms are log-bucketed).
obs::FlightConfig FlightConfig(bool trace, uint64_t sample_every) {
  obs::FlightConfig f;
  f.enabled = trace;
  f.sample_every = sample_every;
  f.sample_capacity = size_t{1} << 16;
  return f;
}

// ------------------------------------------------------------ tatp_shard4 --

/// A 4-shard DORA cluster on paged storage running the TATP mix with 5%
/// two-shard write pairs (2PC) and 5% two-shard read pairs (snapshot reads).
struct ShardTarget {
  using Txn = shard::ShardedTxn;
  static constexpr uint64_t kSubscribers = 200000;

  ShardTarget(sim::Simulator* sim, uint64_t seed, bool trace) {
    shard::ClusterConfig cc;
    cc.num_shards = 4;
    cc.engine = engine::EngineConfig::Dora();
    cc.engine.flight = FlightConfig(trace, /*sample_every=*/4);
    cluster = std::make_unique<shard::Cluster>(sim, cc);
    workload::ShardedTatpConfig wc;
    wc.subscribers = kSubscribers;
    wc.seed = seed;
    wc.cross_shard_ratio = 0.05;
    wc.cross_read_ratio = 0.05;
    tatp = std::make_unique<workload::ShardedTatp>(cluster.get(), wc);
  }

  Status Load() { return tatp->Load(); }
  Txn Next() { return tatp->NextTransaction(); }
  sim::Task<Status> Execute(Txn txn, int socket, uint64_t* priority) {
    return cluster->Execute(std::move(txn), socket, priority);
  }
  void Start() { cluster->Start(); }
  sim::Task<void> Preheat() { return cluster->PreheatBufferPools(); }
  sim::Task<void> Shutdown() { return cluster->Shutdown(); }
  /// Cluster::ResetStats zeroes the 2PC counters; what ran before the
  /// window is kept in tpc_pre/snap_pre so the accounting check covers the
  /// whole run.
  void ResetStats() {
    tpc_pre = cluster->tpc_stats();
    snap_pre = cluster->snap_stats();
    cluster->ResetStats();
    tpc_open = cluster->tpc_stats();
    snap_open = cluster->snap_stats();
  }
  void FinishRun() {
    cluster->FinishRun();
    tpc_close = cluster->tpc_stats();
    snap_close = cluster->snap_stats();
  }
  std::vector<engine::Engine*> engines() {
    std::vector<engine::Engine*> out;
    for (int i = 0; i < cluster->num_shards(); ++i) {
      out.push_back(cluster->shard(i));
    }
    return out;
  }
  std::vector<std::string> secondaries() const { return {"sub_nbr"}; }

  void Check(Result* r, double commits) {
    const shard::TwoPhaseCommitStats& t = cluster->tpc_stats();
    r->checks["tpc_started_eq_committed_plus_aborted"] =
        tpc_pre.started + t.started ==
            tpc_pre.committed + t.committed + tpc_pre.aborted + t.aborted &&
        t.started > 0;
    const shard::SnapshotReadStats& s = cluster->snap_stats();
    r->checks["snap_started_eq_committed_plus_aborted"] =
        snap_pre.started + s.started ==
            snap_pre.committed + s.committed + snap_pre.aborted + s.aborted &&
        s.started > 0;
    const double tpc = static_cast<double>(tpc_close.started - tpc_open.started);
    auto& m = r->metrics;
    m["shard.tpc_per_txn"] = Ratio(tpc, commits);
    m["shard.tpc_abort_ratio"] =
        Ratio(static_cast<double>(tpc_close.aborted - tpc_open.aborted), tpc);
    m["shard.snap_per_txn"] = Ratio(
        static_cast<double>(snap_close.started - snap_open.started), commits);
    m["shard.retired_per_tpc"] =
        Ratio(static_cast<double>(tpc_close.decisions_retired -
                                  tpc_open.decisions_retired),
              static_cast<double>(tpc_close.committed - tpc_open.committed));
  }

  std::unique_ptr<shard::Cluster> cluster;
  std::unique_ptr<workload::ShardedTatp> tatp;
  shard::TwoPhaseCommitStats tpc_pre, tpc_open, tpc_close;
  shard::SnapshotReadStats snap_pre, snap_open, snap_close;
};

// ------------------------------------------------------------ tpcc_bionic --

/// One Bionic engine (HC-2, all five offloads, unbounded overlay) running
/// the TPC-C mix over 8 warehouses at TPC-C's own item and customer counts.
struct TpccTarget {
  using Txn = engine::Engine::TxnSpec;

  TpccTarget(sim::Simulator* sim, uint64_t seed, bool trace) {
    engine::EngineConfig cfg = engine::EngineConfig::Bionic();
    cfg.flight = FlightConfig(trace, /*sample_every=*/2);
    eng = std::make_unique<engine::Engine>(sim, cfg);
    workload::TpccConfig wc;
    wc.warehouses = 8;
    wc.customers_per_district = 3000;
    wc.items = 100000;
    wc.seed = seed;
    tpcc = std::make_unique<workload::TpccWorkload>(eng.get(), wc);
  }

  Status Load() { return tpcc->Load(); }
  Txn Next() { return tpcc->NextTransaction(); }
  sim::Task<Status> Execute(Txn txn, int socket, uint64_t* priority) {
    return eng->Execute(std::move(txn), socket, priority);
  }
  void Start() { eng->Start(); }
  sim::Task<void> Preheat() { return eng->PreheatBufferPool(); }
  sim::Task<void> Shutdown() { return eng->Shutdown(); }
  void ResetStats() { eng->ResetStats(); }
  void FinishRun() { eng->FinishRun(); }
  std::vector<engine::Engine*> engines() { return {eng.get()}; }
  std::vector<std::string> secondaries() const { return {"by_customer"}; }

  /// TPC-C consistency conditions 1 and 2 on the final state:
  /// W_YTD == sum(D_YTD) per warehouse, and D_NEXT_O_ID - 1 == max(O_ID)
  /// per district.
  void Check(Result* r, double commits) {
    using workload::DecodeRow;
    const int nw = tpcc->config().warehouses;
    const int nd = tpcc->config().districts_per_warehouse;
    std::vector<int64_t> w_ytd(static_cast<size_t>(nw), 0);
    std::vector<int64_t> d_ytd_sum(static_cast<size_t>(nw), 0);
    std::vector<int64_t> next_o(static_cast<size_t>(nw * nd), -1);
    std::vector<int64_t> max_o(static_cast<size_t>(nw * nd), -1);
    bool shape_ok = true;
    for (auto& [k, rec] : tpcc->warehouse()->ScanAll()) {
      const auto row = DecodeRow<workload::WarehouseRow>(Slice(rec));
      if (row.w_id >= static_cast<uint64_t>(nw)) shape_ok = false;
      else w_ytd[row.w_id] = row.ytd_cents;
    }
    for (auto& [k, rec] : tpcc->district()->ScanAll()) {
      const auto row = DecodeRow<workload::DistrictRow>(Slice(rec));
      if (row.w_id >= static_cast<uint64_t>(nw) ||
          row.d_id >= static_cast<uint64_t>(nd)) {
        shape_ok = false;
        continue;
      }
      d_ytd_sum[row.w_id] += row.ytd_cents;
      next_o[row.w_id * static_cast<uint64_t>(nd) + row.d_id] =
          static_cast<int64_t>(row.next_o_id);
    }
    for (auto& [k, rec] : tpcc->orders()->ScanAll()) {
      const auto row = DecodeRow<workload::OrderRow>(Slice(rec));
      if (row.w_id >= static_cast<uint64_t>(nw) ||
          row.d_id >= static_cast<uint64_t>(nd)) {
        shape_ok = false;
        continue;
      }
      int64_t& mo = max_o[row.w_id * static_cast<uint64_t>(nd) + row.d_id];
      mo = std::max(mo, static_cast<int64_t>(row.o_id));
    }
    bool c1 = shape_ok, c2 = shape_ok;
    for (int w = 0; w < nw; ++w) {
      c1 = c1 && w_ytd[static_cast<size_t>(w)] ==
                     d_ytd_sum[static_cast<size_t>(w)];
    }
    for (size_t i = 0; i < next_o.size(); ++i) {
      c2 = c2 && next_o[i] >= 0 && next_o[i] - 1 == max_o[i];
    }
    r->checks["tpcc_consistency_1_w_ytd"] = c1;
    r->checks["tpcc_consistency_2_next_o_id"] = c2;
  }

  std::unique_ptr<engine::Engine> eng;
  std::unique_ptr<workload::TpccWorkload> tpcc;
};

// ========================================================= threaded run ====

/// tatp_threaded: the real-thread backend (6 partition agents plus the
/// group-commit flusher) running the TATP mix, 2 client threads.
struct ThreadedParams {
  static constexpr uint64_t kSubscribers = 100000;
  static constexpr int kClients = 2;
  static constexpr double kWarmupS = 0.5;
  static constexpr int64_t kSliceNs = 100000000;  ///< Host sub-window.
  /// A slice is clean when the hypervisor stole at most this many jiffies
  /// (all vCPUs together) during it.
  static constexpr uint64_t kCleanStealJiffies = 1;
  /// The window runs past --seconds until this share of its nominal slices
  /// is clean, but never more than --max-extra-seconds past it.
  static constexpr double kMinCleanShare = 0.5;
  /// Below this many clean slices the window's statistics use every slice.
  static constexpr size_t kMinCleanSlices = 10;
  /// peak_rss_mb is read once the window has committed this many requests
  /// (about 4 s at 24k txn/s), or at the end of a window that commits fewer.
  static constexpr uint64_t kRssCommits = 100000;
  /// After the window, how long the clients get to finish the request in
  /// hand; a client still inside Execute then fails the run (kExitStuck).
  static constexpr int64_t kFinalWaitNs = 5000000000;
};

/// Exit code of a run whose clients never returned from Execute.
constexpr int kExitStuck = 3;

/// Cumulative steal time of all CPUs in jiffies, from the first line of
/// /proc/stat; 0 where that is unavailable (every slice then counts as
/// clean).
uint64_t StealJiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

/// One host slice of the threaded window.
struct HostSlice {
  int64_t start_ns = 0, end_ns = 0;
  uint64_t commits = 0;
  bool clean = true;
  double rate() const { return Ratio(static_cast<double>(commits),
                                     (end_ns - start_ns) * 1e-9); }
};

struct ThreadedWorld {
  explicit ThreadedWorld(uint64_t seed) {
    sim.SeedRng(seed);
    eng = std::make_unique<engine::Engine>(&sim, engine::EngineConfig::Dora());
    workload::TatpConfig wc;
    wc.subscribers = ThreadedParams::kSubscribers;
    wc.seed = seed;
    tatp = std::make_unique<workload::TatpWorkload>(eng.get(), wc);
  }
  sim::Simulator sim;  // the engine needs one; the backend never runs it
  std::unique_ptr<engine::Engine> eng;
  std::unique_ptr<workload::TatpWorkload> tatp;
  std::unique_ptr<exec::ThreadedBackend> backend;
};

/// Per-client-thread tallies (each written by its own thread only, read by
/// the main thread after join; `commits` is also polled live).
struct alignas(64) ThreadedClientState {
  std::atomic<uint64_t> commits{0};  ///< Committed since the window opened.
  std::atomic<uint64_t> started{0};  ///< Measured requests started.
  uint64_t finished = 0, gave_up = 0, errors = 0, attempts = 0;
  uint64_t all_commits = 0;  ///< Warmup and drain included.
  int64_t backoff_ns = 0;
  int64_t gen_ns = 0;
  uint64_t gen_calls = 0, gen_allocs = 0;
  std::vector<int64_t> latency;
  std::vector<int64_t> done_ns;  ///< Completion time of each latency sample.
  std::atomic<bool> exited{false};  ///< The client's thread has returned.
};

struct ThreadedShared {
  std::atomic<bool> open{false};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> close_ns{std::numeric_limits<int64_t>::max()};
  std::atomic<uint64_t> next_request{0};
  std::mutex gen_mu;  // generators are not thread-safe
  bool trace = false;
};

void ThreadedClient(ThreadedWorld* w, ThreadedShared* S,
                    ThreadedClientState* me, uint64_t seed) {
  bionicdb::Rng jitter(seed);
  while (!S->stop.load(std::memory_order_relaxed)) {
    const bool measured = S->open.load(std::memory_order_acquire);
    const uint64_t request = S->next_request.fetch_add(1) + 1;
    if (measured) me->started.fetch_add(1, std::memory_order_relaxed);
    uint32_t req_span = kNoParent;
    if (S->trace) req_span = g_spans.Begin(kSpanRequest, request, kNoParent);
    engine::Engine::TxnSpec spec;
    {
      std::lock_guard<std::mutex> lk(S->gen_mu);
      const int64_t g0 = S->trace ? HostNs() : 0;
      const uint64_t a0 = t_allocs;
      const uint32_t next_span =
          S->trace ? g_spans.Begin(kSpanNext, request, req_span) : kNoParent;
      spec = w->tatp->NextTransaction();
      if (S->trace) {
        g_spans.End(next_span);
        if (measured) {
          me->gen_ns += HostNs() - g0;
          me->gen_allocs += t_allocs - a0;
          ++me->gen_calls;
        }
      }
    }
    const int64_t t0 = HostNs();
    Status st;
    uint64_t priority = 0;
    int attempts = 0;
    int64_t backoff = 0;
    for (;;) {
      engine::Engine::TxnSpec copy = spec;
      ++attempts;
      const uint32_t exec_span =
          S->trace ? g_spans.Begin(kSpanExecute, request, req_span) : kNoParent;
      st = w->backend->Execute(std::move(copy), &priority);
      if (S->trace) g_spans.End(exec_span);
      if (!st.IsAborted() || attempts > kMaxRetries) break;
      const int64_t d = kRetryBackoffNs * attempts +
                        static_cast<int64_t>(jitter.Uniform(kRetryBackoffNs));
      backoff += d;
      std::this_thread::sleep_for(std::chrono::nanoseconds(d));
    }
    const int64_t t1 = HostNs();
    if (S->trace) g_spans.End(req_span);
    if (st.ok()) ++me->all_commits;
    if (!measured) continue;
    ++me->finished;
    me->attempts += static_cast<uint64_t>(attempts);
    me->backoff_ns += backoff;
    if (st.IsAborted()) {
      ++me->gave_up;
    } else if (!st.ok()) {
      ++me->errors;
    }
    // Only completions inside the host window count toward its rates.
    if (t1 <= S->close_ns.load(std::memory_order_relaxed)) {
      if (st.ok()) me->commits.fetch_add(1, std::memory_order_relaxed);
      me->latency.push_back(st.ok() ? t1 - t0
                                    : std::numeric_limits<int64_t>::max());
      me->done_ns.push_back(t1);
    }
  }
  me->exited.store(true, std::memory_order_release);
}

Result RunThreaded(const Args& args) {
  Result r;
  SetupTimes setup_times;
  SetupSpan setup(kSpanSetup, kNoParent);
  int64_t t0 = HostNs();
  std::unique_ptr<ThreadedWorld> w;
  {
    SetupSpan s(kSpanConstruct, setup.id());
    w = std::make_unique<ThreadedWorld>(args.seed);
  }
  setup_times.construct_ns = HostNs() - t0;
  t0 = HostNs();
  {
    SetupSpan s(kSpanLoad, setup.id());
    BIONICDB_CHECK(w->tatp->Load().ok());
  }
  setup_times.load_ns = HostNs() - t0;

  t0 = HostNs();
  ThreadedShared S;
  S.trace = args.trace;
  std::vector<std::unique_ptr<ThreadedClientState>> states;
  std::vector<std::thread> clients;
  int64_t open_ns = 0;
  exec::ThreadedStats stats0;
  exec::ThreadedWal::Stats wal0;
  LayerCounters idx0;
  {
    SetupSpan s(kSpanWarmup, setup.id());
    w->backend = std::make_unique<exec::ThreadedBackend>(
        w->eng.get(), exec::ThreadedBackend::Config{});
    w->backend->Start();
    // Index counters are plain fields the agents update; read them only
    // while no client runs.
    idx0.AddEngine(*w->eng, {"sub_nbr"});
    for (int c = 0; c < ThreadedParams::kClients; ++c) {
      states.push_back(std::make_unique<ThreadedClientState>());
      states.back()->latency.reserve(1 << 20);
      states.back()->done_ns.reserve(1 << 20);
      clients.emplace_back(ThreadedClient, w.get(), &S, states.back().get(),
                           args.seed * 1000003ULL + static_cast<uint64_t>(c));
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(ThreadedParams::kWarmupS));
    stats0 = w->backend->stats();
    wal0 = w->backend->wal().stats();
    if (S.trace) g_count_allocs.store(true);
    open_ns = HostNs();
    S.open.store(true, std::memory_order_release);
  }
  setup.End();
  setup_times.warmup_ns = open_ns - t0;
  setup_times.total_ns = open_ns;
  if (args.setup_only) ExitAfterSetup(setup_times, args);

  auto commits = [&] {
    uint64_t n = 0;
    for (auto& st : states) n += st->commits.load(std::memory_order_relaxed);
    return n;
  };
  auto started = [&] {
    uint64_t n = 0;
    for (auto& st : states) n += st->started.load(std::memory_order_relaxed);
    return n;
  };
  // Measures --seconds of host time, longer while the hypervisor steals
  // the vCPUs (see perfbench/README.md, "tatp_threaded").
  std::vector<HostSlice> slices;
  size_t clean_slices = 0;
  const uint64_t allocs0 = g_allocs.load();
  const uint64_t alloc_bytes0 = g_alloc_bytes.load();
  const int64_t nominal = static_cast<int64_t>(args.seconds * 1e9);
  const size_t want_clean = static_cast<size_t>(
      ThreadedParams::kMinCleanShare *
      static_cast<double>(nominal / ThreadedParams::kSliceNs));
  const int64_t cap =
      open_ns + nominal + static_cast<int64_t>(args.max_extra_s * 1e9);
  int64_t prev = open_ns;
  uint64_t prev_commits = 0;
  uint64_t prev_steal = StealJiffies();
  int64_t next_progress = open_ns + 1000000000;
  double rss_mb = 0.0;
  while (prev - open_ns < nominal ||
         (clean_slices < want_clean && prev < cap)) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(ThreadedParams::kSliceNs));
    HostSlice sl;
    sl.start_ns = prev;
    sl.end_ns = HostNs();
    const uint64_t c = commits();
    const uint64_t steal = StealJiffies();
    sl.commits = c - prev_commits;
    sl.clean = steal - prev_steal <= ThreadedParams::kCleanStealJiffies;
    clean_slices += sl.clean ? 1 : 0;
    slices.push_back(sl);
    // The WAL keeps its bytes in memory. Reading memory at a fixed number
    // of commits counts the same WAL however fast the backend runs and
    // however long steal stretches the window.
    if (rss_mb == 0.0 && c >= ThreadedParams::kRssCommits) {
      rss_mb = PeakRssMb();
    }
    prev = sl.end_ns;
    prev_commits = c;
    prev_steal = steal;
    if (prev >= next_progress) {
      Progress(started());
      next_progress = prev + 1000000000;
    }
  }
  r.metrics["peak_rss_mb"] = rss_mb > 0.0 ? rss_mb : PeakRssMb();
  const int64_t close_ns = prev;
  S.close_ns.store(close_ns);
  const exec::ThreadedStats stats1 = w->backend->stats();
  const exec::ThreadedWal::Stats wal1 = w->backend->wal().stats();
  const uint64_t allocs = g_allocs.load() - allocs0;
  const uint64_t alloc_bytes = g_alloc_bytes.load() - alloc_bytes0;
  g_count_allocs.store(false);
  S.stop.store(true);
  // Every measured request must reach a final status. One stuck inside
  // Execute never returns, so its client cannot be joined: the run reports
  // how far it got and exits with kExitStuck.
  const int64_t final_deadline = HostNs() + ThreadedParams::kFinalWaitNs;
  for (auto& st : states) {
    while (!st->exited.load(std::memory_order_acquire)) {
      if (HostNs() > final_deadline) {
        std::fprintf(stderr,
                     "tatp_threaded: a client is stuck inside Execute "
                     "%.1f s after the window closed\n",
                     ThreadedParams::kFinalWaitNs * 1e-9);
        Progress(started());
        std::_Exit(kExitStuck);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (auto& t : clients) t.join();
  LayerCounters idx1;
  idx1.AddEngine(*w->eng, {"sub_nbr"});
  w->backend->Shutdown();

  // ---- end-to-end ----
  const double host_s = (close_ns - open_ns) * 1e-9;
  uint64_t n_started = 0, n_finished = 0, gave_up = 0, errors = 0,
           attempts = 0, gen_calls = 0, gen_allocs = 0, n_commits = 0,
           all_commits = 0;
  int64_t backoff_ns = 0, gen_ns = 0;
  // Statistics over the clean slices (all slices when too few are clean):
  // throughput per slice, latency of the requests that completed in one.
  const bool use_clean = clean_slices >= ThreadedParams::kMinCleanSlices;
  std::vector<double> all_rates, rates;
  std::vector<const HostSlice*> kept;
  for (const HostSlice& sl : slices) {
    all_rates.push_back(sl.rate());
    if (sl.clean || !use_clean) {
      rates.push_back(sl.rate());
      kept.push_back(&sl);
    }
  }
  auto in_kept = [&](int64_t t) {
    auto it = std::upper_bound(
        kept.begin(), kept.end(), t,
        [](int64_t v, const HostSlice* sl) { return v <= sl->end_ns; });
    return it != kept.end() && (*it)->start_ns < t;
  };
  std::vector<int64_t> lat;
  for (auto& st : states) {
    n_started += st->started.load();
    n_commits += st->commits.load();
    n_finished += st->finished;
    all_commits += st->all_commits;
    gave_up += st->gave_up;
    errors += st->errors;
    attempts += st->attempts;
    backoff_ns += st->backoff_ns;
    gen_ns += st->gen_ns;
    gen_calls += st->gen_calls;
    gen_allocs += st->gen_allocs;
    for (size_t i = 0; i < st->latency.size(); ++i) {
      if (in_kept(st->done_ns[i])) lat.push_back(st->latency[i]);
    }
  }
  const double commits_d = static_cast<double>(n_commits);
  auto& m = r.metrics;
  // The service clock is the host clock; host.txn_per_s keeps every
  // slice, stolen ones included.
  m["txn_per_s"] = Median(rates);
  m["host.txn_per_s"] = Median(all_rates);
  m["mean_us"] = Mean(lat) * 1e-3;
  m["p99_us"] = Percentile(&lat, 99.0) * 1e-3;
  m["latency.p50_us"] = Percentile(&lat, 50.0) * 1e-3;
  m["latency.p999_us"] = Percentile(&lat, 99.9) * 1e-3;
  m["txn.fail_ratio"] = Ratio(static_cast<double>(gave_up + errors),
                              static_cast<double>(n_started));
  r.samples["latency"] = lat.size();
  r.samples["commits"] = n_commits;
  r.samples["host_slices"] = slices.size();
  r.samples["clean_slices"] = clean_slices;
  r.host_seconds = host_s;

  // ---- per layer ----
  m["workload.gen_ns_per_txn"] = Ratio(static_cast<double>(gen_ns),
                                       static_cast<double>(gen_calls));
  m["workload.gen_allocs_per_txn"] =
      Ratio(static_cast<double>(gen_allocs), static_cast<double>(gen_calls));
  m["host.allocs_per_txn"] = Ratio(static_cast<double>(allocs), commits_d);
  m["host.alloc_bytes_per_txn"] =
      Ratio(static_cast<double>(alloc_bytes), commits_d);
  m["txn.commit_ratio"] =
      Ratio(static_cast<double>(n_finished - gave_up - errors),
            static_cast<double>(attempts));
  m["txn.backoff_us_per_txn"] =
      Ratio(static_cast<double>(backoff_ns) * 1e-3, commits_d);
  // Read while quiescent, so over every request the clients ran.
  AddIndexStorageMetrics(idx1.Minus(idx0), static_cast<double>(all_commits),
                         &m);
  m["exec.actions_per_txn"] = Ratio(
      static_cast<double>(stats1.actions_executed - stats0.actions_executed),
      commits_d);
  m["exec.parked_per_txn"] = Ratio(
      static_cast<double>(stats1.actions_parked - stats0.actions_parked),
      commits_d);
  m["exec.wait_die_per_txn"] = Ratio(
      static_cast<double>(stats1.wait_die_aborts - stats0.wait_die_aborts),
      commits_d);
  m["exec.appends_per_flush"] =
      Ratio(static_cast<double>(wal1.appends - wal0.appends),
            static_cast<double>(wal1.flushes - wal0.flushes));
  m["exec.group_commit_waits_per_txn"] =
      Ratio(static_cast<double>(wal1.group_commit_waits -
                                wal0.group_commit_waits),
            commits_d);
  setup_times.Report(&r);

  // ---- output checks (every request final: see the wait above) ----
  r.checks["no_io_or_durability_errors"] =
      stats1.io_errors == stats0.io_errors &&
      stats1.durability_failures == stats0.durability_failures;
  r.attempted = n_started;
  r.failed = gave_up + errors;
  return r;
}

// ------------------------------------------------------------------ main --

/// Layer metrics a workload does not exercise read 0, so every run reports
/// the same set.
void FillMissingLayers(Result* r) {
  static const char* const kAll[] = {
      "host.txn_per_s", "latency.p50_us", "latency.p999_us", "txn.fail_ratio",
      "hw.uj_per_txn", "workload.gen_ns_per_txn",
      "workload.gen_allocs_per_txn", "sim.events_per_txn",
      "sim.host_ns_per_event", "host.allocs_per_txn",
      "host.alloc_bytes_per_txn", "txn.commit_ratio", "txn.backoff_us_per_txn",
      "dora.actions_per_txn", "dora.reparks_per_txn",
      "dora.lock_conflicts_per_txn", "dora.wait_die_per_txn",
      "index.probes_per_txn", "index.visits_per_probe", "index.splits_per_txn",
      "storage.bpool_hit_ratio", "storage.overlay_hit_ratio",
      "storage.overlay_installs_per_txn", "wal.appends_per_txn",
      "wal.bytes_per_txn", "wal.appends_per_flush", "hw.cpu_utilization",
      "hw.pcie_bytes_per_txn", "shard.tpc_per_txn", "shard.tpc_abort_ratio",
      "shard.snap_per_txn", "shard.retired_per_tpc",
      "shard.branch_commits_per_txn", "exec.actions_per_txn",
      "exec.parked_per_txn", "exec.wait_die_per_txn", "exec.appends_per_flush",
      "exec.group_commit_waits_per_txn"};
  for (const char* k : kAll) r->metrics.try_emplace(k, 0.0);
  for (int c = 0; c < hw::kNumComponents; ++c) {
    r->metrics.try_emplace(std::string("hw.") +
                               hw::ComponentKey(static_cast<hw::Component>(c)) +
                               "_ns_per_txn",
                           0.0);
  }
  for (int s = 0; s < obs::kNumStages; ++s) {
    const char* key = obs::StageKey(static_cast<obs::Stage>(s));
    r->metrics.try_emplace(std::string("obs.") + key + "_p50_us", 0.0);
    r->metrics.try_emplace(std::string("obs.") + key + "_p999_us", 0.0);
  }
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--spans") {
      a->spans_path = v;
    } else if (k == "--max-extra-seconds") {
      a->max_extra_s = std::strtod(v, nullptr);
    } else if (k == "--setup-only") {
      a->setup_only = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>] "
                 "[--max-extra-seconds <s>] [--setup-only <0|1>]\n",
                 argv[0]);
    return 2;
  }
  if (args.trace) g_spans.Enable(size_t{1} << 22);

  Result r;
  if (args.workload == "tatp_shard4") {
    SimParams p;
    p.clients = 64;
    p.warmup_ns = 5000000;
    p.window_ns_per_host_s = 19000000;
    p.slice_ns = 500000;
    r = RunSimulated<ShardTarget>(args, p);
  } else if (args.workload == "tpcc_bionic") {
    SimParams p;
    p.clients = 32;
    p.warmup_ns = 20000000;
    p.window_ns_per_host_s = 35000000;
    p.slice_ns = 2000000;
    r = RunSimulated<TpccTarget>(args, p);
  } else if (args.workload == "tatp_threaded") {
    r = RunThreaded(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  FillMissingLayers(&r);
  if (args.trace && !args.spans_path.empty()) {
    r.checks["spans_written"] = g_spans.Write(args.spans_path);
    r.samples["spans"] = g_spans.size();
  }
  PrintResult(r, args);
  return 0;
}
