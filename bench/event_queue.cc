// Wall-clock microbenchmark for the simulator event queue: the calendar
// queue (sim/event_queue.h) against the binary heap it replaced, under
// (a) the classic hold model on the simulator's schedule-delta mix and
// (b) a replay of the actual delta trace captured from a TATP run via
// Simulator::set_schedule_probe. Every simulated experiment in the repo
// pays this structure once per event, so events/sec here bounds how much
// virtual time any benchmark can chew through per host second.
//
// Emits the JSON rows of bench/bench_util.h (stdout, and to a file when a
// path is given); the PR 5 acceptance bar is >= 2x events/sec over the
// heap on the TATP trace.
//
// Usage: event_queue [out.json]
#define BIONICDB_ALLOC_HOOK_DEFINE
#include "bench/alloc_hook.h"

#include <cstdio>
#include <queue>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "sim/event_queue.h"

namespace bionicdb::bench {
namespace {

/// The old event queue, preserved as the baseline: a binary heap on
/// (time, seq), exactly what sim::Simulator used before the calendar queue.
class HeapEvents {
 public:
  void Push(SimTime at, uint64_t value) { heap_.push({at, seq_++, value}); }
  uint64_t Pop() {
    const Ev e = heap_.top();
    heap_.pop();
    now_ = e.at;
    return e.value;
  }
  SimTime now() const { return now_; }

 private:
  struct Ev {
    SimTime at;
    uint64_t seq;
    uint64_t value;
    bool operator>(const Ev& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> heap_;
  SimTime now_ = 0;
  uint64_t seq_ = 0;
};

class CalendarEvents {
 public:
  void Push(SimTime at, uint64_t value) { q_.Push(at, value); }
  uint64_t Pop() { return q_.Pop(); }
  SimTime now() const { return q_.now(); }

 private:
  sim::CalendarQueue<uint64_t> q_;
};

/// Hold model: keep `working` events pending; each operation pops the
/// earliest and pushes a replacement at now() + next trace delta. This is
/// the simulator's steady state (one wakeup scheduled per event handled).
template <typename Q>
Row RunHold(const char* name, const std::vector<SimTime>& deltas,
            size_t working, size_t ops) {
  Q q;
  // Replay the largest power-of-two prefix so the cycling cursor is a
  // masked increment — no wrap branch perturbing either queue's numbers.
  size_t cap = 1;
  while (cap * 2 <= deltas.size()) cap <<= 1;
  const size_t mask = cap - 1;
  size_t di = 0;
  auto next_delta = [&]() { return deltas[di++ & mask]; };
  for (size_t i = 0; i < working; ++i) q.Push(q.now() + next_delta(), i);
  uint64_t sink = 0;
  Timer t;
  for (size_t i = 0; i < ops; ++i) {
    sink += q.Pop();
    q.Push(q.now() + next_delta(), i);
  }
  Row m = t.Stop(name, ops);
  const double ns_per_op = m.Value("ns_per_op");
  m.Add("Mevents_per_sec", ns_per_op > 0 ? 1e3 / ns_per_op : 0, 2);
  BIONICDB_CHECK(sink != 0);
  return m;
}

/// Synthetic model mix: the latency ladder the wheels are tuned to —
/// mostly ScheduleNow, then link/DRAM, PCIe, SAS/SSD, rare backoffs.
std::vector<SimTime> SyntheticDeltas(size_t n) {
  Rng rng(7);
  std::vector<SimTime> deltas;
  deltas.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = rng.Uniform(100);
    SimTime d = 0;
    if (r < 55) {
      d = 0;
    } else if (r < 75) {
      d = 400 + static_cast<SimTime>(rng.Uniform(1600));  // link/DRAM/PCIe
    } else if (r < 95) {
      d = 60'000 + static_cast<SimTime>(rng.Uniform(400'000));  // SSD
    } else {
      d = 5'000'000 + static_cast<SimTime>(rng.Uniform(30'000'000));  // SAS
    }
    deltas.push_back(d);
  }
  return deltas;
}

/// Real schedule-distance distribution: every Schedule delta from a DORA
/// TATP run, captured by the simulator's schedule probe.
std::vector<SimTime> CaptureTatpTrace() {
  sim::Simulator sim;
  std::vector<SimTime> deltas;
  deltas.reserve(1u << 21);
  sim.set_schedule_probe(&deltas);
  engine::EngineConfig cfg;  // default: DORA mode, commodity server
  engine::Engine eng(&sim, cfg);
  workload::TatpConfig wcfg;
  wcfg.subscribers = 2000;
  workload::TatpWorkload tatp(&eng, wcfg);
  BIONICDB_CHECK(tatp.Load().ok());
  workload::DriverConfig dcfg;
  dcfg.clients = 32;
  dcfg.warmup_txns = 500;
  dcfg.measured_txns = 2500;
  sim.Spawn(workload::RunClosedLoop(
      &eng, [&]() { return tatp.NextTransaction(); }, dcfg, nullptr));
  sim.Run();
  sim.set_schedule_probe(nullptr);
  BIONICDB_CHECK(deltas.size() > 10000);
  return deltas;
}

/// Best (minimum ns/op) of `reps` runs: the host is a shared VM, so a
/// single run can absorb multi-x scheduling noise; the minimum is the
/// least-perturbed observation and both queues are measured interleaved so
/// drift hits them alike.
template <typename Fn>
Row MinOf(int reps, Fn run) {
  Row best = run();
  for (int r = 1; r < reps; ++r) {
    Row m = run();
    if (m.Value("ns_per_op") < best.Value("ns_per_op")) best = std::move(m);
  }
  return best;
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, nullptr, /*grid=*/false);
  constexpr size_t kOps = 2'000'000;
  constexpr size_t kWorking = 64;  // ~ live events under 32 clients
  constexpr int kReps = 7;

  std::vector<Row> ms;
  const std::vector<SimTime> synth = SyntheticDeltas(1u << 20);
  ms.push_back(MinOf(kReps, [&] {
    return RunHold<HeapEvents>("evq_heap_hold", synth, kWorking, kOps);
  }));
  ms.push_back(MinOf(kReps, [&] {
    return RunHold<CalendarEvents>("evq_calendar_hold", synth, kWorking, kOps);
  }));

  const std::vector<SimTime> trace = CaptureTatpTrace();
  size_t zero = 0, l0 = 0, l1 = 0, l2 = 0, big = 0;
  for (SimTime d : trace) {
    if (d == 0) ++zero;
    else if (d < 256) ++l0;
    else if (d < 65536) ++l1;
    else if (d < (1 << 24)) ++l2;
    else ++big;
  }
  std::fprintf(stderr,
               "captured %zu TATP schedule deltas: %.1f%% same-tick, "
               "%.1f%% <256ns, %.1f%% <64us, %.1f%% <16ms, %.1f%% larger\n",
               trace.size(), 100. * zero / trace.size(),
               100. * l0 / trace.size(), 100. * l1 / trace.size(),
               100. * l2 / trace.size(), 100. * big / trace.size());
  ms.push_back(MinOf(kReps, [&] {
    return RunHold<HeapEvents>("evq_heap_tatp_trace", trace, kWorking, kOps);
  }));
  ms.push_back(MinOf(kReps, [&] {
    return RunHold<CalendarEvents>("evq_calendar_tatp_trace", trace, kWorking,
                                   kOps);
  }));

  std::fprintf(stderr, "speedup: hold %.2fx, tatp trace %.2fx\n",
               ms[0].Value("ns_per_op") / ms[1].Value("ns_per_op"),
               ms[2].Value("ns_per_op") / ms[3].Value("ns_per_op"));

  EmitRows(ms, args.out_path);
  return 0;
}

}  // namespace
}  // namespace bionicdb::bench

int main(int argc, char** argv) { return bionicdb::bench::Main(argc, argv); }
