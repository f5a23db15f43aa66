// E6 — §3: "An asynchronous and predictable delay of several µs is vastly
// easier to schedule around in software than an unexpected cache miss or
// pipeline stall; throughput will improve, even if individual requests take
// just as long to complete."
//
// Controlled experiment: N agents process work items on a fixed core pool.
// Each item needs the same total delay D, delivered either as
//   (a) synchronous unpredictable stalls — the core is held while stalled
//       (a cache miss or pipeline stall cannot be scheduled around); or
//   (b) one asynchronous predictable wait — the agent parks the item and
//       switches to other queued work (the core is released).
// Same per-item latency budget; very different throughput.
#include <cstdio>

#include "sim/resource.h"
#include "sim/sim_queue.h"
#include "sim/simulator.h"

using namespace bionicdb;
using sim::Delay;
using sim::Simulator;
using sim::Task;

namespace {

constexpr int kCores = 6;
constexpr SimTime kCpuWorkNs = 400;     // real instruction work per item
constexpr SimTime kTotalDelayNs = 3000; // stall budget per item (3 us)
constexpr int kItems = 20000;

/// (a) Synchronous stalls: delay happens while the core is held, in many
/// small unpredictable pieces (the "death by a thousand paper cuts").
double SyncStallThroughput(int agents) {
  Simulator sim;
  sim.SeedRng(42);
  sim::CorePool cores(&sim, kCores);
  const int per_agent = kItems / agents;
  for (int a = 0; a < agents; ++a) {
    sim.Spawn([](Simulator* s, sim::CorePool* cores, int n) -> Task<> {
      for (int i = 0; i < n; ++i) {
        co_await cores->Attach();
        // Work interleaved with stalls; the core cannot be released
        // because nothing predicts when the stall hits or ends.
        SimTime stalled = 0;
        while (stalled < kTotalDelayNs) {
          const SimTime piece =
              static_cast<SimTime>(s->rng().Uniform(200) + 50);
          co_await cores->Work(kCpuWorkNs * piece / kTotalDelayNs);
          co_await Delay{s, piece};  // stall: core held, no work retired
          stalled += piece;
        }
        cores->Detach();
      }
    }(&sim, &cores, per_agent));
  }
  sim.Run();
  return static_cast<double>(kItems) * 1e9 / static_cast<double>(sim.Now());
}

/// (b) Asynchronous predictable delay: the agent issues the slow operation,
/// releases the core, and continues with other items; completion lands on
/// a queue.
double AsyncThroughput(int agents) {
  Simulator sim;
  sim.SeedRng(42);
  sim::CorePool cores(&sim, kCores);
  const int per_agent = kItems / agents;
  for (int a = 0; a < agents; ++a) {
    sim.Spawn([](Simulator* s, sim::CorePool* cores, int n) -> Task<> {
      // Pipeline: issue all items, each doing its CPU work under a core
      // and its 3 us wait off-core.
      sim::Completion done(s);
      int remaining = n;
      for (int i = 0; i < n; ++i) {
        s->Spawn([](Simulator* s, sim::CorePool* cores, int* remaining,
                    sim::Completion* done) -> Task<> {
          co_await cores->Attach();
          co_await cores->Work(kCpuWorkNs);
          cores->Detach();             // schedule around the known delay
          co_await Delay{s, kTotalDelayNs};  // asynchronous completion
          if (--*remaining == 0) done->Set();
        }(s, cores, &remaining, &done));
      }
      co_await done.Wait();
    }(&sim, &cores, per_agent));
  }
  sim.Run();
  return static_cast<double>(kItems) * 1e9 / static_cast<double>(sim.Now());
}

void PrintAsyncHiding() {
  std::printf("\n=================================================================\n");
  std::printf("S3: asynchronous predictable delays vs synchronous stalls\n");
  std::printf("(6 cores; every item = %lldns CPU + %lldns delay either way)\n",
              static_cast<long long>(kCpuWorkNs),
              static_cast<long long>(kTotalDelayNs));
  std::printf("=================================================================\n");
  std::printf("%-10s %-22s %-22s %-8s\n", "agents", "sync stalls (items/s)",
              "async delay (items/s)", "gain");
  for (int agents : {6, 12, 24, 48}) {
    const double sync_tput = SyncStallThroughput(agents);
    const double async_tput = AsyncThroughput(agents);
    std::printf("%-10d %20.0f %22.0f %7.1fx\n", agents, sync_tput,
                async_tput, async_tput / sync_tput);
  }
  std::printf("\nPer-item latency is identical (~%.1fus) in both designs; "
              "only the *scheduling* differs. Hiding the delay converts a "
              "latency-bound system into a CPU-bound one — the premise of "
              "every offload in Figure 4.\n",
              static_cast<double>(kCpuWorkNs + kTotalDelayNs) / 1e3);
}

}  // namespace

int main() {
  PrintAsyncHiding();
  return 0;
}
