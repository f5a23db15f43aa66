// exec::Context: which execution substrate is driving the engine — the
// deterministic virtual-time simulator or real host threads.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/macros.h"
#include "sim/simulator.h"

namespace bionicdb::exec {

/// The two execution backends. Exactly one drives an Engine instance:
///
///  - kSimulated: the PR 1-6 substrate. One host thread pumps a virtual-time
///    event queue; every wait is a simulated event; all costs are modeled.
///    Fully deterministic — same seed, same everything — which makes it the
///    correctness oracle for the threaded backend.
///
///  - kThreaded: one std::thread agent per DORA partition, real MPSC queues,
///    real monotonic clocks, a real group-commit WAL whose committers lead
///    their own flushes. The engine's *functional* code (B+Tree, overlay,
///    undo/redo, wait-die partition locks) is shared with the simulator;
///    only the substrate (queues, clocks, waiting, durability) differs.
///    Throughput here is host-machine wall clock, not a model.
enum class Backend : uint8_t { kSimulated = 0, kThreaded = 1 };

inline const char* BackendName(Backend b) {
  return b == Backend::kSimulated ? "sim" : "threaded";
}

/// Minimal clock/identity surface shared by both substrates. The engine's
/// timed paths do not call through this interface per-operation (the sim
/// path keeps its direct Simulator* plumbing so simulated results stay
/// bit-identical); it exists so drivers, benches, and tests can treat a
/// backend generically: "what time is it, in your substrate's nanoseconds?"
class Context {
 public:
  virtual ~Context() = default;
  virtual Backend backend() const = 0;
  /// Nanoseconds on this substrate's clock: virtual sim time or the host's
  /// monotonic clock. Only deltas are meaningful.
  virtual uint64_t NowNs() const = 0;
};

/// Virtual-time context: wraps the simulator's clock.
class SimContext final : public Context {
 public:
  explicit SimContext(sim::Simulator* sim) : sim_(sim) {}
  Backend backend() const override { return Backend::kSimulated; }
  uint64_t NowNs() const override { return sim_->Now(); }

 private:
  sim::Simulator* sim_;
};

/// Wall-clock context: the host's monotonic clock.
class ThreadedContext final : public Context {
 public:
  Backend backend() const override { return Backend::kThreaded; }
  uint64_t NowNs() const override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

}  // namespace bionicdb::exec
