// Allocation regression test for the DORA dispatch cycle.
//
// Defines the counting operator-new hook for this binary and drives the
// same dispatch -> pop -> lock -> execute -> release cycle the wallclock
// bench measures: pooled actions, fixed-width lock keys, a reused Xct, and
// ring-backed queues. After a warmup that fills the action pool, the lock
// tables' node free lists, and the coroutine-frame freelists, the
// steady-state cycle must perform ZERO heap allocations — whether it
// re-locks a small set of warm keys or locks a key never seen before.
//
// The obs tracer rides the same hot path, so its contract is enforced
// here too: a disabled tracer must not change the allocation story (each
// record site is one predicted branch), and an enabled tracer must record
// into its preallocated ring — still no steady-state allocations — and
// export byte-identical traces for identical runs.
//
// A Bionic point read that hits the overlay is held to the same contract:
// its record is read in place from the overlay leaf, so once the frame
// pool is warm the read allocates nothing.
//
// Sanitizer builds define BIONICDB_NO_FRAME_POOL (each coroutine frame is
// an individual heap allocation so ASan can track it); there the test
// still runs the cycle but only checks that allocations stay bounded.
#define BIONICDB_ALLOC_HOOK_DEFINE
#include "bench/alloc_hook.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dora/action.h"
#include "dora/executor.h"
#include "engine/engine.h"
#include "exec/threaded.h"
#include "hw/platform.h"
#include "index/codec.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "txn/xct.h"

namespace bionicdb {
namespace {

sim::Task<void> DispatchCycles(sim::Simulator* sim, dora::Executor* ex,
                               uint64_t warmup, uint64_t measured,
                               const std::vector<std::string>* keys,
                               uint64_t* steady_allocs) {
  txn::Xct xct;
  for (uint64_t i = 0; i < warmup + measured; ++i) {
    if (i == warmup) *steady_allocs = bench::AllocCount();
    xct.id = i + 1;
    xct.priority = i + 1;
    dora::Rvp rvp(sim, 1);
    dora::Action* a = ex->AcquireAction();
    a->xct = &xct;
    a->rvp = &rvp;
    a->socket = 0;
    a->AddLockKey(Slice((*keys)[i % keys->size()]));
    a->fn = [](dora::ActionContext&) -> sim::Task<Status> {
      co_return Status::OK();
    };
    co_await ex->Dispatch(a);
    Status st = co_await rvp.Wait();
    BIONICDB_CHECK(st.ok());
    co_await ex->ReleaseTxnLocks(&xct);
  }
  *steady_allocs = bench::AllocCount() - *steady_allocs;
  co_await ex->Drain();
}

constexpr uint64_t kWarmup = 2000;
constexpr uint64_t kMeasured = 20000;

/// Runs the full warmup+measured dispatch cycle on a fresh simulator with
/// `tracer` attached to the platform (null = untraced). Returns the
/// steady-state allocation count.
uint64_t RunDispatchCycle(obs::Tracer* tracer) {
  sim::Simulator sim;
  hw::Platform platform(&sim, hw::PlatformSpec::CommodityServer(), nullptr,
                        tracer);
  hw::Breakdown bd;
  dora::ExecutorConfig ec;
  ec.num_partitions = 4;
  dora::Executor ex(&platform, ec, nullptr, &bd);
  ex.Start();

  // 64 distinct keys, re-locked round robin (the warm-key case).
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("k" + std::to_string(i));

  uint64_t steady_allocs = 0;
  sim.Spawn(DispatchCycles(&sim, &ex, kWarmup, kMeasured, &keys,
                           &steady_allocs));
  sim.Run();
  BIONICDB_CHECK(ex.stats().executed == kWarmup + kMeasured);
  return steady_allocs;
}

void ExpectSteadyStateAllocFree(uint64_t steady_allocs) {
#ifdef BIONICDB_NO_FRAME_POOL
  // Frame pooling is compiled out: every co_await allocates a frame. Just
  // bound the per-cycle rate (each cycle awaits a handful of coroutines).
  EXPECT_LT(steady_allocs / kMeasured, 64u);
#else
  EXPECT_EQ(steady_allocs, 0u)
      << "steady-state dispatch performed " << steady_allocs
      << " heap allocations over " << kMeasured << " cycles";
#endif
}

TEST(DispatchAllocTest, SteadyStateCycleIsAllocationFree) {
  ExpectSteadyStateAllocFree(RunDispatchCycle(nullptr));
}

TEST(DispatchAllocTest, DisabledTracerStaysAllocationFree) {
  obs::Tracer tracer{obs::TraceConfig{}};  // enabled = false
  ASSERT_FALSE(tracer.enabled());
  ExpectSteadyStateAllocFree(RunDispatchCycle(&tracer));
  EXPECT_EQ(tracer.total_recorded(), 0u);
}

// The threaded backend's dispatch cycle — freelist acquire, arena lock
// keys, MPSC mailbox push, agent-side lock/execute, release latch — must
// be equally allocation-free once the pool, the lock tables, and each
// agent thread's coroutine-frame pool have warmed up. The reused Xct
// mirrors the simulated cycle above (Execute's per-transaction Xct owns
// growing vectors by design; the dispatch layer underneath it is what is
// pinned here).
TEST(DispatchAllocTest, ThreadedSteadyStateCycleIsAllocationFree) {
  sim::Simulator sim;
  engine::EngineConfig cfg = engine::EngineConfig::Dora();
  cfg.num_partitions = 4;
  engine::Engine engine(&sim, cfg);
  exec::ThreadedBackend backend(&engine, exec::ThreadedBackend::Config{});
  backend.Start();

  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("k" + std::to_string(i));

  txn::Xct xct;
  uint64_t steady = 0;
  for (uint64_t i = 0; i < kWarmup + kMeasured; ++i) {
    if (i == kWarmup) steady = bench::AllocCount();
    xct.id = i + 1;
    xct.priority = i + 1;
    dora::Rvp rvp(&sim, 1, /*threaded=*/true);
    dora::Action* a = backend.AcquireAction();
    a->xct = &xct;
    a->rvp = &rvp;
    a->socket = 0;
    a->AddLockKey(Slice(keys[i % keys.size()]));
    a->fn = [](dora::ActionContext&) -> sim::Task<Status> {
      co_return Status::OK();
    };
    backend.Dispatch(a);
    Status st = sim::RunToCompletion(rvp.Wait());
    BIONICDB_CHECK(st.ok());
    backend.ReleaseTxnLocks(&xct);
  }
  steady = bench::AllocCount() - steady;
  EXPECT_EQ(backend.stats().actions_executed, kWarmup + kMeasured);
  const size_t allocated = backend.actions_allocated();
  backend.Shutdown();
  ExpectSteadyStateAllocFree(steady);
  // The pool stopped growing after warmup (one action in flight at a time).
  EXPECT_LE(allocated, 4u);
}

/// The lock key of cycle `i`, written into `buf`: (i, i * 31) as two
/// big-endian u64s, the 16-byte TATP pair shape and one byte past
/// std::string's SSO buffer. No two cycles share a key.
Slice FreshPairKey(uint64_t i, char (&buf)[16]) {
  for (int b = 0; b < 8; ++b) {
    buf[7 - b] = static_cast<char>(i >> (8 * b));
    buf[15 - b] = static_cast<char>((i * 31) >> (8 * b));
  }
  return Slice(buf, sizeof(buf));
}

sim::Task<void> FreshKeyDispatchCycles(sim::Simulator* sim,
                                       dora::Executor* ex,
                                       uint64_t* steady_allocs) {
  txn::Xct xct;
  for (uint64_t i = 0; i < kWarmup + kMeasured; ++i) {
    if (i == kWarmup) *steady_allocs = bench::AllocCount();
    xct.id = i + 1;
    xct.priority = i + 1;
    dora::Rvp rvp(sim, 1);
    dora::Action* a = ex->AcquireAction();
    a->xct = &xct;
    a->rvp = &rvp;
    char key[16];
    a->AddLockKey(FreshPairKey(i, key));
    a->fn = [](dora::ActionContext&) -> sim::Task<Status> {
      co_return Status::OK();
    };
    co_await ex->Dispatch(a);
    Status st = co_await rvp.Wait();
    BIONICDB_CHECK(st.ok());
    co_await ex->ReleaseTxnLocks(&xct);
  }
  *steady_allocs = bench::AllocCount() - *steady_allocs;
  co_await ex->Drain();  // CHECKs that every partition's tables are empty
}

// A lock table that forgets must not pay for it in allocations: each cycle
// locks a key no earlier cycle locked, so every lock inserts a new entry
// and every release erases it. Erased nodes are re-keyed from the
// partition's free list, keys are fixed-width, and the held-lock list keeps
// its capacity, so the cycle still allocates nothing.
TEST(DispatchAllocTest, FreshKeyCycleIsAllocationFree) {
  sim::Simulator sim;
  hw::Platform platform(&sim, hw::PlatformSpec::CommodityServer());
  hw::Breakdown bd;
  dora::ExecutorConfig ec;
  ec.num_partitions = 4;
  dora::Executor ex(&platform, ec, nullptr, &bd);
  ex.Start();
  uint64_t steady_allocs = 0;
  sim.Spawn(FreshKeyDispatchCycles(&sim, &ex, &steady_allocs));
  sim.Run();
  EXPECT_EQ(ex.stats().executed, kWarmup + kMeasured);
  ExpectSteadyStateAllocFree(steady_allocs);
}

TEST(DispatchAllocTest, ThreadedFreshKeyCycleIsAllocationFree) {
  sim::Simulator sim;
  engine::EngineConfig cfg = engine::EngineConfig::Dora();
  cfg.num_partitions = 4;
  engine::Engine engine(&sim, cfg);
  exec::ThreadedBackend backend(&engine, exec::ThreadedBackend::Config{});
  backend.Start();

  txn::Xct xct;
  uint64_t steady = 0;
  for (uint64_t i = 0; i < kWarmup + kMeasured; ++i) {
    if (i == kWarmup) steady = bench::AllocCount();
    xct.id = i + 1;
    xct.priority = i + 1;
    dora::Rvp rvp(&sim, 1, /*threaded=*/true);
    dora::Action* a = backend.AcquireAction();
    a->xct = &xct;
    a->rvp = &rvp;
    char key[16];
    a->AddLockKey(FreshPairKey(i, key));
    a->fn = [](dora::ActionContext&) -> sim::Task<Status> {
      co_return Status::OK();
    };
    backend.Dispatch(a);
    Status st = sim::RunToCompletion(rvp.Wait());
    BIONICDB_CHECK(st.ok());
    backend.ReleaseTxnLocks(&xct);
  }
  steady = bench::AllocCount() - steady;
  EXPECT_EQ(backend.stats().actions_executed, kWarmup + kMeasured);
  backend.Shutdown();  // CHECKs that every partition's tables are empty
  ExpectSteadyStateAllocFree(steady);
}

sim::Task<void> OverlayHitReads(engine::Engine* eng, engine::Table* table,
                                const std::vector<std::string>* keys,
                                uint64_t* steady_allocs) {
  engine::Engine::ExecContext ctx;
  ctx.engine = eng;
  for (uint64_t i = 0; i < kWarmup + kMeasured; ++i) {
    if (i == kWarmup) *steady_allocs = bench::AllocCount();
    auto view = co_await eng->ReadView(ctx, table, (*keys)[i % keys->size()]);
    BIONICDB_CHECK(view.ok());
  }
  *steady_allocs = bench::AllocCount() - *steady_allocs;
  co_await eng->Shutdown();
}

// Every overlay read's coroutine frame must fit the frame pool's classes:
// the page the miss leg fetches into lives on the heap, not in the frame,
// so a hit recycles pooled frames and allocates nothing.
TEST(DispatchAllocTest, OverlayHitReadViewIsAllocationFree) {
  sim::Simulator sim;
  engine::EngineConfig cfg = engine::EngineConfig::Bionic();
  cfg.num_partitions = 4;
  cfg.overlay_residency = 1.0;
  engine::Engine engine(&sim, cfg);
  engine::Table* t = engine.CreateTable("T");
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 64; ++i) {
    keys.push_back(index::EncodeKeyU64(i));
    ASSERT_TRUE(engine.LoadRow(t, keys.back(), std::string(100, 'r')).ok());
  }
  engine.Start();
  uint64_t steady = 0;
  sim.Spawn(OverlayHitReads(&engine, t, &keys, &steady));
  sim.Run();
  EXPECT_GE(t->overlay()->stats().hits, kWarmup + kMeasured);
  EXPECT_EQ(t->overlay()->stats().misses, 0u);
  ExpectSteadyStateAllocFree(steady);
}

TEST(DispatchAllocTest, EnabledTracerRecordsIntoRingAndIsDeterministic) {
  obs::TraceConfig cfg;
  cfg.enabled = true;
  auto traced_run = [&](std::string* json) {
    obs::Tracer tracer(cfg);
    const uint64_t steady = RunDispatchCycle(&tracer);
    EXPECT_GE(tracer.total_recorded(), kMeasured);
    *json = tracer.ExportChromeTrace();
    return steady;
  };
  std::string first, second;
  // The ring is preallocated at construction, so even the *enabled* path
  // adds no steady-state allocations.
  ExpectSteadyStateAllocFree(traced_run(&first));
  traced_run(&second);
  // Identical runs (virtual time only, no wall-clock leakage) must export
  // byte-identical traces.
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace bionicdb
