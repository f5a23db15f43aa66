#include "workload/driver.h"

#include <algorithm>
#include <vector>

#include "sim/sync.h"

namespace bionicdb::workload {

DriverConfig ValidatedDriverConfig(DriverConfig config) {
  if (config.clients <= 0) config.clients = 1;
  if (config.max_retries < 0) config.max_retries = 0;
  if (config.retry_backoff_ns < 0) config.retry_backoff_ns = 0;
  return config;
}

namespace {

// Where an engine and a cluster differ, for the driver's purposes.
int Sockets(engine::Engine* engine) {
  return std::max(1, engine->config().sockets);
}
int Sockets(shard::Cluster* cluster) {
  return std::max(1, cluster->shard(0)->config().sockets);
}
size_t NumShards(engine::Engine*) { return 1; }
size_t NumShards(shard::Cluster* cluster) {
  return static_cast<size_t>(cluster->num_shards());
}
sim::Task<void> Preheat(engine::Engine* engine) {
  return engine->PreheatBufferPool();
}
sim::Task<void> Preheat(shard::Cluster* cluster) {
  return cluster->PreheatBufferPools();
}
size_t HomeShard(const engine::Engine::TxnSpec&) { return 0; }
size_t HomeShard(const shard::ShardedTxn& txn) {
  int home = txn.fragments[0].shard;
  for (const shard::ShardFragment& f : txn.fragments) {
    home = std::min(home, f.shard);
  }
  return static_cast<size_t>(home);
}
bool CrossShard(const engine::Engine::TxnSpec&) { return false; }
bool CrossShard(const shard::ShardedTxn& txn) { return txn.cross_shard(); }
sim::Task<Status> ExecuteOnce(engine::Engine* engine,
                              engine::Engine::TxnSpec spec, int socket,
                              uint64_t* priority, SimTime arrival_ts) {
  return engine->Execute(std::move(spec), socket, priority, arrival_ts);
}
sim::Task<Status> ExecuteOnce(shard::Cluster* cluster, shard::ShardedTxn txn,
                              int socket, uint64_t* priority, SimTime) {
  return cluster->Execute(std::move(txn), socket, priority);
}

/// Runs `txn` to a final status. A wait-die abort re-executes it up to
/// config.max_retries times under the same pinned priority, so the
/// transaction ages; `on_abort()` runs after every aborted attempt.
/// Non-Aborted failures are final.
template <typename Target, typename Txn, typename OnAbort>
sim::Task<Status> ExecuteWithRetries(Target* target, const Txn& txn,
                                     int socket, SimTime arrival_ts,
                                     const DriverConfig& config,
                                     OnAbort on_abort) {
  sim::Simulator* sim = target->simulator();
  Status st;
  uint64_t priority = 0;
  for (int attempt = 0; attempt <= config.max_retries; ++attempt) {
    Txn copy = txn;
    st = co_await ExecuteOnce(target, std::move(copy), socket, &priority,
                              arrival_ts);
    if (!st.IsAborted()) break;
    on_abort();
    // Linear backoff with deterministic jitter: correlated retry storms
    // of similarly-aged transactions otherwise keep colliding. Zero
    // backoff means an immediate retry — no jitter draw (Uniform(0) is
    // a contract violation).
    SimTime jitter = 0;
    if (config.retry_backoff_ns > 0) {
      jitter = static_cast<SimTime>(
          sim->rng().Uniform(static_cast<uint64_t>(config.retry_backoff_ns)));
    }
    co_await sim::Delay{sim, config.retry_backoff_ns * (attempt + 1) + jitter};
  }
  co_return st;
}

void Count(const Status& st, DriverCounts* counts) {
  ++counts->submitted;
  if (st.IsAborted()) {
    ++counts->gave_up;
  } else if (!st.ok()) {
    ++counts->failed;
  }
}

/// Sets the report's totals to the sums of its per-home-shard counters:
/// each outcome is counted once, so the two views cannot drift apart.
void SumShards(DriverReport* report) {
  DriverCounts total;
  for (const DriverCounts& s : report->per_shard) {
    total.submitted += s.submitted;
    total.retries += s.retries;
    total.gave_up += s.gave_up;
    total.failed += s.failed;
  }
  static_cast<DriverCounts&>(*report) = total;
}

struct Wave {
  explicit Wave(sim::Simulator* sim) : done(sim) {}
  uint64_t remaining = 0;
  sim::Completion done;
};

template <typename Target, typename Txn>
sim::Task<void> Client(Target* target, std::function<Txn()> next,
                       uint64_t my_txns, int socket, Wave* wave,
                       const DriverConfig* config, DriverReport* report) {
  for (uint64_t i = 0; i < my_txns; ++i) {
    const Txn txn = next();
    DriverCounts* home = nullptr;
    if (report != nullptr) {
      home = &report->per_shard[HomeShard(txn)];
      if (CrossShard(txn)) ++report->cross_shard_submitted;
    }
    const Status st = co_await ExecuteWithRetries(
        target, txn, socket, /*arrival_ts=*/-1, *config, [home] {
          if (home != nullptr) ++home->retries;
        });
    if (home != nullptr) Count(st, home);
  }
  if (--wave->remaining == 0) wave->done.Set();
}

/// Precondition: config came through ValidatedDriverConfig (clients >= 1;
/// a zero-client wave would never Set() its completion and divide by zero
/// splitting shares).
template <typename Target, typename Txn>
sim::Task<void> RunWave(Target* target, const std::function<Txn()>& next,
                        uint64_t total_txns, const DriverConfig& config,
                        DriverReport* report) {
  sim::Simulator* sim = target->simulator();
  BIONICDB_CHECK(config.clients > 0);
  Wave wave(sim);
  wave.remaining = static_cast<uint64_t>(config.clients);
  const int sockets = Sockets(target);
  for (int c = 0; c < config.clients; ++c) {
    const uint64_t share =
        total_txns / static_cast<uint64_t>(config.clients) +
        (static_cast<uint64_t>(c) <
                 total_txns % static_cast<uint64_t>(config.clients)
             ? 1
             : 0);
    sim->Spawn(
        Client(target, next, share, c % sockets, &wave, &config, report));
  }
  co_await wave.done.Wait();
}

template <typename Target, typename Txn>
sim::Task<void> ClosedLoop(Target* target, std::function<Txn()> next,
                           const DriverConfig& raw_config,
                           DriverReport* report) {
  const DriverConfig config = ValidatedDriverConfig(raw_config);
  if (report != nullptr) report->per_shard.assign(NumShards(target), {});
  target->Start();
  if (config.preheat) co_await Preheat(target);
  if (config.warmup_txns > 0) {
    co_await RunWave(target, next, config.warmup_txns, config, nullptr);
  }
  target->ResetStats();
  co_await RunWave(target, next, config.measured_txns, config, report);
  if (report != nullptr) SumShards(report);
  target->FinishRun();
  co_await target->Shutdown();
}

}  // namespace

sim::Task<void> RunClosedLoop(engine::Engine* engine, NextTxnFn next,
                              const DriverConfig& config,
                              DriverReport* report) {
  return ClosedLoop(engine, std::move(next), config, report);
}

sim::Task<void> RunClosedLoop(shard::Cluster* cluster,
                              std::function<shard::ShardedTxn()> next,
                              const DriverConfig& config,
                              DriverReport* report) {
  return ClosedLoop(cluster, std::move(next), config, report);
}

// ------------------------------------------------------------ open loop --

namespace {

struct OpenLoopState {
  explicit OpenLoopState(sim::Simulator* sim) : done(sim) {}
  int servers_left = 0;
  /// Flipped by the arrival task at the warmup boundary; servers only
  /// attribute counters and sojourn samples while true.
  bool measuring = false;
  sim::Completion done;
};

/// One server: claims admitted requests (in batches when configured) and
/// runs each to a final status, retrying wait-die aborts like the closed
/// loop. The admission-queue enqueue timestamp rides into Execute() so the
/// engine charges the queue wait to the admit stage and records sojourn.
sim::Task<void> OpenLoopServer(engine::Engine* engine,
                               const OpenLoopConfig* config,
                               OpenLoopState* state, OpenLoopReport* report) {
  sim::Simulator* sim = engine->simulator();
  auto* q = engine->admission();
  const int sockets = Sockets(engine);
  std::vector<engine::AdmissionQueue<engine::Engine::AdmittedTxn>::Entry>
      batch;
  for (;;) {
    const size_t n = co_await q->PopBatch(&batch);
    if (n == 0) break;  // closed and drained
    for (auto& entry : batch) {
      const int socket = static_cast<int>(entry.item.client %
                                          static_cast<uint64_t>(sockets));
      const Status st = co_await ExecuteWithRetries(
          engine, entry.item.spec, socket, entry.enqueue_ts, config->service,
          [report, state] {
            if (report && state->measuring) ++report->retries;
          });
      if (report && state->measuring) {
        ++report->completed;
        if (st.ok()) {
          ++report->committed;
        } else if (st.IsAborted()) {
          ++report->gave_up;
        } else {
          ++report->failed;
        }
        report->sojourn_ns.Add(sim->Now() - entry.enqueue_ts);
      }
    }
  }
  if (--state->servers_left == 0) state->done.Set();
}

/// The arrival task: one coroutine generates the whole offered stream in
/// virtual time — a million-client population costs one event at a time on
/// the calendar queue, never a task or a byte per client.
sim::Task<void> OpenLoopArrivals(engine::Engine* engine, NextTxnFn next,
                                 const OpenLoopConfig* config,
                                 OpenLoopState* state,
                                 OpenLoopReport* report) {
  sim::Simulator* sim = engine->simulator();
  auto* q = engine->admission();
  ArrivalModel model(config->arrival);
  const SimTime warmup_end = sim->Now() + config->warmup_ns;
  const SimTime t_end = warmup_end + config->measure_ns;
  for (;;) {
    co_await sim::Delay{sim, model.NextGapNs(sim->Now())};
    const SimTime now = sim->Now();
    if (now >= t_end) break;
    if (!state->measuring && now >= warmup_end) {
      // Measurement window opens: engine metrics (and admission counters)
      // restart so warmup arrivals don't contaminate the curves.
      engine->ResetStats();
      state->measuring = true;
    }
    // Shed accounting via the queue's counter delta: kRejectNew sheds the
    // arriving request (Offer returns false), but kDropOldest sheds a
    // previously-queued entry while admitting this one — both must land in
    // the report's shed count.
    const uint64_t shed_before = q->stats().shed;
    q->Offer({next(), model.NextClient()});
    if (report && state->measuring) {
      ++report->offered;
      report->shed += q->stats().shed - shed_before;
    }
  }
  // Stop admission; servers drain what's queued and exit.
  q->Close();
}

OpenLoopConfig ValidatedOpenLoopConfig(OpenLoopConfig config) {
  config.service = ValidatedDriverConfig(config.service);
  if (config.warmup_ns < 0) config.warmup_ns = 0;
  if (config.measure_ns <= 0) config.measure_ns = 1;
  // Arrival-side clamps live in ArrivalModel's constructor (it owns the
  // process math); population/rate zero are handled there.
  return config;
}

}  // namespace

sim::Task<void> RunOpenLoop(engine::Engine* engine, NextTxnFn next,
                            const OpenLoopConfig& raw_config,
                            OpenLoopReport* report) {
  const OpenLoopConfig config = ValidatedOpenLoopConfig(raw_config);
  // The engine must have been built with config.admission.enabled — the
  // bounded queue IS the open-loop front door.
  BIONICDB_CHECK(engine->admission() != nullptr);
  sim::Simulator* sim = engine->simulator();
  engine->Start();
  if (config.service.preheat) co_await engine->PreheatBufferPool();

  OpenLoopState state(sim);
  state.servers_left = config.service.clients;
  for (int s = 0; s < config.service.clients; ++s) {
    sim->Spawn(OpenLoopServer(engine, &config, &state, report));
  }
  co_await OpenLoopArrivals(engine, next, &config, &state, report);
  co_await state.done.Wait();

  // FinishRun after the drain: the elapsed window covers measure_ns plus
  // the bounded residual drain (at most depth + in-flight requests).
  engine->FinishRun();
  if (report) report->admission = engine->admission()->stats();
  co_await engine->Shutdown();
}

}  // namespace bionicdb::workload
