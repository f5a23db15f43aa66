#include "exec/threaded.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <thread>

#include "common/random.h"
#include "queueing/scheduler.h"

namespace bionicdb::exec {

namespace {

/// Waits for a partition's token. Waiting is safe: the caller holds no
/// latch, and the holder runs one step, or one release and the steps it
/// woke, none of which waits on a partition lock. It spins before it
/// parks, like every wait here, so a short step costs no futex wake-up.
std::unique_lock<std::mutex> TakeToken(std::mutex& token) {
  std::unique_lock<std::mutex> lock(token, std::defer_lock);
  for (int spin = 0; !lock.try_lock(); ++spin) {
    if (spin == queueing::kSpinYieldsBeforePark) {
      lock.lock();
      break;
    }
    std::this_thread::yield();
  }
  return lock;
}

}  // namespace

ThreadedBackend::Lane::Lane(sim::Simulator* sim, uint32_t id)
    // The partition's embedded SimQueue is unused here (capacity 2, the
    // minimum); only its lock and park tables are exercised.
    : part(sim, id, /*queue_capacity=*/2) {}

ThreadedBackend::ThreadedBackend(engine::Engine* engine, const Config& config)
    : engine_(engine), config_(config), wal_(config.wal),
      free_actions_(4096) {
  // Partition count MUST equal the engine's: Engine::PartitionOf (which
  // workloads use to group a step's keys) and LaneOf below both route
  // through the engine executor's Route, which takes the modulo of the
  // engine's count. A mismatch would let one key lock on a partition this
  // backend does not have.
  const int n = engine->config().num_partitions;
  BIONICDB_CHECK(n > 0 && n <= 64);  // ReleaseTxnLocks uses a 64-bit mask
  for (int i = 0; i < n; ++i) {
    lanes_.push_back(
        std::make_unique<Lane>(engine->simulator(), static_cast<uint32_t>(i)));
  }
}

ThreadedBackend::~ThreadedBackend() { Shutdown(); }

void ThreadedBackend::Start() {
  BIONICDB_CHECK(!started_);
  started_ = true;
  engine_->AttachThreadedBackend(this);
}

void ThreadedBackend::Shutdown() {
  if (!started_) return;
  // Every transaction has released its locks, so the tables are empty.
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> token(lane->token);
    const dora::Partition& p = lane->part;
    BIONICDB_CHECK_MSG(p.lock_entries() == 0 && p.parked_entries() == 0,
                       "shutdown with %zu locked and %zu parked keys in "
                       "partition %u",
                       p.lock_entries(), p.parked_entries(), p.id());
  }
  wal_.Flush();
  engine_->AttachThreadedBackend(nullptr);
  started_ = false;
}

void ThreadedBackend::HandleAction(dora::Partition& part,
                                   dora::Action* action) {
  dora::LockOutcome lock;
  {
    // TryLockAll reads the priority and records grants on the transaction.
    std::lock_guard<std::mutex> lk(action->xct->mu);
    lock = part.TryLockAll(action);
  }
  // TryLockAll counted a park or a death in the partition's stats.
  if (lock == dora::LockOutcome::kParked) {
    return;  // runs again when a release on this partition wakes it
  }
  if (lock == dora::LockOutcome::kDie) {
    dora::Rvp* rvp = action->rvp;
    ReleaseAction(action);
    rvp->Arrive(Status::Aborted("wait-die on partition-local lock"));
    return;
  }
  dora::ActionContext ctx;
  ctx.xct = action->xct;
  ctx.partition = &part;
  ctx.socket = action->socket;
  // The body is a task chain that never suspends on threads (the engine's
  // cost helpers return at once and its waits block), so it completes
  // inline.
  Status st = sim::RunToCompletion(action->fn(ctx));
  actions_executed_.fetch_add(1, std::memory_order_relaxed);
  dora::Rvp* rvp = action->rvp;
  // Release before Arrive: once the driver resumes it may destroy the
  // phase the action's body captured, so the action must already be reset.
  ReleaseAction(action);
  rvp->Arrive(st);
}

ThreadedBackend::Lane& ThreadedBackend::LaneOf(const dora::Action* action) {
  BIONICDB_CHECK(action->num_lock_keys() != 0);
  // The engine executor's routing, as in dora::Executor::Dispatch: the
  // first sorted lock key picks the partition.
  return *lanes_[engine_->executor()->Route(action->lock_key(0).hash())];
}

void ThreadedBackend::Run(dora::Action* action) {
  Lane& lane = LaneOf(action);
  std::unique_lock<std::mutex> token = TakeToken(lane.token);
  HandleAction(lane.part, action);
}

void ThreadedBackend::ReleaseTxnLocks(txn::Xct* xct) {
  if (engine_->config().mode == engine::EngineMode::kConventional) return;
  // Safe to read held_locks without the mutex: every action has arrived
  // (the RVP carries the happens-before edge) and nothing touches this
  // transaction's locks again until the releases below.
  uint64_t mask = 0;
  for (const auto& [pid, key] : xct->held_locks) mask |= uint64_t{1} << pid;
  for (; mask != 0; mask &= mask - 1) {
    Lane& lane = *lanes_[std::countr_zero(mask)];
    std::unique_lock<std::mutex> token = TakeToken(lane.token);
    lane.woken.clear();
    {
      // The transaction's mutex guards its held_locks list, which
      // ReleaseLocks prunes.
      std::lock_guard<std::mutex> lk(xct->mu);
      lane.part.ReleaseLocks(xct, &lane.woken);
    }
    // Each woken action retries its locks here, before the token drops,
    // so no later step can take a lock it was waiting for. A retry only
    // runs, parks or dies: it wakes nothing, so `woken` stays as it is.
    for (dora::Action* a : lane.woken) HandleAction(lane.part, a);
  }
}

dora::Action* ThreadedBackend::AcquireAction() {
  if (auto a = free_actions_.TryPop()) return *a;
  std::lock_guard<std::mutex> lk(pool_mu_);
  all_actions_.push_back(std::make_unique<dora::Action>());
  return all_actions_.back().get();
}

void ThreadedBackend::ReleaseAction(dora::Action* action) {
  action->Reset();
  // A full freelist (more actions live than ring capacity) just forfeits
  // reuse of this one; all_actions_ still owns it.
  free_actions_.TryPush(action);
}

Status ThreadedBackend::Execute(engine::Engine::TxnSpec spec,
                                uint64_t* priority) {
  BIONICDB_CHECK(started_);
  started_txns_.fetch_add(1, std::memory_order_relaxed);
  txn::XctManager& xm = engine_->xct_manager();
  // The Xct lives on this driver's stack: ReleaseTxnLocks is synchronous
  // and all actions arrive before Execute returns, so nothing outlives it.
  txn::Xct xct;
  xm.Begin(&xct);
  if (priority != nullptr) {
    if (*priority == 0) {
      *priority = xct.priority;
    } else {
      xct.priority = *priority;
    }
  }
  engine::Engine::ExecContext ctx;
  ctx.engine = engine_;
  ctx.xct = &xct;
  // Conventional mode serializes whole transactions on one mutex.
  std::unique_lock<std::mutex> serial(conventional_mu_, std::defer_lock);
  if (engine_->config().mode == engine::EngineMode::kConventional) {
    serial.lock();
  }
  // The engine's coroutines never suspend on threads: each runs to
  // completion here, blocking where the simulator would wait.
  Status st = sim::RunToCompletion(engine_->RunAllPhases(spec, ctx));
  if (st.ok()) {
    const wal::Lsn lsn = sim::RunToCompletion(xm.AppendCommitRecord(&xct, 0));
    if (lsn == wal::kInvalidLsn) {
      read_only_commits_.fetch_add(1, std::memory_order_relaxed);
    }
    // Early lock release: the commit record is ordered in the log, so the
    // global mutex can drop before the durability wait — that's what lets
    // concurrent committers share one group-commit fsync.
    if (serial.owns_lock()) serial.unlock();
    st = sim::RunToCompletion(xm.WaitCommitDurable(&xct, lsn));
    if (st.ok()) {
      commits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      durability_failures_.fetch_add(1, std::memory_order_relaxed);
      aborts_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    if (st.IsIOError()) io_errors_.fetch_add(1, std::memory_order_relaxed);
    // The transaction still holds its locks (or the global mutex) on every
    // key it wrote, so the undo writes cannot race other transactions.
    (void)sim::RunToCompletion(xm.Abort(
        &xct, [this](const txn::UndoEntry& e) { engine_->ApplyUndo(e); },
        0));
    aborts_.fetch_add(1, std::memory_order_relaxed);
  }
  // Locks release after durability, mirroring Engine::CommitTxn's ordering
  // (strict two-phase locking across the commit point).
  ReleaseTxnLocks(&xct);
  return st;
}

Status ThreadedBackend::ExecuteWithRetries(
    const engine::Engine::TxnSpec& spec, int max_retries,
    uint64_t retry_backoff_ns, uint64_t* aborted_attempts) {
  Status st;
  uint64_t priority = 0;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    engine::Engine::TxnSpec copy = spec;
    st = Execute(std::move(copy), &priority);
    if (!st.IsAborted()) break;
    if (aborted_attempts != nullptr) ++*aborted_attempts;
    // Linear backoff, as in workload::RunClosedLoop.
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        retry_backoff_ns * static_cast<uint64_t>(attempt + 1)));
  }
  return st;
}

ThreadedBackend::RunReport ThreadedBackend::RunClosedLoop(
    const std::function<engine::Engine::TxnSpec()>& next,
    const RunOptions& options) {
  BIONICDB_CHECK(started_);
  BIONICDB_CHECK(options.clients > 0);

  struct WaveResult {
    uint64_t committed = 0;
    uint64_t aborted_attempts = 0;
    Histogram latency;
  };
  auto run_wave = [&](uint64_t total, bool measured) {
    WaveResult result;
    std::mutex result_mu;
    std::vector<std::thread> clients;
    const uint64_t n = static_cast<uint64_t>(options.clients);
    for (uint64_t c = 0; c < n; ++c) {
      const uint64_t share = total / n + (c < total % n ? 1 : 0);
      clients.emplace_back([&, share] {
        WaveResult local;
        for (uint64_t i = 0; i < share; ++i) {
          engine::Engine::TxnSpec spec;
          {
            // Workload generators are not thread-safe.
            std::lock_guard<std::mutex> lk(next_mu_);
            spec = next();
          }
          const auto t0 = std::chrono::steady_clock::now();
          const Status st =
              ExecuteWithRetries(spec, options.max_retries,
                                 options.retry_backoff_ns,
                                 &local.aborted_attempts);
          if (st.ok()) ++local.committed;
          local.latency.Add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
        }
        if (measured) {
          std::lock_guard<std::mutex> lk(result_mu);
          result.committed += local.committed;
          result.aborted_attempts += local.aborted_attempts;
          result.latency.Merge(local.latency);
        }
      });
    }
    for (auto& t : clients) t.join();
    return result;
  };

  run_wave(options.warmup_txns, /*measured=*/false);
  const auto start = std::chrono::steady_clock::now();
  WaveResult wave = run_wave(options.measured_txns, /*measured=*/true);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RunReport report;
  report.committed = wave.committed;
  report.aborted_attempts = wave.aborted_attempts;
  report.elapsed_s = elapsed_s;
  report.txn_per_sec =
      elapsed_s > 0.0 ? static_cast<double>(wave.committed) / elapsed_s : 0.0;
  report.latency = wave.latency;
  report.wal = wal_.stats();
  return report;
}

ThreadedBackend::OpenLoopReport ThreadedBackend::RunOpenLoop(
    const std::function<engine::Engine::TxnSpec()>& next,
    const OpenLoopOptions& options) {
  BIONICDB_CHECK(started_);
  BIONICDB_CHECK(options.servers > 0);
  BIONICDB_CHECK(options.queue_depth > 0);
  BIONICDB_CHECK(options.offered_tps > 0);

  using Clock = std::chrono::steady_clock;
  struct Queued {
    engine::Engine::TxnSpec spec;
    Clock::time_point enqueue;
  };
  // Bounded admission queue. The mutex also carries the happens-before
  // edge from the arrival thread's spec construction to the server that
  // runs it; all window counters mutate under it too (TSan-clean by
  // construction, no atomics to reason about).
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Queued> q;
    bool closed = false;
    uint64_t offered = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
  } sh;

  const auto start = Clock::now();
  const auto warmup_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.warmup_s));
  const auto t_end =
      warmup_end + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(options.duration_s));

  // Arrival thread: exponential inter-arrival gaps on an absolute-deadline
  // schedule (sleep_until), so service stalls don't slow the offered rate —
  // the defining property of an open loop.
  std::thread arrivals([&] {
    Rng rng(options.seed);
    auto due = Clock::now();
    for (;;) {
      const double u = 1.0 - rng.NextDouble();
      const double gap_ns =
          std::max(1.0, -std::log(u) / options.offered_tps * 1e9);
      due += std::chrono::nanoseconds(static_cast<int64_t>(gap_ns));
      std::this_thread::sleep_until(due);
      const auto now = Clock::now();
      if (now >= t_end) break;
      engine::Engine::TxnSpec spec;
      {
        // Workload generators are not thread-safe.
        std::lock_guard<std::mutex> lk(next_mu_);
        spec = next();
      }
      const bool measured = now >= warmup_end;
      {
        std::lock_guard<std::mutex> lk(sh.mu);
        if (measured) ++sh.offered;
        if (sh.q.size() >= options.queue_depth) {
          if (measured) ++sh.shed;
        } else {
          sh.q.push_back(Queued{std::move(spec), now});
          if (measured) ++sh.admitted;
          sh.cv.notify_one();
        }
      }
    }
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      sh.closed = true;
    }
    sh.cv.notify_all();
  });

  struct Local {
    uint64_t completed = 0;
    uint64_t committed = 0;
    Histogram sojourn;
  };
  OpenLoopReport report;
  std::mutex report_mu;
  std::vector<std::thread> servers;
  for (int s = 0; s < options.servers; ++s) {
    servers.emplace_back([&] {
      Local local;
      for (;;) {
        Queued item;
        {
          std::unique_lock<std::mutex> lk(sh.mu);
          sh.cv.wait(lk, [&] { return sh.closed || !sh.q.empty(); });
          if (sh.q.empty()) break;  // closed and drained
          item = std::move(sh.q.front());
          sh.q.pop_front();
        }
        const Status st =
            ExecuteWithRetries(item.spec, options.max_retries,
                               options.retry_backoff_ns, nullptr);
        if (item.enqueue >= warmup_end) {
          ++local.completed;
          if (st.ok()) ++local.committed;
          local.sojourn.Add(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - item.enqueue)
                  .count());
        }
      }
      std::lock_guard<std::mutex> lk(report_mu);
      report.completed += local.completed;
      report.committed += local.committed;
      report.sojourn.Merge(local.sojourn);
    });
  }

  arrivals.join();
  for (auto& t : servers) t.join();

  // Threads are joined: sh is quiescent, plain reads are safe.
  report.offered = sh.offered;
  report.admitted = sh.admitted;
  report.shed = sh.shed;
  report.elapsed_s =
      std::chrono::duration<double>(Clock::now() - warmup_end).count();
  report.goodput_tps = report.elapsed_s > 0.0
                           ? static_cast<double>(report.committed) /
                                 report.elapsed_s
                           : 0.0;
  return report;
}

ThreadedStats ThreadedBackend::stats() const {
  ThreadedStats s;
  s.started = started_txns_.load(std::memory_order_relaxed);
  s.commits = commits_.load(std::memory_order_relaxed);
  s.read_only_commits = read_only_commits_.load(std::memory_order_relaxed);
  s.aborts = aborts_.load(std::memory_order_relaxed);
  s.io_errors = io_errors_.load(std::memory_order_relaxed);
  s.durability_failures =
      durability_failures_.load(std::memory_order_relaxed);
  s.actions_executed = actions_executed_.load(std::memory_order_relaxed);
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> token(lane->token);
    const dora::PartitionStats& ps = lane->part.stats();
    s.actions_parked += ps.lock_conflicts;
    s.wait_die_aborts += ps.wait_die_aborts;
  }
  return s;
}

size_t ThreadedBackend::actions_allocated() const {
  std::lock_guard<std::mutex> lk(pool_mu_);
  return all_actions_.size();
}

}  // namespace bionicdb::exec
