#include "dora/executor.h"

#include "obs/timeline.h"

namespace bionicdb::dora {

namespace {
/// Depth of each partition's simulated action queue.
constexpr size_t kPartitionQueueCapacity = 1024;
}  // namespace

Executor::Executor(hw::Platform* platform, const ExecutorConfig& config,
                   hw::QueueEngine* queue_engine, hw::Breakdown* breakdown)
    : platform_(platform), config_(config), queue_engine_(queue_engine),
      breakdown_(breakdown) {
  BIONICDB_CHECK(config.num_partitions > 0);
  BIONICDB_CHECK(!config.hw_queues || queue_engine != nullptr);
  for (int i = 0; i < config.num_partitions; ++i) {
    partitions_.push_back(std::make_unique<Partition>(
        platform->simulator(), static_cast<uint32_t>(i),
        kPartitionQueueCapacity));
  }
  if (obs::Tracer* t = platform->tracer(); t != nullptr) {
    tracer_ = t;
    trace_action_ = t->InternName("action");
    trace_cat_ = t->InternCategory("dora");
    for (int i = 0; i < config.num_partitions; ++i) {
      trace_tracks_.push_back(
          t->RegisterTrack("dora/partition" + std::to_string(i)));
    }
  }
}

SimTime Executor::QueueOpCost() const {
  if (config_.hw_queues) return queue_engine_->CpuPostCost();
  return static_cast<SimTime>(platform_->cost().QueueOpNs());
}

void Executor::Start() {
  BIONICDB_CHECK(!running_);
  running_ = true;
  for (auto& p : partitions_) {
    platform_->simulator()->Spawn(AgentLoop(p.get()));
  }
}

sim::Task<void> Executor::Drain() {
  BIONICDB_CHECK(running_);
  for (auto& p : partitions_) {
    BIONICDB_CHECK_MSG(p->parked_actions() == 0,
                       "drain with %zu parked actions in partition %u",
                       p->parked_actions(), p->id());
    BIONICDB_CHECK_MSG(p->lock_entries() == 0,
                       "drain with %zu locked keys in partition %u",
                       p->lock_entries(), p->id());
    co_await p->queue().Push(nullptr);  // poison
  }
  running_ = false;
}

sim::Task<void> Executor::Dispatch(Action* action) {
  BIONICDB_CHECK(action->num_lock_keys() != 0);
  // Routing decision + enqueue, charged to the Dora component. Dispatch
  // runs on the front-end side (driver coroutine); it burns CPU energy but
  // does not contend for an agent core.
  const SimTime route_ns =
      static_cast<SimTime>(platform_->cost().InstrNs(60));
  const SimTime cost = route_ns + QueueOpCost();
  co_await sim::Delay{platform_->simulator(), cost};
  platform_->meter().ChargeBusy(platform_->cpu_component(), cost, 0);
  breakdown_->Charge(hw::Component::kDora, cost);
  if (config_.hw_queues) co_await queue_engine_->Operate();

  Partition* p = partitions_[Route(action->lock_key(0).hash())].get();
  // Cross-socket dispatch: the queue's cachelines bounce between sockets
  // (§5.4's "socket-to-socket communication latencies").
  const int agent_socket =
      static_cast<int>(p->id()) % platform_->spec().cpu_sockets;
  if (platform_->spec().cpu_sockets > 1 &&
      agent_socket != action->socket % platform_->spec().cpu_sockets &&
      !config_.hw_queues) {
    const SimTime remote =
        static_cast<SimTime>(2.0 * platform_->cost().remote_miss_ns);
    co_await sim::Delay{platform_->simulator(), remote};
    platform_->meter().ChargeBusy(platform_->cpu_component(), remote, 0);
    breakdown_->Charge(hw::Component::kDora, remote);
  }
  ++stats_.dispatched;
  // Queue-wait attribution starts here; read on pop only when the owning
  // transaction carries a timeline.
  action->enqueue_ts = platform_->simulator()->Now();
  co_await p->queue().Push(action);
}

sim::Task<void> Executor::ReleaseTxnLocks(txn::Xct* xct) {
  std::vector<Action*> ready;
  for (auto& p : partitions_) {
    p->ReleaseLocks(xct, &ready);
  }
  for (Action* a : ready) {
    ++stats_.reparks;
    // Re-enqueue through the owning partition's queue (normal path).
    Partition* p = partitions_[Route(a->lock_key(0).hash())].get();
    co_await p->queue().Push(a);
  }
}

sim::Task<void> Executor::AgentLoop(Partition* p) {
  sim::Simulator* sim = platform_->simulator();
  // Agents are pinned round-robin across sockets.
  sim::CorePool& cpu = platform_->cpu(
      static_cast<int>(p->id()) % platform_->spec().cpu_sockets);
  const hw::CostModel& cost = platform_->cost();
  queueing::AgentScheduler sched(config_.doze);

  co_await cpu.Attach();
  for (;;) {
    Action* action = nullptr;
    auto popped = p->queue().TryPop();
    if (!popped.has_value()) {
      if (sched.OnEmptyPoll()) {
        // Doze: give up the core and sleep until work arrives; pay the
        // wakeup latency (OS futex, or a hardware doorbell when the queue
        // engine is active).
        p->set_agent_state(AgentState::kDozing);
        cpu.Detach();
        action = co_await p->queue().Pop();
        const SimTime wakeup = config_.hw_queues
                                   ? queue_engine_->DoorbellLatency()
                                   : config_.doze.doze_wakeup_ns;
        co_await sim::Delay{sim, wakeup};
        co_await cpu.Attach();
        sched.OnWorkFound(p->queue().size() + 1, /*was_dozing=*/true);
      } else {
        p->set_agent_state(AgentState::kIdle);
        co_await cpu.Work(config_.doze.poll_ns);
        breakdown_->Charge(hw::Component::kDora, config_.doze.poll_ns);
        continue;
      }
    } else {
      action = *popped;
      sched.OnWorkFound(p->queue().size() + 1, /*was_dozing=*/false);
    }

    if (action == nullptr) break;  // poison: shut down
    p->set_agent_state(AgentState::kRunning);

    // Timeline attribution: a first pop closes the enqueue->pop queue
    // wait; a pop after parking closes the parked-on-local-lock wait.
    if (action->xct != nullptr && action->xct->timeline != nullptr) {
      obs::TxnTimeline* tl = action->xct->timeline;
      const SimTime now = sim->Now();
      if (action->parked_since != 0) {
        tl->Charge(obs::Stage::kLockWait, now - action->parked_since);
        action->parked_since = 0;
      } else {
        tl->Charge(obs::Stage::kQueueWait, now - action->enqueue_ts);
      }
      tl->MarkPartition(p->id());
    }

    // Pop bookkeeping cost.
    const SimTime pop_ns = QueueOpCost();
    co_await cpu.Work(pop_ns);
    breakdown_->Charge(hw::Component::kDora, pop_ns);
    if (config_.hw_queues) co_await queue_engine_->Operate();

    // Partition-local locks (thread-local, latch-free: the Xct component).
    const SimTime lock_ns = static_cast<SimTime>(
        cost.InstrNs(cost.local_lock_instrs) *
        static_cast<double>(action->num_lock_keys()));
    co_await cpu.Work(lock_ns);
    breakdown_->Charge(hw::Component::kXct, lock_ns);
    const LockOutcome lock = p->TryLockAll(action);
    if (lock == LockOutcome::kParked) {
      action->parked_since = sim->Now();
      continue;  // parked; re-runs when the conflicting txn releases
    }
    if (lock == LockOutcome::kDie) {
      // Wait-die: fail the action so the (younger) transaction aborts and
      // retries with a fresh timestamp.
      action->rvp->Arrive(
          Status::Aborted("wait-die on partition-local lock"));
      pool_.Release(action);
      continue;
    }

    if (config_.async_actions) {
      // Issue-and-continue: the body runs as a detached task; the agent is
      // free to pop more work while hardware round trips are in flight.
      sim->Spawn(RunAction(p, action));
    } else {
      co_await RunAction(p, action);
    }
  }
  p->set_agent_state(AgentState::kIdle);
  cpu.Detach();

  stats_.dozes += sched.dozes();
  stats_.convoys += sched.convoys();
}

sim::Task<void> Executor::RunAction(Partition* p, Action* action) {
  const SimTime start = platform_->simulator()->Now();
  uint64_t span_id = 0;
  if (tracer_ != nullptr && config_.async_actions) {
    span_id = ++trace_seq_;
    tracer_->AsyncBegin(trace_tracks_[p->id()], trace_action_, trace_cat_,
                        start, span_id);
  }
  ActionContext ctx;
  ctx.xct = action->xct;
  ctx.partition = p;
  ctx.socket = action->socket;
  Status st = co_await action->fn(ctx);
  ++stats_.executed;
  if (action->xct != nullptr && action->xct->timeline != nullptr) {
    action->xct->timeline->Charge(
        obs::Stage::kExecute, platform_->simulator()->Now() - start);
  }
  if (tracer_ != nullptr) {
    const SimTime end = platform_->simulator()->Now();
    if (config_.async_actions) {
      tracer_->AsyncEnd(trace_tracks_[p->id()], trace_action_, trace_cat_,
                        end, span_id);
    } else {
      tracer_->Complete(trace_tracks_[p->id()], trace_action_, trace_cat_,
                        start, end - start);
    }
  }
  action->rvp->Arrive(st);
  pool_.Release(action);
}

}  // namespace bionicdb::dora
