// Executor: DORA's agent threads, routing, and queue machinery over the
// simulated platform. One agent coroutine per partition, each bound to the
// CorePool; queue and scheduling overheads are charged to the Dora
// component (they are the "Dora" block of Figure 3), and the hardware
// queue engine (§5.5) can take over queue operations.
#pragma once

#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/macros.h"
#include "dora/action.h"
#include "dora/partition.h"
#include "hw/cost_model.h"
#include "hw/platform.h"
#include "hw/queue_engine.h"
#include "queueing/scheduler.h"

namespace bionicdb::dora {

struct ExecutorConfig {
  int num_partitions = 6;
  queueing::DozePolicy doze;
  /// Offload queue management to the hardware queue engine.
  bool hw_queues = false;
  /// Asynchronous action execution: the agent issues an action's body as a
  /// detached task and immediately pops the next action, instead of
  /// blocking on the body. This is how the bionic engine overlaps hardware
  /// round trips with other work (§5: "CPU/FPGA communication must be
  /// asynchronous"). Partition-local locks still serialize conflicts.
  bool async_actions = false;
};

struct ExecutorStats {
  uint64_t dispatched = 0;
  uint64_t executed = 0;
  uint64_t reparks = 0;   ///< Actions re-enqueued after a lock release.
  uint64_t dozes = 0;
  uint64_t convoys = 0;
};

class Executor {
 public:
  /// `queue_engine` may be null unless config.hw_queues is set.
  /// `breakdown` receives Dora/Xct component charges.
  Executor(hw::Platform* platform, const ExecutorConfig& config,
           hw::QueueEngine* queue_engine, hw::Breakdown* breakdown);
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(Executor);

  /// Spawns one agent per partition onto the simulator.
  void Start();

  /// Sends poison pills; agents exit once their queues drain. Await-able
  /// only after all transactions finished: it CHECKs that no partition
  /// still holds a lock or a parked action.
  sim::Task<void> Drain();

  /// Hands out a pooled action (reset, with lock-key capacity retained
  /// from earlier use). Pass it to Dispatch(); it returns to the pool
  /// automatically once it has executed or died.
  Action* AcquireAction() { return pool_.Acquire(); }

  /// Routes by the action's first lock key (hash); enqueues with the
  /// configured queue-op cost. Takes ownership of `action`, which must
  /// come from AcquireAction().
  sim::Task<void> Dispatch(Action* action);

  /// Releases `xct`'s partition-local locks everywhere and re-enqueues any
  /// actions those locks were blocking.
  sim::Task<void> ReleaseTxnLocks(txn::Xct* xct);

  /// Deterministic routing: partition for a given key hash. The SplitMix64
  /// finalizer avalanches the hash before the modulo, so structured or
  /// low-entropy hashes still spread evenly across partitions.
  uint32_t Route(uint64_t key_hash) const {
    return static_cast<uint32_t>(common::Mix64(key_hash) %
                                 static_cast<uint64_t>(partitions_.size()));
  }

  Partition* partition(uint32_t i) { return partitions_[i].get(); }
  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  const ExecutorStats& stats() const { return stats_; }
  bool running() const { return running_; }

 private:
  sim::Task<void> AgentLoop(Partition* p);
  sim::Task<void> RunAction(Partition* p, Action* action);

  /// CPU cost of one queue operation in the current configuration.
  SimTime QueueOpCost() const;

  hw::Platform* platform_;
  ExecutorConfig config_;
  hw::QueueEngine* queue_engine_;
  hw::Breakdown* breakdown_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  ActionPool pool_;
  ExecutorStats stats_;
  bool running_ = false;
  // One track per partition ("dora/partition<i>"). Synchronous agents run
  // one action at a time (Complete spans); async agents overlap bodies
  // (async pairs keyed by a monotone id).
  obs::Tracer* tracer_ = nullptr;
  std::vector<uint16_t> trace_tracks_;
  uint16_t trace_action_ = 0;
  uint8_t trace_cat_ = 0;
  uint64_t trace_seq_ = 0;
};

}  // namespace bionicdb::dora
