// Tests for the concurrent MPMC queue — including real multi-threaded
// stress — and the agent doze/convoy scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "queueing/admission.h"
#include "queueing/mpmc.h"
#include "queueing/scheduler.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bionicdb::queueing {
namespace {

// ------------------------------------------------------------------- MPMC --

TEST(MpmcQueueTest, PushPopSingleThread) {
  MpmcQueue<int> q(8);
  EXPECT_FALSE(q.TryPop().has_value());
  EXPECT_TRUE(q.TryPush(10));
  EXPECT_TRUE(q.TryPush(20));
  EXPECT_EQ(*q.TryPop(), 10);
  EXPECT_EQ(*q.TryPop(), 20);
}

TEST(MpmcQueueTest, FullRejectsPush) {
  MpmcQueue<int> q(4);
  int n = 0;
  while (q.TryPush(n)) ++n;
  EXPECT_EQ(n, static_cast<int>(q.capacity()));
  EXPECT_FALSE(q.TryPush(99));
}

TEST(MpmcQueueTest, ManyProducersManyConsumers) {
  MpmcQueue<uint64_t> q(1024);
  constexpr int kProducers = 4, kConsumers = 4;
  constexpr uint64_t kPerProducer = 50000;
  std::atomic<uint64_t> consumed{0}, sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        const uint64_t v = static_cast<uint64_t>(p) * kPerProducer + i + 1;
        while (!q.TryPush(v)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed.load() < kProducers * kPerProducer) {
        auto v = q.TryPop();
        if (!v) {
          std::this_thread::yield();
          continue;
        }
        sum.fetch_add(*v);
        consumed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), total * (total + 1) / 2);
}

// -------------------------------------------------------------- Scheduler --

TEST(AgentSchedulerTest, SpinsBeforeDozing) {
  DozePolicy policy;
  policy.spin_polls = 3;
  AgentScheduler sched(policy);
  EXPECT_FALSE(sched.OnEmptyPoll());
  EXPECT_FALSE(sched.OnEmptyPoll());
  EXPECT_TRUE(sched.OnEmptyPoll());  // third empty poll -> doze
  EXPECT_EQ(sched.dozes(), 1u);
  EXPECT_EQ(sched.empty_polls(), 3u);
}

TEST(AgentSchedulerTest, WorkResetsStreak) {
  DozePolicy policy;
  policy.spin_polls = 2;
  AgentScheduler sched(policy);
  EXPECT_FALSE(sched.OnEmptyPoll());
  sched.OnWorkFound(1, false);
  EXPECT_FALSE(sched.OnEmptyPoll());  // streak restarted
  EXPECT_TRUE(sched.OnEmptyPoll());
}

TEST(AgentSchedulerTest, ConvoyDetection) {
  AgentScheduler sched(DozePolicy{});
  sched.set_convoy_threshold(4);
  sched.OnWorkFound(10, /*was_dozing=*/true);  // deep backlog after doze
  sched.OnWorkFound(10, /*was_dozing=*/false);  // deep but awake: not convoy
  sched.OnWorkFound(2, /*was_dozing=*/true);    // shallow: not convoy
  EXPECT_EQ(sched.convoys(), 1u);
}

// -------------------------------------------------------- AdmissionQueue --

using engine::AdmissionConfig;
using engine::AdmissionDiscipline;
using engine::AdmissionQueue;
using engine::ShedPolicy;
using IntQueue = AdmissionQueue<int>;

/// Drains the queue until Close(), recording item order.
sim::Task<void> DrainAll(IntQueue* q, std::vector<int>* got) {
  std::vector<IntQueue::Entry> batch;
  for (;;) {
    const size_t n = co_await q->PopBatch(&batch);
    if (n == 0) break;
    for (auto& e : batch) got->push_back(e.item);
  }
}

TEST(AdmissionQueueTest, FifoOrderAndStats) {
  sim::Simulator sim;
  AdmissionConfig cfg;
  cfg.depth = 8;
  IntQueue q(&sim, cfg);
  std::vector<int> got;
  sim.Spawn(DrainAll(&q, &got));
  sim.Spawn([](sim::Simulator* s, IntQueue* q) -> sim::Task<> {
    for (int i = 1; i <= 3; ++i) {
      EXPECT_TRUE(q->Offer(i));
      co_await sim::Delay{s, 10};
    }
    q->Close();
  }(&sim, &q));
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.stats().offered, 3u);
  EXPECT_EQ(q.stats().admitted, 3u);
  EXPECT_EQ(q.stats().popped, 3u);
  EXPECT_EQ(q.stats().shed, 0u);
}

TEST(AdmissionQueueTest, LifoServesFreshestFirst) {
  sim::Simulator sim;
  AdmissionConfig cfg;
  cfg.depth = 8;
  cfg.discipline = AdmissionDiscipline::kLifo;
  IntQueue q(&sim, cfg);
  // Enqueue 1,2,3 before the consumer starts, then drain: LIFO pops 3,2,1.
  std::vector<int> got;
  sim.Spawn([](sim::Simulator* s, IntQueue* q,
               std::vector<int>* got) -> sim::Task<> {
    q->Offer(1);
    q->Offer(2);
    q->Offer(3);
    q->Close();
    co_await DrainAll(q, got);
  }(&sim, &q, &got));
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{3, 2, 1}));
}

TEST(AdmissionQueueTest, DepthBoundShedsRejectNew) {
  sim::Simulator sim;
  AdmissionConfig cfg;
  cfg.depth = 2;
  IntQueue q(&sim, cfg);
  EXPECT_TRUE(q.Offer(1));
  EXPECT_TRUE(q.Offer(2));
  EXPECT_FALSE(q.Offer(3));  // full: arriving request is shed
  EXPECT_EQ(q.stats().offered, 3u);
  EXPECT_EQ(q.stats().admitted, 2u);
  EXPECT_EQ(q.stats().shed, 1u);
  EXPECT_EQ(q.stats().max_depth, 2u);
  EXPECT_EQ(q.depth(), 2u);
  std::vector<int> got;
  sim.Spawn(DrainAll(&q, &got));
  q.Close();
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(AdmissionQueueTest, DropOldestEvictsToAdmitFresh) {
  sim::Simulator sim;
  AdmissionConfig cfg;
  cfg.depth = 2;
  cfg.shed = ShedPolicy::kDropOldest;
  IntQueue q(&sim, cfg);
  EXPECT_TRUE(q.Offer(1));
  EXPECT_TRUE(q.Offer(2));
  EXPECT_TRUE(q.Offer(3));  // evicts 1, admits 3
  EXPECT_EQ(q.stats().admitted, 3u);
  EXPECT_EQ(q.stats().shed, 1u);
  EXPECT_EQ(q.depth(), 2u);
  std::vector<int> got;
  sim.Spawn(DrainAll(&q, &got));
  q.Close();
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{2, 3}));
}

TEST(AdmissionQueueTest, BatchClaimsUpToBatchPerWakeup) {
  sim::Simulator sim;
  AdmissionConfig cfg;
  cfg.depth = 8;
  cfg.batch = 3;
  IntQueue q(&sim, cfg);
  for (int i = 0; i < 5; ++i) q.Offer(i);
  q.Close();
  std::vector<size_t> batch_sizes;
  sim.Spawn([](IntQueue* q, std::vector<size_t>* sizes) -> sim::Task<> {
    std::vector<IntQueue::Entry> batch;
    for (;;) {
      const size_t n = co_await q->PopBatch(&batch);
      if (n == 0) break;
      sizes->push_back(n);
    }
  }(&q, &batch_sizes));
  sim.Run();
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{3, 2}));
  EXPECT_EQ(q.stats().popped, 5u);
}

TEST(AdmissionQueueTest, OfferAfterCloseIsShed) {
  sim::Simulator sim;
  IntQueue q(&sim, AdmissionConfig{});
  q.Close();
  EXPECT_FALSE(q.Offer(7));
  EXPECT_EQ(q.stats().shed, 1u);
  EXPECT_EQ(q.stats().admitted, 0u);
}

TEST(AdmissionQueueTest, QueueWaitAccountedOnPop) {
  sim::Simulator sim;
  IntQueue q(&sim, AdmissionConfig{});
  sim.Spawn([](sim::Simulator* s, IntQueue* q) -> sim::Task<> {
    q->Offer(1);  // enqueued at t=0
    co_await sim::Delay{s, 250};
    std::vector<IntQueue::Entry> batch;
    const size_t n = co_await q->PopBatch(&batch);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(batch[0].enqueue_ts, 0);
    q->Close();
  }(&sim, &q));
  sim.Run();
  EXPECT_EQ(q.stats().queue_wait_ns, 250);
}

TEST(AdmissionQueueTest, PopSuspendsUntilOfferArrives) {
  sim::Simulator sim;
  SimTime popped_at = -1;
  IntQueue q(&sim, AdmissionConfig{});
  sim.Spawn([](sim::Simulator* s, IntQueue* q,
               SimTime* popped_at) -> sim::Task<> {
    std::vector<IntQueue::Entry> batch;
    const size_t n = co_await q->PopBatch(&batch);
    EXPECT_EQ(n, 1u);
    *popped_at = s->Now();
  }(&sim, &q, &popped_at));
  sim.Spawn([](sim::Simulator* s, IntQueue* q) -> sim::Task<> {
    co_await sim::Delay{s, 100};
    q->Offer(42);
    q->Close();
  }(&sim, &q));
  sim.Run();
  EXPECT_EQ(popped_at, 100);
}

TEST(AdmissionQueueTest, ResetStatsKeepsQueuedWork) {
  sim::Simulator sim;
  IntQueue q(&sim, AdmissionConfig{});
  q.Offer(1);
  q.Offer(2);
  q.ResetStats();
  EXPECT_EQ(q.stats().admitted, 0u);
  EXPECT_EQ(q.depth(), 2u);  // live work survives the warmup boundary
  std::vector<int> got;
  sim.Spawn(DrainAll(&q, &got));
  q.Close();
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace bionicdb::queueing
