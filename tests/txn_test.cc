// Tests for the lock manager (2PL + wait-die) and transaction manager
// (lazy begin, commit durability, abort with CLRs).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "hw/platform.h"
#include "sim/simulator.h"
#include "txn/lock_manager.h"
#include "txn/xct_manager.h"
#include "wal/recovery.h"

namespace bionicdb::txn {
namespace {

using hw::Platform;
using hw::PlatformSpec;
using sim::Delay;
using sim::Simulator;
using sim::Task;

// ------------------------------------------------------------ LockManager --

const LockKey kKey("k");

TEST(LockManagerTest, SharedLocksCoexist) {
  Simulator sim;
  LockManager lm(&sim);
  Xct a, b;
  a.id = 1;
  a.priority = 1;
  b.id = 2;
  b.priority = 2;
  int granted = 0;
  sim.Spawn([](LockManager* lm, Xct* x, int* granted) -> Task<> {
    EXPECT_TRUE((co_await lm->Acquire(x, kKey, LockMode::kShared)).ok());
    ++*granted;
  }(&lm, &a, &granted));
  sim.Spawn([](LockManager* lm, Xct* x, int* granted) -> Task<> {
    EXPECT_TRUE((co_await lm->Acquire(x, kKey, LockMode::kShared)).ok());
    ++*granted;
  }(&lm, &b, &granted));
  sim.Run();
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(lm.stats().waits, 0u);
  lm.ReleaseAll(&a);
  lm.ReleaseAll(&b);
  EXPECT_EQ(lm.num_locked_keys(), 0u);
}

TEST(LockManagerTest, ExclusiveBlocksUntilRelease) {
  Simulator sim;
  LockManager lm(&sim);
  Xct older, younger;
  older.id = 1;
  older.priority = 1;
  younger.id = 2;
  younger.priority = 2;
  SimTime granted_at = -1;
  // Younger acquires X first; older waits (wait-die lets the old wait).
  sim.Spawn([](Simulator* s, LockManager* lm, Xct* young, Xct* old,
               SimTime* at) -> Task<> {
    EXPECT_TRUE((co_await lm->Acquire(young, kKey, LockMode::kExclusive)).ok());
    co_await Delay{s, 0};  // let the older transaction start waiting
    co_await Delay{s, 500};
    lm->ReleaseAll(young);
    (void)old;
    (void)at;
  }(&sim, &lm, &younger, &older, &granted_at));
  sim.Spawn([](Simulator* s, LockManager* lm, Xct* old, SimTime* at) -> Task<> {
    co_await Delay{s, 1};  // ensure the younger one wins the race
    EXPECT_TRUE((co_await lm->Acquire(old, kKey, LockMode::kExclusive)).ok());
    *at = s->Now();
    lm->ReleaseAll(old);
  }(&sim, &lm, &older, &granted_at));
  sim.Run();
  EXPECT_EQ(granted_at, 500);
  EXPECT_EQ(lm.stats().waits, 1u);
}

TEST(LockManagerTest, WaitDieAbortsYounger) {
  Simulator sim;
  LockManager lm(&sim);
  Xct older, younger;
  older.id = 1;
  older.priority = 1;
  younger.id = 5;
  younger.priority = 5;
  Status young_status;
  sim.Spawn([](Simulator* s, LockManager* lm, Xct* old, Xct* young,
               Status* out) -> Task<> {
    EXPECT_TRUE((co_await lm->Acquire(old, kKey, LockMode::kExclusive)).ok());
    *out = co_await lm->Acquire(young, kKey, LockMode::kExclusive);
    lm->ReleaseAll(old);
    (void)s;
  }(&sim, &lm, &older, &younger, &young_status));
  sim.Run();
  EXPECT_TRUE(young_status.IsAborted());
  EXPECT_EQ(lm.stats().wait_die_aborts, 1u);
}

TEST(LockManagerTest, ReentrantAndUpgrade) {
  Simulator sim;
  LockManager lm(&sim);
  Xct x;
  x.id = 3;
  x.priority = 3;
  sim.Spawn([](LockManager* lm, Xct* x) -> Task<> {
    EXPECT_TRUE((co_await lm->Acquire(x, kKey, LockMode::kShared)).ok());
    EXPECT_TRUE((co_await lm->Acquire(x, kKey, LockMode::kShared)).ok());
    // Sole holder: upgrade succeeds.
    EXPECT_TRUE((co_await lm->Acquire(x, kKey, LockMode::kExclusive)).ok());
    // X implies S.
    EXPECT_TRUE((co_await lm->Acquire(x, kKey, LockMode::kShared)).ok());
  }(&lm, &x));
  sim.Run();
  lm.ReleaseAll(&x);
  EXPECT_EQ(lm.num_locked_keys(), 0u);
}

TEST(LockManagerTest, SharedThenExclusiveQueues) {
  Simulator sim;
  LockManager lm(&sim);
  Xct reader, writer;
  reader.id = 2;  // younger reader holds S
  reader.priority = 2;
  writer.id = 1;  // older writer requests X -> waits
  writer.priority = 1;
  SimTime write_at = -1;
  sim.Spawn([](Simulator* s, LockManager* lm, Xct* r) -> Task<> {
    EXPECT_TRUE((co_await lm->Acquire(r, kKey, LockMode::kShared)).ok());
    co_await Delay{s, 300};
    lm->ReleaseAll(r);
  }(&sim, &lm, &reader));
  sim.Spawn([](Simulator* s, LockManager* lm, Xct* w, SimTime* at) -> Task<> {
    co_await Delay{s, 1};
    EXPECT_TRUE((co_await lm->Acquire(w, kKey, LockMode::kExclusive)).ok());
    *at = s->Now();
    lm->ReleaseAll(w);
  }(&sim, &lm, &writer, &write_at));
  sim.Run();
  EXPECT_EQ(write_at, 300);
}

// ------------------------------------------------------------- XctManager --

struct TxnFixture {
  Simulator sim;
  Platform platform{&sim, PlatformSpec::CommodityServer()};
  wal::SoftwareLogManager log{&platform, &platform.ssd()};
  XctManager xm{&log};
};

TEST(XctManagerTest, ReadOnlyCommitSkipsLog) {
  TxnFixture f;
  bool done = false;
  f.sim.Spawn([](XctManager* xm, bool* done) -> Task<> {
    auto xct = xm->Begin();
    EXPECT_TRUE((co_await xm->Commit(xct.get(), 0)).ok());
    EXPECT_EQ(xct->state, XctState::kCommitted);
    *done = true;
  }(&f.xm, &done));
  f.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.log.stats().appends, 0u);
  EXPECT_EQ(f.xm.stats().read_only_commits, 1u);
}

TEST(XctManagerTest, WriteCommitIsDurable) {
  TxnFixture f;
  f.sim.Spawn([](XctManager* xm, wal::LogManager* log) -> Task<> {
    auto xct = xm->Begin();
    EXPECT_TRUE((co_await xm->LogWrite(xct.get(), wal::RecordType::kInsert, 1,
                                       "key", "value", "", 0))
                    .ok());
    EXPECT_TRUE((co_await xm->Commit(xct.get(), 0)).ok());
    EXPECT_EQ(log->durable_lsn(), log->current_lsn());
  }(&f.xm, &f.log));
  f.sim.Run();
  // Begin + Insert + Commit.
  EXPECT_EQ(f.log.stats().appends, 3u);
  auto records = wal::ParseLogStream(f.log.durable_prefix());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].type, wal::RecordType::kBegin);
  EXPECT_EQ((*records)[1].type, wal::RecordType::kInsert);
  EXPECT_EQ((*records)[2].type, wal::RecordType::kCommit);
  EXPECT_EQ((*records)[1].prev_lsn, 0u);  // chains to the begin record
}

TEST(XctManagerTest, AbortAppliesUndoBackwardsWithClrs) {
  TxnFixture f;
  std::vector<std::string> undone;
  f.sim.Spawn([](XctManager* xm, std::vector<std::string>* undone) -> Task<> {
    auto xct = xm->Begin();
    EXPECT_TRUE((co_await xm->LogWrite(xct.get(), wal::RecordType::kUpdate, 1,
                                       "a", "new_a", "old_a", 0))
                    .ok());
    EXPECT_TRUE((co_await xm->LogWrite(xct.get(), wal::RecordType::kUpdate, 1,
                                       "b", "new_b", "old_b", 0))
                    .ok());
    EXPECT_TRUE((co_await xm->Abort(
                     xct.get(),
                     [&](const UndoEntry& e) {
                       undone->push_back(e.key + "=" + e.before);
                     },
                     0))
                    .ok());
    EXPECT_EQ(xct->state, XctState::kAborted);
  }(&f.xm, &undone));
  f.sim.Run();
  ASSERT_EQ(undone.size(), 2u);
  EXPECT_EQ(undone[0], "b=old_b");  // backwards order
  EXPECT_EQ(undone[1], "a=old_a");
  // Begin + 2 updates + 2 CLRs + abort = 6 records.
  EXPECT_EQ(f.log.stats().appends, 6u);
}

TEST(XctManagerTest, AbortedTxnInvisibleToRecovery) {
  TxnFixture f;
  f.sim.Spawn([](XctManager* xm, wal::LogManager* log) -> Task<> {
    auto committed = xm->Begin();
    EXPECT_TRUE((co_await xm->LogWrite(committed.get(),
                                       wal::RecordType::kInsert, 1, "keep",
                                       "v", "", 0))
                    .ok());
    EXPECT_TRUE((co_await xm->Commit(committed.get(), 0)).ok());

    auto aborted = xm->Begin();
    EXPECT_TRUE((co_await xm->LogWrite(aborted.get(),
                                       wal::RecordType::kInsert, 1, "drop",
                                       "v", "", 0))
                    .ok());
    EXPECT_TRUE(
        (co_await xm->Abort(aborted.get(), [](const UndoEntry&) {}, 0)).ok());
    EXPECT_TRUE((co_await log->WaitDurable(log->current_lsn())).ok());
  }(&f.xm, &f.log));
  f.sim.Run();

  struct Target : wal::RecoveryTarget {
    std::map<std::string, std::string> rows;
    void RedoInsert(uint32_t, Slice k, Slice v) override {
      rows[k.ToString()] = v.ToString();
    }
    void RedoUpdate(uint32_t, Slice k, Slice v) override {
      rows[k.ToString()] = v.ToString();
    }
    void RedoDelete(uint32_t, Slice k) override { rows.erase(k.ToString()); }
  } target;
  wal::RecoveryStats stats;
  ASSERT_TRUE(wal::Recover(f.log.durable_prefix(), &target, &stats).ok());
  EXPECT_EQ(target.rows.size(), 1u);
  EXPECT_TRUE(target.rows.count("keep"));
  EXPECT_FALSE(target.rows.count("drop"));
}

TEST(XctManagerTest, IdsAreMonotone) {
  TxnFixture f;
  auto a = f.xm.Begin();
  auto b = f.xm.Begin();
  EXPECT_LT(a->id, b->id);
  EXPECT_EQ(f.xm.stats().started, 2u);
}

}  // namespace
}  // namespace bionicdb::txn
