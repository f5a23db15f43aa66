// Tests for slotted pages, the simulated disk and the buffer pool.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "sim/simulator.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/page.h"

namespace bionicdb::storage {
namespace {

using sim::Simulator;
using sim::Task;

// ------------------------------------------------------------------- Page --

TEST(PageTest, InitIsEmpty) {
  Page p;
  p.Init(7);
  EXPECT_EQ(p.page_id(), 7u);
  EXPECT_EQ(p.slot_count(), 0);
  EXPECT_EQ(p.live_records(), 0);
  EXPECT_GT(p.ContiguousFreeSpace(), kPageSize - 64);
}

TEST(PageTest, InsertGetRoundTrip) {
  Page p;
  p.Init(1);
  auto s1 = p.Insert("hello");
  auto s2 = p.Insert("world!");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(*s1, *s2);
  EXPECT_EQ((*p.Get(*s1)).ToString(), "hello");
  EXPECT_EQ((*p.Get(*s2)).ToString(), "world!");
  EXPECT_EQ(p.live_records(), 2);
}

TEST(PageTest, GetMissingSlotFails) {
  Page p;
  p.Init(1);
  EXPECT_TRUE(p.Get(0).status().IsNotFound());
  auto s = p.Insert("x");
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(p.Get(*s + 1).status().IsNotFound());
}

TEST(PageTest, DeleteTombstonesAndReusesSlot) {
  Page p;
  p.Init(1);
  auto s1 = p.Insert("aaa");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(p.Delete(*s1).ok());
  EXPECT_FALSE(p.IsLive(*s1));
  EXPECT_TRUE(p.Get(*s1).status().IsNotFound());
  EXPECT_TRUE(p.Delete(*s1).IsNotFound());
  // Next insert reuses the tombstoned slot.
  auto s2 = p.Insert("bbb");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, *s1);
}

TEST(PageTest, UpdateInPlaceAndGrow) {
  Page p;
  p.Init(1);
  auto s = p.Insert("0123456789");
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(p.Update(*s, "abc").ok());  // shrink in place
  EXPECT_EQ((*p.Get(*s)).ToString(), "abc");
  ASSERT_TRUE(p.Update(*s, std::string(500, 'x')).ok());  // grow
  EXPECT_EQ((*p.Get(*s)).size(), 500u);
}

TEST(PageTest, FillUntilExhausted) {
  Page p;
  p.Init(1);
  const std::string rec(100, 'r');
  int inserted = 0;
  while (true) {
    auto s = p.Insert(rec);
    if (!s.ok()) {
      EXPECT_TRUE(s.status().IsResourceExhausted());
      break;
    }
    ++inserted;
  }
  // 8KB page, ~104B per record incl. slot: expect ~78 records.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 85);
}

TEST(PageTest, CompactionReclaimsDeletedSpace) {
  Page p;
  p.Init(1);
  std::vector<uint16_t> slots;
  const std::string rec(100, 'r');
  while (true) {
    auto s = p.Insert(rec);
    if (!s.ok()) break;
    slots.push_back(*s);
  }
  // Delete every other record; contiguous space stays small until compact.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(p.Delete(slots[i]).ok());
  }
  // A 150-byte record does not fit contiguously but fits after compaction,
  // which Insert performs transparently.
  auto s = p.Insert(std::string(150, 'n'));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*p.Get(*s)).size(), 150u);
  // Survivors intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    ASSERT_TRUE(p.Get(slots[i]).ok());
    EXPECT_EQ((*p.Get(slots[i])).ToString(), rec);
  }
}

TEST(PageTest, UpdateTooBigFailsCleanly) {
  Page p;
  p.Init(1);
  auto s = p.Insert("small");
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(p.Update(*s, std::string(kPageSize, 'x')).IsResourceExhausted());
  // Original record untouched by the failed update.
  EXPECT_EQ((*p.Get(*s)).ToString(), "small");
}

/// Non-live slot directory entries, counted one by one.
int Tombstones(const Page& p) {
  int n = 0;
  for (uint16_t s = 0; s < p.slot_count(); ++s) n += p.IsLive(s) ? 0 : 1;
  return n;
}

/// The slot rule Insert's no-scan append relies on: every non-live slot is
/// a tombstone, so slot_count() - live_records() counts them after every
/// operation; Insert fills the lowest one, else appends at slot_count().
TEST(PageTest, InsertSlotRuleAndTombstoneCount) {
  Page p;
  p.Init(1);
  auto insert = [&](Slice rec) {
    auto s = p.Insert(rec);
    EXPECT_TRUE(s.ok());
    return s.ok() ? static_cast<int>(*s) : -1;
  };
  auto counted = [&](const char* after) {
    EXPECT_EQ(p.slot_count() - p.live_records(), Tombstones(p)) << after;
    return Tombstones(p);
  };

  // No tombstones: every insert appends at slot_count().
  const std::string rec(100, 'r');
  while (p.ContiguousFreeSpace() >= rec.size() + 4) {
    const int at = p.slot_count();
    EXPECT_EQ(insert(rec), at);
  }
  EXPECT_EQ(counted("fill"), 0);

  // Several tombstones: inserts take the lowest-numbered one first.
  for (uint16_t s : {9, 2, 5, 7}) ASSERT_TRUE(p.Delete(s).ok());
  EXPECT_EQ(counted("delete"), 4);
  EXPECT_EQ(insert("a"), 2);
  EXPECT_EQ(insert("b"), 5);
  EXPECT_EQ(counted("reuse"), 2);

  // A growing update frees its old cell without leaving a tombstone,
  // whether it fits contiguously, fits only after compaction, or does not
  // fit and rolls back.
  ASSERT_TRUE(p.Update(2, std::string(10, 'g')).ok());
  EXPECT_EQ(counted("grow in place"), 2);
  ASSERT_LT(p.ContiguousFreeSpace(), 250u);
  ASSERT_TRUE(p.Update(0, std::string(250, 'g')).ok());
  EXPECT_EQ(counted("grow after compaction"), 2);
  EXPECT_TRUE(p.Update(1, std::string(kPageSize, 'x')).IsResourceExhausted());
  EXPECT_EQ(counted("grow rolled back"), 2);
  EXPECT_EQ((*p.Get(1)).ToString(), rec);

  // Compaction moves cells, never slots.
  p.Compact();
  EXPECT_EQ(counted("compact"), 2);
  EXPECT_EQ(insert("c"), 7);
  EXPECT_EQ(insert("d"), 9);
  EXPECT_EQ(counted("refill"), 0);
  const int end = p.slot_count();
  EXPECT_EQ(insert("e"), end);
}

TEST(PageTest, RandomizedChurnAgainstModel) {
  Page p;
  p.Init(1);
  Rng rng(42);
  std::vector<std::pair<uint16_t, std::string>> model;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.Uniform(3);
    if (op == 0 || model.empty()) {
      std::string rec = rng.AlphaString(1, 200);
      auto s = p.Insert(rec);
      if (s.ok()) model.emplace_back(*s, rec);
    } else if (op == 1) {
      const size_t i = rng.Uniform(model.size());
      ASSERT_TRUE(p.Delete(model[i].first).ok());
      model.erase(model.begin() + static_cast<long>(i));
    } else {
      const size_t i = rng.Uniform(model.size());
      std::string rec = rng.AlphaString(1, 200);
      Status st = p.Update(model[i].first, rec);
      if (st.ok()) model[i].second = rec;
    }
    ASSERT_EQ(p.live_records(), model.size());
  }
  for (auto& [slot, rec] : model) {
    ASSERT_TRUE(p.Get(slot).ok());
    ASSERT_EQ((*p.Get(slot)).ToString(), rec);
  }
}

// ---------------------------------------------------------------- SimDisk --

TEST(SimDiskTest, AllocReadWrite) {
  Simulator sim;
  sim::Link link(&sim, "ssd", 0.5, 20000);
  SimDisk disk(&sim, &link, "ssd0");
  PageId id = disk.AllocPage();
  EXPECT_TRUE(disk.Exists(id));
  EXPECT_FALSE(disk.Exists(id + 100));

  Page w;
  w.Init(id);
  ASSERT_TRUE(w.Insert("persisted").ok());
  Status wrote, read;
  Page r;
  sim.Spawn([](SimDisk* d, PageId id, Page* w, Page* r, Status* ws,
               Status* rs) -> Task<> {
    *ws = co_await d->WritePage(id, *w);
    *rs = co_await d->ReadPage(id, r);
  }(&disk, id, &w, &r, &wrote, &read));
  sim.Run();
  ASSERT_TRUE(wrote.ok());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*r.Get(0)).ToString(), "persisted");
  // Two page transfers at 0.5 GB/s (16.4us each) + 2x 20us latency.
  EXPECT_GT(sim.Now(), 2 * 20000);
}

TEST(SimDiskTest, ReadUnknownPageFails) {
  Simulator sim;
  sim::Link link(&sim, "d", 1.0, 100);
  SimDisk disk(&sim, &link, "d0");
  Page p;
  Status st;
  sim.Spawn([](SimDisk* d, Page* p, Status* st) -> Task<> {
    *st = co_await d->ReadPage(999, p);
  }(&disk, &p, &st));
  sim.Run();
  EXPECT_TRUE(st.IsNotFound());
}

TEST(SimDiskTest, InjectedErrorFiresOnce) {
  Simulator sim;
  sim::Link link(&sim, "d", 1.0, 100);
  SimDisk disk(&sim, &link, "d0");
  PageId id = disk.AllocPage();
  disk.InjectReadError(id);
  Status first, second;
  Page p;
  sim.Spawn([](SimDisk* d, PageId id, Page* p, Status* s1,
               Status* s2) -> Task<> {
    *s1 = co_await d->ReadPage(id, p);
    *s2 = co_await d->ReadPage(id, p);
  }(&disk, id, &p, &first, &second));
  sim.Run();
  EXPECT_TRUE(first.IsIOError());
  EXPECT_TRUE(second.ok());
}

// ------------------------------------------------------------- BufferPool --

TEST(BufferPoolTest, FetchCachesPage) {
  Simulator sim;
  sim::Link link(&sim, "d", 10.0, 1000);
  SimDisk disk(&sim, &link, "d0");
  PageId id = disk.AllocPage();
  BufferPool pool(&sim, &disk, 4);
  sim.Spawn([](BufferPool* bp, PageId id) -> Task<> {
    auto r1 = co_await bp->Fetch(id);
    EXPECT_TRUE(r1.ok());
    bp->Unpin(id, false);
    auto r2 = co_await bp->Fetch(id);  // hit
    EXPECT_TRUE(r2.ok());
    bp->Unpin(id, false);
  }(&pool, id));
  sim.Run();
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_TRUE(pool.IsCached(id));
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  Simulator sim;
  sim::Link link(&sim, "d", 10.0, 1000);
  SimDisk disk(&sim, &link, "d0");
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(disk.AllocPage());
  BufferPool pool(&sim, &disk, 2);
  sim.Spawn([](BufferPool* bp, std::vector<PageId>* ids) -> Task<> {
    // Dirty the first page, then churn through the rest to force eviction.
    {
      auto r = co_await bp->Fetch((*ids)[0]);
      EXPECT_TRUE(r.ok());
      EXPECT_TRUE((*r)->Insert("dirty data").ok());
      bp->Unpin((*ids)[0], true);
    }
    for (size_t i = 1; i < ids->size(); ++i) {
      auto r = co_await bp->Fetch((*ids)[i]);
      EXPECT_TRUE(r.ok());
      bp->Unpin((*ids)[i], false);
    }
    // Re-fetch page 0 from disk; the insert must have been written back.
    auto r = co_await bp->Fetch((*ids)[0]);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ((*(*r)->Get(0)).ToString(), "dirty data");
    bp->Unpin((*ids)[0], false);
  }(&pool, &ids));
  sim.Run();
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_GT(pool.stats().dirty_writebacks, 0u);
}

TEST(BufferPoolTest, AllPinnedFailsFetch) {
  Simulator sim;
  sim::Link link(&sim, "d", 10.0, 1000);
  SimDisk disk(&sim, &link, "d0");
  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(disk.AllocPage());
  BufferPool pool(&sim, &disk, 2);
  Status st;
  sim.Spawn([](BufferPool* bp, std::vector<PageId>* ids, Status* out) -> Task<> {
    auto r1 = co_await bp->Fetch((*ids)[0]);
    EXPECT_TRUE(r1.ok());
    auto r2 = co_await bp->Fetch((*ids)[1]);
    EXPECT_TRUE(r2.ok());
    auto r3 = co_await bp->Fetch((*ids)[2]);  // no evictable frame
    *out = r3.status();
    bp->Unpin((*ids)[0], false);
    bp->Unpin((*ids)[1], false);
  }(&pool, &ids, &st));
  sim.Run();
  EXPECT_TRUE(st.IsResourceExhausted());
}

TEST(BufferPoolTest, NewPagePinsFreshPage) {
  Simulator sim;
  sim::Link link(&sim, "d", 10.0, 1000);
  SimDisk disk(&sim, &link, "d0");
  BufferPool pool(&sim, &disk, 4);
  sim.Spawn([](BufferPool* bp, SimDisk* disk) -> Task<> {
    auto r = co_await bp->NewPage();
    EXPECT_TRUE(r.ok());
    const PageId id = (*r)->page_id();
    EXPECT_TRUE(disk->Exists(id));
    EXPECT_EQ(bp->PinCount(id), 1);
    bp->Unpin(id, true);
  }(&pool, &disk));
  sim.Run();
}

TEST(BufferPoolTest, FlushAllPersistsDirtyFrames) {
  Simulator sim;
  sim::Link link(&sim, "d", 10.0, 1000);
  SimDisk disk(&sim, &link, "d0");
  PageId id = disk.AllocPage();
  BufferPool pool(&sim, &disk, 4);
  sim.Spawn([](BufferPool* bp, SimDisk* disk, PageId id) -> Task<> {
    auto r = co_await bp->Fetch(id);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE((*r)->Insert("flushed").ok());
    bp->Unpin(id, true);
    EXPECT_TRUE((co_await bp->FlushAll()).ok());
    Page direct;
    EXPECT_TRUE(disk->ReadPageSync(id, &direct).ok());
    EXPECT_EQ((*direct.Get(0)).ToString(), "flushed");
  }(&pool, &disk, id));
  sim.Run();
}

}  // namespace
}  // namespace bionicdb::storage
