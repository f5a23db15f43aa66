// Unit + property tests for the B+Tree: CRUD, iteration, SMOs, invariants,
// and model-based comparison against std::map under random workloads.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "index/btree.h"
#include "index/codec.h"

namespace bionicdb::index {
namespace {

TEST(BTreeTest, EmptyTree) {
  BTree t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.height(), 1);
  EXPECT_TRUE(t.Get("nope").status().IsNotFound());
  EXPECT_FALSE(t.Begin().Valid());
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(BTreeTest, InsertAndGet) {
  BTree t;
  ASSERT_TRUE(t.Insert("b", "2").ok());
  ASSERT_TRUE(t.Insert("a", "1").ok());
  ASSERT_TRUE(t.Insert("c", "3").ok());
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(*t.Get("a"), "1");
  EXPECT_EQ(*t.Get("b"), "2");
  EXPECT_EQ(*t.Get("c"), "3");
  EXPECT_TRUE(t.Get("d").status().IsNotFound());
}

TEST(BTreeTest, DuplicateInsertFailsWithoutOverwrite) {
  BTree t;
  ASSERT_TRUE(t.Insert("k", "v1").ok());
  EXPECT_TRUE(t.Insert("k", "v2").IsAlreadyExists());
  EXPECT_EQ(*t.Get("k"), "v1");
  ASSERT_TRUE(t.Insert("k", "v2", /*overwrite=*/true).ok());
  EXPECT_EQ(*t.Get("k"), "v2");
  EXPECT_EQ(t.size(), 1u);
}

TEST(BTreeTest, UpdateExisting) {
  BTree t;
  ASSERT_TRUE(t.Insert("k", "old").ok());
  ASSERT_TRUE(t.Update("k", "new").ok());
  EXPECT_EQ(*t.Get("k"), "new");
  EXPECT_TRUE(t.Update("missing", "x").IsNotFound());
}

TEST(BTreeTest, DeleteBasics) {
  BTree t;
  ASSERT_TRUE(t.Insert("a", "1").ok());
  ASSERT_TRUE(t.Insert("b", "2").ok());
  ASSERT_TRUE(t.Delete("a").ok());
  EXPECT_TRUE(t.Get("a").status().IsNotFound());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Delete("a").IsNotFound());
}

TEST(BTreeTest, SplitsGrowHeight) {
  BTreeConfig cfg;
  cfg.inner_fanout = 4;
  cfg.leaf_capacity = 4;
  BTree t(cfg);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t.Insert(EncodeKeyU64(i), EncodeKeyU64(i * 7)).ok());
  }
  EXPECT_EQ(t.size(), 1000u);
  EXPECT_GT(t.height(), 3);
  EXPECT_GT(t.stats().splits, 100u);
  ASSERT_TRUE(t.CheckInvariants().ok());
  for (uint64_t i = 0; i < 1000; ++i) {
    auto r = t.Get(EncodeKeyU64(i));
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(DecodeKeyU64(*r), i * 7);
  }
}

TEST(BTreeTest, HeightMatchesTracedVisits) {
  BTreeConfig cfg;
  cfg.inner_fanout = 8;
  cfg.leaf_capacity = 8;
  BTree t(cfg);
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(t.Insert(EncodeKeyU64(i), "v").ok());
  }
  int visits = 0;
  ASSERT_TRUE(t.GetTraced(EncodeKeyU64(1234), &visits).ok());
  EXPECT_EQ(visits, t.height());
}

TEST(BTreeTest, ReverseAndRandomInsertionOrders) {
  for (int order = 0; order < 2; ++order) {
    BTreeConfig cfg;
    cfg.inner_fanout = 6;
    cfg.leaf_capacity = 6;
    BTree t(cfg);
    Rng rng(99);
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 2000; ++i) keys.push_back(i);
    if (order == 0) {
      std::reverse(keys.begin(), keys.end());
    } else {
      for (size_t i = keys.size(); i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.Uniform(i)]);
      }
    }
    for (uint64_t k : keys) ASSERT_TRUE(t.Insert(EncodeKeyU64(k), "v").ok());
    ASSERT_TRUE(t.CheckInvariants().ok());
    EXPECT_EQ(t.size(), 2000u);
  }
}

TEST(BTreeTest, IterationIsSorted) {
  BTree t;
  Rng rng(7);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; ++i) {
    std::string k = rng.AlphaString(1, 12);
    std::string v = rng.AlphaString(0, 8);
    bool fresh = model.emplace(k, v).second;
    Status st = t.Insert(k, v);
    EXPECT_EQ(st.ok(), fresh);
  }
  auto mit = model.begin();
  for (auto it = t.Begin(); it.Valid(); it.Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it.key().ToString(), mit->first);
    EXPECT_EQ(it.value().ToString(), mit->second);
  }
  EXPECT_EQ(mit, model.end());
}

TEST(BTreeTest, SeekFindsLowerBound) {
  BTree t;
  for (uint64_t i = 0; i < 100; i += 10) {
    ASSERT_TRUE(t.Insert(EncodeKeyU64(i), "v").ok());
  }
  auto it = t.Seek(EncodeKeyU64(25));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(DecodeKeyU64(it.key()), 30u);
  it = t.Seek(EncodeKeyU64(90));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(DecodeKeyU64(it.key()), 90u);
  it = t.Seek(EncodeKeyU64(91));
  EXPECT_FALSE(it.Valid());
}

TEST(BTreeTest, SeekRangeHonorsUpperBound) {
  BTree t;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t.Insert(EncodeKeyU64(i), "v").ok());
  }
  int count = 0;
  for (auto it = t.SeekRange(EncodeKeyU64(100), EncodeKeyU64(200));
       it.Valid(); it.Next()) {
    uint64_t k = DecodeKeyU64(it.key());
    EXPECT_GE(k, 100u);
    EXPECT_LT(k, 200u);
    ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST(BTreeTest, SeekRangeEmptyWindow) {
  BTree t;
  for (uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(t.Insert(EncodeKeyU64(i * 100), "v").ok());
  auto it = t.SeekRange(EncodeKeyU64(150), EncodeKeyU64(190));
  EXPECT_FALSE(it.Valid());
}

TEST(BTreeTest, DeleteToEmptyAndReuse) {
  BTreeConfig cfg;
  cfg.inner_fanout = 4;
  cfg.leaf_capacity = 4;
  BTree t(cfg);
  for (uint64_t i = 0; i < 300; ++i) ASSERT_TRUE(t.Insert(EncodeKeyU64(i), "v").ok());
  for (uint64_t i = 0; i < 300; ++i) ASSERT_TRUE(t.Delete(EncodeKeyU64(i)).ok()) << i;
  EXPECT_EQ(t.size(), 0u);
  ASSERT_TRUE(t.CheckInvariants().ok());
  // The tree must be fully reusable after draining.
  for (uint64_t i = 0; i < 300; ++i) ASSERT_TRUE(t.Insert(EncodeKeyU64(i), "w").ok());
  EXPECT_EQ(t.size(), 300u);
  ASSERT_TRUE(t.CheckInvariants().ok());
  EXPECT_EQ(*t.Get(EncodeKeyU64(123)), "w");
}

TEST(BTreeTest, VariableLengthStringKeys) {
  BTree t;
  ASSERT_TRUE(t.Insert("", "empty").ok());
  ASSERT_TRUE(t.Insert("a", "1").ok());
  ASSERT_TRUE(t.Insert("aa", "2").ok());
  ASSERT_TRUE(t.Insert(std::string(1000, 'z'), "big").ok());
  EXPECT_EQ(*t.Get(""), "empty");
  EXPECT_EQ(*t.Get(std::string(1000, 'z')), "big");
  auto it = t.Begin();
  EXPECT_EQ(it.key().ToString(), "");
}

TEST(BTreeTest, ProbeStatsAccumulate) {
  BTree t;
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(t.Insert(EncodeKeyU64(i), "v").ok());
  const uint64_t before = t.stats().probes;
  (void)t.Get(EncodeKeyU64(5));
  (void)t.Get(EncodeKeyU64(999));  // miss still counts as a probe
  EXPECT_EQ(t.stats().probes, before + 2);
  EXPECT_GE(t.stats().node_visits, t.stats().probes);
}

TEST(BTreeTest, UpsertReportsReplacedFirstByte) {
  BTree t;
  EXPECT_EQ(t.Upsert("k", "abc"), -1);  // new key
  EXPECT_EQ(t.Upsert("k", "xyz-longer"), 'a');
  EXPECT_EQ(t.Upsert("k", ""), 'x');
  EXPECT_EQ(t.Upsert("k", "\xff"), -1);  // replaced an empty value
  EXPECT_EQ(t.Upsert("k", "z"), 0xff);
  EXPECT_EQ(*t.Get("k"), "z");
  EXPECT_EQ(t.size(), 1u);
}

TEST(BTreeTest, PeekIsNotAProbe) {
  BTree t;
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(t.Insert(EncodeKeyU64(i), EncodeKeyU64(i * 3)).ok());
  }
  ASSERT_EQ(t.stats().probes, 0u);
  EXPECT_EQ(DecodeKeyU64(*t.Peek(EncodeKeyU64(42))), 126u);
  EXPECT_TRUE(t.Peek(EncodeKeyU64(9999)).status().IsNotFound());
  EXPECT_EQ(t.stats().probes, 0u);
  EXPECT_EQ(t.stats().node_visits, 0u);
}

// Deletes never unlink a lone child, so a tree can end up with runs of
// empty leaves. Iterators must step over the whole run: one positioned on
// an empty leaf would read a key slot past its end.
TEST(BTreeTest, IteratorsSkipRunsOfEmptyLeaves) {
  BTreeConfig cfg;
  cfg.inner_fanout = 4;
  cfg.leaf_capacity = 4;
  BTree t(cfg);
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(t.Insert(EncodeKeyU64(i), "v").ok());
  }
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(t.Delete(EncodeKeyU64(i)).ok());
  }
  ASSERT_TRUE(t.CheckInvariants().ok());
  uint64_t want = 300;
  for (auto it = t.Begin(); it.Valid(); it.Next(), ++want) {
    ASSERT_EQ(DecodeKeyU64(it.key()), want);
  }
  EXPECT_EQ(want, 400u);
  auto it = t.Seek(EncodeKeyU64(7));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(DecodeKeyU64(it.key()), 300u);
  int count = 0;
  for (it = t.SeekRange(EncodeKeyU64(0), EncodeKeyU64(310)); it.Valid();
       it.Next()) {
    ++count;
  }
  EXPECT_EQ(count, 10);
}

// Pins the split points, which the node layout must not move: probe depth
// and node-visit counts feed the cost models. An ascending load (what every
// loader does) of 200k TATP-shaped pair keys.
TEST(BTreeTest, SequentialLoadShapeIsUnchanged) {
  BTree t;
  for (uint64_t i = 0; i < 200000; ++i) {
    ASSERT_TRUE(t.Insert(EncodeKeyU64Pair(i, i * 31), "v").ok());
  }
  EXPECT_EQ(t.height(), 4);
  EXPECT_EQ(t.stats().splits, 6440u);
  ASSERT_TRUE(t.CheckInvariants().ok());
}

// Entries are described by 16-bit lengths.
TEST(BTreeTest, MaxSizeKeyAndValueRoundTrip) {
  BTree t;
  const std::string key(65535, 'k');
  const std::string value(65535, 'v');
  ASSERT_TRUE(t.Insert(key, value).ok());
  ASSERT_TRUE(t.Insert("a", "1").ok());
  EXPECT_EQ(*t.Get(key), value);
  ASSERT_TRUE(t.Update("a", value).ok());
  EXPECT_EQ(*t.Get("a"), value);
  ASSERT_TRUE(t.CheckInvariants().ok());
}

// ------------------------------------------------------- property testing --

/// Insert-key order of a model run; the other ops pick keys at random.
enum class KeyOrder : uint16_t { kRandom, kAscending, kDescending };

struct ModelParams {
  uint64_t seed;
  int inner_fanout;
  int leaf_capacity;
  int key_space;
  KeyOrder order = KeyOrder::kRandom;
  /// Values are 1..max_value bytes. Past a few bytes, updates outgrow
  /// their slot (re-append) and leaves fill with dead bytes (compaction).
  uint16_t max_value = 6;
};

class BTreeModelTest : public ::testing::TestWithParam<ModelParams> {};

TEST_P(BTreeModelTest, MatchesStdMapUnderRandomOps) {
  const ModelParams p = GetParam();
  BTreeConfig cfg;
  cfg.inner_fanout = p.inner_fanout;
  cfg.leaf_capacity = p.leaf_capacity;
  BTree t(cfg);
  std::map<std::string, std::string> model;
  Rng rng(p.seed);
  const auto key_space = static_cast<uint64_t>(p.key_space);
  uint64_t ordered_inserts = 0;

  for (int step = 0; step < 4000; ++step) {
    std::string key = EncodeKeyU64(rng.Uniform(key_space));
    const uint64_t op = rng.Uniform(10);
    if (op < 5 && p.order != KeyOrder::kRandom) {
      const uint64_t i = ordered_inserts++ % key_space;
      key = EncodeKeyU64(p.order == KeyOrder::kAscending ? i
                                                         : key_space - 1 - i);
    }
    if (op < 5) {  // insert
      const std::string val = rng.AlphaString(1, p.max_value);
      const bool fresh = model.find(key) == model.end();
      Status st = t.Insert(key, val);
      ASSERT_EQ(st.ok(), fresh);
      if (fresh) model[key] = val;
    } else if (op < 7) {  // delete
      const bool present = model.erase(key) > 0;
      Status st = t.Delete(key);
      ASSERT_EQ(st.ok(), present);
    } else if (op < 9) {  // get
      auto r = t.Get(key);
      auto mit = model.find(key);
      ASSERT_EQ(r.ok(), mit != model.end());
      if (r.ok()) {
        ASSERT_EQ(*r, mit->second);
      }
    } else if (step % 2 == 0) {  // update
      const std::string val = rng.AlphaString(1, p.max_value);
      const bool present = model.find(key) != model.end();
      Status st = t.Update(key, val);
      ASSERT_EQ(st.ok(), present);
      if (present) model[key] = val;
    } else {  // upsert, which reports the replaced value's first byte
      const std::string val = rng.AlphaString(1, p.max_value);
      auto mit = model.find(key);
      const int replaced =
          mit == model.end() ? -1 : static_cast<unsigned char>(mit->second[0]);
      ASSERT_EQ(t.Upsert(key, val), replaced);
      model[key] = val;
    }
    ASSERT_EQ(t.size(), model.size());
    if (step % 500 == 0) {
      ASSERT_TRUE(t.CheckInvariants().ok()) << step;
    }
  }
  ASSERT_TRUE(t.CheckInvariants().ok());

  // Full scan equality.
  auto mit = model.begin();
  for (auto it = t.Begin(); it.Valid(); it.Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    ASSERT_EQ(it.key().ToString(), mit->first);
    ASSERT_EQ(it.value().ToString(), mit->second);
  }
  ASSERT_EQ(mit, model.end());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreeModelTest,
    ::testing::Values(ModelParams{1, 4, 4, 64},     // tiny nodes, hot keys
                      ModelParams{2, 4, 4, 100000},  // tiny nodes, sparse
                      ModelParams{3, 64, 64, 512},   // default nodes
                      ModelParams{4, 8, 32, 2048},   // asymmetric
                      ModelParams{5, 128, 16, 300},  // wide inner
                      ModelParams{6, 3, 2, 128},     // minimum legal sizes
                      // Ordered loads: every split takes the new key on
                      // one side only.
                      ModelParams{7, 8, 8, 4096, KeyOrder::kAscending},
                      ModelParams{8, 8, 8, 4096, KeyOrder::kDescending},
                      ModelParams{9, 4, 4, 4096, KeyOrder::kAscending, 200},
                      // Values that outgrow their slot and compact.
                      ModelParams{10, 64, 16, 512, KeyOrder::kRandom, 300},
                      ModelParams{11, 4, 4, 64, KeyOrder::kRandom, 300}),
    [](const ::testing::TestParamInfo<ModelParams>& info) {
      const auto& p = info.param;
      std::string name = "seed" + std::to_string(p.seed) + "_f" +
                         std::to_string(p.inner_fanout) + "_l" +
                         std::to_string(p.leaf_capacity) + "_k" +
                         std::to_string(p.key_space);
      if (p.order == KeyOrder::kAscending) name += "_asc";
      if (p.order == KeyOrder::kDescending) name += "_desc";
      if (p.max_value != 6) name += "_v" + std::to_string(p.max_value);
      return name;
    });

// ------------------------------------------------------------------ codec --

TEST(CodecTest, U64KeyRoundTrip) {
  for (uint64_t v : {0ULL, 1ULL, 255ULL, 65536ULL, ~0ULL}) {
    EXPECT_EQ(DecodeKeyU64(EncodeKeyU64(v)), v);
  }
}

TEST(CodecTest, U64KeyOrderMatchesNumericOrder) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    uint64_t a = rng.Next(), b = rng.Next();
    EXPECT_EQ(a < b, EncodeKeyU64(a) < EncodeKeyU64(b));
  }
}

TEST(CodecTest, PairKeyOrdersLexicographically) {
  EXPECT_LT(EncodeKeyU64Pair(1, 99), EncodeKeyU64Pair(2, 0));
  EXPECT_LT(EncodeKeyU64Pair(1, 5), EncodeKeyU64Pair(1, 6));
  EXPECT_LT(EncodeKeyU64Triple(1, 2, 3), EncodeKeyU64Triple(1, 2, 4));
}

TEST(CodecTest, RidRoundTrip) {
  storage::Rid rid;
  rid.page_id = 0x1122334455667788ULL;
  rid.slot = 0xABCD;
  storage::Rid back = DecodeRid(EncodeRid(rid));
  EXPECT_EQ(back.page_id, rid.page_id);
  EXPECT_EQ(back.slot, rid.slot);
}

}  // namespace
}  // namespace bionicdb::index
