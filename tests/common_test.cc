// Unit tests for src/common: Status/Result, Slice, RNG, Histogram,
// CRC32C.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace bionicdb {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
  EXPECT_EQ(s.message(), "key 42");
}

TEST(StatusTest, AllConstructorsProduceMatchingPredicates) {
  EXPECT_TRUE(Status::AlreadyExists().IsAlreadyExists());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::ResourceExhausted().IsResourceExhausted());
  EXPECT_TRUE(Status::OutOfMemory().IsOutOfMemory());
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound() == Status::Aborted());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    BIONICDB_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

// ---------------------------------------------------------------- Result --

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool ok) -> Result<int> {
    if (ok) return 10;
    return Status::Busy();
  };
  auto consume = [&](bool ok) -> Status {
    int v = 0;
    BIONICDB_ASSIGN_OR_RETURN(v, produce(ok));
    EXPECT_EQ(v, 10);
    return Status::OK();
  };
  EXPECT_TRUE(consume(true).ok());
  EXPECT_TRUE(consume(false).IsBusy());
}

// ----------------------------------------------------------------- Slice --

TEST(SliceTest, BasicViews) {
  std::string s = "hello";
  Slice sl(s);
  EXPECT_EQ(sl.size(), 5u);
  EXPECT_EQ(sl.ToString(), "hello");
  EXPECT_EQ(sl[1], 'e');
  EXPECT_FALSE(sl.empty());
  EXPECT_TRUE(Slice().empty());
}

TEST(SliceTest, CompareIsLexicographic) {
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").Compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);   // prefix sorts first
  EXPECT_GT(Slice("abc").Compare(Slice("ab")), 0);
}

TEST(SliceTest, EmbeddedNulBytesCompareCorrectly) {
  std::string a("a\0b", 3);
  std::string b("a\0c", 3);
  EXPECT_LT(Slice(a).Compare(Slice(b)), 0);
  EXPECT_EQ(Slice(a).size(), 3u);
}

TEST(SliceTest, StartsWithAndRemovePrefix) {
  Slice s("prefix:value");
  EXPECT_TRUE(s.StartsWith("prefix:"));
  EXPECT_FALSE(s.StartsWith("value"));
  s.RemovePrefix(7);
  EXPECT_EQ(s.ToString(), "value");
}

TEST(SliceTest, OperatorsMatchCompare) {
  EXPECT_TRUE(Slice("a") < Slice("b"));
  EXPECT_TRUE(Slice("a") == Slice("a"));
  EXPECT_TRUE(Slice("a") != Slice("b"));
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values should appear in 1000 draws
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, AlphaStringRespectsLengthBounds) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    std::string s = rng.AlphaString(4, 9);
    EXPECT_GE(s.size(), 4u);
    EXPECT_LE(s.size(), 9u);
  }
}

TEST(RngTest, NURandStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NURand(255, 0, 999, 123);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 999);
  }
}

TEST(RandomPermutationTest, IsAPermutation) {
  Rng rng(23);
  auto p = RandomPermutation(100, &rng);
  std::set<uint32_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 99u);
}

// -------------------------------------------------------------- Histogram --

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_EQ(h.Mean(), 1000.0);
  // Log-bucketed: allow the bucket's relative error.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 1000.0, 1000.0 * 0.07);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) h.Add(static_cast<int64_t>(rng.Uniform(100000)));
  EXPECT_LE(h.Percentile(50), h.Percentile(90));
  EXPECT_LE(h.Percentile(90), h.Percentile(99));
  EXPECT_LE(h.Percentile(99), h.max());
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50000.0, 5000.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000000);
}

TEST(HistogramTest, MergeEmptyIsIdentityBothWays) {
  Histogram a, empty;
  a.Add(42);
  a.Merge(empty);  // merging an empty histogram changes nothing
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42);
  EXPECT_EQ(a.max(), 42);
  empty.Merge(a);  // merging INTO an empty one adopts the source stats
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.min(), 42);
  EXPECT_EQ(empty.max(), 42);
  Histogram e1, e2;
  e1.Merge(e2);  // empty + empty stays empty
  EXPECT_EQ(e1.count(), 0u);
}

// "Mismatched bucket bounds" cannot be rejected at run time because they
// cannot be constructed: every Histogram shares one compile-time layout
// (kBuckets log-spaced ranges), so Merge() is always bucket-compatible.
// This test pins that invariant — same value lands in the same bucket of
// any two instances, so a merge is a plain per-bucket sum.
TEST(HistogramTest, BucketLayoutIsSharedByConstruction) {
  Histogram a, b;
  for (int64_t v : {0LL, 1LL, 17LL, 4096LL, 123456789LL}) {
    a.Add(v);
    b.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 10u);
  // Identical per-bucket contents => identical percentile answers.
  EXPECT_EQ(a.Percentile(50), b.Percentile(50));
  EXPECT_EQ(a.Percentile(99.9), b.Percentile(99.9));
}

TEST(HistogramTest, P999OnSparseDataClampsToMax) {
  Histogram h;
  // Three samples: p99.9 rank falls on the last one; the log-bucketed
  // answer must clamp to the exact recorded max, not the bucket bound.
  h.Add(100);
  h.Add(200);
  h.Add(1000000007);
  EXPECT_EQ(h.Percentile(99.9), 1000000007);
  // Single sample: every percentile is that sample.
  Histogram one;
  one.Add(5);
  EXPECT_EQ(one.Percentile(99.9), 5);
  // Empty: percentile of nothing is zero, not UB.
  Histogram empty;
  EXPECT_EQ(empty.Percentile(99.9), 0);
}

TEST(HistogramTest, CountAboveThresholds) {
  Histogram h;
  EXPECT_EQ(h.CountAbove(0), 0u);  // empty
  for (int64_t v = 1; v <= 1000; ++v) h.Add(v);
  EXPECT_EQ(h.CountAbove(-1), 1000u);   // below min: everything
  EXPECT_EQ(h.CountAbove(h.max()), 0u); // at/above max: nothing
  EXPECT_EQ(h.CountAbove(1000000), 0u);
  // Bucket-granularity upper bound on the strict count: never undercounts,
  // and overshoots by at most the threshold's own bucket width.
  const uint64_t above = h.CountAbove(500);
  EXPECT_GE(above, 500u);
  EXPECT_LE(above, 505u);  // bucket holding 500 spans 496..511
}

TEST(HistogramTest, CountAboveExactBelowSixteen) {
  // Values < 16 land in single-value buckets, so every small threshold is
  // a bucket upper bound and the answer is exact.
  Histogram h;
  for (int64_t v = 0; v < 16; ++v) h.Add(v);
  for (int64_t t = 0; t < 15; ++t) {
    EXPECT_EQ(h.CountAbove(t), static_cast<uint64_t>(15 - t)) << "t=" << t;
  }
}

TEST(HistogramTest, CountAboveMidBucketNeverDropsTailSamples) {
  // Regression: 500 and 510 share a log bucket (496..511). A threshold of
  // 500 used to start the walk one bucket later and answer 0 — silently
  // dropping the sample at 510 that is strictly above the threshold.
  Histogram h;
  h.Add(100);
  h.Add(510);
  EXPECT_GE(h.CountAbove(500), 1u);
  // And the conservative include never pulls in earlier buckets: samples
  // strictly below the threshold's bucket stay excluded.
  EXPECT_LE(h.CountAbove(500), 2u);
  EXPECT_EQ(h.CountAbove(511), 0u);  // 511 == bucket upper bound: exact
}

TEST(HistogramTest, CountAboveBucketBoundaryIsExact) {
  // 511 is the upper bound of the bucket holding 496..511; a sample AT the
  // boundary must not be counted above it, while the next bucket must be.
  Histogram h;
  h.Add(511);
  h.Add(512);
  EXPECT_EQ(h.CountAbove(511), 1u);
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_EQ(h.min(), 0);
}

TEST(HistogramTest, SummaryMentionsCount) {
  Histogram h;
  h.Add(1500);
  EXPECT_NE(h.Summary().find("n=1"), std::string::npos);
}

TEST(HistogramTest, PercentileZeroReturnsMin) {
  Histogram h;
  h.Add(500);
  h.Add(9000);
  // p=0 used to walk into the (possibly empty) first bucket and answer 0.
  EXPECT_EQ(h.Percentile(0), 500);
  EXPECT_EQ(h.Percentile(-3), 500);
}

TEST(HistogramTest, SingleSamplePercentilesAllEqual) {
  Histogram h;
  h.Add(777);
  EXPECT_EQ(h.Percentile(0), 777);
  EXPECT_EQ(h.Percentile(50), 777);
  EXPECT_EQ(h.Percentile(99), 777);
  EXPECT_EQ(h.Percentile(100), 777);
}

TEST(HistogramTest, OverflowBucketSaturates) {
  Histogram h;
  const int64_t huge = std::numeric_limits<int64_t>::max() - 7;
  h.Add(huge);
  // The top power-of-two ranges used to left-shift past int64 (UB); the
  // bucket bound must saturate and then clamp to the recorded max.
  EXPECT_EQ(h.Percentile(50), huge);
  EXPECT_EQ(h.Percentile(100), huge);
  EXPECT_EQ(h.max(), huge);
}

TEST(FormatNanosTest, PicksAdaptiveUnits) {
  EXPECT_EQ(FormatNanos(412), "412ns");
  EXPECT_EQ(FormatNanos(1300), "1.3us");
  EXPECT_EQ(FormatNanos(2500000), "2.50ms");
  EXPECT_EQ(FormatNanos(1.2e9), "1.200s");
}

// ------------------------------------------------------------------ CRC32 --

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") == 0xE3069283.
  const char* s = "123456789";
  EXPECT_EQ(Crc32c(0, s, 9), 0xE3069283u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32c(0, "", 0), 0u); }

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(64, 'x');
  uint32_t base = Crc32c(0, data.data(), data.size());
  data[17] ^= 1;
  EXPECT_NE(base, Crc32c(0, data.data(), data.size()));
}

TEST(Crc32Test, MaskRoundTrips) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);
  }
}

}  // namespace
}  // namespace bionicdb
