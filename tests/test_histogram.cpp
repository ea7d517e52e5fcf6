// The always-on latency histograms (obs/histogram.hpp): bucket geometry
// pinned exactly, merge-of-per-thread == one global recorder, quantile
// monotonicity and edge cases, and the ConcurrentHistogram snapshot
// contract.  Lives in the obs test binary next to test_telemetry.cpp,
// which additionally proves the recording path allocates nothing (the
// counting operator new lives in that TU).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace {

using namespace finehmm;
using B = obs::HistogramBuckets;

// ------------------------------------------------------ bucket geometry

TEST(HistogramBuckets, SmallValuesIndexThemselves) {
  // Octave 0: every value below kSubBuckets is its own bucket — the
  // histogram is exact for tiny values.
  for (std::uint64_t v = 0; v < B::kSubBuckets; ++v) {
    EXPECT_EQ(B::index_of(v), v);
    EXPECT_EQ(B::lower_bound(v), v);
    EXPECT_EQ(B::upper_bound(v), v);
  }
}

TEST(HistogramBuckets, BoundariesBracketTheirBucket) {
  // lower_bound / upper_bound invert index_of across the whole range:
  // both edges land back in the bucket, and the next value after the
  // upper edge lands in a later one.
  std::uint64_t probes[] = {0,     1,     63,    64,    65,    127,
                            128,   1000,  4095,  4096,  1u << 20,
                            (1u << 20) + 12345, std::uint64_t{1} << 40,
                            ~std::uint64_t{0}};
  for (std::uint64_t v : probes) {
    const std::uint64_t idx = B::index_of(v);
    ASSERT_LT(idx, B::kBucketCount);
    EXPECT_LE(B::lower_bound(idx), v);
    EXPECT_GE(B::upper_bound(idx), v);
    EXPECT_EQ(B::index_of(B::lower_bound(idx)), idx);
    if (idx + 1 < B::kBucketCount) {
      EXPECT_EQ(B::index_of(B::upper_bound(idx)), idx);
      EXPECT_GT(B::index_of(B::upper_bound(idx) + 1), idx);
    }
  }
}

TEST(HistogramBuckets, IndexIsMonotoneAcrossOctaveSeams) {
  // Walk the first few octave seams densely: the index never decreases,
  // and within one octave consecutive values move at most one bucket.
  // (Across a seam the index jumps — each octave run's lower half is
  // unreachable since the leading sub-bucket bits start at 32 — which is
  // fine: index_of stays monotone and the table stays constant-time.)
  std::uint64_t prev = B::index_of(0);
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 14); ++v) {
    const std::uint64_t idx = B::index_of(v);
    EXPECT_GE(idx, prev) << "v=" << v;
    if (std::bit_width(v) == std::bit_width(v - 1)) {
      EXPECT_LE(idx - prev, 1u) << "v=" << v;
    }
    prev = idx;
  }
}

TEST(HistogramBuckets, RelativeErrorBoundHolds) {
  // Bucket width is 2^exponent and the leading sub-bucket bits are at
  // least kSubBuckets/2, so the quantization error is bounded by
  // 2/kSubBuckets (~3.1%) everywhere and 1/kSubBuckets at octave tops.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng() >> (rng() % 50);  // spread the octaves
    const std::uint64_t idx = B::index_of(v);
    const double width = static_cast<double>(B::upper_bound(idx)) -
                         static_cast<double>(B::lower_bound(idx));
    if (v >= B::kSubBuckets && idx + 1 < B::kBucketCount) {
      EXPECT_LE(width, 2.0 * static_cast<double>(v) / B::kSubBuckets + 1.0)
          << "v=" << v;
    }
  }
}

// ------------------------------------------------------------ recording

TEST(Histogram, CountSumMaxTrackRecords) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty -> 0, not UB
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 60u);
  EXPECT_EQ(h.max(), 30u);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0u);
}

TEST(Histogram, ExactQuantilesInTheLinearOctave) {
  // Values below kSubBuckets are bucketed exactly, so quantiles are
  // exact order statistics there.
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 50; ++v) h.record(v);
  EXPECT_EQ(h.quantile(0.0), 1u);   // ceil(0*50) clamped to first sample
  EXPECT_EQ(h.quantile(0.5), 25u);
  EXPECT_EQ(h.quantile(1.0), 50u);
}

TEST(Histogram, QuantileIsMonotoneInQ) {
  obs::Histogram h;
  std::mt19937_64 rng(11);
  std::lognormal_distribution<double> lat(14.0, 1.5);  // ~ns latencies
  for (int i = 0; i < 5000; ++i)
    h.record(static_cast<std::uint64_t>(lat(rng)));
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const std::uint64_t v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  // And the top quantile never exceeds the recorded max (the upper edge
  // is clamped to it).
  EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(Histogram, QuantileNeverUnderstates) {
  // The conservative upper-edge estimate: for every recorded sample set,
  // quantile(q) >= the true order statistic.
  obs::Histogram h;
  std::vector<std::uint64_t> samples;
  std::mt19937_64 rng(23);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng() % 1000000;
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(q * (samples.size() - 1));
    EXPECT_GE(h.quantile(q), samples[rank]) << "q=" << q;
  }
}

TEST(Histogram, MergeOfPerThreadSlotsEqualsGlobal) {
  // The daemon merges per-thread Histograms at serial points; the result
  // must be indistinguishable from one recorder that saw every sample.
  constexpr int kThreads = 4;
  obs::Histogram global;
  obs::Histogram slots[kThreads];
  std::mt19937_64 rng(31);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng() % (std::uint64_t{1} << 30);
    global.record(v);
    slots[i % kThreads].record(v);
  }
  obs::Histogram merged;
  for (const auto& s : slots) merged.merge(s);
  EXPECT_EQ(merged.count(), global.count());
  EXPECT_EQ(merged.sum(), global.sum());
  EXPECT_EQ(merged.max(), global.max());
  for (std::uint64_t b = 0; b < B::kBucketCount; ++b)
    ASSERT_EQ(merged.bucket(b), global.bucket(b)) << "bucket " << b;
  for (double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_EQ(merged.quantile(q), global.quantile(q)) << "q=" << q;
}

TEST(ConcurrentHistogram, SnapshotMatchesPlainRecorder) {
  obs::ConcurrentHistogram ch;
  obs::Histogram plain;
  std::mt19937_64 rng(41);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng() % (std::uint64_t{1} << 24);
    ch.record(v);
    plain.record(v);
  }
  EXPECT_EQ(ch.count(), plain.count());
  const obs::Histogram snap = ch.snapshot();
  EXPECT_EQ(snap.count(), plain.count());
  EXPECT_EQ(snap.sum(), plain.sum());
  for (std::uint64_t b = 0; b < B::kBucketCount; ++b)
    ASSERT_EQ(snap.bucket(b), plain.bucket(b)) << "bucket " << b;
  for (double q : {0.5, 0.9})
    EXPECT_EQ(snap.quantile(q), plain.quantile(q)) << "q=" << q;
  // The lock-free snapshot's max is the top nonempty bucket's upper
  // edge (the exact max isn't tracked atomically), so quantiles landing
  // in that top bucket can only round UP relative to the single-writer
  // recorder — never down.
  EXPECT_GE(snap.max(), plain.max());
  for (double q : {0.99, 0.999})
    EXPECT_GE(snap.quantile(q), plain.quantile(q)) << "q=" << q;
}

TEST(LatencyQuantiles, ReportsTheStandardSet) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const auto lq = obs::latency_quantiles(h);
  EXPECT_EQ(lq.count, 1000u);
  EXPECT_EQ(lq.sum, h.sum());
  EXPECT_EQ(lq.p50, h.quantile(0.50));
  EXPECT_EQ(lq.p90, h.quantile(0.90));
  EXPECT_EQ(lq.p99, h.quantile(0.99));
  EXPECT_EQ(lq.p999, h.quantile(0.999));
  EXPECT_LE(lq.p50, lq.p90);
  EXPECT_LE(lq.p90, lq.p99);
  EXPECT_LE(lq.p99, lq.p999);
}

TEST(LatencyWriters, JsonAndPrometheusShowTheSameQuantiles) {
  // One writer pair serves every daemon's STATS and /metrics, so the
  // two surfaces must print the same number for the same quantile.
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 5000; ++v) h.record(v * 1000);
  std::ostringstream json, prom;
  obs::write_latency_json(json, h);
  obs::write_latency_prometheus(prom, "lat_seconds", "shard=\"2\"", h);
  const std::string j = json.str();
  const std::string p = prom.str();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"count\": 5000"), std::string::npos);
  for (const auto& [key, quantile] :
       {std::pair{"p50", "0.5"}, std::pair{"p90", "0.9"},
        std::pair{"p99", "0.99"}, std::pair{"p999", "0.999"}}) {
    const std::string line =
        std::string("lat_seconds{shard=\"2\",quantile=\"") + quantile +
        "\"} ";
    const std::size_t at = p.find(line);
    ASSERT_NE(at, std::string::npos) << quantile;
    const std::size_t v = at + line.size();
    const std::string value = p.substr(v, p.find('\n', v) - v);
    EXPECT_NE(j.find(std::string("\"") + key + "_seconds\": " + value),
              std::string::npos)
        << key << " = " << value;
  }
  EXPECT_NE(p.find("lat_seconds_count{shard=\"2\"} 5000\n"),
            std::string::npos);
  EXPECT_NE(p.find("lat_seconds_sum{shard=\"2\"} "), std::string::npos);

  // Unlabelled series carry no empty braces on _sum / _count.
  std::ostringstream bare;
  obs::write_latency_prometheus(bare, "lat_seconds", "", h);
  EXPECT_NE(bare.str().find("lat_seconds{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(bare.str().find("lat_seconds_count 5000\n"), std::string::npos);
}

}  // namespace
