// TSan-targeted stress tests for LocalityMemo (core/consumers.h): during
// a memoized locality scan every worker accumulates the fresh jobs into
// its own block's partial while the memo itself (entries, hits, misses)
// is touched only by the driving thread in Prepare/Merge. These tests
// push the pathological geometries at that protocol — one-row blocks
// maximize the number of concurrent partials, a ragged last block
// exercises the final partial range — and hold the memo to the engine's
// determinism contract: bit-identical statistics for every worker count,
// memoized or not, with the second scan served from the committed
// entries. A scan attempt that fails must commit nothing.
//
// Lives in the `parallel`-labeled binary so the tsan CTest preset runs it.

#include "core/consumers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "data/engine.h"
#include "data/fault_source.h"
#include "distance/metric.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

constexpr size_t kWorkerCounts[] = {1, 2, 7, 16};

struct MemoFixture {
  SyntheticData data;
  Matrix union_coords;
  std::vector<std::vector<size_t>> variants;
  std::vector<size_t> slots;
  size_t distinct_jobs = 0;  // distinct (slot, delta) keys of `variants`
};

// Small on purpose: block_rows = 1 turns every row into its own block, so
// a TSan run over 1153 rows already schedules 1153 concurrent partials
// per scan without taking minutes.
MemoFixture MakeMemoFixture() {
  GeneratorParams gen;
  gen.num_points = 1153;  // prime: ragged for every block size tested
  gen.space_dims = 8;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {3, 3, 4};
  gen.seed = 29;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok());
  MemoFixture fixture;
  fixture.data = std::move(data).value();
  MemorySource source(fixture.data.dataset);
  std::vector<size_t> union_indices{7, 311, 600, 901, 1100};
  fixture.union_coords = std::move(source.Fetch(union_indices)).value();
  fixture.variants = {{0, 1, 2}, {0, 3, 4}};
  fixture.slots = {2, 5, 8, 13, 19};
  // Medoid 0 sits in both variants; it shares a job only if its nearest
  // other medoid is equally far in both.
  auto delta = [&](size_t a, const std::vector<size_t>& variant) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t b : variant)
      if (b != a)
        best = std::min(best, ManhattanDistance(fixture.union_coords.row(a),
                                                fixture.union_coords.row(b)) /
                                  8.0);
    return best;
  };
  const bool shared =
      delta(0, fixture.variants[0]) == delta(0, fixture.variants[1]);
  fixture.distinct_jobs = shared ? 5 : 6;
  return fixture;
}

// Runs `scans` memoized locality scans with the given worker count and
// block size, leaving the statistics in `consumer` and the entries in
// `memo`.
void RunMemoScans(const MemoFixture& fixture, size_t workers,
                  size_t block_rows, int scans, LocalityMemo* memo,
                  LocalityStatsConsumer* consumer) {
  MemorySource source(fixture.data.dataset);
  ScanExecutor executor(ScanOptions{workers, block_rows, nullptr});
  for (int scan = 0; scan < scans; ++scan) {
    ASSERT_TRUE(consumer
                    ->Bind(&fixture.union_coords, fixture.variants,
                           std::span<const size_t>(fixture.slots), memo)
                    .ok());
    ASSERT_TRUE(executor.Run(source, {consumer}).ok());
  }
}

// Unmemoized sequential reference at the given block size.
LocalityStatsConsumer Uncached(const MemoFixture& fixture,
                               size_t block_rows) {
  MemorySource source(fixture.data.dataset);
  LocalityStatsConsumer uncached;
  EXPECT_TRUE(uncached.Bind(&fixture.union_coords, fixture.variants).ok());
  EXPECT_TRUE(ScanExecutor(ScanOptions{1, block_rows, nullptr})
                  .Run(source, {&uncached})
                  .ok());
  return uncached;
}

TEST(CacheStressTest, OneRowBlocksBitIdenticalAcrossWorkerCounts) {
  MemoFixture fixture = MakeMemoFixture();
  LocalityStatsConsumer uncached = Uncached(fixture, /*block_rows=*/1);

  for (size_t workers : kWorkerCounts) {
    LocalityMemo memo;
    LocalityStatsConsumer consumer;
    RunMemoScans(fixture, workers, /*block_rows=*/1, /*scans=*/2, &memo,
                 &consumer);
    // Scan 1 accumulates every job; scan 2 is answered entirely from the
    // entries scan 1 committed on Merge.
    EXPECT_EQ(memo.misses, fixture.distinct_jobs) << workers << " workers";
    EXPECT_EQ(memo.hits, fixture.distinct_jobs) << workers << " workers";
    EXPECT_EQ(memo.entries.size(), fixture.distinct_jobs);
    // Every medoid is a data point, so each locality holds at least it.
    for (const auto& [key, entry] : memo.entries) {
      EXPECT_GE(entry.count, 1u) << "slot " << key.first;
      EXPECT_EQ(entry.row.size(), 8u);
    }
    for (size_t v = 0; v < fixture.variants.size(); ++v)
      EXPECT_EQ(consumer.stats(v), uncached.stats(v))
          << workers << " workers, variant " << v;
  }
}

TEST(CacheStressTest, RaggedLastBlockBitIdenticalAcrossWorkerCounts) {
  MemoFixture fixture = MakeMemoFixture();
  // 1153 = 12 * 96 + 1: twelve full blocks plus a one-row tail, so the
  // final partial covers as few rows as a ragged block can.
  constexpr size_t kBlockRows = 96;
  static_assert(1153 % kBlockRows != 0);
  LocalityStatsConsumer uncached = Uncached(fixture, kBlockRows);

  for (size_t workers : kWorkerCounts) {
    LocalityMemo memo;
    LocalityStatsConsumer consumer;
    RunMemoScans(fixture, workers, kBlockRows, /*scans=*/2, &memo,
                 &consumer);
    EXPECT_EQ(memo.hits, fixture.distinct_jobs) << workers << " workers";
    for (size_t v = 0; v < fixture.variants.size(); ++v)
      EXPECT_EQ(consumer.stats(v), uncached.stats(v))
          << workers << " workers, variant " << v;
  }
}

TEST(CacheStressTest, GeometryChangeRefillsMemo) {
  MemoFixture fixture = MakeMemoFixture();

  // Block order is part of a locality's summation order, so entries
  // filled under one block size must never answer a scan under another:
  // the memo drops them and refills, matching the uncached reference of
  // the new geometry bit for bit.
  LocalityMemo memo;
  LocalityStatsConsumer consumer;
  RunMemoScans(fixture, /*workers=*/16, /*block_rows=*/1, /*scans=*/1,
               &memo, &consumer);
  ASSERT_EQ(memo.entries.size(), fixture.distinct_jobs);
  RunMemoScans(fixture, /*workers=*/16, /*block_rows=*/4096, /*scans=*/1,
               &memo, &consumer);
  EXPECT_EQ(memo.hits, 0u);
  EXPECT_EQ(memo.misses, 2 * fixture.distinct_jobs);
  EXPECT_EQ(memo.entries.size(), fixture.distinct_jobs);
  LocalityStatsConsumer uncached = Uncached(fixture, 4096);
  for (size_t v = 0; v < fixture.variants.size(); ++v)
    EXPECT_EQ(consumer.stats(v), uncached.stats(v)) << "variant " << v;
}

TEST(CacheStressTest, FaultedAttemptCommitsNothing) {
  MemoFixture fixture = MakeMemoFixture();
  constexpr size_t kBlockRows = 96;
  LocalityStatsConsumer uncached = Uncached(fixture, kBlockRows);
  MemorySource memory(fixture.data.dataset);

  // Every attempt fails part-way through the scan, after some blocks
  // were consumed: the memo must stay empty.
  FaultPlan always;
  always.fail_rate = 1.0;
  always.max_consecutive = 100;
  FaultInjectingPointSource failing(memory, always);
  ScanOptions options{1, kBlockRows, nullptr};
  options.retry.max_attempts = 3;
  LocalityMemo memo;
  LocalityStatsConsumer consumer;
  ASSERT_TRUE(consumer
                  .Bind(&fixture.union_coords, fixture.variants,
                        std::span<const size_t>(fixture.slots), &memo)
                  .ok());
  EXPECT_FALSE(ScanExecutor(options).Run(failing, {&consumer}).ok());
  EXPECT_TRUE(memo.entries.empty());
  EXPECT_EQ(memo.hits, 0u);
  EXPECT_EQ(memo.misses, 0u);

  // The first attempt fails and the retry succeeds: each job is
  // committed once, with the uncached bits.
  FaultPlan once;
  once.fail_rate = 1.0;
  once.max_consecutive = 1;
  FaultInjectingPointSource flaky(memory, once);
  ASSERT_TRUE(consumer
                  .Bind(&fixture.union_coords, fixture.variants,
                        std::span<const size_t>(fixture.slots), &memo)
                  .ok());
  RunStats stats;
  options.stats = &stats;
  ASSERT_TRUE(ScanExecutor(options).Run(flaky, {&consumer}).ok());
  EXPECT_EQ(stats.failed_scans, 1u);
  EXPECT_EQ(memo.misses, fixture.distinct_jobs);
  EXPECT_EQ(memo.entries.size(), fixture.distinct_jobs);
  for (size_t v = 0; v < fixture.variants.size(); ++v)
    EXPECT_EQ(consumer.stats(v), uncached.stats(v)) << "variant " << v;
}

}  // namespace
}  // namespace proclus
