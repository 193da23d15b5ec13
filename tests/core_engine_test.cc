// Engine-equivalence tests for the fused scan executor.
//
//  * The fused hill climb (ProclusParams::fuse_scans, the default) and the
//    classic pass-per-aggregate loop reproduce the recorded pre-refactor
//    goldens bit-for-bit: objective bits, a hash of the labels, medoid
//    indices, iteration/improvement counts, and outliers.
//  * Fused == classic across MemorySource/DiskSource and thread counts.
//  * The RunStats scan budget holds exactly: the fused engine spends one
//    bootstrap scan per restart plus 2 scans per iteration (the classic
//    loop spends 4) and 3 refinement scans (classic: 4).
//  * N consumers sharing one physical scan produce bit-identical outputs
//    to the same consumers run over separate scans, while the scan and
//    byte counters record the saved passes.

#include "data/engine.h"

#include <gtest/gtest.h>

#include "test_temp.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <span>

#include "core/consumers.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/fault_source.h"
#include "distance/metric.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

struct Golden {
  uint64_t algo_seed;
  uint64_t objective_bits;
  uint64_t labels_hash;
  size_t iterations;
  size_t improvements;
  std::vector<size_t> medoids;
  size_t outliers;
};

// Recorded from the pre-refactor pass-per-aggregate implementation on the
// fixture below (n=5000, d=10, k=3, data seed 3). Both engines must keep
// reproducing these bit-for-bit.
const Golden kGoldens[] = {
    {5, 0x400a6cd18d2f7a94ULL, 0x92d5dcf93bcdf92aULL, 128, 14,
     {1924, 769, 4122}, 18},
    {9, 0x400ab14d0fddf539ULL, 0x5e07399f4c3344b5ULL, 122, 12,
     {4932, 3639, 3351}, 11},
};

uint64_t HashLabels(const std::vector<int>& labels) {
  // FNV-1a over the label bytes, little-endian per label.
  uint64_t h = 1469598103934665603ULL;
  for (int v : labels) {
    for (size_t b = 0; b < sizeof(v); ++b) {
      h ^= static_cast<uint64_t>((static_cast<unsigned>(v) >> (8 * b)) &
                                 0xff);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

uint64_t ObjectiveBits(double objective) {
  uint64_t bits = 0;
  std::memcpy(&bits, &objective, sizeof(bits));
  return bits;
}

struct Fixture {
  SyntheticData data;
  std::string disk_path;
};

Fixture MakeFixture() {
  GeneratorParams gen;
  gen.num_points = 5000;
  gen.space_dims = 10;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {3, 3, 3};
  gen.seed = 3;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok());
  Fixture fixture;
  fixture.data = std::move(data).value();
  fixture.disk_path = TestTempPath("engine_fixture.bin");
  EXPECT_TRUE(
      WriteBinaryFile(fixture.data.dataset, fixture.disk_path).ok());
  return fixture;
}

ProclusParams GoldenParams(uint64_t algo_seed, bool fuse) {
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 3.0;
  params.seed = algo_seed;
  params.num_restarts = 2;
  params.block_rows = 512;
  params.fuse_scans = fuse;
  return params;
}

void ExpectGolden(const ProjectedClustering& result, const Golden& golden) {
  EXPECT_EQ(ObjectiveBits(result.objective), golden.objective_bits);
  EXPECT_EQ(HashLabels(result.labels), golden.labels_hash);
  EXPECT_EQ(result.iterations, golden.iterations);
  EXPECT_EQ(result.improvements, golden.improvements);
  EXPECT_EQ(result.medoids, golden.medoids);
  EXPECT_EQ(result.NumOutliers(), golden.outliers);
}

TEST(EngineGoldenTest, FusedReproducesSeedGoldens) {
  Fixture fixture = MakeFixture();
  for (const Golden& golden : kGoldens) {
    auto result = RunProclus(fixture.data.dataset,
                             GoldenParams(golden.algo_seed, true));
    ASSERT_TRUE(result.ok());
    ExpectGolden(*result, golden);
    // Fused scan budget: one bootstrap scan per restart, 2 scans per
    // iteration, 3 refinement scans, no scans during initialization.
    const RunStats& stats = result->stats;
    EXPECT_EQ(stats.init_scans, 0u);
    EXPECT_EQ(stats.bootstrap_scans, 2u);
    EXPECT_EQ(stats.iterative_scans, 2 * golden.iterations);
    EXPECT_EQ(stats.refine_scans, 3u);
    EXPECT_EQ(stats.scans_issued, stats.init_scans + stats.bootstrap_scans +
                                      stats.iterative_scans +
                                      stats.refine_scans);
    EXPECT_EQ(stats.rows_visited, stats.scans_issued * 5000);
    EXPECT_EQ(stats.bytes_read, 0u);  // In-memory blocks are zero-copy.
    EXPECT_GT(stats.distance_evals, 0u);
  }
}

TEST(EngineGoldenTest, LocalityMemoAccumulatesEachKeyOnce) {
  // The fused climb answers repeated (slot, delta) localities from the
  // run's memo: a key is accumulated the first time the climb requests
  // it and never again (Merge enforces it — committing a key twice is a
  // CHECK failure), so the miss counter is the number of distinct keys
  // the climb requested. It is a property of the climb alone: thread
  // count, source and retried scan attempts must not move it, and a
  // failed attempt commits (and counts) nothing.
  Fixture fixture = MakeFixture();
  auto disk = DiskSource::Open(fixture.disk_path);
  ASSERT_TRUE(disk.ok());
  MemorySource memory(fixture.data.dataset);
  FaultPlan plan;
  plan.seed = 17;
  plan.fail_rate = 0.05;
  FaultInjectingPointSource flaky(memory, plan);
  // Recorded on this fixture: {hits, misses} per golden seed.
  const uint64_t kCounters[][2] = {{374, 140}, {362, 192}};
  for (size_t g = 0; g < std::size(kGoldens); ++g) {
    const Golden& golden = kGoldens[g];
    SCOPED_TRACE("algo seed " + std::to_string(golden.algo_seed));
    ProclusParams params = GoldenParams(golden.algo_seed, true);
    params.retry.max_attempts = 8;
    for (size_t threads : {1, 4}) {
      params.num_threads = threads;
      for (const PointSource* source :
           {static_cast<const PointSource*>(&memory),
            static_cast<const PointSource*>(&*disk),
            static_cast<const PointSource*>(&flaky)}) {
        auto result = RunProclusOnSource(*source, params);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ExpectGolden(*result, golden);
        EXPECT_EQ(result->stats.locality_cache_hits, kCounters[g][0]);
        EXPECT_EQ(result->stats.locality_cache_misses, kCounters[g][1]);
      }
    }
  }
  EXPECT_GT(flaky.fault_counters().injected_scan_faults, 0u);
}

TEST(EngineGoldenTest, ClassicReproducesSeedGoldens) {
  Fixture fixture = MakeFixture();
  for (const Golden& golden : kGoldens) {
    auto result = RunProclus(fixture.data.dataset,
                             GoldenParams(golden.algo_seed, false));
    ASSERT_TRUE(result.ok());
    ExpectGolden(*result, golden);
    // Classic budget: 4 scans per iteration (locality, assign, and the
    // two-scan evaluation), 4 refinement scans, no bootstrap.
    const RunStats& stats = result->stats;
    EXPECT_EQ(stats.bootstrap_scans, 0u);
    EXPECT_EQ(stats.iterative_scans, 4 * golden.iterations);
    EXPECT_EQ(stats.refine_scans, 4u);
    EXPECT_EQ(stats.scans_issued,
              stats.iterative_scans + stats.refine_scans);
  }
}

TEST(EngineGoldenTest, FusedMatchesClassicAcrossSourcesAndThreads) {
  Fixture fixture = MakeFixture();
  auto disk = DiskSource::Open(fixture.disk_path);
  ASSERT_TRUE(disk.ok());

  auto base = RunProclus(fixture.data.dataset, GoldenParams(5, false));
  ASSERT_TRUE(base.ok());

  MemorySource memory(fixture.data.dataset);
  const PointSource* sources[] = {&memory, &*disk};
  for (const PointSource* source : sources) {
    for (size_t threads : {1, 2, 7, 16}) {
      ProclusParams params = GoldenParams(5, true);
      params.num_threads = threads;
      auto fused = RunProclusOnSource(*source, params);
      ASSERT_TRUE(fused.ok());
      EXPECT_EQ(fused->labels, base->labels) << threads << " threads";
      EXPECT_EQ(fused->medoids, base->medoids);
      EXPECT_EQ(ObjectiveBits(fused->objective),
                ObjectiveBits(base->objective));
      EXPECT_EQ(fused->iterations, base->iterations);
      EXPECT_EQ(fused->improvements, base->improvements);
      for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(fused->dimensions[i], base->dimensions[i]);
    }
  }
}

TEST(EngineGoldenTest, FusedSpendsAtMostTwoScansPerIteration) {
  Fixture fixture = MakeFixture();
  for (uint64_t seed : {5ULL, 9ULL, 17ULL}) {
    auto result =
        RunProclus(fixture.data.dataset, GoldenParams(seed, true));
    ASSERT_TRUE(result.ok());
    ASSERT_GT(result->iterations, 0u);
    EXPECT_LE(result->stats.iterative_scans, 2 * result->iterations);
  }
}

// ---------------------------------------------------------------------
// Executor-level behavior.
// ---------------------------------------------------------------------

struct ConsumerFixture {
  Fixture base;
  Matrix medoids;
  std::vector<DimensionSet> dims;
};

ConsumerFixture MakeConsumerFixture() {
  ConsumerFixture fixture{MakeFixture(), {}, {}};
  MemorySource source(fixture.base.data.dataset);
  std::vector<size_t> medoid_indices{10, 2000, 4000};
  fixture.medoids = std::move(source.Fetch(medoid_indices)).value();
  fixture.dims = {DimensionSet(10, {0, 3, 5}), DimensionSet(10, {1, 2}),
                  DimensionSet(10, {4, 7, 8, 9})};
  return fixture;
}

TEST(ScanExecutorTest, FusedScanMatchesSeparateScans) {
  ConsumerFixture fixture = MakeConsumerFixture();
  MemorySource source(fixture.base.data.dataset);

  // Separate scans: locality statistics, then assignment + centroids.
  RunStats separate_stats;
  ScanExecutor separate(ScanOptions{1, 512, &separate_stats});
  LocalityStatsConsumer locality_a;
  AssignConsumer assign_a;
  ASSERT_TRUE(locality_a.Bind(&fixture.medoids).ok());
  ASSERT_TRUE(
      assign_a.Bind(&fixture.medoids, &fixture.dims, true, true).ok());
  ASSERT_TRUE(separate.Run(source, {&locality_a}).ok());
  ASSERT_TRUE(separate.Run(source, {&assign_a}).ok());
  EXPECT_EQ(separate_stats.scans_issued, 2u);
  EXPECT_EQ(separate_stats.rows_visited, 2u * 5000);

  // The same two consumers sharing one physical scan.
  RunStats fused_stats;
  ScanExecutor fused(ScanOptions{1, 512, &fused_stats});
  LocalityStatsConsumer locality_b;
  AssignConsumer assign_b;
  ASSERT_TRUE(locality_b.Bind(&fixture.medoids).ok());
  ASSERT_TRUE(
      assign_b.Bind(&fixture.medoids, &fixture.dims, true, true).ok());
  ASSERT_TRUE(fused.Run(source, {&locality_b, &assign_b}).ok());
  EXPECT_EQ(fused_stats.scans_issued, 1u);
  EXPECT_EQ(fused_stats.rows_visited, 5000u);
  EXPECT_EQ(fused_stats.distance_evals, separate_stats.distance_evals);

  // Consumers never observe each other's partials, so fusion is
  // bit-identical to separate scans.
  EXPECT_EQ(locality_a.stats(), locality_b.stats());
  EXPECT_EQ(assign_a.labels(), assign_b.labels());
  EXPECT_EQ(assign_a.centroids(), assign_b.centroids());
  EXPECT_EQ(assign_a.cluster_sizes(), assign_b.cluster_sizes());
}

TEST(ScanExecutorTest, LocalityMemoMatchesUncached) {
  ConsumerFixture fixture = MakeConsumerFixture();
  MemorySource source(fixture.base.data.dataset);

  // Candidate pool the slot ids index into, as in the fused hill climb.
  std::vector<size_t> pool_rows(24);
  for (size_t i = 0; i < pool_rows.size(); ++i) pool_rows[i] = i * 193;
  Matrix pool = std::move(source.Fetch(pool_rows)).value();
  const size_t d = pool.cols();

  // A medoid-churn schedule like hill climbing's: repeats (full hits),
  // single-slot turnover (a kept medoid whose nearest neighbour, and so
  // its delta, may change), fresh sets, and returns to earlier sets.
  const std::vector<std::array<size_t, 3>> schedule = {
      {0, 1, 2},    {0, 1, 2},    {1, 2, 3},    {3, 4, 5},
      {6, 7, 8},    {9, 10, 11},  {12, 13, 14}, {15, 16, 17},
      {18, 19, 20}, {21, 22, 23}, {0, 1, 2},    {21, 22, 23}};

  LocalityMemo memo;
  RunStats memo_stats;
  RunStats plain_stats;
  ScanExecutor memo_exec(ScanOptions{4, 512, &memo_stats});
  ScanExecutor plain_exec(ScanOptions{4, 512, &plain_stats});
  LocalityStatsConsumer memoized;
  LocalityStatsConsumer plain;

  auto coords = [&](std::span<const size_t> slots) {
    Matrix medoids(slots.size(), d);
    for (size_t i = 0; i < slots.size(); ++i)
      for (size_t j = 0; j < d; ++j) medoids(i, j) = pool(slots[i], j);
    return medoids;
  };
  for (const std::array<size_t, 3>& slots : schedule) {
    Matrix medoids = coords(slots);
    std::vector<std::vector<size_t>> variant{{0, 1, 2}};
    ASSERT_TRUE(memoized
                    .Bind(&medoids, variant,
                          std::span<const size_t>(slots), &memo)
                    .ok());
    ASSERT_TRUE(plain.Bind(&medoids, variant).ok());
    ASSERT_TRUE(memo_exec.Run(source, {&memoized}).ok());
    ASSERT_TRUE(plain_exec.Run(source, {&plain}).ok());
    // Memo hits are committed rows read back verbatim, so the memoized
    // statistics are bit-identical, not merely close.
    EXPECT_EQ(memoized.stats(), plain.stats());
  }
  EXPECT_GT(memo.hits, 0u);
  EXPECT_GT(memo.misses, 0u);
  // One variant per scan: every hit skipped one n-row distance column.
  EXPECT_EQ(plain_stats.distance_evals - memo_stats.distance_evals,
            memo.hits * 5000u);
  // Each committed job is one entry; nothing is ever evicted.
  EXPECT_EQ(memo.entries.size(), memo.misses);

  // Slots 1 and 2 sit in both {0,1,2} and {1,2,3}. A kept medoid whose
  // nearest other medoid moved is a new locality: the memo holds it under
  // both deltas, and the second one was accumulated, not reused.
  const auto delta = [&](size_t a, std::initializer_list<size_t> others) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t b : others)
      best = std::min(best, ManhattanDistance(pool.row(a), pool.row(b)) /
                                static_cast<double>(d));
    return best;
  };
  const bool moved1 = delta(1, {0, 2}) != delta(1, {2, 3});
  const bool moved2 = delta(2, {0, 1}) != delta(2, {1, 3});
  ASSERT_TRUE(moved1 || moved2);
  for (size_t slot : {1, 2}) {
    size_t entries = 0;
    for (const auto& [key, entry] : memo.entries)
      if (key.first == slot) ++entries;
    EXPECT_EQ(entries, (slot == 1 ? moved1 : moved2) ? 2u : 1u)
        << "slot " << slot;
  }

  // Variants sharing (slot, delta) jobs in one scan: the twin {2,1,0}
  // names exactly the localities of {0,1,2} and adds no job; {0,1,3}
  // adds slot 3, and slots 0 and 1 only where their delta changed.
  const std::array<size_t, 4> union_slots{0, 1, 2, 3};
  Matrix union_coords = coords(union_slots);
  const std::vector<std::vector<size_t>> variants{
      {0, 1, 2}, {2, 1, 0}, {0, 1, 3}};
  LocalityMemo shared;
  LocalityStatsConsumer multi;
  LocalityStatsConsumer multi_plain;
  ASSERT_TRUE(multi
                  .Bind(&union_coords, variants,
                        std::span<const size_t>(union_slots), &shared)
                  .ok());
  ASSERT_TRUE(multi_plain.Bind(&union_coords, variants).ok());
  ASSERT_TRUE(memo_exec.Run(source, {&multi}).ok());
  ASSERT_TRUE(plain_exec.Run(source, {&multi_plain}).ok());
  const size_t distinct = 4 +
                          (delta(0, {1, 3}) != delta(0, {1, 2}) ? 1 : 0) +
                          (delta(1, {0, 3}) != delta(1, {0, 2}) ? 1 : 0);
  EXPECT_EQ(shared.misses, distinct);
  EXPECT_EQ(shared.entries.size(), distinct);
  for (size_t v = 0; v < variants.size(); ++v)
    EXPECT_EQ(multi.stats(v), multi_plain.stats(v)) << "variant " << v;
  // The twin variant reads the same job rows in its own order.
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < d; ++j)
      EXPECT_EQ(multi.stats(1)(i, j), multi.stats(0)(2 - i, j));
}

TEST(ScanExecutorTest, ValidatesOptionsAndConsumerList) {
  ConsumerFixture fixture = MakeConsumerFixture();
  MemorySource source(fixture.base.data.dataset);
  LocalityStatsConsumer locality;
  ASSERT_TRUE(locality.Bind(&fixture.medoids).ok());

  ScanExecutor zero_blocks(ScanOptions{1, 0, nullptr});
  EXPECT_FALSE(zero_blocks.Run(source, {&locality}).ok());

  ScanExecutor ok_options(ScanOptions{1, 512, nullptr});
  EXPECT_FALSE(
      ok_options.Run(source, std::initializer_list<ScanConsumer*>{}).ok());
}

TEST(ScanExecutorTest, DiskScansAccountEveryByte) {
  ConsumerFixture fixture = MakeConsumerFixture();
  auto disk = DiskSource::Open(fixture.base.disk_path);
  ASSERT_TRUE(disk.ok());

  RunStats stats;
  ScanExecutor executor(ScanOptions{1, 512, &stats});
  LocalityStatsConsumer locality;
  ASSERT_TRUE(locality.Bind(&fixture.medoids).ok());
  const uint64_t bytes_per_scan = 5000ull * 10 * sizeof(double);
  for (uint64_t scan = 1; scan <= 3; ++scan) {
    ASSERT_TRUE(locality.Bind(&fixture.medoids).ok());
    ASSERT_TRUE(executor.Run(*disk, {&locality}).ok());
    EXPECT_EQ(stats.scans_issued, scan);
    EXPECT_EQ(stats.bytes_read, scan * bytes_per_scan);
  }

  // The source's own cumulative counters agree with the executor's view.
  IoCounters io = disk->io();
  EXPECT_EQ(io.scans, 3u);
  EXPECT_EQ(io.rows_scanned, 3u * 5000);
  EXPECT_EQ(io.bytes_read, 3u * bytes_per_scan);
  EXPECT_EQ(io.rows_fetched, 0u);  // No random access was issued.
}

}  // namespace
}  // namespace proclus
