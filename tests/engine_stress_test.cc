// TSan-targeted stress tests for the scan executor's fused multi-consumer
// path: several consumers sharing one physical scan must be race-free and
// bit-identical at every thread count. Each consumer writes only state
// owned by the block (or disjoint per-point rows), and partials are merged
// sequentially in block order, so the thread schedule can never leak into
// the results.
//
// Every matrix runs over an in-memory source and over a checksummed disk
// snapshot, whose blocks the workers read concurrently (block reads +
// checksum verification racing ConsumeBlock).
//
// These tests live in the `parallel`-labeled test binary so the tsan CTest
// preset picks them up (see tests/CMakeLists.txt and CMakePresets.json).

#include "data/engine.h"

#include <gtest/gtest.h>

#include "test_temp.h"

#include <span>
#include <string>

#include "core/consumers.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 7, 16};

struct Fixture {
  SyntheticData data;
  Matrix medoids;
  std::vector<DimensionSet> dims;
  std::string disk_path;
};

Fixture MakeFixture() {
  GeneratorParams gen;
  gen.num_points = 20000;
  gen.space_dims = 12;
  gen.num_clusters = 4;
  gen.cluster_dim_counts = {4, 4, 4, 4};
  gen.seed = 71;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok());
  Fixture fixture;
  fixture.data = std::move(data).value();
  MemorySource source(fixture.data.dataset);
  std::vector<size_t> medoid_indices{11, 5000, 11000, 17000};
  fixture.medoids = std::move(source.Fetch(medoid_indices)).value();
  fixture.dims = {
      DimensionSet(12, {0, 3, 5}), DimensionSet(12, {1, 2, 11}),
      DimensionSet(12, {4, 7, 8, 9}), DimensionSet(12, {6, 10})};
  fixture.disk_path = TestTempPath("stress.bin");
  EXPECT_TRUE(WriteBinaryFile(fixture.data.dataset, fixture.disk_path).ok());
  return fixture;
}

// The memory source and a disk snapshot of the same points.
struct Sources {
  explicit Sources(const Fixture& fixture)
      : memory(fixture.data.dataset),
        disk(std::move(DiskSource::Open(fixture.disk_path)).value()) {}
  MemorySource memory;
  DiskSource disk;
  const PointSource* all[2] = {&memory, &disk};
};

TEST(EngineStressTest, FusedConsumersBitIdenticalAcrossThreadCounts) {
  Fixture fixture = MakeFixture();
  MemorySource source(fixture.data.dataset);

  // Sequential reference: locality statistics + assignment/centroids
  // fused in one scan, then the deviation evaluation over those labels.
  ScanExecutor sequential(ScanOptions{1, 256, nullptr});
  LocalityStatsConsumer locality_base;
  AssignConsumer assign_base;
  DeviationConsumer deviation_base;
  ASSERT_TRUE(locality_base.Bind(&fixture.medoids).ok());
  ASSERT_TRUE(
      assign_base.Bind(&fixture.medoids, &fixture.dims, true, true).ok());
  ASSERT_TRUE(sequential.Run(source, {&locality_base, &assign_base}).ok());
  ASSERT_TRUE(deviation_base
                  .Bind(&assign_base.labels(), &assign_base.centroids(),
                        &assign_base.cluster_sizes(), &fixture.dims)
                  .ok());
  ASSERT_TRUE(sequential.Run(source, {&deviation_base}).ok());

  Sources sources(fixture);
  for (const PointSource* scanned : sources.all) {
    SCOPED_TRACE(scanned == &sources.memory ? "memory" : "disk");
    for (size_t threads : kThreadCounts) {
      ScanExecutor executor(ScanOptions{threads, 256, nullptr});
      LocalityStatsConsumer locality;
      AssignConsumer assign;
      DeviationConsumer deviation;
      ASSERT_TRUE(locality.Bind(&fixture.medoids).ok());
      ASSERT_TRUE(
          assign.Bind(&fixture.medoids, &fixture.dims, true, true).ok());
      ASSERT_TRUE(executor.Run(*scanned, {&locality, &assign}).ok());
      ASSERT_TRUE(deviation
                      .Bind(&assign.labels(), &assign.centroids(),
                            &assign.cluster_sizes(), &fixture.dims)
                      .ok());
      ASSERT_TRUE(executor.Run(*scanned, {&deviation}).ok());

      EXPECT_EQ(locality.stats(), locality_base.stats())
          << threads << " threads";
      EXPECT_EQ(assign.labels(), assign_base.labels());
      EXPECT_EQ(assign.centroids(), assign_base.centroids());
      EXPECT_EQ(assign.cluster_sizes(), assign_base.cluster_sizes());
      EXPECT_EQ(deviation.objective(), deviation_base.objective());
    }
  }
}

TEST(EngineStressTest, MultiVariantLocalityBitIdenticalAcrossThreadCounts) {
  Fixture fixture = MakeFixture();
  MemorySource source(fixture.data.dataset);

  // Two speculative medoid sets sharing one scan, as the fused hill climb
  // does: variant 0 uses medoids {0,1,2,3}, variant 1 swaps one in.
  std::vector<std::vector<size_t>> variants = {{0, 1, 2, 3}, {0, 4, 2, 3}};
  MemorySource fetch_source(fixture.data.dataset);
  std::vector<size_t> union_indices{11, 5000, 11000, 17000, 2000};
  Matrix union_coords =
      std::move(fetch_source.Fetch(union_indices)).value();

  ScanExecutor sequential(ScanOptions{1, 512, nullptr});
  LocalityStatsConsumer base;
  ASSERT_TRUE(base.Bind(&union_coords, variants).ok());
  ASSERT_TRUE(sequential.Run(source, {&base}).ok());

  Sources sources(fixture);
  for (const PointSource* scanned : sources.all) {
    SCOPED_TRACE(scanned == &sources.memory ? "memory" : "disk");
    for (size_t threads : kThreadCounts) {
      ScanExecutor executor(ScanOptions{threads, 512, nullptr});
      LocalityStatsConsumer consumer;
      ASSERT_TRUE(consumer.Bind(&union_coords, variants).ok());
      ASSERT_TRUE(executor.Run(*scanned, {&consumer}).ok());
      ASSERT_EQ(consumer.num_variants(), 2u);
      for (size_t v = 0; v < 2; ++v)
        EXPECT_EQ(consumer.stats(v), base.stats(v))
            << threads << " threads, variant " << v;
    }
  }
}

TEST(EngineStressTest, CachedLocalityBitIdenticalAcrossThreadCounts) {
  Fixture fixture = MakeFixture();
  MemorySource source(fixture.data.dataset);

  // Memoized bind: fresh jobs are accumulated by concurrent blocks into
  // per-block partials, and the memo is committed on the driving thread.
  // Two scans per executor so the second answers every job from the
  // entries the first one committed.
  std::vector<std::vector<size_t>> variants = {{0, 1, 2, 3}, {0, 4, 2, 3}};
  MemorySource fetch_source(fixture.data.dataset);
  std::vector<size_t> union_indices{11, 5000, 11000, 17000, 2000};
  Matrix union_coords =
      std::move(fetch_source.Fetch(union_indices)).value();
  const std::vector<size_t> slots{3, 9, 21, 40, 57};

  ScanExecutor sequential(ScanOptions{1, 512, nullptr});
  LocalityStatsConsumer base;
  ASSERT_TRUE(base.Bind(&union_coords, variants).ok());
  ASSERT_TRUE(sequential.Run(source, {&base}).ok());

  Sources sources(fixture);
  for (const PointSource* scanned : sources.all) {
    SCOPED_TRACE(scanned == &sources.memory ? "memory" : "disk");
    for (size_t threads : kThreadCounts) {
      LocalityMemo memo;
      ScanExecutor executor(ScanOptions{threads, 512, nullptr});
      LocalityStatsConsumer consumer;
      for (int scan = 0; scan < 2; ++scan) {
        ASSERT_TRUE(consumer.Bind(&union_coords, variants,
                                  std::span<const size_t>(slots), &memo)
                        .ok());
        ASSERT_TRUE(executor.Run(*scanned, {&consumer}).ok());
      }
      EXPECT_EQ(memo.hits, memo.misses) << threads << " threads";
      EXPECT_EQ(memo.entries.size(), memo.misses) << threads << " threads";
      for (size_t v = 0; v < 2; ++v)
        EXPECT_EQ(consumer.stats(v), base.stats(v))
            << threads << " threads, variant " << v;
    }
  }
}

TEST(EngineStressTest, FusedProclusBitIdenticalAcrossThreadCounts) {
  Fixture fixture = MakeFixture();
  ProclusParams params;
  params.num_clusters = 4;
  params.avg_dims = 4.0;
  params.seed = 13;
  params.num_restarts = 2;
  params.max_iterations = 40;
  params.max_no_improve = 10;
  params.block_rows = 1024;
  params.sketch = true;  // keeps the threaded prefix screen covered

  auto base = RunProclus(fixture.data.dataset, params);
  ASSERT_TRUE(base.ok());
  Sources sources(fixture);
  for (const PointSource* scanned : sources.all) {
    SCOPED_TRACE(scanned == &sources.memory ? "memory" : "disk");
    for (size_t threads : kThreadCounts) {
      ProclusParams threaded = params;
      threaded.num_threads = threads;
      auto result = RunProclusOnSource(*scanned, threaded);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->labels, base->labels) << threads << " threads";
      EXPECT_EQ(result->medoids, base->medoids);
      EXPECT_EQ(result->objective, base->objective);
      EXPECT_EQ(result->iterations, base->iterations);
    }
  }
}

}  // namespace
}  // namespace proclus
