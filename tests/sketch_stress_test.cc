// TSan-targeted stress tests for the sketch screens under the threaded
// engines: every screened consumer keeps its per-block sketch scratch
// private (recomputed from the delivered block, never read across
// deliveries) and the memoized locality scan screens only its fresh jobs,
// committing their rows on the driving thread — so results must stay
// bit-identical to the single-threaded sketch-off reference
// for every worker count x shard layout x engine, and TSan must see no
// races while they do.
//
// Lives in the `parallel`-labeled test binary so the tsan CTest preset
// picks it up (see tests/CMakeLists.txt).

#include "sketch/plan.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "core/consumers.h"
#include "core/proclus.h"
#include "data/engine.h"
#include "data/sharded_source.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

constexpr size_t kWorkerCounts[] = {1, 2, 7, 16};

struct Fixture {
  SyntheticData data;
  Matrix medoids;
};

// 48 dims: wide enough that SketchWidth picks an active plan (width 16,
// ScreenProfitable holds), small enough to keep TSan runtimes sane. The
// prime row count leaves a ragged final block at every block size.
Fixture MakeFixture() {
  GeneratorParams gen;
  gen.num_points = 3001;
  gen.space_dims = 48;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {4, 4, 4};
  gen.seed = 61;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok());
  Fixture fixture;
  fixture.data = std::move(data).value();
  MemorySource source(fixture.data.dataset);
  std::vector<size_t> medoid_indices{17, 1100, 2200, 2900};
  fixture.medoids = std::move(source.Fetch(medoid_indices)).value();
  return fixture;
}

TEST(SketchStressTest, ScreenedLocalityBitIdenticalAcrossWorkerCounts) {
  Fixture fixture = MakeFixture();
  const SketchPlan plan =
      BuildSketchPlan(61, fixture.data.dataset.size(), 48);
  ASSERT_TRUE(plan.ScreenProfitable(48));
  MemorySource source(fixture.data.dataset);

  // Single-threaded sketch-OFF reference.
  LocalityStatsConsumer base;
  ASSERT_TRUE(base.Bind(&fixture.medoids).ok());
  ASSERT_TRUE(
      ScanExecutor(ScanOptions{1, 256, nullptr}).Run(source, {&base}).ok());

  for (size_t workers : kWorkerCounts) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    LocalityStatsConsumer screened;
    screened.SetSketch(&plan);
    ASSERT_TRUE(screened.Bind(&fixture.medoids).ok());
    ASSERT_TRUE(ScanExecutor(ScanOptions{workers, 256, nullptr})
                    .Run(source, {&screened})
                    .ok());
    EXPECT_EQ(screened.stats(), base.stats());
  }
}

TEST(SketchStressTest, ScreenedCachedFillAndReuseBitIdentical) {
  // The memoized locality scan screens the fresh jobs' distances from
  // every worker concurrently, against each fresh row's largest delta;
  // later scans answer those jobs from the memo and screen only the new
  // ones. One-row blocks maximize concurrent partials; the three scans
  // move between variants, so a row comes back under a changed delta and
  // a changed screening threshold.
  Fixture fixture = MakeFixture();
  const SketchPlan plan =
      BuildSketchPlan(61, fixture.data.dataset.size(), 48);
  ASSERT_TRUE(plan.ScreenProfitable(48));
  MemorySource source(fixture.data.dataset);
  const std::vector<std::vector<std::vector<size_t>>> schedule{
      {{0, 1, 2}, {0, 1, 3}}, {{0, 1, 2}}, {{1, 2, 3}, {0, 1, 2}}};
  const std::vector<size_t> slots{2, 5, 8, 13};

  for (size_t block_rows : {size_t{1}, size_t{256}}) {
    // Sketch-off memoized reference (sequential), per block size — the
    // block-ordered partial reduction makes block_rows a
    // results-affecting parameter by design, so the reference must share
    // it.
    LocalityMemo base_memo;
    std::vector<std::vector<Matrix>> expected;
    LocalityStatsConsumer base;
    for (const auto& variants : schedule) {
      ASSERT_TRUE(base
                      .Bind(&fixture.medoids, variants,
                            std::span<const size_t>(slots), &base_memo)
                      .ok());
      ASSERT_TRUE(ScanExecutor(ScanOptions{1, block_rows, nullptr})
                      .Run(source, {&base})
                      .ok());
      expected.emplace_back();
      for (size_t v = 0; v < variants.size(); ++v)
        expected.back().push_back(base.stats(v));
    }
    ASSERT_GT(base_memo.hits, 0u);

    for (size_t workers : kWorkerCounts) {
      SCOPED_TRACE(std::to_string(workers) + " workers, " +
                   std::to_string(block_rows) + "-row blocks");
      LocalityMemo memo;
      LocalityStatsConsumer screened;
      screened.SetSketch(&plan);
      RunStats stats;
      for (size_t scan = 0; scan < schedule.size(); ++scan) {
        ASSERT_TRUE(screened
                        .Bind(&fixture.medoids, schedule[scan],
                              std::span<const size_t>(slots), &memo)
                        .ok());
        ASSERT_TRUE(
            ScanExecutor(ScanOptions{workers, block_rows, &stats})
                .Run(source, {&screened})
                .ok());
        for (size_t v = 0; v < schedule[scan].size(); ++v)
          EXPECT_EQ(screened.stats(v), expected[scan][v])
              << "scan " << scan << ", variant " << v;
      }
      EXPECT_GT(stats.sketch_rows_pruned, 0u);
      EXPECT_EQ(memo.hits, base_memo.hits);
      EXPECT_EQ(memo.misses, base_memo.misses);
    }
  }
}

TEST(SketchStressTest, ProclusBitIdenticalAcrossThreadsShardsAndEngines) {
  // The acceptance matrix: {fused, classic} x {memory, sharded} x worker
  // counts, all with the sketch ON, against the single-threaded
  // sketch-OFF fused run on the plain source.
  Fixture fixture = MakeFixture();
  MemorySource memory(fixture.data.dataset);

  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 13;
  params.block_rows = 256;
  params.sketch = false;
  auto baseline = RunProclusOnSource(memory, params);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto sharded = ShardedSource::FromDataset(fixture.data.dataset, 7, 256);
  ASSERT_TRUE(sharded.ok());
  const PointSource* sources[] = {&memory, &*sharded};
  const char* source_names[] = {"memory", "sharded"};

  for (size_t s = 0; s < 2; ++s) {
    for (bool fuse : {true, false}) {
      for (size_t threads : kWorkerCounts) {
        SCOPED_TRACE(std::string(source_names[s]) +
                     (fuse ? "/fused/" : "/classic/") +
                     std::to_string(threads) + " threads");
        ProclusParams on = params;
        on.sketch = true;
        on.fuse_scans = fuse;
        on.num_threads = threads;
        auto result = RunProclusOnSource(*sources[s], on);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->labels, baseline->labels);
        EXPECT_EQ(result->medoids, baseline->medoids);
        EXPECT_EQ(result->iterations, baseline->iterations);
        EXPECT_GT(result->stats.sketch_rows_screened, 0u);
        EXPECT_EQ(result->stats.sketch_rows_screened,
                  result->stats.sketch_rows_pruned +
                      result->stats.sketch_exact_verifications);
      }
    }
  }
}

}  // namespace
}  // namespace proclus
