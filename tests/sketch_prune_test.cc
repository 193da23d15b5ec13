// Property tests for the random-projection sketch layer (src/sketch/)
// and the screened kernels in distance/batch.h. The contract under test
// is absolute: a sketch (or prefix) lower bound may never exceed the
// exact distance it bounds, so a screen can never discard the true
// argmin or a point inside a locality threshold — every screened kernel
// must be BIT-identical to its unscreened twin, for randomized shapes,
// seeds, and adversarial near-ties. EXPECT_EQ on doubles is deliberate:
// any unsafe bound or reassociated survivor path shows up as an
// exact-inequality failure, not a tolerance miss.

#include "sketch/plan.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "test_temp.h"

#include "baselines/kmeans.h"
#include "baselines/kmedoids.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "core/proclus.h"
#include "distance/batch.h"
#include "distance/metric.h"
#include "distance/segmental.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> RandomBlock(Rng& rng, size_t rows, size_t d) {
  std::vector<double> data(rows * d);
  for (double& v : data) v = rng.Uniform(-50, 50);
  return data;
}

Matrix RandomMatrix(Rng& rng, size_t rows, size_t d) {
  Matrix m(rows, d);
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < d; ++j) m(i, j) = rng.Uniform(-50, 50);
  return m;
}

// Projects every row of `refs` through `plan`, returning the packed
// sketches (and masses) the screened kernels consume.
void ProjectRefs(const SketchPlan& plan, const Matrix& refs,
                 std::vector<double>* sketches, std::vector<double>* masses) {
  sketches->resize(refs.rows() * plan.width);
  masses->resize(refs.rows());
  for (size_t m = 0; m < refs.rows(); ++m)
    (*masses)[m] =
        plan.ProjectPoint(refs.row(m), sketches->data() + m * plan.width);
}

TEST(SketchPlanTest, ConstructionIsDeterministicAndShapeSound) {
  for (uint64_t seed : {1ull, 7ull, 1234567ull}) {
    for (size_t dims : {size_t{16}, size_t{32}, size_t{130}}) {
      const size_t rows = 50000;
      SketchPlan a = BuildSketchPlan(seed, rows, dims);
      SketchPlan b = BuildSketchPlan(seed, rows, dims);
      ASSERT_TRUE(a.active());
      EXPECT_EQ(a.width, SketchWidth(rows, dims));
      EXPECT_EQ(a.buckets, b.buckets);
      EXPECT_EQ(a.signs, b.signs);
      EXPECT_EQ(a.inv_loads, b.inv_loads);
      EXPECT_EQ(a.max_load, b.max_load);

      // Shape soundness: buckets in range, signs exactly +-1, inverse
      // loads consistent with the actual bucket loads.
      std::vector<uint32_t> loads(a.width, 0);
      for (size_t j = 0; j < dims; ++j) {
        ASSERT_LT(a.buckets[j], a.width);
        ASSERT_TRUE(a.signs[j] == 1.0 || a.signs[j] == -1.0);
        ++loads[a.buckets[j]];
      }
      uint32_t max_load = 0;
      for (size_t t = 0; t < a.width; ++t) {
        max_load = std::max(max_load, loads[t]);
        if (loads[t] == 0) {
          EXPECT_EQ(a.inv_loads[t], 0.0);
        } else {
          EXPECT_EQ(a.inv_loads[t], 1.0 / static_cast<double>(loads[t]));
        }
      }
      EXPECT_EQ(a.max_load, max_load);
      EXPECT_GT(a.rel_slack, 0.0);
      EXPECT_LT(a.rel_slack, 1.0);
      EXPECT_GT(a.abs_coef, 0.0);
    }
  }
  // Shapes the policy declines: too few dims, degenerate row counts.
  EXPECT_FALSE(BuildSketchPlan(1, 50000, 8).active());
  EXPECT_FALSE(BuildSketchPlan(1, 1, 130).active());
  EXPECT_EQ(SketchWidth(50000, 15), 0u);
}

TEST(SketchPlanTest, DrawCountInvariance) {
  // The bucket/sign draws are a pure function of (seed, dims, width):
  // two row counts that land on the same width must produce the same
  // plan, because the private stream consumes exactly two draws per
  // dimension regardless of anything else. This is what lets a resumed
  // run rebuild the identical plan from checkpointed params alone.
  const size_t dims = 130;
  SketchPlan a = BuildSketchPlan(42, /*rows=*/1000, dims);
  SketchPlan b = BuildSketchPlan(42, /*rows=*/4000, dims);
  ASSERT_TRUE(a.active());
  ASSERT_EQ(a.width, b.width);  // Both land on the same power of two.
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.signs, b.signs);

  // Private stream: building a plan must not perturb a same-seeded main
  // Rng — the plan mixes a tag into the seed, so the streams differ.
  Rng main_before(42);
  const uint64_t expect0 = main_before.UniformInt(1u << 30);
  const uint64_t expect1 = main_before.UniformInt(1u << 30);
  SketchPlan c = BuildSketchPlan(42, 1000, dims);
  Rng main_after(42);
  EXPECT_EQ(main_after.UniformInt(1u << 30), expect0);
  EXPECT_EQ(main_after.UniformInt(1u << 30), expect1);
  EXPECT_EQ(c.buckets, a.buckets);
}

TEST(SketchPlanTest, ProjectPointMatchesDirectBucketSums) {
  Rng rng(501);
  const size_t dims = 64;
  SketchPlan plan = BuildSketchPlan(9, 10000, dims);
  ASSERT_TRUE(plan.active());
  std::vector<double> point(dims);
  for (double& v : point) v = rng.Uniform(-50, 50);
  std::vector<double> sketch(plan.width);
  const double mass = plan.ProjectPoint(point, sketch.data());

  std::vector<double> expected(plan.width, 0.0);
  double expected_mass = 0.0;
  for (size_t j = 0; j < dims; ++j) {
    expected[plan.buckets[j]] += plan.signs[j] * point[j];
    expected_mass += std::fabs(point[j]);
  }
  EXPECT_EQ(sketch, expected);
  EXPECT_EQ(mass, expected_mass);
}

TEST(SketchPruneTest, L1LowerBoundNeverExceedsExactDistance) {
  // Force every row through the pruned path (thresholds = -inf) to read
  // the bounds back, and through the exact path (thresholds = +inf) to
  // check bit-identity with the unscreened kernel — for random pairs AND
  // adversarial near-identical pairs whose exact distance is dominated
  // by rounding noise.
  Rng rng(601);
  const size_t dims = 64;
  SketchPlan plan = BuildSketchPlan(3, 10000, dims);
  ASSERT_TRUE(plan.active());
  const SketchSpec spec = plan.Spec();
  const size_t rows = 300;
  const size_t u = 4;

  std::vector<double> block = RandomBlock(rng, rows, dims);
  Matrix points = RandomMatrix(rng, u, dims);
  // Adversarial: reference 3 is a copy of row 0 with one ulp-scale
  // nudge, so its exact distance to row 0 is ~1e-12 against masses ~1e3.
  for (size_t j = 0; j < dims; ++j) points(3, j) = block[j];
  points(3, 0) += 1e-12;

  std::vector<double> sketches, masses;
  ProjectRefs(plan, points, &sketches, &masses);

  for (double denom : {1.0, static_cast<double>(dims)}) {
    KernelScratch scratch;
    SketchProjectBlock(block, rows, dims, spec, scratch);

    std::vector<double> bounds(u * rows);
    std::vector<double> prune_all(u, -kInf);
    ManhattanManyScreenedBatch(block, rows, dims, points, sketches.data(),
                               masses.data(), spec, prune_all, denom,
                               scratch, bounds.data());
    for (size_t m = 0; m < u; ++m) {
      for (size_t r = 0; r < rows; ++r) {
        std::span<const double> row(block.data() + r * dims, dims);
        const double exact = ManhattanDistance(row, points.row(m)) / denom;
        ASSERT_LE(bounds[m * rows + r], exact)
            << "m=" << m << " r=" << r << " denom=" << denom;
      }
    }
    EXPECT_EQ(scratch.sketch_rows_pruned, u * rows);
    EXPECT_EQ(scratch.sketch_exact_verifications, 0u);
    EXPECT_EQ(scratch.sketch_rows_screened, u * rows);

    std::vector<double> keep_all(u, kInf);
    ManhattanManyScreenedBatch(block, rows, dims, points, sketches.data(),
                               masses.data(), spec, keep_all, denom,
                               scratch, bounds.data());
    for (size_t m = 0; m < u; ++m) {
      for (size_t r = 0; r < rows; ++r) {
        std::span<const double> row(block.data() + r * dims, dims);
        ASSERT_EQ(bounds[m * rows + r],
                  ManhattanDistance(row, points.row(m)) / denom)
            << "m=" << m << " r=" << r << " denom=" << denom;
      }
    }
    EXPECT_EQ(scratch.sketch_rows_pruned, u * rows);
    EXPECT_EQ(scratch.sketch_exact_verifications, u * rows);
  }
}

TEST(SketchPruneTest, SquaredL2PruneOnlyWhenMinUpdateIsProvablyNoOp) {
  // The k-means++ fold: a pruned row's exact distance must be >= its
  // threshold (the running minimum), so skipping the min-update cannot
  // change it. Survivors must carry the bit-exact squared distance.
  Rng rng(602);
  const size_t dims = 48;
  SketchPlan plan = BuildSketchPlan(5, 10000, dims);
  ASSERT_TRUE(plan.active());
  const SketchSpec spec = plan.Spec();
  const size_t rows = 500;

  std::vector<double> block = RandomBlock(rng, rows, dims);
  std::vector<double> point(dims);
  for (double& v : point) v = rng.Uniform(-50, 50);
  std::vector<double> point_sketch(plan.width);
  const double point_mass = plan.ProjectPoint(point, point_sketch.data());

  // Mixed thresholds: some tiny (prune likely), some huge (keep).
  std::vector<double> thresholds(rows);
  for (size_t r = 0; r < rows; ++r)
    thresholds[r] = rng.Bernoulli(0.5) ? rng.Uniform(0, 5000)
                                       : rng.Uniform(100000, 400000);

  KernelScratch scratch;
  SketchProjectBlock(block, rows, dims, spec, scratch);
  std::vector<double> out(rows, -1.0);
  std::vector<uint8_t> computed(rows, 2);
  SquaredEuclideanScreenedBatch(block, rows, dims, point,
                                point_sketch.data(), point_mass, spec,
                                thresholds, scratch, out.data(),
                                computed.data());
  size_t pruned = 0;
  for (size_t r = 0; r < rows; ++r) {
    std::span<const double> row(block.data() + r * dims, dims);
    const double exact = SquaredEuclideanDistance(row, point);
    if (computed[r] == 0) {
      ++pruned;
      ASSERT_GE(exact, thresholds[r]) << "r=" << r;  // No-op guaranteed.
      ASSERT_EQ(out[r], -1.0) << "r=" << r;          // Left untouched.
    } else {
      ASSERT_EQ(computed[r], 1u);
      ASSERT_EQ(out[r], exact) << "r=" << r;
    }
  }
  EXPECT_EQ(scratch.sketch_rows_pruned, pruned);
  EXPECT_EQ(scratch.sketch_rows_screened, rows);
}

TEST(SketchPruneTest, ArgminScreensBitIdenticalIncludingAdversarialTies) {
  // Duplicate and one-ulp-perturbed medoids create exact ties and
  // near-ties at the argmin; the screened kernels must resolve them via
  // the identical strict-< path, so labels AND best distances match the
  // unscreened kernels bit-for-bit.
  Rng rng(603);
  const size_t dims = 64;
  SketchPlan plan = BuildSketchPlan(11, 10000, dims);
  ASSERT_TRUE(plan.active());
  const SketchSpec spec = plan.Spec();

  for (size_t rows : {size_t{1}, size_t{257}, kKernelRowTile + 33}) {
    std::vector<double> block = RandomBlock(rng, rows, dims);
    const size_t k = 5;
    Matrix medoids = RandomMatrix(rng, k, dims);
    // Medoid 2 duplicates medoid 1 (exact ties on every row); medoid 4
    // is medoid 3 nudged by one part in 1e15 (rounding-scale near-tie).
    for (size_t j = 0; j < dims; ++j) medoids(2, j) = medoids(1, j);
    for (size_t j = 0; j < dims; ++j) medoids(4, j) = medoids(3, j);
    medoids(4, 17) = std::nextafter(medoids(4, 17), kInf);

    std::vector<double> sketches, masses;
    ProjectRefs(plan, medoids, &sketches, &masses);

    for (MetricKind metric :
         {MetricKind::kManhattan, MetricKind::kEuclidean,
          MetricKind::kChebyshev}) {
      std::vector<int> base_labels(rows), screened_labels(rows);
      KernelScratch base, screened;
      MetricArgminBatch(block, rows, dims, metric, medoids, base,
                        base_labels.data());
      SketchProjectBlock(block, rows, dims, spec, screened);
      MetricArgminScreenedBatch(block, rows, dims, metric, medoids,
                                sketches.data(), masses.data(), spec,
                                screened, screened_labels.data());
      ASSERT_EQ(screened_labels, base_labels)
          << "metric=" << static_cast<int>(metric) << " rows=" << rows;
      for (size_t r = 0; r < rows; ++r)
        ASSERT_EQ(screened.best[r], base.best[r])
            << "metric=" << static_cast<int>(metric) << " r=" << r;
      ASSERT_EQ(screened.sketch_rows_screened,
                screened.sketch_rows_pruned +
                    screened.sketch_exact_verifications);
      ASSERT_EQ(screened.sketch_rows_screened, (k - 1) * rows);
    }

    // Lloyd assignment twin.
    std::vector<std::vector<double>> centers(k);
    for (size_t c = 0; c < k; ++c)
      centers[c].assign(medoids.row(c).begin(), medoids.row(c).end());
    std::vector<int> base_labels(rows), screened_labels(rows);
    KernelScratch base, screened;
    SquaredEuclideanArgminBatch(block, rows, dims, centers, base,
                                base_labels.data());
    SketchProjectBlock(block, rows, dims, spec, screened);
    SquaredEuclideanArgminScreenedBatch(block, rows, dims, centers,
                                        sketches.data(), masses.data(),
                                        spec, screened,
                                        screened_labels.data());
    ASSERT_EQ(screened_labels, base_labels) << "rows=" << rows;
    for (size_t r = 0; r < rows; ++r)
      ASSERT_EQ(screened.best[r], base.best[r]) << "r=" << r;
  }
}

TEST(SketchPruneTest, PrefixScreenBitIdenticalForEveryPrefixLength) {
  // The segmental prefix screen needs no slack: its bound is a true
  // prefix of the exact accumulation chain. Sweep every interesting
  // max_prefix (0 = disabled, 1 = below the q >= 2 floor, mid, above
  // list length) with and without spheres, with tied medoids.
  Rng rng(604);
  const size_t dims = 40;
  for (size_t rows : {size_t{1}, size_t{513}, kKernelRowTile + 9}) {
    std::vector<double> block = RandomBlock(rng, rows, dims);
    const size_t k = 4;
    Matrix medoids = RandomMatrix(rng, k, dims);
    std::vector<std::vector<uint32_t>> dim_lists(k);
    for (size_t i = 0; i < k; ++i) {
      const size_t nd = 3 + 5 * i;  // 3, 8, 13, 18 dims.
      std::vector<uint32_t> dims_i;
      for (size_t j = 0; j < nd; ++j)
        dims_i.push_back(static_cast<uint32_t>((j * 2 + i) % dims));
      std::sort(dims_i.begin(), dims_i.end());
      dims_i.erase(std::unique(dims_i.begin(), dims_i.end()), dims_i.end());
      dim_lists[i] = std::move(dims_i);
    }
    // Exact tie: medoid 3 mirrors medoid 2 on an identical list.
    for (size_t j = 0; j < dims; ++j) medoids(3, j) = medoids(2, j);
    dim_lists[3] = dim_lists[2];
    std::vector<double> spheres(k);
    for (double& s : spheres) s = rng.Uniform(0, 30);

    for (bool normalize : {true, false}) {
      for (bool with_spheres : {true, false}) {
        std::span<const double> sph =
            with_spheres ? std::span<const double>(spheres)
                         : std::span<const double>();
        std::vector<int> base_labels(rows);
        KernelScratch base;
        SegmentalArgminBatch(block, rows, dims, medoids, dim_lists,
                             normalize, sph, base, base_labels.data());
        for (size_t max_prefix : {size_t{0}, size_t{1}, size_t{2},
                                  size_t{5}, size_t{32}}) {
          std::vector<int> labels(rows);
          KernelScratch screened;
          SegmentalArgminScreenedBatch(block, rows, dims, medoids,
                                       dim_lists, normalize, sph,
                                       max_prefix, screened, labels.data());
          ASSERT_EQ(labels, base_labels)
              << "rows=" << rows << " normalize=" << normalize
              << " spheres=" << with_spheres
              << " max_prefix=" << max_prefix;
          for (size_t r = 0; r < rows; ++r) {
            ASSERT_EQ(screened.best[r], base.best[r]) << "r=" << r;
            if (with_spheres)
              ASSERT_EQ(screened.inside[r], base.inside[r]) << "r=" << r;
          }
          if (max_prefix >= 2)
            ASSERT_EQ(screened.sketch_rows_screened,
                      screened.sketch_rows_pruned +
                          screened.sketch_exact_verifications);
        }
      }
    }
  }
}

TEST(SketchPruneTest, RandomizedSweepNeverDiscardsTrueArgmin) {
  // The headline property over randomized (seed, dims, rows) shapes:
  // screened argmin == unscreened argmin, bit for bit, with nonzero
  // screening activity reported.
  for (uint64_t seed : {21ull, 22ull, 23ull, 24ull, 25ull}) {
    Rng rng(seed * 1000 + 7);
    for (size_t dims : {size_t{32}, size_t{64}, size_t{130}}) {
      SketchPlan plan = BuildSketchPlan(seed, 10000, dims);
      ASSERT_TRUE(plan.active());
      ASSERT_TRUE(plan.ScreenProfitable(dims));
      const SketchSpec spec = plan.Spec();
      const size_t rows =
          1 + static_cast<size_t>(rng.UniformInt(2 * kKernelRowTile));
      const size_t k = 2 + static_cast<size_t>(rng.UniformInt(6));
      std::vector<double> block = RandomBlock(rng, rows, dims);
      Matrix medoids = RandomMatrix(rng, k, dims);

      std::vector<double> sketches, masses;
      ProjectRefs(plan, medoids, &sketches, &masses);
      std::vector<int> base_labels(rows), labels(rows);
      KernelScratch base, screened;
      MetricArgminBatch(block, rows, dims, MetricKind::kManhattan, medoids,
                        base, base_labels.data());
      SketchProjectBlock(block, rows, dims, spec, screened);
      MetricArgminScreenedBatch(block, rows, dims, MetricKind::kManhattan,
                                medoids, sketches.data(), masses.data(),
                                spec, screened, labels.data());
      ASSERT_EQ(labels, base_labels)
          << "seed=" << seed << " dims=" << dims << " rows=" << rows;
      for (size_t r = 0; r < rows; ++r)
        ASSERT_EQ(screened.best[r], base.best[r]) << "r=" << r;
      ASSERT_EQ(screened.sketch_rows_screened, (k - 1) * rows);
    }
  }
}

SyntheticData MakeHighDimData(size_t n, size_t d, uint64_t seed) {
  GeneratorParams gen;
  gen.num_points = n;
  gen.space_dims = d;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {4, 4, 4};
  gen.outlier_fraction = 0.05;
  gen.seed = seed;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

TEST(SketchEndToEndTest, ProclusBitIdenticalAcrossSketchToggle) {
  SyntheticData data = MakeHighDimData(1500, 130, 31);
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 5;
  params.block_rows = 256;

  for (bool fuse : {true, false}) {
    SCOPED_TRACE(fuse ? "fused" : "classic");
    ProclusParams on = params;
    on.fuse_scans = fuse;
    on.sketch = true;
    ProclusParams off = on;
    off.sketch = false;
    auto with = RunProclus(data.dataset, on);
    auto without = RunProclus(data.dataset, off);
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    ASSERT_TRUE(without.ok()) << without.status().ToString();
    EXPECT_EQ(with->labels, without->labels);
    EXPECT_EQ(with->medoids, without->medoids);
    EXPECT_EQ(with->iterations, without->iterations);
    ASSERT_EQ(with->dimensions.size(), without->dimensions.size());
    for (size_t i = 0; i < with->dimensions.size(); ++i)
      EXPECT_EQ(with->dimensions[i], without->dimensions[i]);
    uint64_t bits_on = 0, bits_off = 0;
    std::memcpy(&bits_on, &with->objective, sizeof(bits_on));
    std::memcpy(&bits_off, &without->objective, sizeof(bits_off));
    EXPECT_EQ(bits_on, bits_off);

    // The toggle is observable only through the counters.
    EXPECT_GT(with->stats.sketch_rows_screened, 0u);
    EXPECT_EQ(with->stats.sketch_rows_screened,
              with->stats.sketch_rows_pruned +
                  with->stats.sketch_exact_verifications);
    EXPECT_EQ(without->stats.sketch_rows_screened, 0u);
    EXPECT_EQ(without->stats.sketch_rows_pruned, 0u);
  }
}

TEST(SketchEndToEndTest, BaselinesBitIdenticalAcrossSketchToggle) {
  SyntheticData data = MakeHighDimData(1200, 48, 37);

  KMeansParams km;
  km.num_clusters = 3;
  km.seed = 9;
  km.block_rows = 128;
  km.sketch = true;
  KMeansParams km_off = km;
  km_off.sketch = false;
  auto kon = RunKMeans(data.dataset, km);
  auto koff = RunKMeans(data.dataset, km_off);
  ASSERT_TRUE(kon.ok());
  ASSERT_TRUE(koff.ok());
  EXPECT_EQ(kon->labels, koff->labels);
  EXPECT_EQ(kon->centroids, koff->centroids);
  EXPECT_EQ(kon->iterations, koff->iterations);
  uint64_t ion = 0, ioff = 0;
  std::memcpy(&ion, &kon->inertia, sizeof(ion));
  std::memcpy(&ioff, &koff->inertia, sizeof(ioff));
  EXPECT_EQ(ion, ioff);
  EXPECT_GT(kon->stats.sketch_rows_screened, 0u);
  EXPECT_EQ(koff->stats.sketch_rows_screened, 0u);

  ClaransParams cl;
  cl.num_clusters = 3;
  cl.seed = 9;
  cl.max_neighbor = 40;  // Keep the random search short for the test.
  cl.block_rows = 128;
  cl.sketch = true;
  ClaransParams cl_off = cl;
  cl_off.sketch = false;
  auto con = RunClarans(data.dataset, cl);
  auto coff = RunClarans(data.dataset, cl_off);
  ASSERT_TRUE(con.ok());
  ASSERT_TRUE(coff.ok());
  EXPECT_EQ(con->labels, coff->labels);
  EXPECT_EQ(con->medoids, coff->medoids);
  uint64_t bon = 0, boff = 0;
  std::memcpy(&bon, &con->cost, sizeof(bon));
  std::memcpy(&boff, &coff->cost, sizeof(boff));
  EXPECT_EQ(bon, boff);
  EXPECT_GT(con->stats.sketch_rows_screened, 0u);
  EXPECT_EQ(coff->stats.sketch_rows_screened, 0u);
}

TEST(SketchEndToEndTest, CheckpointResumableAcrossSketchToggle) {
  // The sketch flag is excluded from the checkpoint fingerprint (like
  // fuse_scans and num_threads): a run checkpointed with screening on
  // must resume with screening off — and land on the same bits — because
  // the screen is a pure execution detail. The resumed run replays only
  // the tail, so it issues strictly fewer scans than the full run: that
  // is the proof the checkpoint was accepted, not silently discarded.
  SyntheticData data = MakeHighDimData(1500, 130, 41);
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 5;
  params.block_rows = 256;
  params.num_restarts = 2;

  ProclusParams off = params;
  off.sketch = false;
  auto baseline = RunProclus(data.dataset, off);
  ASSERT_TRUE(baseline.ok());

  const std::string ck_path = TestTempPath("sketch_toggle.pckp");
  std::remove(ck_path.c_str());
  ProclusParams on = params;
  on.sketch = true;
  on.checkpoint.path = ck_path;
  on.checkpoint.every_iterations = 2;
  auto first = RunProclus(data.dataset, on);
  ASSERT_TRUE(first.ok());

  // Resume from the completed run's last periodic checkpoint with the
  // sketch toggled off.
  ProclusParams resume = off;
  resume.checkpoint.path = ck_path;
  resume.checkpoint.every_iterations = 2;
  auto resumed = RunProclus(data.dataset, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->labels, baseline->labels);
  EXPECT_EQ(resumed->medoids, baseline->medoids);
  EXPECT_EQ(resumed->iterations, baseline->iterations);
  EXPECT_LT(resumed->stats.scans_issued, baseline->stats.scans_issued);
  std::remove(ck_path.c_str());
}

}  // namespace
}  // namespace proclus
