// ScanConsumer implementations of the PROCLUS data passes.
//
// Each class transcribes one of the aggregate/per-point computations of
// the original pass functions (core/passes.h) onto the scan-executor
// contract (data/engine.h): per-block partials, block-ordered merge,
// bit-identical results for any thread count. Because they are consumers,
// several of them can share one physical scan — the fused PROCLUS loop
// runs assignment + centroid accumulation in one scan and deviation
// evaluation + speculative locality statistics in another.
//
// Consumers are long-lived: construct once, Bind(...) the inputs of the
// next scan, hand to ScanExecutor::Run. Their block buffers persist
// across scans, so rebinding every iteration costs no allocations once
// the buffers reach steady-state capacity.
//
// Accumulation-order guarantee: every consumer adds values in exactly the
// per-point, per-cluster order of the original pass bodies and merges
// partials in ascending block order, so its outputs are bit-identical to
// the pre-refactor passes for identical inputs.
//
// Rollback (ScanConsumer::Reset): all consumers here override Reset with
// an explicit no-op. Each ConsumeBlock fully overwrites its block's
// partial (sums/labels are assigned, never accumulated across scans) and
// a successful scan delivers every block exactly once, so re-running
// Prepare + a full scan after a failed attempt leaves no trace of the
// discarded blocks. Any future consumer that accumulates into state NOT
// keyed by block or row must make its Reset discard that state; the
// analyzer's consumer-lifecycle rule holds every subclass to an explicit
// override either way.

#ifndef PROCLUS_CORE_CONSUMERS_H_
#define PROCLUS_CORE_CONSUMERS_H_

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/dimension_set.h"
#include "common/matrix.h"
#include "data/engine.h"
#include "distance/batch.h"
#include "sketch/plan.h"

namespace proclus {

// Per-block accumulator of k x d sums plus k counts, shared by the
// aggregate consumers.
struct BlockSums {
  std::vector<double> sums;   // k x d
  std::vector<size_t> count;  // k
};

/// Run-long memo of finished locality statistics, keyed by (candidate
/// slot, bit pattern of delta). A locality — the points within delta of
/// medoid m — depends only on m's coordinates, delta, the source and the
/// scan's block geometry, so its statistics row is the same whichever
/// medoid set asks for it. Hill climbing replaces only the bad medoids
/// between iterations, so most (slot, delta) pairs of a locality scan were
/// already accumulated by an earlier scan of the same run; a memo hit
/// costs neither distances nor accumulation. Entries are reused verbatim,
/// so a memoized run is bit-identical to an unmemoized one. Owned by the
/// caller (the fused climb's scratch) and valid only while the candidate
/// coordinates and the source stay fixed; it is never checkpointed, so a
/// resumed run starts it empty and recomputes the same bits.
///
/// Ownership (DESIGN.md §10): the memo is touched only by the thread
/// driving the scan — looked up in Prepare, committed in Merge. Workers
/// never see it. A scan attempt that fails or is abandoned never reaches
/// Merge and commits nothing.
struct LocalityMemo {
  struct Entry {
    std::vector<double> row;  ///< d averages: the locality's X(i, .) row.
    size_t count = 0;         ///< Points in the locality.
  };
  std::map<std::pair<size_t, uint64_t>, Entry> entries;
  /// Geometry the entries were accumulated under; a scan with another
  /// geometry (block order changes the sums) drops them first.
  ScanGeometry geometry;
  uint64_t hits = 0;    ///< Jobs answered from `entries`.
  uint64_t misses = 0;  ///< Jobs accumulated by a scan and committed.
};

/// Locality statistics (iterative phase): X(i, j) = average |p_j - m_ij|
/// over the points within delta_i of medoid i, where delta_i is the
/// full-space segmental distance from medoid i to its nearest other
/// medoid.
///
/// Supports VARIANTS: several candidate medoid sets evaluated in the same
/// scan. Bind reduces every (variant, medoid) pair to a JOB keyed by
/// (union row, delta); pairs with equal keys share one job, since their
/// localities are the same point set. Each job is accumulated in
/// per-block partials and merged in block order, so every variant's
/// statistics are bit-identical to a separate scan per variant. This is
/// what lets the fused hill-climb compute the locality statistics of both
/// speculative next medoid sets inside the evaluation scan.
class LocalityStatsConsumer final : public ScanConsumer {
 public:
  /// Binds the union medoid coordinate matrix (u x d) and one row-index
  /// list per variant; variant v's medoid i is `medoids->row(rows[v][i])`.
  /// `medoids` must outlive the scan.
  Status Bind(const Matrix* medoids,
              std::vector<std::vector<size_t>> variant_rows);

  /// Single-variant convenience: the variant is all rows of `medoids`.
  Status Bind(const Matrix* medoids);

  /// Memoized binding: `slots` names the candidate slot behind each
  /// medoid row (distinct, same length as `medoids` rows) and `memo`
  /// persists across scans. Jobs the memo already holds are answered
  /// from it; the others are accumulated by the scan and committed to it
  /// on Merge. `memo` must outlive the scan.
  Status Bind(const Matrix* medoids,
              std::vector<std::vector<size_t>> variant_rows,
              std::span<const size_t> slots, LocalityMemo* memo);

  /// Enables sketch screening of the fresh jobs' distance columns (null
  /// disables it — the default). The plan must outlive the scan;
  /// screening activates only when plan->ScreenProfitable(dims). The
  /// statistics are bit-identical either way: a distance is only compared
  /// against its jobs' deltas, and a pruned row's lower bound already
  /// exceeds the largest of them.
  void SetSketch(const SketchPlan* sketch) { sketch_ = sketch; }

  Status Prepare(const ScanGeometry& geometry) override;
  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override;
  Status Merge() override;
  // Explicit no-op: Prepare() overwrites every partial Merge() reads
  // (see the rollback note at the top of this header).
  void Reset() override {}
  uint64_t distance_evals() const override { return distance_evals_; }
  KernelStats kernel_stats() const override;

  size_t num_variants() const { return variant_jobs_.size(); }
  /// Statistics matrix (k_v x d) of variant `v`, valid after Merge.
  const Matrix& stats(size_t v = 0) const { return stats_[v]; }
  Matrix TakeStats(size_t v = 0) { return std::move(stats_[v]); }

 private:
  struct Job {
    size_t row = 0;      // union medoid row
    double delta = 0.0;  // locality radius
  };
  struct FreshJob {
    size_t job = 0;      // index into jobs_
    size_t row = 0;      // fresh medoid row (and distance column)
    double delta = 0.0;  // jobs_[job].delta, kept hot for ConsumeBlock
  };

  const Matrix* medoids_ = nullptr;
  std::vector<Job> jobs_;                          // distinct (row, delta)
  std::vector<std::vector<size_t>> variant_jobs_;  // [variant][cluster]
  std::vector<size_t> slots_;     // candidate slot per medoid row
  LocalityMemo* memo_ = nullptr;  // null for unmemoized binds
  // This scan's jobs the memo could not answer, and the distinct medoid
  // rows they need distances to.
  std::vector<FreshJob> fresh_;
  std::vector<size_t> fresh_rows_;      // union row per fresh row
  Matrix fresh_medoids_;                // fresh rows' coordinates, packed
  std::vector<double> thresholds_;      // [fresh row] max delta of its jobs
  std::vector<BlockSums> partials_;     // [block], fresh jobs x d
  std::vector<KernelScratch> scratch_;  // [block]
  std::vector<double> results_;         // jobs x d finished rows
  std::vector<Matrix> stats_;           // [variant]
  // Sketch-screening state (null/empty when screening is off this scan).
  const SketchPlan* sketch_ = nullptr;
  bool screening_ = false;        // resolved per scan in Prepare
  std::vector<double> sketches_;  // fresh rows x width, row-major
  std::vector<double> masses_;    // [fresh row] L1 mass
  size_t dims_ = 0;
  uint64_t distance_evals_ = 0;
};

/// Assignment (Figure 5): each point goes to the medoid minimizing the
/// Manhattan segmental distance on that medoid's dimensions, ties to the
/// lower index. Optionally fuses the per-cluster centroid accumulation
/// (the first of EvaluateClustersPass's two scans) into the same pass.
class AssignConsumer final : public ScanConsumer {
 public:
  /// `medoids` (k x d) and `dims` (k sets) must outlive the scan.
  Status Bind(const Matrix* medoids, const std::vector<DimensionSet>* dims,
              bool segmental_normalization, bool accumulate_centroids);

  /// Enables the prefix screen for the per-point argmin (null disables
  /// it — the ablation default). The prefix screen reuses the exact
  /// accumulation chain, so it is profitable at every dimensionality the
  /// policy admits and needs no active projection; labels are
  /// bit-identical either way.
  void SetSketch(const SketchPlan* sketch) { sketch_ = sketch; }

  Status Prepare(const ScanGeometry& geometry) override;
  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override;
  Status Merge() override;
  // Explicit no-op: Prepare() overwrites every partial Merge() reads
  // (see the rollback note at the top of this header).
  void Reset() override {}
  uint64_t distance_evals() const override { return distance_evals_; }
  KernelStats kernel_stats() const override;

  /// Per-point labels in [0, k), valid after Merge. The reference stays
  /// stable across scans (the vector is a long-lived member), so it can
  /// be bound into a follow-up consumer.
  const std::vector<int>& labels() const { return labels_; }
  /// Moves the labels out (one-shot use; surrenders buffer reuse).
  std::vector<int> TakeLabels() { return std::move(labels_); }
  /// Cluster centroids (k x d) and sizes; valid after Merge when bound
  /// with accumulate_centroids = true.
  const Matrix& centroids() const { return centroids_; }
  const std::vector<size_t>& cluster_sizes() const { return counts_; }

 private:
  const Matrix* medoids_ = nullptr;
  const std::vector<DimensionSet>* dims_sets_ = nullptr;
  std::vector<std::vector<uint32_t>> dim_lists_;
  bool segmental_ = true;
  bool accumulate_ = false;
  const SketchPlan* sketch_ = nullptr;
  size_t max_prefix_ = 0;  // prefix-screen length cap (0 = screen off)
  std::vector<int> labels_;
  std::vector<BlockSums> partials_;
  std::vector<KernelScratch> scratch_;  // [block]
  Matrix centroids_;
  std::vector<size_t> counts_;
  size_t dims_ = 0;
  uint64_t distance_evals_ = 0;
};

/// Refinement assignment: like AssignConsumer but a point farther from
/// every medoid than that medoid's sphere of influence is labeled
/// kOutlierLabel (when detect_outliers). Optionally fuses centroid
/// accumulation over the non-outlier points.
class RefineAssignConsumer final : public ScanConsumer {
 public:
  Status Bind(const Matrix* medoids, const std::vector<DimensionSet>* dims,
              const std::vector<double>* spheres,
              bool segmental_normalization, bool detect_outliers,
              bool accumulate_centroids);

  /// Enables the prefix screen (see AssignConsumer::SetSketch); sphere
  /// membership flags and outlier labels are bit-identical either way.
  void SetSketch(const SketchPlan* sketch) { sketch_ = sketch; }

  Status Prepare(const ScanGeometry& geometry) override;
  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override;
  Status Merge() override;
  // Explicit no-op: Prepare() overwrites every partial Merge() reads
  // (see the rollback note at the top of this header).
  void Reset() override {}
  uint64_t distance_evals() const override { return distance_evals_; }
  KernelStats kernel_stats() const override;

  const std::vector<int>& labels() const { return labels_; }
  /// Moves the labels out (one-shot use; surrenders buffer reuse).
  std::vector<int> TakeLabels() { return std::move(labels_); }
  const Matrix& centroids() const { return centroids_; }
  const std::vector<size_t>& cluster_sizes() const { return counts_; }

 private:
  const Matrix* medoids_ = nullptr;
  const std::vector<DimensionSet>* dims_sets_ = nullptr;
  const std::vector<double>* spheres_ = nullptr;
  std::vector<std::vector<uint32_t>> dim_lists_;
  bool segmental_ = true;
  bool detect_outliers_ = true;
  bool accumulate_ = false;
  const SketchPlan* sketch_ = nullptr;
  size_t max_prefix_ = 0;  // prefix-screen length cap (0 = screen off)
  std::vector<int> labels_;
  std::vector<BlockSums> partials_;
  std::vector<KernelScratch> scratch_;  // [block]
  Matrix centroids_;
  std::vector<size_t> counts_;
  size_t dims_ = 0;
  uint64_t distance_evals_ = 0;
};

/// Cluster statistics (refinement phase): X(i, j) = average |p_j - m_ij|
/// over the points labeled i (outliers skipped; empty clusters keep
/// all-zero rows).
class ClusterStatsConsumer final : public ScanConsumer {
 public:
  /// `labels` holds one label per source row; both pointers must outlive
  /// the scan.
  Status Bind(const Matrix* medoids, const std::vector<int>* labels);

  Status Prepare(const ScanGeometry& geometry) override;
  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override;
  Status Merge() override;
  // Explicit no-op: Prepare() overwrites every partial Merge() reads
  // (see the rollback note at the top of this header).
  void Reset() override {}
  KernelStats kernel_stats() const override;

  const Matrix& stats() const { return stats_; }
  Matrix TakeStats() { return std::move(stats_); }

 private:
  const Matrix* medoids_ = nullptr;
  const std::vector<int>* labels_ = nullptr;
  std::vector<BlockSums> partials_;
  std::vector<KernelScratch> scratch_;  // [block]
  Matrix stats_;
  size_t dims_ = 0;
};

/// Standalone centroid accumulation (first scan of the classic
/// EvaluateClustersPass): per-cluster coordinate means over non-outlier
/// points.
class CentroidConsumer final : public ScanConsumer {
 public:
  Status Bind(const std::vector<int>* labels, size_t num_clusters);

  Status Prepare(const ScanGeometry& geometry) override;
  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override;
  Status Merge() override;
  // Explicit no-op: Prepare() overwrites every partial Merge() reads
  // (see the rollback note at the top of this header).
  void Reset() override {}

  const Matrix& centroids() const { return centroids_; }
  const std::vector<size_t>& cluster_sizes() const { return counts_; }

 private:
  const std::vector<int>* labels_ = nullptr;
  size_t num_clusters_ = 0;
  std::vector<BlockSums> partials_;
  Matrix centroids_;
  std::vector<size_t> counts_;
  size_t dims_ = 0;
};

/// Deviation evaluation (second scan of EvaluateClustersPass, Figure 6):
/// accumulates per-dimension absolute deviations from the bound centroids
/// and reduces them to the paper's objective — the size-weighted average,
/// over non-empty clusters, of the mean per-dimension deviation on the
/// cluster's dimensions.
class DeviationConsumer final : public ScanConsumer {
 public:
  /// `centroids`/`cluster_sizes` are typically the outputs of an
  /// AssignConsumer or CentroidConsumer merged in an earlier scan; all
  /// pointers must outlive the scan.
  Status Bind(const std::vector<int>* labels, const Matrix* centroids,
              const std::vector<size_t>* cluster_sizes,
              const std::vector<DimensionSet>* dims);

  Status Prepare(const ScanGeometry& geometry) override;
  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override;
  Status Merge() override;
  // Explicit no-op: Prepare() overwrites every partial Merge() reads
  // (see the rollback note at the top of this header).
  void Reset() override {}
  KernelStats kernel_stats() const override;

  /// The objective value, valid after Merge.
  double objective() const { return objective_; }

 private:
  const std::vector<int>* labels_ = nullptr;
  const Matrix* centroids_ = nullptr;
  const std::vector<size_t>* counts_ = nullptr;
  const std::vector<DimensionSet>* dims_sets_ = nullptr;
  std::vector<std::vector<uint32_t>> dim_lists_;  // cached per-cluster lists
  std::vector<BlockSums> partials_;  // count unused
  std::vector<KernelScratch> scratch_;  // [block]
  Matrix deviation_;
  double objective_ = 0.0;
  size_t dims_ = 0;
};

}  // namespace proclus

#endif  // PROCLUS_CORE_CONSUMERS_H_
