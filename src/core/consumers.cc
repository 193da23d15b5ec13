#include "core/consumers.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"
#include "distance/batch.h"
#include "gen/ground_truth.h"

namespace proclus {

namespace {

// Full-space Manhattan segmental distance between two equal-length rows.
inline double FullSegmental(std::span<const double> a,
                            std::span<const double> b) {
  return ManhattanDistance(a, b) / static_cast<double>(a.size());
}

// Sums a consumer's per-block kernel scratches for kernel_stats().
ScanConsumer::KernelStats SumKernelStats(
    const std::vector<KernelScratch>& scratches) {
  ScanConsumer::KernelStats totals;
  for (const KernelScratch& scratch : scratches) totals.Accumulate(scratch);
  return totals;
}

// Materialized dimension lists (the hot loops iterate plain indices).
std::vector<std::vector<uint32_t>> DimLists(
    const std::vector<DimensionSet>& dims) {
  std::vector<std::vector<uint32_t>> lists(dims.size());
  for (size_t i = 0; i < dims.size(); ++i) {
    lists[i] = dims[i].ToVector();
    PROCLUS_CHECK(!lists[i].empty());
  }
  return lists;
}

// Zeroes `m` in place, reallocating only on shape change. A moved-from
// Matrix keeps its shape but loses its storage, so the storage size is
// checked too.
void ResetMatrix(Matrix* m, size_t rows, size_t cols) {
  if (m->rows() != rows || m->cols() != cols ||
      m->data().size() != rows * cols) {
    *m = Matrix(rows, cols);
  } else {
    std::fill(m->data().begin(), m->data().end(), 0.0);
  }
}

}  // namespace

// ---------- LocalityStatsConsumer ----------

Status LocalityStatsConsumer::Bind(
    const Matrix* medoids, std::vector<std::vector<size_t>> variant_rows) {
  if (medoids == nullptr || medoids->rows() == 0)
    return Status::InvalidArgument("no medoids");
  if (variant_rows.empty())
    return Status::InvalidArgument("no medoid-set variants");
  for (const std::vector<size_t>& rows : variant_rows) {
    if (rows.empty()) return Status::InvalidArgument("empty variant");
    for (size_t row : rows)
      if (row >= medoids->rows())
        return Status::InvalidArgument("variant row out of range");
  }
  medoids_ = medoids;
  memo_ = nullptr;
  slots_.clear();

  // delta_i = full-space segmental distance from variant medoid i to its
  // nearest other medoid of the same variant (infinity when k == 1). Each
  // (row, delta) pair becomes one job, shared by every variant that
  // names it.
  jobs_.clear();
  variant_jobs_.resize(variant_rows.size());
  std::vector<double> deltas;
  for (size_t v = 0; v < variant_rows.size(); ++v) {
    const std::vector<size_t>& map = variant_rows[v];
    const size_t k = map.size();
    deltas.assign(k, std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = i + 1; j < k; ++j) {
        double dist =
            FullSegmental(medoids_->row(map[i]), medoids_->row(map[j]));
        if (dist < deltas[i]) deltas[i] = dist;
        if (dist < deltas[j]) deltas[j] = dist;
      }
    }
    variant_jobs_[v].resize(k);
    for (size_t i = 0; i < k; ++i) {
      const Job job{map[i], deltas[i]};
      size_t at = 0;
      while (at < jobs_.size() &&
             (jobs_[at].row != job.row ||
              std::bit_cast<uint64_t>(jobs_[at].delta) !=
                  std::bit_cast<uint64_t>(job.delta)))
        ++at;
      if (at == jobs_.size()) jobs_.push_back(job);
      variant_jobs_[v][i] = at;
    }
  }
  return Status::OK();
}

Status LocalityStatsConsumer::Bind(const Matrix* medoids) {
  if (medoids == nullptr || medoids->rows() == 0)
    return Status::InvalidArgument("no medoids");
  std::vector<size_t> all(medoids->rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return Bind(medoids, {std::move(all)});
}

Status LocalityStatsConsumer::Bind(
    const Matrix* medoids, std::vector<std::vector<size_t>> variant_rows,
    std::span<const size_t> slots, LocalityMemo* memo) {
  PROCLUS_RETURN_IF_ERROR(Bind(medoids, std::move(variant_rows)));
  if (memo == nullptr) return Status::OK();
  if (slots.size() != medoids_->rows())
    return Status::InvalidArgument("one slot id per medoid row required");
  for (size_t i = 0; i < slots.size(); ++i)
    for (size_t j = i + 1; j < slots.size(); ++j)
      if (slots[i] == slots[j])
        return Status::InvalidArgument("duplicate slot in memoized bind");
  memo_ = memo;
  slots_.assign(slots.begin(), slots.end());
  return Status::OK();
}

Status LocalityStatsConsumer::Prepare(const ScanGeometry& geometry) {
  if (medoids_ == nullptr) return Status::InvalidArgument("Bind not called");
  if (medoids_->cols() != geometry.dims)
    return Status::InvalidArgument("medoid dimensionality mismatch");
  const size_t d = geometry.dims;
  dims_ = d;
  if (memo_ != nullptr && memo_->geometry != geometry) {
    memo_->entries.clear();
    memo_->geometry = geometry;
  }

  // Memo hits are answered here, on the driving thread; every other job
  // is fresh and needs a distance column for its medoid row.
  results_.resize(jobs_.size() * d);
  fresh_.clear();
  fresh_rows_.clear();
  thresholds_.clear();
  for (size_t j = 0; j < jobs_.size(); ++j) {
    const Job& job = jobs_[j];
    if (memo_ != nullptr) {
      auto hit = memo_->entries.find(
          {slots_[job.row], std::bit_cast<uint64_t>(job.delta)});
      if (hit != memo_->entries.end()) {
        std::copy(hit->second.row.begin(), hit->second.row.end(),
                  results_.data() + j * d);
        continue;
      }
    }
    size_t f = 0;
    while (f < fresh_rows_.size() && fresh_rows_[f] != job.row) ++f;
    if (f == fresh_rows_.size()) {
      fresh_rows_.push_back(job.row);
      thresholds_.push_back(job.delta);
    }
    // A fresh row's screening threshold is the largest delta any of its
    // jobs compares the row's distances against.
    thresholds_[f] = std::max(thresholds_[f], job.delta);
    fresh_.push_back({j, f, job.delta});
  }
  const size_t u = fresh_rows_.size();
  ResetMatrix(&fresh_medoids_, u, d);
  for (size_t f = 0; f < u; ++f) {
    auto src = medoids_->row(fresh_rows_[f]);
    std::copy(src.begin(), src.end(), fresh_medoids_.row(f).begin());
  }

  // Sketch screen setup: project the fresh rows once per scan. A distance
  // whose lower bound exceeds its row's threshold decides every job's
  // comparison identically without the exact value.
  screening_ = sketch_ != nullptr && sketch_->ScreenProfitable(d);
  if (screening_) {
    const size_t width = sketch_->width;
    sketches_.resize(u * width);
    masses_.resize(u);
    for (size_t f = 0; f < u; ++f)
      masses_[f] = sketch_->ProjectPoint(fresh_medoids_.row(f),
                                         sketches_.data() + f * width);
  }

  partials_.resize(geometry.num_blocks);
  PrepareKernelScratch(scratch_, geometry.num_blocks);
  stats_.resize(variant_jobs_.size());
  uint64_t pair_evals = 0;
  for (const std::vector<size_t>& map : variant_jobs_)
    pair_evals += static_cast<uint64_t>(map.size()) * (map.size() - 1) / 2;
  distance_evals_ = static_cast<uint64_t>(geometry.rows) * u + pair_evals;
  return Status::OK();
}

void LocalityStatsConsumer::ConsumeBlock(size_t block_index,
                                         size_t /*first_row*/,
                                         std::span<const double> data,
                                         size_t rows) {
  const size_t d = dims_;
  const size_t fresh = fresh_.size();
  BlockSums& partial = partials_[block_index];
  partial.sums.assign(fresh * d, 0.0);
  partial.count.assign(fresh, 0);
  if (fresh == 0) return;
  // Distances to the fresh medoid rows are computed once per point and
  // shared by every job on that row: one many-reference kernel scores all
  // of them against each gathered sub-tile. Dividing the Manhattan sum by
  // d afterwards is exactly FullSegmental's operation order, so dist stays
  // bit-identical to the per-point scalar loop.
  const size_t u = fresh_medoids_.rows();
  KernelScratch& scratch = scratch_[block_index];
  scratch.dist.resize(u * rows);
  double* dist = scratch.dist.data();
  const double denom = static_cast<double>(d);
  if (screening_) {
    // Screened fill: the kernel normalizes internally and stores a
    // guaranteed lower bound for pruned rows — a value that exceeds every
    // delta this scan compares it against, so the loop below reads it
    // unchanged.
    const SketchSpec spec = sketch_->Spec();
    SketchProjectBlock(data, rows, d, spec, scratch);
    ManhattanManyScreenedBatch(data, rows, d, fresh_medoids_,
                               sketches_.data(), masses_.data(), spec,
                               thresholds_, denom, scratch, dist);
  } else {
    ManhattanManyBatch(data, rows, d, fresh_medoids_, scratch, dist);
    for (size_t i = 0; i < u * rows; ++i) dist[i] /= denom;
  }
  for (size_t r = 0; r < rows; ++r) {
    std::span<const double> point = data.subspan(r * d, d);
    for (size_t q = 0; q < fresh; ++q) {
      const FreshJob& job = fresh_[q];
      if (dist[job.row * rows + r] > job.delta) continue;
      auto medoid = fresh_medoids_.row(job.row);
      double* sums = partial.sums.data() + q * d;
      for (size_t j = 0; j < d; ++j) {
        double diff = point[j] - medoid[j];
        sums[j] += diff < 0 ? -diff : diff;
      }
      ++partial.count[q];
    }
  }
}

ScanConsumer::KernelStats LocalityStatsConsumer::kernel_stats() const {
  return SumKernelStats(scratch_);
}

Status LocalityStatsConsumer::Merge() {
  const size_t d = dims_;
  for (size_t q = 0; q < fresh_.size(); ++q) {
    double* x = results_.data() + fresh_[q].job * d;
    std::fill(x, x + d, 0.0);
    size_t count = 0;
    for (const BlockSums& partial : partials_) {
      if (partial.sums.empty()) continue;
      for (size_t j = 0; j < d; ++j) x[j] += partial.sums[q * d + j];
      count += partial.count[q];
    }
    // Every medoid is a data point, so its own locality is non-empty as
    // long as the medoid coordinates came from this source.
    if (count != 0)
      for (size_t j = 0; j < d; ++j) x[j] /= static_cast<double>(count);
    // Commit only here: Merge runs after every block of a successful
    // scan, so an attempt that fails or is abandoned commits nothing.
    if (memo_ != nullptr) {
      const Job& job = jobs_[fresh_[q].job];
      const bool inserted =
          memo_->entries
              .try_emplace({slots_[job.row], std::bit_cast<uint64_t>(job.delta)},
                           LocalityMemo::Entry{std::vector<double>(x, x + d),
                                               count})
              .second;
      // invariant: Prepare answered every key already in the memo, so a
      // locality is accumulated at most once per memo.
      PROCLUS_CHECK(inserted);
    }
  }
  if (memo_ != nullptr) {
    memo_->hits += jobs_.size() - fresh_.size();
    memo_->misses += fresh_.size();
  }
  for (size_t v = 0; v < variant_jobs_.size(); ++v) {
    const std::vector<size_t>& map = variant_jobs_[v];
    ResetMatrix(&stats_[v], map.size(), d);
    for (size_t i = 0; i < map.size(); ++i) {
      const double* x = results_.data() + map[i] * d;
      std::copy(x, x + d, stats_[v].row(i).begin());
    }
  }
  return Status::OK();
}

// ---------- AssignConsumer ----------

Status AssignConsumer::Bind(const Matrix* medoids,
                            const std::vector<DimensionSet>* dims,
                            bool segmental_normalization,
                            bool accumulate_centroids) {
  if (medoids == nullptr || medoids->rows() == 0)
    return Status::InvalidArgument("no medoids");
  if (dims == nullptr || dims->size() != medoids->rows())
    return Status::InvalidArgument("dimension set count mismatch");
  medoids_ = medoids;
  dims_sets_ = dims;
  dim_lists_ = DimLists(*dims);
  segmental_ = segmental_normalization;
  accumulate_ = accumulate_centroids;
  max_prefix_ = 0;
  for (const std::vector<uint32_t>& list : dim_lists_)
    max_prefix_ = std::max(max_prefix_, PrefixScreenDims(list.size()));
  return Status::OK();
}

Status AssignConsumer::Prepare(const ScanGeometry& geometry) {
  if (medoids_ == nullptr) return Status::InvalidArgument("Bind not called");
  if (medoids_->cols() != geometry.dims)
    return Status::InvalidArgument("medoid dimensionality mismatch");
  dims_ = geometry.dims;
  labels_.resize(geometry.rows);
  if (accumulate_) partials_.resize(geometry.num_blocks);
  PrepareKernelScratch(scratch_, geometry.num_blocks);
  distance_evals_ =
      static_cast<uint64_t>(geometry.rows) * medoids_->rows();
  return Status::OK();
}

void AssignConsumer::ConsumeBlock(size_t block_index, size_t first_row,
                                  std::span<const double> data,
                                  size_t rows) {
  const size_t d = dims_;
  const size_t k = medoids_->rows();
  SegmentalArgminScreenedBatch(data, rows, d, *medoids_, dim_lists_,
                               segmental_, /*spheres=*/{},
                               sketch_ != nullptr ? max_prefix_ : 0,
                               scratch_[block_index],
                               labels_.data() + first_row);
  if (!accumulate_) return;
  BlockSums* partial = &partials_[block_index];
  partial->sums.assign(k * d, 0.0);
  partial->count.assign(k, 0);
  for (size_t r = 0; r < rows; ++r) {
    std::span<const double> point = data.subspan(r * d, d);
    const size_t i = static_cast<size_t>(labels_[first_row + r]);
    double* sums = partial->sums.data() + i * d;
    for (size_t j = 0; j < d; ++j) sums[j] += point[j];
    ++partial->count[i];
  }
}

ScanConsumer::KernelStats AssignConsumer::kernel_stats() const {
  return SumKernelStats(scratch_);
}

Status AssignConsumer::Merge() {
  if (!accumulate_) return Status::OK();
  const size_t d = dims_;
  const size_t k = medoids_->rows();
  ResetMatrix(&centroids_, k, d);
  counts_.assign(k, 0);
  for (const BlockSums& partial : partials_) {
    if (partial.sums.empty()) continue;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < d; ++j)
        centroids_(i, j) += partial.sums[i * d + j];
      counts_[i] += partial.count[i];
    }
  }
  for (size_t i = 0; i < k; ++i) {
    if (counts_[i] == 0) continue;
    for (size_t j = 0; j < d; ++j)
      centroids_(i, j) /= static_cast<double>(counts_[i]);
  }
  return Status::OK();
}

// ---------- RefineAssignConsumer ----------

Status RefineAssignConsumer::Bind(const Matrix* medoids,
                                  const std::vector<DimensionSet>* dims,
                                  const std::vector<double>* spheres,
                                  bool segmental_normalization,
                                  bool detect_outliers,
                                  bool accumulate_centroids) {
  if (medoids == nullptr || medoids->rows() == 0)
    return Status::InvalidArgument("no medoids");
  if (dims == nullptr || spheres == nullptr ||
      dims->size() != medoids->rows() ||
      spheres->size() != medoids->rows())
    return Status::InvalidArgument("per-medoid input count mismatch");
  medoids_ = medoids;
  dims_sets_ = dims;
  spheres_ = spheres;
  dim_lists_ = DimLists(*dims);
  segmental_ = segmental_normalization;
  detect_outliers_ = detect_outliers;
  accumulate_ = accumulate_centroids;
  max_prefix_ = 0;
  for (const std::vector<uint32_t>& list : dim_lists_)
    max_prefix_ = std::max(max_prefix_, PrefixScreenDims(list.size()));
  return Status::OK();
}

Status RefineAssignConsumer::Prepare(const ScanGeometry& geometry) {
  if (medoids_ == nullptr) return Status::InvalidArgument("Bind not called");
  if (medoids_->cols() != geometry.dims)
    return Status::InvalidArgument("medoid dimensionality mismatch");
  dims_ = geometry.dims;
  labels_.resize(geometry.rows);
  if (accumulate_) partials_.resize(geometry.num_blocks);
  PrepareKernelScratch(scratch_, geometry.num_blocks);
  distance_evals_ =
      static_cast<uint64_t>(geometry.rows) * medoids_->rows();
  return Status::OK();
}

void RefineAssignConsumer::ConsumeBlock(size_t block_index, size_t first_row,
                                        std::span<const double> data,
                                        size_t rows) {
  const size_t d = dims_;
  const size_t k = medoids_->rows();
  BlockSums* partial = nullptr;
  if (accumulate_) {
    partial = &partials_[block_index];
    partial->sums.assign(k * d, 0.0);
    partial->count.assign(k, 0);
  }
  KernelScratch& scratch = scratch_[block_index];
  SegmentalArgminScreenedBatch(data, rows, d, *medoids_, dim_lists_,
                               segmental_, *spheres_,
                               sketch_ != nullptr ? max_prefix_ : 0, scratch,
                               labels_.data() + first_row);
  for (size_t r = 0; r < rows; ++r) {
    const bool outlier = detect_outliers_ && scratch.inside[r] == 0;
    if (outlier) {
      labels_[first_row + r] = kOutlierLabel;
      continue;
    }
    if (partial != nullptr) {
      std::span<const double> point = data.subspan(r * d, d);
      const size_t i = static_cast<size_t>(labels_[first_row + r]);
      double* sums = partial->sums.data() + i * d;
      for (size_t j = 0; j < d; ++j) sums[j] += point[j];
      ++partial->count[i];
    }
  }
}

ScanConsumer::KernelStats RefineAssignConsumer::kernel_stats() const {
  return SumKernelStats(scratch_);
}

Status RefineAssignConsumer::Merge() {
  if (!accumulate_) return Status::OK();
  const size_t d = dims_;
  const size_t k = medoids_->rows();
  ResetMatrix(&centroids_, k, d);
  counts_.assign(k, 0);
  for (const BlockSums& partial : partials_) {
    if (partial.sums.empty()) continue;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < d; ++j)
        centroids_(i, j) += partial.sums[i * d + j];
      counts_[i] += partial.count[i];
    }
  }
  for (size_t i = 0; i < k; ++i) {
    if (counts_[i] == 0) continue;
    for (size_t j = 0; j < d; ++j)
      centroids_(i, j) /= static_cast<double>(counts_[i]);
  }
  return Status::OK();
}

// ---------- ClusterStatsConsumer ----------

Status ClusterStatsConsumer::Bind(const Matrix* medoids,
                                  const std::vector<int>* labels) {
  if (medoids == nullptr || medoids->rows() == 0)
    return Status::InvalidArgument("no medoids");
  if (labels == nullptr) return Status::InvalidArgument("no labels");
  medoids_ = medoids;
  labels_ = labels;
  return Status::OK();
}

Status ClusterStatsConsumer::Prepare(const ScanGeometry& geometry) {
  if (medoids_ == nullptr) return Status::InvalidArgument("Bind not called");
  if (labels_->size() != geometry.rows)
    return Status::InvalidArgument("label count mismatch");
  dims_ = geometry.dims;
  partials_.resize(geometry.num_blocks);
  PrepareKernelScratch(scratch_, geometry.num_blocks);
  return Status::OK();
}

void ClusterStatsConsumer::ConsumeBlock(size_t block_index, size_t first_row,
                                        std::span<const double> data,
                                        size_t rows) {
  const size_t d = dims_;
  const size_t k = medoids_->rows();
  BlockSums& partial = partials_[block_index];
  partial.sums.assign(k * d, 0.0);
  partial.count.assign(k, 0);
  LabeledAbsDeviationBatch(data, rows, d, labels_->data() + first_row,
                           *medoids_, scratch_[block_index],
                           partial.sums.data(), partial.count.data());
}

ScanConsumer::KernelStats ClusterStatsConsumer::kernel_stats() const {
  return SumKernelStats(scratch_);
}

Status ClusterStatsConsumer::Merge() {
  const size_t d = dims_;
  const size_t k = medoids_->rows();
  ResetMatrix(&stats_, k, d);
  std::vector<size_t> count(k, 0);
  for (const BlockSums& partial : partials_) {
    if (partial.sums.empty()) continue;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < d; ++j)
        stats_(i, j) += partial.sums[i * d + j];
      count[i] += partial.count[i];
    }
  }
  for (size_t i = 0; i < k; ++i) {
    if (count[i] == 0) continue;
    for (size_t j = 0; j < d; ++j)
      stats_(i, j) /= static_cast<double>(count[i]);
  }
  return Status::OK();
}

// ---------- CentroidConsumer ----------

Status CentroidConsumer::Bind(const std::vector<int>* labels,
                              size_t num_clusters) {
  if (labels == nullptr) return Status::InvalidArgument("no labels");
  labels_ = labels;
  num_clusters_ = num_clusters;
  return Status::OK();
}

Status CentroidConsumer::Prepare(const ScanGeometry& geometry) {
  if (labels_ == nullptr) return Status::InvalidArgument("Bind not called");
  if (labels_->size() != geometry.rows)
    return Status::InvalidArgument("label count mismatch");
  dims_ = geometry.dims;
  partials_.resize(geometry.num_blocks);
  return Status::OK();
}

void CentroidConsumer::ConsumeBlock(size_t block_index, size_t first_row,
                                    std::span<const double> data,
                                    size_t rows) {
  const size_t d = dims_;
  const size_t k = num_clusters_;
  BlockSums& partial = partials_[block_index];
  partial.sums.assign(k * d, 0.0);
  partial.count.assign(k, 0);
  for (size_t r = 0; r < rows; ++r) {
    int label = (*labels_)[first_row + r];
    if (label == kOutlierLabel) continue;
    size_t i = static_cast<size_t>(label);
    // invariant: labels come from AssignConsumer, which only emits
    // kOutlierLabel or medoid indices in [0, k).
    PROCLUS_CHECK(i < k);
    std::span<const double> point = data.subspan(r * d, d);
    double* sums = partial.sums.data() + i * d;
    for (size_t j = 0; j < d; ++j) sums[j] += point[j];
    ++partial.count[i];
  }
}

Status CentroidConsumer::Merge() {
  const size_t d = dims_;
  const size_t k = num_clusters_;
  ResetMatrix(&centroids_, k, d);
  counts_.assign(k, 0);
  for (const BlockSums& partial : partials_) {
    if (partial.sums.empty()) continue;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < d; ++j)
        centroids_(i, j) += partial.sums[i * d + j];
      counts_[i] += partial.count[i];
    }
  }
  for (size_t i = 0; i < k; ++i) {
    if (counts_[i] == 0) continue;
    for (size_t j = 0; j < d; ++j)
      centroids_(i, j) /= static_cast<double>(counts_[i]);
  }
  return Status::OK();
}

// ---------- DeviationConsumer ----------

Status DeviationConsumer::Bind(const std::vector<int>* labels,
                               const Matrix* centroids,
                               const std::vector<size_t>* cluster_sizes,
                               const std::vector<DimensionSet>* dims) {
  if (labels == nullptr || centroids == nullptr || cluster_sizes == nullptr ||
      dims == nullptr)
    return Status::InvalidArgument("null deviation input");
  if (dims->size() != centroids->rows() ||
      cluster_sizes->size() != centroids->rows())
    return Status::InvalidArgument("per-cluster input count mismatch");
  labels_ = labels;
  centroids_ = centroids;
  counts_ = cluster_sizes;
  dims_sets_ = dims;
  // Materialize the per-cluster dimension lists once per Bind; the paper's
  // objective only reads them in Merge, but re-extracting a bitset per
  // cluster per scan is the exact allocation pattern tools/lint.py bans.
  // Empty sets are tolerated here — Merge only requires non-empty lists
  // for clusters that received points.
  dim_lists_.resize(dims->size());
  for (size_t i = 0; i < dims->size(); ++i)
    dim_lists_[i] = (*dims)[i].ToVector();
  return Status::OK();
}

Status DeviationConsumer::Prepare(const ScanGeometry& geometry) {
  if (labels_ == nullptr) return Status::InvalidArgument("Bind not called");
  if (labels_->size() != geometry.rows)
    return Status::InvalidArgument("label count mismatch");
  dims_ = geometry.dims;
  partials_.resize(geometry.num_blocks);
  PrepareKernelScratch(scratch_, geometry.num_blocks);
  return Status::OK();
}

void DeviationConsumer::ConsumeBlock(size_t block_index, size_t first_row,
                                     std::span<const double> data,
                                     size_t rows) {
  const size_t d = dims_;
  const size_t k = centroids_->rows();
  BlockSums& partial = partials_[block_index];
  partial.sums.assign(k * d, 0.0);
  LabeledAbsDeviationBatch(data, rows, d, labels_->data() + first_row,
                           *centroids_, scratch_[block_index],
                           partial.sums.data(), /*count=*/nullptr);
}

ScanConsumer::KernelStats DeviationConsumer::kernel_stats() const {
  return SumKernelStats(scratch_);
}

Status DeviationConsumer::Merge() {
  const size_t d = dims_;
  const size_t k = centroids_->rows();
  ResetMatrix(&deviation_, k, d);
  for (const BlockSums& partial : partials_) {
    if (partial.sums.empty()) continue;
    for (size_t i = 0; i < k; ++i)
      for (size_t j = 0; j < d; ++j)
        deviation_(i, j) += partial.sums[i * d + j];
  }

  double weighted = 0.0;
  size_t clustered = 0;
  for (size_t i = 0; i < k; ++i) {
    const size_t count = (*counts_)[i];
    if (count == 0) continue;
    const std::vector<uint32_t>& dim_list = dim_lists_[i];
    // invariant: FindDimensions allocates >= 2 dimensions per medoid.
    PROCLUS_CHECK(!dim_list.empty());
    double w = 0.0;
    for (uint32_t j : dim_list)
      w += deviation_(i, j) / static_cast<double>(count);
    w /= static_cast<double>(dim_list.size());
    weighted += w * static_cast<double>(count);
    clustered += count;
  }
  objective_ =
      clustered == 0 ? 0.0 : weighted / static_cast<double>(clustered);
  return Status::OK();
}

}  // namespace proclus
