// Random-projection sketch plans for exact-result candidate pruning.
//
// A SketchPlan is a seeded, deterministic signed-bucket projection (the
// sparse Johnson–Lindenstrauss / CountSketch family): every dimension j
// is assigned one of `width` buckets b_j and a sign sigma_j in {-1, +1},
// both drawn from a dedicated Rng stream derived from the run seed. A
// point p projects to s = width bucket sums sk_t = sum_{b_j = t}
// sigma_j * p_j in one O(d) pass — the same cost as a single exact
// distance evaluation, amortized over every reference screened against
// the block.
//
// The projection is used for PRUNING ONLY: per metric, the bucket sums
// yield a guaranteed lower bound on the exact distance (derivations in
// DESIGN.md §14), so a candidate whose bound already exceeds the current
// argmin (or a locality threshold) can be skipped without evaluating it,
// and the survivors are verified by the unmodified exact kernels. Every
// result — labels, objectives, locality statistics — is bit-identical
// with screening on or off.
//
// Determinism: the plan's buckets and signs are a pure function of
// (seed, dims, width). They are drawn from a PRIVATE Rng seeded by
// mixing the run seed with a fixed tag — the run's main Rng stream is
// never touched, so enabling or disabling the sketch cannot shift any
// other draw, and a resumed run rebuilds the identical plan from the
// checkpointed params instead of persisting matrix state.
//
// Floating-point safety: the lower bounds are computed in floating
// point, so the plan carries a relative slack multiplier and an
// absolute-margin coefficient (scaled by the points' L1 mass, which the
// projection pass accumulates for free) sized to dominate every rounding
// error in the bound's evaluation; a bound can only ever be *under* the
// exact kernel's value, never over (property-tested with adversarial
// near-ties in tests/sketch_prune_test.cc).

#ifndef PROCLUS_SKETCH_PLAN_H_
#define PROCLUS_SKETCH_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "distance/batch.h"

namespace proclus {

/// A seeded signed-bucket projection over `dims` dimensions. Immutable
/// after construction; shared read-only by every consumer of a run.
struct SketchPlan {
  size_t dims = 0;   ///< Source dimensionality the plan was built for.
  size_t width = 0;  ///< Sketch dimensions s (0 = plan disabled).
  std::vector<uint32_t> buckets;  ///< [dims] bucket index per dimension.
  std::vector<double> signs;      ///< [dims] sigma_j in {-1.0, +1.0}.
  /// [width] 1 / bucket load (doubles; loads are small exact integers).
  /// A zero-load bucket stores 0 — its bucket sum is identically zero.
  std::vector<double> inv_loads;
  uint32_t max_load = 0;  ///< max_t |{j : b_j = t}|.
  /// Multiplier < 1 absorbing every relative rounding error in a bound.
  double rel_slack = 1.0;
  /// Absolute-margin coefficient: a bound subtracts
  /// abs_coef * (mass_a + mass_b), where mass is a point's L1 norm,
  /// covering cancellation error in the bucket sums themselves.
  double abs_coef = 0.0;

  /// True when the plan carries a usable projection.
  bool active() const { return width > 0; }

  /// Whether the random-projection screens pay for themselves at this
  /// dimensionality: the screen costs O(width) per (row, reference) pair
  /// against O(dims) for the exact kernel, so it needs dims to dominate
  /// width. The prefix screen (SegmentalArgminScreenedBatch) is not
  /// gated by this — it reuses the exact accumulation chain and has no
  /// projection cost.
  bool ScreenProfitable(size_t scan_dims) const {
    return active() && scan_dims == dims && scan_dims >= 2 * width;
  }

  /// Raw-span view consumed by the kernels in distance/batch.h (the
  /// distance layer sits below this one and sees no plan type).
  SketchSpec Spec() const {
    return SketchSpec{buckets.data(), signs.data(),      width,
                      inv_loads.data(), rel_slack, abs_coef};
  }

  /// Projects one point (dims doubles) into `out` (width doubles) and
  /// returns its L1 mass; the scalar twin of SketchProjectBlock for
  /// reference points (medoids, centers). Deterministic and
  /// thread-agnostic: ascending-dimension accumulation.
  double ProjectPoint(std::span<const double> point, double* out) const;
};

/// Sketch width policy: s = O(log n), rounded to a power of two, clamped
/// to [8, 64] and to at most dims / 2. Returns 0 (no plan) when dims is
/// too small for any screen to pay for itself.
size_t SketchWidth(size_t rows, size_t dims);

/// Prefix length policy for the segmental prefix screen: how many of a
/// medoid's |D_i| dimensions the screening pass accumulates before
/// deciding. Returns 0 when the list is too short to split.
size_t PrefixScreenDims(size_t list_dims);

/// Builds the plan for a run: derives a private Rng stream from `seed`,
/// assigns every dimension a bucket and a sign, and precomputes the
/// bound-safety slack. Returns an inactive plan (width 0) when
/// SketchWidth says the input shape cannot profit.
SketchPlan BuildSketchPlan(uint64_t seed, size_t rows, size_t dims);

}  // namespace proclus

#endif  // PROCLUS_SKETCH_PLAN_H_
