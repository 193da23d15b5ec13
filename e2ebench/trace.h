// In-memory span recording for the end-to-end benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around calls into the
// library's public API: a Tracer holds (id, parent, name, start, end)
// records in memory, and a TracingSource decorator records one span per
// Scan and Fetch of the source it wraps plus one child span per visitor
// call. Nothing inside src/ is instrumented.
//
// The decorator forwards InMemory() and Sharded() of the wrapped source,
// so the scan executor takes exactly the path it takes for the bare
// source: a multi-threaded fit over a memory source still uses the
// zero-copy parallel path (its scans are then invisible here; only its
// fetches are recorded), and a shard set is traced by wrapping each shard
// instead of the set.

#ifndef PROCLUS_E2EBENCH_TRACE_H_
#define PROCLUS_E2EBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "data/point_source.h"

namespace proclus::e2e {

/// One recorded interval. Times are seconds since the tracer's epoch.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = no parent.
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// Thread-safe in-memory span store.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Records a finished span and returns its id.
  uint64_t Record(std::string name, uint64_t parent, double start,
                  double end) {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t id = spans_.size() + 1;
    spans_.push_back(Span{id, parent, std::move(name), start, end});
    return id;
  }

  /// Reserves an id for a span whose children are recorded before it
  /// ends; Finish() fills it in.
  uint64_t Open(std::string name, uint64_t parent, double start) {
    return Record(std::move(name), parent, start, start);
  }
  void Finish(uint64_t id, double end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = end;
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Parent span for spans recorded by TracingSource (the enclosing fit).
  void set_root(uint64_t id) { root_ = id; }
  uint64_t root() const { return root_; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t root_ = 0;
};

/// Sum of span durations (thread-seconds when spans overlap).
inline double SumSeconds(const std::vector<Span>& spans) {
  double total = 0.0;
  for (const Span& s : spans) total += s.end - s.start;
  return total;
}

/// Length of the union of the spans' intervals (wall seconds).
inline double UnionSeconds(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  double total = 0.0;
  double open_start = 0.0;
  double open_end = -1.0;
  for (const Span& s : spans) {
    if (s.start > open_end) {
      if (open_end > open_start) total += open_end - open_start;
      open_start = s.start;
      open_end = s.end;
    } else {
      open_end = std::max(open_end, s.end);
    }
  }
  if (open_end > open_start) total += open_end - open_start;
  return total;
}

/// Path-preserving PointSource decorator that records a "scan" span per
/// Scan, a "visit" child span per delivered block, and a "fetch" span per
/// Fetch, all parented to the tracer's root.
class TracingSource final : public PointSource {
 public:
  TracingSource(std::unique_ptr<PointSource> inner, Tracer* tracer,
                std::string label)
      : inner_(std::move(inner)), tracer_(tracer), label_(std::move(label)) {}

  size_t size() const override { return inner_->size(); }
  size_t dims() const override { return inner_->dims(); }
  const Dataset* InMemory() const override { return inner_->InMemory(); }
  const ShardedSource* Sharded() const override { return inner_->Sharded(); }

  Result<Matrix> Fetch(std::span<const size_t> indices) const override {
    const double start = tracer_->Now();
    Result<Matrix> out = inner_->Fetch(indices);
    tracer_->Record("fetch:" + label_, tracer_->root(), start,
                    tracer_->Now());
    return out;
  }

 protected:
  Status ScanBlocks(const ScanSpec& spec,
                    const BlockVisitor& visit) const override {
    const uint64_t scan =
        tracer_->Open("scan:" + label_, tracer_->root(), tracer_->Now());
    Status status = inner_->Scan(
        spec, [&](size_t first, std::span<const double> data, size_t rows) {
          const double start = tracer_->Now();
          visit(first, data, rows);
          tracer_->Record("visit", scan, start, tracer_->Now());
        });
    tracer_->Finish(scan, tracer_->Now());
    return status;
  }

 private:
  std::unique_ptr<PointSource> inner_;
  Tracer* tracer_;
  std::string label_;
};

}  // namespace proclus::e2e

#endif  // PROCLUS_E2EBENCH_TRACE_H_
