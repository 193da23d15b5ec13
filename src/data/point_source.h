// PointSource: sequential-scan + point-fetch access to a point set,
// decoupling the clustering passes from where the data lives.
//
// PROCLUS is a database algorithm: every phase is one scan over the data
// plus random access to a handful of points (medoid candidates). This
// interface captures exactly that contract, so the same algorithm runs
// over an in-memory Dataset or a disk-resident binary snapshot that
// never fits in RAM.
//
//  * Scan(block_rows, visit) — visits consecutive blocks of row-major
//    coordinates in order. In-memory sources pass zero-copy spans; the
//    disk source reads through a reusable buffer.
//  * Fetch(indices) — materializes a small set of points (samples,
//    medoids) by position.
//  * ReadRows(first, rows, buffer) — reads one row range by position
//    into a caller-owned buffer (zero-copy for in-memory sources). The
//    scan executor's parallel branch is built on it: each worker reads
//    and consumes its own blocks, so a disk source's reads, checksum
//    verification and consumer compute all run on every worker.
//
// Implementations must support concurrent Scan/Fetch/ReadRows calls from
// multiple threads (the disk source opens a private stream per call).

#ifndef PROCLUS_DATA_POINT_SOURCE_H_
#define PROCLUS_DATA_POINT_SOURCE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/matrix.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/sync.h"
#include "data/dataset.h"

namespace proclus {

class ShardedSource;

/// Parameters of one Scan call. The cancellation context is checked by
/// every source implementation between blocks (one relaxed load per block
/// when only a token is set), so Cancel() or deadline expiry aborts a
/// running scan within one block's worth of work, returning
/// kCancelled/kDeadlineExceeded with the blocks after the abort withheld.
struct ScanSpec {
  /// Rows per delivered block (must be > 0).
  size_t block_rows = 0;
  /// Cooperative stop signal; inactive by default.
  CancelContext cancel{};
};

/// Snapshot of a source's cumulative physical-access counters (monotonic
/// over the source's lifetime). `bytes_read` counts bytes physically read
/// from backing storage: zero for in-memory sources, whose scans hand out
/// zero-copy views.
struct IoCounters {
  uint64_t scans = 0;
  uint64_t rows_scanned = 0;
  uint64_t bytes_read = 0;
  uint64_t rows_fetched = 0;
};

/// Receives one block: index of its first row, row-major coordinate data
/// (`rows` x dims() values), and the number of rows in the block.
using BlockVisitor =
    std::function<void(size_t first_row, std::span<const double> data,
                       size_t rows)>;

/// Abstract scan/fetch access to N points in d dimensions.
class PointSource {
 public:
  // Counters are bound to the source's identity, not its data: copy- and
  // move-constructed sources start counting from zero and assignment
  // leaves the target's tallies untouched. GuardedCounter implements
  // exactly those semantics, so the special member functions need no
  // special-casing here.
  PointSource() = default;
  virtual ~PointSource() = default;

  /// Number of points N.
  virtual size_t size() const = 0;
  /// Dimensionality d.
  virtual size_t dims() const = 0;

  /// Visits all points in consecutive blocks of at most `spec.block_rows`
  /// rows, in order of increasing row index. Every block except possibly
  /// the last has exactly `spec.block_rows` rows. Thread-compatible: may
  /// be called concurrently from several threads. Checks `spec.cancel`
  /// once on entry and once per block (see ScanSpec); a cancelled or
  /// deadline-expired scan stops delivering and returns the context's
  /// status.
  Status Scan(const ScanSpec& spec, const BlockVisitor& visit) const {
    if (spec.block_rows == 0)
      return Status::InvalidArgument("block_rows must be > 0");
    PROCLUS_RETURN_IF_ERROR(spec.cancel.Check());
    return ScanBlocks(spec, visit);
  }

  /// Scan without a cancellation context (uninterruptible).
  Status Scan(size_t block_rows, const BlockVisitor& visit) const {
    ScanSpec spec;
    spec.block_rows = block_rows;
    return Scan(spec, visit);
  }

  /// Materializes the points at `indices` (any order, duplicates
  /// allowed) as the rows of a Matrix. Returns OutOfRange for bad
  /// indices.
  virtual Result<Matrix> Fetch(std::span<const size_t> indices) const = 0;

  /// Non-null when the full point set is addressable in memory; ReadRows
  /// then hands out zero-copy views of it.
  virtual const Dataset* InMemory() const { return nullptr; }

  /// Reads rows [first, first + rows) by position and returns a view of
  /// them: a zero-copy span for in-memory sources, otherwise a view of
  /// `*buffer` (resized as needed) holding the rows just read. With a
  /// null `buffer` nothing is read and the status alone says whether the
  /// range can be served. kUnimplemented means the source cannot read the
  /// range by position; ScanExecutor then scans it through Scan(). Books
  /// nothing in io(): the caller that assembles the reads into a logical
  /// scan records it. Thread-compatible: concurrent calls must pass
  /// distinct buffers.
  Result<std::span<const double>> ReadRows(
      size_t first, size_t rows, std::vector<double>* buffer) const {
    if (first > size() || rows > size() - first)
      return Status::OutOfRange("rows [" + std::to_string(first) + ", " +
                                std::to_string(first + rows) +
                                ") out of range");
    if (const Dataset* memory = InMemory())
      return std::span<const double>(
          memory->matrix().data().data() + first * dims(), rows * dims());
    return ReadRowsAt(first, rows, buffer);
  }

  /// Non-null when the source is a shard set (data/sharded_source.h);
  /// ScanExecutor::Run delegates such sources to the ShardedScanExecutor
  /// so every caller gets the per-shard parallel/retry path without
  /// knowing about sharding. Decorators (e.g. the fault injector) keep
  /// the null default: a wrapped shard set scans through the decorated
  /// glued Scan() instead, which preserves their interception.
  virtual const ShardedSource* Sharded() const { return nullptr; }

  /// Cumulative access counters. Thread-compatible with concurrent
  /// Scan/Fetch calls (relaxed GuardedCounters; each field is
  /// individually consistent, not a cross-field snapshot).
  IoCounters io() const { return io_.Snapshot(); }

 protected:
  /// The scan hook implementations override (non-virtual-interface: the
  /// public Scan validates block_rows and pre-checks cancellation once, so
  /// every source gets both uniformly). Implementations must check
  /// `spec.cancel` between blocks and propagate its status; decorators
  /// forward the whole spec to their inner source.
  virtual Status ScanBlocks(const ScanSpec& spec,
                            const BlockVisitor& visit) const = 0;

  /// Block-read hook behind ReadRows for sources without an in-memory
  /// view (the range is already bounds-checked). The default says the
  /// source is not block-readable (kUnimplemented), so decorators that
  /// intercept Scan() keep every block on their own path. An override
  /// must decide servability from the range alone, and serve every block
  /// of a scan geometry whose first block it serves.
  virtual Result<std::span<const double>> ReadRowsAt(
      size_t first, size_t rows, std::vector<double>* buffer) const;

  /// Implementations call this once per completed Scan.
  void RecordScan(uint64_t rows, uint64_t bytes) const {
    io_.scans.Add(1);
    io_.rows_scanned.Add(rows);
    io_.bytes_read.Add(bytes);
  }

  /// Implementations call this once per completed Fetch.
  void RecordFetch(uint64_t rows, uint64_t bytes) const {
    io_.rows_fetched.Add(rows);
    io_.bytes_read.Add(bytes);
  }

 private:
  // The executor's parallel branch reads blocks through ReadRows, not
  // Scan(); it records the logical scan (and the bytes its workers read)
  // here so the counters stay truthful for every path. The sharded executor
  // likewise scans the shards directly, bypassing the shard set's own
  // glued Scan(), and records the logical whole-set scan on it here.
  friend class ScanExecutor;
  friend class ShardedScanExecutor;

  // Relaxed-atomic cells behind the IoCounters snapshot. Concurrent
  // Scan/Fetch calls bump them without coordination; Snapshot() is the
  // single read path. Ordering discipline lives inside GuardedCounter
  // (relaxed — independent statistics, no payload publication).
  struct IoCounterCells {
    GuardedCounter scans;
    GuardedCounter rows_scanned;
    GuardedCounter bytes_read;
    GuardedCounter rows_fetched;

    IoCounters Snapshot() const {
      IoCounters out;
      out.scans = scans.Load();
      out.rows_scanned = rows_scanned.Load();
      out.bytes_read = bytes_read.Load();
      out.rows_fetched = rows_fetched.Load();
      return out;
    }
  };

  mutable IoCounterCells io_;
};

/// PointSource view over an in-memory Dataset (not owned).
class MemorySource final : public PointSource {
 public:
  /// Wraps `dataset`, which must outlive this source.
  explicit MemorySource(const Dataset& dataset) : dataset_(&dataset) {}

  size_t size() const override { return dataset_->size(); }
  size_t dims() const override { return dataset_->dims(); }
  Result<Matrix> Fetch(std::span<const size_t> indices) const override;
  const Dataset* InMemory() const override { return dataset_; }

 protected:
  Status ScanBlocks(const ScanSpec& spec,
                    const BlockVisitor& visit) const override;

 private:
  const Dataset* dataset_;
};

/// PointSource over a binary dataset snapshot on disk (the format of
/// data/binary_io.h), reading blocks through a bounded buffer so the
/// full data never needs to fit in memory.
///
/// Integrity: version-2 snapshots carry a per-block XXH64 checksum table.
/// Scan verifies every checksum block as its bytes stream past; Fetch and
/// ReadRows verify every checksum block they read. A mismatch yields
/// DataLoss with the path, block index and byte offset. Version-1
/// snapshots (no checksums) are still readable, unverified.
///
/// Block reads: ReadRows serves a range by positional read when it is
/// checksum-aligned — both ends on a checksum-block boundary or the end
/// of the data, which every v1 range is. Scan blocks are aligned exactly
/// when block_rows is a multiple of the checksum block (8192 and 256 by
/// default), so ScanExecutor reads and consumes such scans on every
/// worker; any other geometry is declined (kUnimplemented) and scanned
/// sequentially through Scan with the same bits.
///
/// Resilience: Fetch re-issues transiently failed row reads under
/// `retry_policy()` (stream reopened between attempts). Scan and ReadRows
/// do NOT retry internally — a mid-scan failure invalidates everything
/// already delivered to visitors, so the re-issue belongs to the caller
/// that owns the consumer state (ScanExecutor::Run).
///
/// Prefetch serves sequential scans only: 1-thread executor runs, the
/// fallback geometry above, and direct Scan() callers. By default (on
/// hosts with more than one hardware thread) such a Scan double-buffers —
/// a producer thread reads and checksums tile i+1 while the visitor
/// consumes tile i, overlapping disk I/O with kernel compute. Block
/// contents, delivery order, and failure semantics are identical to the
/// inline path (a checksum block completed inside tile i is still
/// verified before tile i is delivered); only wall time changes.
/// `set_prefetch(false)` restores the single-threaded read loop (also
/// used automatically for single-tile scans). On a single-core host the
/// producer thread cannot overlap page-cache reads with compute and the
/// handoff is pure overhead, so the default there is off — set_prefetch
/// still forces either path explicitly.
class DiskSource final : public PointSource {
 public:
  /// Opens and validates the snapshot at `path`.
  static Result<DiskSource> Open(const std::string& path);

  size_t size() const override { return rows_; }
  size_t dims() const override { return cols_; }
  Result<Matrix> Fetch(std::span<const size_t> indices) const override;

  /// Retry schedule for transient Fetch failures.
  const RetryPolicy& retry_policy() const { return retry_; }
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  /// True when the snapshot carries a checksum table (version >= 2).
  bool verifies_checksums() const { return !checksums_.empty(); }

  /// Whether Scan overlaps tile reads with visitor compute (default on
  /// when the host has more than one hardware thread).
  bool prefetch() const { return prefetch_; }
  void set_prefetch(bool enabled) { prefetch_ = enabled; }

 protected:
  Status ScanBlocks(const ScanSpec& spec,
                    const BlockVisitor& visit) const override;
  Result<std::span<const double>> ReadRowsAt(
      size_t first, size_t rows, std::vector<double>* buffer) const override;

 private:
  DiskSource(std::string path, size_t rows, size_t cols, size_t data_offset,
             size_t checksum_block_rows, std::vector<uint64_t> checksums)
      : path_(std::move(path)),
        rows_(rows),
        cols_(cols),
        data_offset_(data_offset),
        checksum_block_rows_(checksum_block_rows),
        checksums_(std::move(checksums)) {}

  std::string path_;
  size_t rows_;
  size_t cols_;
  size_t data_offset_;
  // Sequential fallback for Scan when prefetch is disabled or the scan
  // has fewer than two tiles.
  Status ScanInline(const ScanSpec& spec, const BlockVisitor& visit) const;
  // Double-buffered Scan: producer thread reads + checksums tiles into
  // two slots, the calling thread delivers them in order.
  Status ScanPrefetch(const ScanSpec& spec, const BlockVisitor& visit) const;

  // True when the host has a second hardware thread to run the producer.
  static bool DefaultPrefetch();

  // Reads the checksum-aligned rows [first, first + rows) from `in` into
  // `out` and verifies every checksum block they cover (v2). `what` names
  // the operation in the IOError/DataLoss message. The one read-and-verify
  // path of Fetch and ReadRowsAt.
  Status ReadVerified(std::istream& in, size_t first, size_t rows,
                      double* out, const std::string& what) const;

  // v2 only: rows per checksum block and one XXH64 digest per block
  // (empty for v1 snapshots).
  size_t checksum_block_rows_;
  std::vector<uint64_t> checksums_;
  RetryPolicy retry_;
  bool prefetch_ = DefaultPrefetch();
};

}  // namespace proclus

#endif  // PROCLUS_DATA_POINT_SOURCE_H_
