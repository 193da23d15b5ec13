// Block-read branch of the scan executor over disk sources: ScanExecutor
// reads and consumes a DiskSource's blocks on every worker whenever the
// scan geometry is checksum-aligned. These tests pin what that branch
// must preserve — bits for every thread count and snapshot version, the
// sequential fallback for unaligned geometry, truthful I/O counters, and
// the same failure, retry and cancellation accounting as the sequential
// branch.
//
// They live in the `parallel`-labeled binary so the tsan preset races the
// concurrent block reads against ConsumeBlock.

#include "data/engine.h"

#include <gtest/gtest.h>

#include "test_temp.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "core/model_io.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

constexpr size_t kRows = 2000;
constexpr size_t kDims = 6;
constexpr size_t kBlockRows = 256;  // 8 blocks; a multiple of 256.

Dataset RandomDataset(size_t n, size_t d, uint64_t seed = 5) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < d; ++j) m(i, j) = rng.Uniform(-100, 100);
  return Dataset(std::move(m));
}

uint64_t ObjectiveBits(double objective) {
  uint64_t bits = 0;
  std::memcpy(&bits, &objective, sizeof(bits));
  return bits;
}

// Per-block sums merged in block order, plus the thread that consumed
// each block (block-keyed, so concurrent blocks never share a cell).
class SumConsumer final : public ScanConsumer {
 public:
  explicit SumConsumer(CancelToken* cancel_at_block = nullptr,
                       size_t cancel_block = 0)
      : token_(cancel_at_block), cancel_block_(cancel_block) {}

  Status Prepare(const ScanGeometry& geometry) override {
    partials_.assign(geometry.num_blocks, 0.0);
    rows_seen_.assign(geometry.num_blocks, 0);
    threads_.assign(geometry.num_blocks, std::thread::id());
    return Status::OK();
  }
  void ConsumeBlock(size_t block_index, size_t /*first_row*/,
                    std::span<const double> data, size_t rows) override {
    double sum = 0.0;
    for (double v : data) sum += v;
    partials_[block_index] = sum;
    rows_seen_[block_index] = rows;
    threads_[block_index] = std::this_thread::get_id();
    if (token_ != nullptr && block_index == cancel_block_) token_->Cancel();
  }
  Status Merge() override {
    total_ = 0.0;
    rows_ = 0;
    for (double v : partials_) total_ += v;
    for (size_t r : rows_seen_) rows_ += r;
    return Status::OK();
  }
  double total() const { return total_; }
  size_t rows() const { return rows_; }
  const std::vector<std::thread::id>& threads() const { return threads_; }

 private:
  CancelToken* token_;
  size_t cancel_block_;
  std::vector<double> partials_;
  std::vector<size_t> rows_seen_;
  std::vector<std::thread::id> threads_;
  double total_ = 0.0;
  size_t rows_ = 0;
};

// Writes `ds` as a version-1 snapshot (no checksum table).
std::string WriteV1Snapshot(const Dataset& ds, const std::string& name) {
  const std::string path = TestTempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const char magic[4] = {'P', 'C', 'L', 'S'};
  const uint32_t version = 1;
  const uint64_t rows = ds.size(), cols = ds.dims();
  out.write(magic, 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  out.write(reinterpret_cast<const char*>(ds.matrix().data().data()),
            static_cast<std::streamsize>(rows * cols * sizeof(double)));
  return path;
}

std::string WriteV2Snapshot(const Dataset& ds, const std::string& name,
                            uint64_t checksum_block_rows =
                                kDefaultChecksumBlockRows) {
  const std::string path = TestTempPath(name);
  EXPECT_TRUE(WriteBinaryFile(ds, path, checksum_block_rows).ok());
  return path;
}

// XORs one byte of the file at `path`.
void FlipByte(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.get(byte);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(byte ^ 0x5a));
}

// One scan of `source` at `threads` workers; the consumer's total.
SumConsumer ScanSum(const PointSource& source, size_t threads,
                    RunStats* stats = nullptr) {
  ScanOptions options;
  options.num_threads = threads;
  options.block_rows = kBlockRows;
  options.stats = stats;
  SumConsumer consumer;
  EXPECT_TRUE(ScanExecutor(options).Run(source, {&consumer}).ok());
  return consumer;
}

SyntheticData FitFixture() {
  GeneratorParams gen;
  gen.num_points = kRows;
  gen.space_dims = 8;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {3, 3, 3};
  gen.seed = 11;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

ProclusParams FitParams(size_t threads) {
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 3.0;
  params.seed = 5;
  params.num_restarts = 2;
  params.block_rows = kBlockRows;
  params.num_threads = threads;
  return params;
}

void ExpectSameResult(const ProjectedClustering& a,
                      const ProjectedClustering& b) {
  EXPECT_EQ(ObjectiveBits(a.objective), ObjectiveBits(b.objective));
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.medoids, b.medoids);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.improvements, b.improvements);
  ASSERT_EQ(a.dimensions.size(), b.dimensions.size());
  for (size_t i = 0; i < a.dimensions.size(); ++i)
    EXPECT_EQ(a.dimensions[i], b.dimensions[i]);
}

TEST(DiskBlockReadTest, V1SnapshotsBitIdenticalAcrossThreads) {
  SyntheticData data = FitFixture();
  auto baseline = RunProclus(data.dataset, FitParams(1));
  ASSERT_TRUE(baseline.ok());
  const std::string path = WriteV1Snapshot(data.dataset, "v1.bin");
  auto disk = DiskSource::Open(path);
  ASSERT_TRUE(disk.ok());
  ASSERT_FALSE(disk->verifies_checksums());
  MemorySource memory(data.dataset);
  const SumConsumer reference = ScanSum(memory, 1);
  for (size_t threads : {1, 2, 7}) {
    SCOPED_TRACE(threads);
    const SumConsumer scanned = ScanSum(*disk, threads);
    EXPECT_EQ(ObjectiveBits(scanned.total()),
              ObjectiveBits(reference.total()));
    EXPECT_EQ(scanned.rows(), kRows);
    auto fit = RunProclusOnSource(*disk, FitParams(threads));
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    ExpectSameResult(*fit, *baseline);
  }
}

TEST(DiskBlockReadTest, UnalignedChecksumBlocksFallBackToSequentialScan) {
  // 256-row scan blocks over 300-row checksum blocks: a block read would
  // cover checksum blocks in part, so the source declines and the
  // executor scans in order on the calling thread.
  SyntheticData data = FitFixture();
  const std::string path = WriteV2Snapshot(data.dataset, "csum300.bin", 300);
  auto disk = DiskSource::Open(path);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ(disk->ReadRows(0, kBlockRows, nullptr).status().code(),
            StatusCode::kUnimplemented);

  MemorySource memory(data.dataset);
  const SumConsumer reference = ScanSum(memory, 1);
  const SumConsumer scanned = ScanSum(*disk, 2);
  EXPECT_EQ(ObjectiveBits(scanned.total()), ObjectiveBits(reference.total()));
  EXPECT_EQ(scanned.rows(), kRows);
  for (std::thread::id id : scanned.threads())
    EXPECT_EQ(id, std::this_thread::get_id());

  auto baseline = RunProclus(data.dataset, FitParams(1));
  ASSERT_TRUE(baseline.ok());
  auto fit = RunProclusOnSource(*disk, FitParams(2));
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  ExpectSameResult(*fit, *baseline);
}

TEST(DiskBlockReadTest, IoCountersBookOneScanAndEveryByte) {
  Dataset ds = RandomDataset(kRows, kDims);
  auto disk = DiskSource::Open(WriteV2Snapshot(ds, "io.bin"));
  ASSERT_TRUE(disk.ok());
  const uint64_t bytes_per_scan = kRows * kDims * sizeof(double);
  for (size_t threads : {1, 2, 7}) {
    SCOPED_TRACE(threads);
    for (int scan = 0; scan < 2; ++scan) {
      const IoCounters before = disk->io();
      RunStats stats;
      ScanSum(*disk, threads, &stats);
      const IoCounters after = disk->io();
      EXPECT_EQ(after.scans - before.scans, 1u);
      EXPECT_EQ(after.rows_scanned - before.rows_scanned, kRows);
      EXPECT_EQ(after.bytes_read - before.bytes_read, bytes_per_scan);
      EXPECT_EQ(after.rows_fetched, before.rows_fetched);
      EXPECT_EQ(stats.scans_issued, 1u);
      EXPECT_EQ(stats.bytes_read, bytes_per_scan);
    }
  }
}

TEST(DiskBlockReadTest, CorruptBlockIsRetriedAsAFaultNotACancellation) {
  Dataset ds = RandomDataset(kRows, kDims);
  const std::string path = WriteV2Snapshot(ds, "corrupt.bin");
  auto disk = DiskSource::Open(path);
  ASSERT_TRUE(disk.ok());
  // v2 layout: 24-byte header, 16 bytes of checksum geometry, the XXH64
  // table, then the payload. Flip a byte of row 1000 (checksum block 3).
  const size_t checksum_blocks = (kRows + 255) / 256;
  const size_t data_offset = 24 + 16 + checksum_blocks * sizeof(uint64_t);
  const size_t row_bytes = kDims * sizeof(double);
  FlipByte(path, data_offset + 1000 * row_bytes + 5);

  RunStats stats;
  ScanOptions options;
  options.num_threads = 2;
  options.block_rows = kBlockRows;
  options.stats = &stats;
  options.retry.max_attempts = 3;
  SumConsumer consumer;
  Status status = ScanExecutor(options).Run(*disk, {&consumer});
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  const std::string& message = status.message();
  EXPECT_NE(message.find("'" + path + "'"), std::string::npos) << message;
  EXPECT_NE(message.find("block 3"), std::string::npos) << message;
  EXPECT_NE(message.find("byte offset " +
                         std::to_string(data_offset + 768 * row_bytes)),
            std::string::npos)
      << message;
  EXPECT_EQ(stats.failed_scans, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.cancelled_scans, 0u);
  EXPECT_EQ(stats.scans_issued, 0u);
  EXPECT_EQ(disk->io().scans, 0u);
}

TEST(DiskBlockReadTest, CancelMidScanThenResumeIsBitIdentical) {
  Dataset ds = RandomDataset(kRows, kDims);
  auto disk = DiskSource::Open(WriteV2Snapshot(ds, "cancel.bin"));
  ASSERT_TRUE(disk.ok());
  MemorySource memory(ds);
  const SumConsumer reference = ScanSum(memory, 1);

  // The consumer fires the token while consuming block 2 of 8; every
  // worker checks the context before its next block read.
  CancelToken token;
  RunStats stats;
  ScanOptions options;
  options.num_threads = 2;
  options.block_rows = kBlockRows;
  options.stats = &stats;
  options.cancel.token = &token;
  options.retry.max_attempts = 4;  // Must NOT retry a requested stop.
  SumConsumer consumer(&token, 2);
  Status status = ScanExecutor(options).Run(*disk, {&consumer});
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(stats.cancelled_scans, 1u);
  EXPECT_EQ(stats.failed_scans, 0u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.scans_issued, 0u);
  EXPECT_GT(stats.wasted_rows, 0u);
  EXPECT_LT(stats.wasted_rows, kRows);

  // Resume: the same consumer under a fresh context re-prepares every
  // partial, so the interrupted attempt leaves no trace in the bits.
  ScanOptions clean = options;
  clean.cancel = CancelContext{};
  ASSERT_TRUE(ScanExecutor(clean).Run(*disk, {&consumer}).ok());
  EXPECT_EQ(ObjectiveBits(consumer.total()), ObjectiveBits(reference.total()));
  EXPECT_EQ(consumer.rows(), kRows);
}

// Forwards block reads to the inner source and fires `token` after the
// Nth one — a decorator that keeps the executor on the block-read branch.
class CancelAfterBlockReadsSource final : public PointSource {
 public:
  CancelAfterBlockReadsSource(const PointSource& inner, CancelToken* token,
                              size_t cancel_after)
      : inner_(&inner), token_(token), cancel_after_(cancel_after) {}

  size_t size() const override { return inner_->size(); }
  size_t dims() const override { return inner_->dims(); }
  Result<Matrix> Fetch(std::span<const size_t> indices) const override {
    return inner_->Fetch(indices);
  }

 protected:
  Status ScanBlocks(const ScanSpec& spec,
                    const BlockVisitor& visit) const override {
    return inner_->Scan(spec, visit);
  }
  Result<std::span<const double>> ReadRowsAt(
      size_t first, size_t rows, std::vector<double>* buffer) const override {
    Result<std::span<const double>> view =
        inner_->ReadRows(first, rows, buffer);
    if (buffer != nullptr &&
        reads_.fetch_add(1, std::memory_order_relaxed) + 1 == cancel_after_)
      token_->Cancel();
    return view;
  }

 private:
  const PointSource* inner_;
  CancelToken* token_;
  size_t cancel_after_;
  mutable std::atomic<size_t> reads_{0};
};

TEST(DiskBlockReadTest, MidScanCancelOfAFitResumesFromCheckpoint) {
  SyntheticData data = FitFixture();
  auto baseline = RunProclus(data.dataset, FitParams(1));
  ASSERT_TRUE(baseline.ok());
  auto disk = DiskSource::Open(WriteV2Snapshot(data.dataset, "fit.bin"));
  ASSERT_TRUE(disk.ok());

  // 8 blocks per scan: 60 block reads lands inside the eighth scan, after
  // periodic checkpoints at the top of every iteration.
  const std::string ck_path = TestTempPath("fit.pckp");
  std::remove(ck_path.c_str());
  CancelToken token;
  CancelAfterBlockReadsSource cancelling(*disk, &token, 60);
  ProclusParams params = FitParams(2);
  params.cancel.token = &token;
  params.checkpoint.path = ck_path;
  params.checkpoint.every_iterations = 1;
  auto interrupted = RunProclusOnSource(cancelling, params);
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(LoadCheckpointFile(ck_path).ok());

  ProclusParams resume = FitParams(2);
  resume.checkpoint.path = ck_path;
  resume.checkpoint.every_iterations = 1;
  auto resumed = RunProclusOnSource(*disk, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameResult(*resumed, *baseline);
}

}  // namespace
}  // namespace proclus
