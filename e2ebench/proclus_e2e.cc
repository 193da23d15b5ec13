// proclus_e2e: end-to-end PROCLUS fit benchmark.
//
// Generates the paper's Section 4.1 synthetic input (Case 1 shape: k = 5,
// every cluster in a 7-dimensional subspace, 5% outliers) from the workload
// seed, places it in the workload's source (memory, one disk snapshot, or
// an aligned shard set), and times full RunProclusOnSource fits plus
// ClassifyPoints scoring. Every fit does identical work (2 restarts x 30
// iterations, no early stop), and every fit must reproduce the first fit's
// objective bits, labels hash and medoids; classification must reproduce
// the fit's labels. Any miss is a failed operation and fails the run.
//
//   proclus_e2e --workload <mem-case1|disk-d100|shards-ckpt> --seed <n>
//               --seconds <s> --trace <0|1> --workdir <dir>
//               [--trace-out <file>] [--scale <f>] [--perturb]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs a few untraced
// fits, one traced fit, a 1-thread in-memory reference fit, and replays of
// each layer's public functions, and prints the per-layer metrics. The
// last stdout line is the result object; the line before it carries host
// and workload metadata. --scale shrinks N (self-check only); --perturb
// corrupts one fit's labels to prove the correctness gate fires.

#include <malloc.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/classify.h"
#include "core/find_dimensions.h"
#include "core/greedy.h"
#include "core/model_io.h"
#include "core/passes.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/point_source.h"
#include "data/sharded_source.h"
#include "eval/metrics.h"
#include "gen/synthetic.h"
#include "sketch/plan.h"
#include "trace.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif

namespace proclus::e2e {
namespace {

namespace fs = std::filesystem;

constexpr size_t kClusters = 5;
constexpr double kAvgDims = 7.0;
constexpr size_t kShards = 4;
// Half the cores of the 4-core host the benchmark was tuned on: a fit at
// every core measured the neighbours' load on a shared host (one busy core
// stalled each parallel scan), not the program.
constexpr size_t kMaxThreads = 2;

// ------------------------------------------------------------ workloads --

enum class Kind { kMemory, kDisk, kShards };

struct Workload {
  const char* name;
  Kind kind;
  size_t points;
  size_t dims;
  bool checkpoint;
};

constexpr Workload kWorkloads[] = {
    {"mem-case1", Kind::kMemory, 100000, 20, false},
    {"disk-d100", Kind::kDisk, 20000, 100, false},
    {"shards-ckpt", Kind::kShards, 200000, 20, true},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
  double scale = 1.0;
  bool perturb = false;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "proclus_e2e: %s\n", message.c_str());
  std::exit(2);
}

void DieIfError(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") workload = next();
    else if (flag == "--seed") args.seed = std::stoull(next());
    else if (flag == "--seconds") args.seconds = std::stod(next());
    else if (flag == "--trace") args.trace = next() == "1";
    else if (flag == "--workdir") args.workdir = next();
    else if (flag == "--trace-out") args.trace_out = next();
    else if (flag == "--scale") args.scale = std::stod(next());
    else if (flag == "--perturb") args.perturb = true;
    else Die("unknown flag " + flag);
  }
  for (const Workload& w : kWorkloads)
    if (workload == w.name) args.workload = &w;
  if (args.workload == nullptr) Die("unknown workload '" + workload + "'");
  if (args.workdir.empty()) Die("--workdir is required");
  if (!(args.seconds > 0.0) || !(args.scale > 0.0 && args.scale <= 1.0))
    Die("--seconds must be > 0 and --scale in (0, 1]");
  return args;
}

// ----------------------------------------------------------------- host --

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

uint64_t L3Bytes() {
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? static_cast<uint64_t>(bytes) : 0;
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Resets the kernel's resident-set high-water mark to the current RSS.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Median wall seconds of `reps` calls of `fn`.
double TimeMedian(size_t reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (size_t r = 0; r < reps; ++r) {
    const double start = WallSeconds();
    fn();
    samples.push_back(WallSeconds() - start);
  }
  return Median(samples);
}

// ------------------------------------------------------------ the inputs --

struct Input {
  size_t points = 0;
  size_t dims = 0;
  uint64_t data_seed = 0;
  uint64_t algo_seed = 0;
};

GeneratorParams GeneratorFor(const Input& input) {
  GeneratorParams g;
  g.num_points = input.points;
  g.space_dims = input.dims;
  g.num_clusters = kClusters;
  g.cluster_dim_counts.assign(kClusters, static_cast<size_t>(kAvgDims));
  g.outlier_fraction = 0.05;
  g.seed = input.data_seed;
  return g;
}

ProclusParams ParamsFor(const Input& input, size_t threads) {
  ProclusParams p;
  p.num_clusters = kClusters;
  p.avg_dims = kAvgDims;
  p.num_restarts = 2;
  p.max_iterations = 30;
  p.max_no_improve = 30;
  p.num_threads = threads;
  p.seed = input.algo_seed;
  return p;
}

// The workload's source plus what owns its data. Disk workloads hold no
// in-memory copy of the points once set up.
struct Setup {
  fs::path dir;
  std::unique_ptr<Dataset> dataset;  // mem-case1 only.
  std::unique_ptr<PointSource> source;
  std::string snapshot;  // disk-d100
  std::string manifest;  // shards-ckpt
  std::vector<int> truth;
};

Setup MakeSetup(const Workload& w, const Input& input, const fs::path& dir) {
  Setup s;
  s.dir = dir;
  fs::create_directories(dir);
  Result<SyntheticData> data = GenerateSynthetic(GeneratorFor(input));
  DieIfError(data.status(), "generate");
  s.truth = std::move(data->truth.labels);
  if (w.kind == Kind::kMemory) {
    s.dataset = std::make_unique<Dataset>(std::move(data->dataset));
    s.source = std::make_unique<MemorySource>(*s.dataset);
    return s;
  }
  const std::string snapshot = (dir / "points.bin").string();
  DieIfError(WriteBinaryFile(data->dataset, snapshot), "write snapshot");
  data->dataset = Dataset();  // Drop the generated points before fitting.
  if (w.kind == Kind::kDisk) {
    Result<DiskSource> disk = DiskSource::Open(snapshot);
    DieIfError(disk.status(), "open snapshot");
    s.snapshot = snapshot;
    s.source = std::make_unique<DiskSource>(std::move(disk).value());
    return s;
  }
  ShardSplitOptions split;
  split.num_shards = kShards;
  split.align_rows = kDefaultBlockRows;
  Result<std::string> manifest =
      SplitIntoShards(snapshot, (dir / "points").string(), split);
  DieIfError(manifest.status(), "split shards");
  fs::remove(snapshot);
  Result<ShardedSource> sharded = ShardedSource::OpenManifest(*manifest);
  DieIfError(sharded.status(), "open manifest");
  if (!sharded->AlignedTo(kDefaultBlockRows))
    Die("shard set is not block-aligned; the sharded executor would not run");
  s.manifest = *manifest;
  s.source = std::make_unique<ShardedSource>(std::move(sharded).value());
  return s;
}

// Opens the shards of `manifest` as individual DiskSources.
std::vector<std::unique_ptr<DiskSource>> OpenShards(
    const std::string& manifest, bool prefetch) {
  Result<ShardManifest> parsed = ReadShardManifest(manifest);
  DieIfError(parsed.status(), "read manifest");
  const std::string dir = fs::path(manifest).parent_path().string() + "/";
  std::vector<std::unique_ptr<DiskSource>> shards;
  for (const ShardManifest::Entry& entry : parsed->shards) {
    Result<DiskSource> shard = DiskSource::Open(dir + entry.file);
    DieIfError(shard.status(), "open shard");
    shards.push_back(std::make_unique<DiskSource>(std::move(shard).value()));
    shards.back()->set_prefetch(prefetch);
  }
  return shards;
}

// ---------------------------------------------------------- correctness --

struct Signature {
  uint64_t objective_bits = 0;
  uint64_t labels_hash = 0;
  std::vector<size_t> medoids;

  bool operator==(const Signature&) const = default;
};

Signature SignatureOf(const ProjectedClustering& model) {
  Signature s;
  std::memcpy(&s.objective_bits, &model.objective, sizeof(double));
  s.labels_hash = Xxh64::Hash(model.labels.data(),
                              model.labels.size() * sizeof(int));
  s.medoids = model.medoids;
  return s;
}

// Counts attempted and failed operations; an operation fails when it
// returns a non-OK status or misses a correctness check.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool Check(bool ok, const std::string& what) {
    attempted += 1;
    if (!ok) {
      failed += 1;
      std::fprintf(stderr, "proclus_e2e: correctness miss: %s\n",
                   what.c_str());
    }
    return ok;
  }
};

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

void PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ledger.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted);
  out += ", \"failed\": " + std::to_string(ledger.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintMetadata(const Args& args, const Input& input, size_t threads,
                   const std::vector<double>& setup_samples, bool rss_reset,
                   const std::vector<double>& fit_samples) {
  const uint64_t bytes =
      static_cast<uint64_t>(input.points) * input.dims * sizeof(double);
  const uint64_t l3 = L3Bytes();
  std::string out = "{\"host\": {";
  out += "\"nproc\": " + std::to_string(Nproc());
  out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"l3_bytes\": " + std::to_string(l3);
  out += ", \"build_type\": " + Quote(E2E_BUILD_TYPE);
  out += ", \"compiler\": " + Quote(E2E_COMPILER);
  out += ", \"io\": \"page cache (every dataset fits in RAM), not a device\"}";
  out += ", \"workload\": {\"name\": " + Quote(args.workload->name);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"threads\": " + std::to_string(threads);
  out += ", \"points\": " + std::to_string(input.points);
  out += ", \"dims\": " + std::to_string(input.dims);
  out += ", \"dataset_bytes\": " + std::to_string(bytes);
  out += ", \"dataset_per_l3\": " +
         Num(l3 > 0 ? static_cast<double>(bytes) / static_cast<double>(l3)
                    : 0.0);
  out += ", \"fit_s_samples\": [";
  for (size_t i = 0; i < fit_samples.size(); ++i)
    out += (i > 0 ? ", " : "") + Num(fit_samples[i]);
  out += "]";
  out += ", \"peak_rss_reset\": ";
  out += rss_reset ? "true" : "false";
  out += ", \"setup_s_samples\": [";
  for (size_t i = 0; i < setup_samples.size(); ++i)
    out += (i > 0 ? ", " : "") + Num(setup_samples[i]);
  out += "]}}";
  std::printf("%s\n", out.c_str());
}

void WriteTrace(const std::string& path, const Tracer& tracer) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const Span& s : tracer.Snapshot()) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": " << Quote(s.name) << ", \"start\": " << Num(s.start)
        << ", \"end\": " << Num(s.end) << "}\n";
  }
}

// ------------------------------------------------------------------ runs --

struct FitSample {
  double wall = 0.0;
  double cpu = 0.0;
  RunStats stats;
};

// One fit, timed; checks status and (when given) the signature.
Result<ProjectedClustering> TimedFit(const PointSource& source,
                                     const ProclusParams& params,
                                     FitSample* sample) {
  const double cpu = CpuSeconds();
  const double wall = WallSeconds();
  Result<ProjectedClustering> model = RunProclusOnSource(source, params);
  sample->wall = WallSeconds() - wall;
  sample->cpu = CpuSeconds() - cpu;
  if (model.ok()) sample->stats = model->stats;
  return model;
}

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args), w_(*args.workload) {
    // A shard set needs one full block per shard to stay block-aligned.
    const size_t min_points =
        w_.kind == Kind::kShards ? kShards * kDefaultBlockRows : 2000;
    input_.points = std::max<size_t>(
        min_points,
        static_cast<size_t>(static_cast<double>(w_.points) * args.scale));
    input_.dims = w_.dims;
    input_.data_seed = args.seed;
    input_.algo_seed = args.seed * 0x9e3779b97f4a7c15ULL + 1;
    threads_ = std::min(kMaxThreads, Nproc());
  }

  int Run() {
    const size_t setup_reps = args_.trace ? 1 : 5;
    for (size_t r = 0; r < setup_reps; ++r) {
      if (setup_ != nullptr) {  // Drop the previous repetition, untimed.
        const fs::path old = setup_->dir;
        setup_.reset();
        fs::remove_all(old);
      }
      const fs::path dir =
          fs::path(args_.workdir) / ("setup" + std::to_string(r));
      const double start = WallSeconds();
      setup_ = std::make_unique<Setup>(MakeSetup(w_, input_, dir));
      setup_samples_.push_back(WallSeconds() - start);
    }
    // Flush the set-up's writes (untimed) so their writeback does not land
    // inside the timed fits.
    sync();
    params_ = ParamsFor(input_, threads_);
    if (w_.checkpoint) {
      params_.checkpoint.path = (setup_->dir / "fit.ckpt").string();
      params_.checkpoint.every_iterations = 1;
      params_.checkpoint.resume = false;
    }

    // Untimed first fit: the reference every later fit must reproduce.
    FitSample warm;
    Result<ProjectedClustering> first =
        TimedFit(*setup_->source, params_, &warm);
    if (!ledger_.Check(first.ok(), "first fit: " + first.status().ToString())) {
      PrintMetadata(args_, input_, threads_, setup_samples_, false, {});
      PrintResult(ledger_, {});
      return 1;
    }
    model_ = std::move(first).value();
    reference_ = SignatureOf(model_);

    std::vector<Metric> metrics =
        args_.trace ? TracedRun() : TimedRun();
    std::vector<double> walls;
    for (const FitSample& s : fits_) walls.push_back(s.wall);
    PrintMetadata(args_, input_, threads_, setup_samples_, rss_reset_, walls);
    PrintResult(ledger_, metrics);
    return ledger_.failed == 0 ? 0 : 1;
  }

 private:
  // Runs one fit over `source`, checks it against the reference, and
  // records its sample.
  bool CheckedFit(const PointSource& source, const ProclusParams& params,
                  const std::string& what, FitSample* sample,
                  ProjectedClustering* out = nullptr) {
    Result<ProjectedClustering> model = TimedFit(source, params, sample);
    if (!model.ok())
      return ledger_.Check(false, what + ": " + model.status().ToString());
    if (args_.perturb && ledger_.attempted == 1 && !model->labels.empty())
      model->labels[0] = model->labels[0] == 0 ? 1 : 0;
    const bool ok = ledger_.Check(SignatureOf(*model) == reference_,
                                  what + " differs from the first fit");
    if (out != nullptr) *out = std::move(model).value();
    return ok;
  }

  // Fits until `budget` seconds have passed (at least `min_fits`),
  // calling `between` after each fit.
  void FitLoop(double budget, size_t min_fits,
               const std::function<void(const FitSample&)>& between = {}) {
    const double start = WallSeconds();
    while (fits_.size() < min_fits || WallSeconds() - start < budget) {
      FitSample sample;
      CheckedFit(*setup_->source, params_, "timed fit", &sample);
      fits_.push_back(sample);
      if (between) between(sample);
    }
  }

  // Median over the timed fits of one field of their samples.
  double MedianOf(const std::function<double(const FitSample&)>& field) const {
    std::vector<double> v;
    for (const FitSample& s : fits_) v.push_back(field(s));
    return Median(v);
  }
  double MedianWall() const {
    return MedianOf([](const FitSample& s) { return s.wall; });
  }
  double MedianCpu() const {
    return MedianOf([](const FitSample& s) { return s.cpu; });
  }

  ClassifyOptions ClassifyOpts() const {
    ClassifyOptions options;
    options.pass.num_threads = threads_;
    return options;
  }

  std::vector<Metric> TimedRun() {
    // Classification runs between fits, for a quarter of each fit's time,
    // so both sample the same host conditions. The resident-set
    // high-water mark is reset before each fit and read after it; the
    // metric is the median of those per-fit peaks.
    std::vector<double> peaks;
    std::vector<double> classify;
    rss_reset_ = ResetPeakRss();
    FitLoop(args_.seconds, 3, [&](const FitSample& fit) {
      peaks.push_back(PeakRssMiB());
      const double start = WallSeconds();
      do {
        const double t0 = WallSeconds();
        Result<std::vector<int>> labels =
            ClassifyPoints(model_, *setup_->source, ClassifyOpts());
        classify.push_back(WallSeconds() - t0);
        ledger_.Check(labels.ok() && *labels == model_.labels,
                      "classify labels differ from the fit's labels");
      } while (WallSeconds() - start < 0.25 * fit.wall);
      rss_reset_ = ResetPeakRss() && rss_reset_;
    });
    const double ok_frac =
        1.0 - static_cast<double>(ledger_.failed) /
                  static_cast<double>(ledger_.attempted);
    return {
        {"fit_s", MedianWall(), "s"},
        {"fit_cpu_s", MedianCpu(), "s"},
        {"classify_rows_per_s",
         static_cast<double>(input_.points) / Median(classify), "rows/s"},
        {"setup_s", Median(setup_samples_), "s"},
        {"peak_rss_mb", Median(peaks), "MiB"},
        {"ok_frac", ok_frac, "frac"},
    };
  }

  // Split of one traced fit into source waiting, consumer compute, fetch
  // and driver time. Scan spans of concurrent shards are summed (thread
  // seconds); driver time is the fit's wall time outside every scan and
  // fetch interval, so on a sequential source the four parts add up to
  // the fit's wall time exactly.
  struct Split {
    double wall = 0.0;
    double read_wait = 0.0;
    double consume = 0.0;
    double fetch = 0.0;
    double driver = 0.0;
    uint64_t kernel_rows = 0;
  };

  Split TracedFit(const PointSource& source, const ProclusParams& params,
                  const std::string& what, ProjectedClustering* out) {
    const uint64_t root = tracer_.Open(what, 0, tracer_.Now());
    tracer_.set_root(root);
    FitSample sample;
    CheckedFit(source, params, what, &sample, out);
    tracer_.Finish(root, tracer_.Now());
    tracer_.set_root(0);

    const std::vector<Span> spans = tracer_.Snapshot();
    std::vector<Span> scans, visits, fetches, io;
    std::set<uint64_t> scan_ids;
    for (const Span& s : spans) {
      if (s.parent == root && s.name.rfind("scan:", 0) == 0) {
        scans.push_back(s);
        scan_ids.insert(s.id);
      } else if (s.parent == root && s.name.rfind("fetch:", 0) == 0) {
        fetches.push_back(s);
      }
    }
    for (const Span& s : spans)
      if (scan_ids.count(s.parent) > 0) visits.push_back(s);
    io = scans;
    io.insert(io.end(), fetches.begin(), fetches.end());

    Split split;
    split.wall = sample.wall;
    split.consume = SumSeconds(visits);
    split.read_wait = SumSeconds(scans) - split.consume;
    split.fetch = UnionSeconds(fetches);
    split.driver = sample.wall - UnionSeconds(io);
    split.kernel_rows = out->stats.kernel_rows;
    return split;
  }

  // The workload's traced fit: the same path as the untraced fits, with
  // the source (or, for a shard set, each shard) wrapped in a
  // TracingSource.
  Split WorkloadTracedFit() {
    std::unique_ptr<PointSource> traced;
    if (w_.kind == Kind::kMemory) {
      traced = std::make_unique<TracingSource>(
          std::make_unique<MemorySource>(*setup_->dataset), &tracer_,
          "memory");
    } else if (w_.kind == Kind::kDisk) {
      Result<DiskSource> disk = DiskSource::Open(setup_->snapshot);
      DieIfError(disk.status(), "open snapshot");
      traced = std::make_unique<TracingSource>(
          std::make_unique<DiskSource>(std::move(disk).value()), &tracer_,
          "disk");
    } else {
      std::vector<std::unique_ptr<PointSource>> shards;
      size_t i = 0;
      for (auto& shard : OpenShards(setup_->manifest, true))
        shards.push_back(std::make_unique<TracingSource>(
            std::move(shard), &tracer_, "shard" + std::to_string(i++)));
      Result<ShardedSource> set = ShardedSource::Create(std::move(shards));
      DieIfError(set.status(), "create traced shard set");
      traced = std::make_unique<ShardedSource>(std::move(set).value());
    }
    ProjectedClustering model;
    return TracedFit(*traced, params_, "fit:traced", &model);
  }

  std::vector<Metric> TracedRun() {
    FitLoop(0.4 * args_.seconds, 3);
    const double untraced = MedianWall();
    // Work counters are identical for every fit; take the first fit's.
    const RunStats& stats = model_.stats;

    const Split traced = WorkloadTracedFit();

    // 1-thread in-memory reference fit over the same data. At one thread
    // a memory source is scanned through Scan(), so this fit's split is
    // observable even where the workload's own fit is not.
    std::unique_ptr<Dataset> regenerated;
    const Dataset* data = setup_->dataset.get();
    if (data == nullptr) {
      Result<SyntheticData> again = GenerateSynthetic(GeneratorFor(input_));
      DieIfError(again.status(), "regenerate");
      regenerated = std::make_unique<Dataset>(std::move(again->dataset));
      data = regenerated.get();
    }
    ProclusParams single = ParamsFor(input_, 1);
    TracingSource reference_source(std::make_unique<MemorySource>(*data),
                                   &tracer_, "memory-1t");
    ProjectedClustering reference_model;
    const Split reference = TracedFit(reference_source, single,
                                      "fit:reference-1thread",
                                      &reference_model);
    // The workload fit's own scans are invisible on the zero-copy
    // multi-threaded memory path; mem-case1 reports the reference split.
    const Split& split = w_.kind == Kind::kMemory ? reference : traced;

    // ---- Replays of each layer's public functions with the final model.
    const PointSource& source = *setup_->source;
    PassOptions pass;
    pass.num_threads = threads_;
    const SketchPlan plan = BuildSketchPlan(params_.seed, input_.points,
                                            input_.dims);
    const Matrix& coords = model_.medoid_coords;
    const size_t reps = 3;
    auto ok_or_miss = [&](const Status& status, const char* what) {
      ledger_.Check(status.ok(), std::string(what) + ": " +
                                     status.ToString());
    };
    Matrix locality;
    const double locality_s = TimeMedian(reps, [&] {
      auto r = LocalityStatsPass(source, coords, pass, &plan);
      ok_or_miss(r.status(), "locality pass");
      if (r.ok()) locality = *r;
    });
    const double locality_plain_s = TimeMedian(reps, [&] {
      ok_or_miss(LocalityStatsPass(source, coords, pass).status(),
                 "locality pass");
    });
    const double assign_s = TimeMedian(reps, [&] {
      ok_or_miss(AssignPointsPass(source, coords, model_.dimensions, true,
                                  pass, &plan)
                     .status(),
                 "assign pass");
    });
    const double assign_plain_s = TimeMedian(reps, [&] {
      ok_or_miss(
          AssignPointsPass(source, coords, model_.dimensions, true, pass)
              .status(),
          "assign pass");
    });
    const double stats_s = TimeMedian(reps, [&] {
      ok_or_miss(ClusterStatsPass(source, coords, model_.labels, pass).status(),
                 "cluster stats pass");
    });
    const double evaluate_s = TimeMedian(reps, [&] {
      ok_or_miss(EvaluateClustersPass(source, model_.labels,
                                      model_.dimensions, pass)
                     .status(),
                 "evaluate pass");
    });
    const double refine_s = TimeMedian(reps, [&] {
      auto r = RefineAssignPass(source, coords, model_.dimensions,
                                model_.spheres, true, true, pass, &plan);
      ledger_.Check(r.ok() && *r == model_.labels,
                    "refine-assign replay differs from the fit's labels");
    });
    const double find_dims_s = TimeMedian(51, [&] {
      ok_or_miss(FindDimensions(locality, kAvgDims).status(),
                 "find dimensions");
    });

    // Greedy init on a fetched sample shaped like the fit's (A*k points
    // reduced to B*k candidates).
    Rng rng(params_.seed);
    const std::vector<size_t> sample = rng.SampleWithoutReplacement(
        input_.points, std::min(input_.points,
                                params_.sample_factor * kClusters));
    Result<Matrix> sample_coords = source.Fetch(sample);
    DieIfError(sample_coords.status(), "fetch sample");
    const Dataset sample_data(*sample_coords);
    std::vector<size_t> local(sample.size());
    std::iota(local.begin(), local.end(), size_t{0});
    const double greedy_s = TimeMedian(11, [&] {
      Rng pick(params_.seed);
      GreedyPick(sample_data, local, params_.candidate_factor * kClusters,
                 params_.init_metric, pick);
    });

    // Checkpoint save of a checkpoint shaped like the workload's.
    ProclusCheckpoint ck;
    ck.num_dims = input_.dims;
    ck.candidates.assign(params_.candidate_factor * kClusters, 0);
    ck.climb_current.assign(model_.medoids.begin(), model_.medoids.end());
    ck.climb_slots.assign(kClusters, 0);
    for (const DimensionSet& dims : model_.dimensions) {
      ck.climb_dims.push_back(dims.ToVector());
      ck.best_dims.push_back(dims.ToVector());
    }
    ck.climb_labels.assign(model_.labels.begin(), model_.labels.end());
    ck.best_labels = ck.climb_labels;
    ck.best_slots.assign(kClusters, 0);
    const std::string ck_path = (setup_->dir / "replay.ckpt").string();
    const double ckpt_s = TimeMedian(5, [&] {
      ok_or_miss(SaveCheckpointFile(ck, ck_path), "checkpoint save");
    });
    const double ckpt_bytes = static_cast<double>(fs::file_size(ck_path));

    // Bare scans with a no-op visitor, with and without prefetch.
    auto noop = [](size_t, std::span<const double>, size_t) {};
    auto bare_scan = [&](const PointSource& s) {
      return TimeMedian(reps, [&] {
        ok_or_miss(s.Scan(kDefaultBlockRows, noop), "bare scan");
      });
    };
    const double scan_s = bare_scan(source);
    double scan_noprefetch_s = 0.0;
    if (w_.kind == Kind::kMemory) {
      scan_noprefetch_s = bare_scan(source);  // Nothing to prefetch.
    } else if (w_.kind == Kind::kDisk) {
      Result<DiskSource> disk = DiskSource::Open(setup_->snapshot);
      DieIfError(disk.status(), "open snapshot");
      disk->set_prefetch(false);
      scan_noprefetch_s = bare_scan(*disk);
    } else {
      std::vector<std::unique_ptr<PointSource>> shards;
      for (auto& shard : OpenShards(setup_->manifest, false))
        shards.push_back(std::move(shard));
      Result<ShardedSource> set = ShardedSource::Create(std::move(shards));
      DieIfError(set.status(), "create shard set");
      scan_noprefetch_s = bare_scan(*set);
    }

    // One classification, checked.
    Result<std::vector<int>> labels =
        ClassifyPoints(model_, source, ClassifyOpts());
    ledger_.Check(labels.ok() && *labels == model_.labels,
                  "classify labels differ from the fit's labels");

    WriteTrace(args_.trace_out, tracer_);

    double skew = 1.0;
    if (!stats.shard_io.empty()) {
      uint64_t max_rows = 0, total = 0;
      for (const RunStats::ShardIo& s : stats.shard_io) {
        max_rows = std::max(max_rows, s.rows);
        total += s.rows;
      }
      skew = static_cast<double>(max_rows) * stats.shard_io.size() /
             static_cast<double>(std::max<uint64_t>(total, 1));
    }
    auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    auto u = [](uint64_t v) { return static_cast<double>(v); };
    return {
        {"data.scans", u(stats.scans_issued), "count"},
        {"data.bytes_read", u(stats.bytes_read), "bytes"},
        {"data.scan_s", scan_s, "s"},
        {"data.scan_noprefetch_s", scan_noprefetch_s, "s"},
        {"data.read_wait_s", split.read_wait, "s"},
        {"data.fetch_s", split.fetch, "s"},
        {"data.retries", u(stats.retries), "count"},
        {"data.failed_scans", u(stats.failed_scans), "count"},
        {"data.shard_rows_skew", skew, "ratio"},
        {"distance.kernel_rows", u(stats.kernel_rows), "count"},
        {"distance.kernel_batches", u(stats.kernel_batches), "count"},
        {"distance.evals", u(stats.distance_evals), "count"},
        {"distance.tile_reuse_ratio",
         ratio(u(stats.tile_reuse_hits), u(stats.kernel_batches)), "ratio"},
        {"distance.kernel_rows_per_s",
         ratio(u(split.kernel_rows), split.consume), "rows/s"},
        {"sketch.rows_screened", u(stats.sketch_rows_screened), "count"},
        {"sketch.prune_ratio",
         ratio(u(stats.sketch_rows_pruned), u(stats.sketch_rows_screened)),
         "ratio"},
        {"sketch.assign_pass_ratio", ratio(assign_s, assign_plain_s),
         "ratio"},
        {"sketch.locality_pass_ratio", ratio(locality_s, locality_plain_s),
         "ratio"},
        {"core.iterations", u(model_.iterations), "count"},
        {"core.scans_per_iteration",
         ratio(u(stats.iterative_scans), u(model_.iterations)),
         "scans"},
        {"core.locality_cache_hit_ratio",
         ratio(u(stats.locality_cache_hits),
               u(stats.locality_cache_hits + stats.locality_cache_misses)),
         "ratio"},
        {"core.init_s",
         MedianOf([](const FitSample& s) { return s.stats.init_seconds; }),
         "s"},
        {"core.iterative_s",
         MedianOf([](const FitSample& s) {
           return s.stats.iterative_seconds;
         }),
         "s"},
        {"core.refine_s",
         MedianOf([](const FitSample& s) { return s.stats.refine_seconds; }),
         "s"},
        {"core.consume_s", split.consume, "s"},
        {"core.driver_s", split.driver, "s"},
        {"core.locality_pass_s", locality_s, "s"},
        {"core.assign_pass_s", assign_s, "s"},
        {"core.cluster_stats_pass_s", stats_s, "s"},
        {"core.evaluate_pass_s", evaluate_s, "s"},
        {"core.refine_assign_pass_s", refine_s, "s"},
        {"core.find_dimensions_s", find_dims_s, "s"},
        {"core.greedy_init_s", greedy_s, "s"},
        {"core.checkpoint_save_s", ckpt_s, "s"},
        {"core.checkpoint_bytes", ckpt_bytes, "bytes"},
        {"core.split_wall_s", split.wall, "s"},
        {"eval.ari", AdjustedRandIndex(model_.labels, setup_->truth), "index"},
        {"common.thread_speedup", ratio(reference.wall, untraced), "ratio"},
        {"common.cpu_per_wall", ratio(MedianCpu(), untraced), "ratio"},
        {"trace.overhead_frac", traced.wall / untraced - 1.0, "ratio"},
    };
  }

  const Args& args_;
  const Workload& w_;
  Input input_;
  size_t threads_ = 1;
  std::vector<double> setup_samples_;
  std::unique_ptr<Setup> setup_;
  ProclusParams params_;
  ProjectedClustering model_;  // First fit: the reference.
  Signature reference_;
  std::vector<FitSample> fits_;
  Ledger ledger_;
  Tracer tracer_;
  bool rss_reset_ = false;
};

}  // namespace
}  // namespace proclus::e2e

int main(int argc, char** argv) {
  // One malloc arena, so peak_rss_mb counts the program's allocations and
  // not glibc's per-thread arena caches: with an arena per thread the
  // shards-ckpt resident set swung 100-125 MiB between runs with timing.
  mallopt(M_ARENA_MAX, 1);
  const proclus::e2e::Args args = proclus::e2e::ParseArgs(argc, argv);
  proclus::e2e::Bench bench(args);
  return bench.Run();
}
