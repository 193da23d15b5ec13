// Scan-engine A/B harness: measures what the fused scan executor buys.
//
// Runs PROCLUS twice on the same input — fuse_scans on (2 scans per
// hill-climbing iteration + 1 locality bootstrap per restart) and off
// (the classic 4-scans-per-iteration loop) — over both an in-memory
// source and a disk snapshot, and reports scans issued, rows visited,
// bytes read, and wall time. The two engines are bit-identical by
// construction; this harness verifies that on every run.
//
// A second section sweeps the fused engine over the disk snapshot at
// threads {1, 2, 4}: with checksum-aligned blocks every worker reads,
// verifies and consumes its own blocks. Every sweep run must reproduce
// the 1-thread fused/disk bits; its wall time and speedup are recorded,
// never asserted.
//
// --smoke additionally asserts the documented scan budget
// (DESIGN.md "Scan executor") for every run, sweep included:
//   fused:    iterative_scans == 2 * iterations,
//             bootstrap_scans == num_restarts, refine_scans == 3
//   classic:  iterative_scans == 4 * iterations, refine_scans == 4
// and exits nonzero on any violation — wired into ctest as the
// bench_smoke label so the budget cannot silently regress.

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "common/timer.h"
#include "data/binary_io.h"
#include "data/point_source.h"

namespace {

using namespace proclus;
using namespace proclus::bench;

struct EngineRun {
  ProjectedClustering clustering;
  double seconds = 0.0;
};

EngineRun RunOnce(const PointSource& source, const ProclusParams& params) {
  Timer timer;
  auto result = RunProclusOnSource(source, params);
  double seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "PROCLUS failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return EngineRun{std::move(result).value(), seconds};
}

bool SameClustering(const ProjectedClustering& a,
                    const ProjectedClustering& b) {
  return a.labels == b.labels && a.medoids == b.medoids &&
         a.objective == b.objective && a.iterations == b.iterations &&
         a.improvements == b.improvements;
}

void ReportRun(const std::string& name, const EngineRun& run) {
  PrintKV(name + " seconds", run.seconds);
  PrintKV(name + " iterations",
          static_cast<double>(run.clustering.iterations));
  PrintKV(name + " objective", run.clustering.objective);
  PrintRunStats(name, run.clustering.stats);
}

bool CheckBudget(const std::string& name, const EngineRun& run,
                 const ProclusParams& params) {
  const RunStats& stats = run.clustering.stats;
  const uint64_t iterations = run.clustering.iterations;
  bool ok = true;
  auto expect = [&](const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      std::fprintf(stderr, "FAIL %s: %s = %" PRIu64 ", expected %" PRIu64 "\n",
                   name.c_str(), what, got, want);
      ok = false;
    }
  };
  if (params.fuse_scans) {
    expect("iterative_scans", stats.iterative_scans, 2 * iterations);
    expect("bootstrap_scans", stats.bootstrap_scans, params.num_restarts);
    expect("refine_scans", stats.refine_scans, 3);
  } else {
    expect("iterative_scans", stats.iterative_scans, 4 * iterations);
    expect("bootstrap_scans", stats.bootstrap_scans, 0);
    expect("refine_scans", stats.refine_scans, 4);
  }
  expect("scans_issued",
         stats.scans_issued,
         stats.init_scans + stats.bootstrap_scans + stats.iterative_scans +
             stats.refine_scans);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = ParseOptions(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  // A mid-size Case-1-style input: big enough to span many scan blocks,
  // small enough that the full fused/classic x memory/disk grid stays
  // fast.
  GeneratorParams gen = Case1Params(options);
  gen.num_points = options.Points(50000);
  auto data = GenerateSynthetic(gen);
  if (!data.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }

  ProclusParams params = DefaultProclus(5, 7.0, options.algo_seed);
  // Fix the climb length so the scan counts of a run are reproducible
  // and the A/B comparison does identical work on both engines.
  params.num_restarts = 2;
  params.max_iterations = 30;
  params.max_no_improve = 30;

  const std::string disk_path = "/tmp/proclus_scan_engine_" +
                                std::to_string(::getpid()) + ".bin";
  Status written = WriteBinaryFile(data->dataset, disk_path);
  if (!written.ok()) {
    std::fprintf(stderr, "snapshot write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  auto disk = DiskSource::Open(disk_path);
  if (!disk.ok()) {
    std::fprintf(stderr, "snapshot open failed: %s\n",
                 disk.status().ToString().c_str());
    return 1;
  }
  MemorySource memory(data->dataset);

  PrintHeader("Scan engine: fused vs classic");
  PrintKV("N", static_cast<double>(gen.num_points));
  PrintKV("d", static_cast<double>(gen.space_dims));
  PrintKV("k", static_cast<double>(gen.num_clusters));
  PrintKV("restarts", static_cast<double>(params.num_restarts));
  PrintKV("max iterations", static_cast<double>(params.max_iterations));

  params.fuse_scans = true;
  EngineRun fused_mem = RunOnce(memory, params);
  EngineRun fused_disk = RunOnce(*disk, params);
  params.fuse_scans = false;
  EngineRun classic_mem = RunOnce(memory, params);
  EngineRun classic_disk = RunOnce(*disk, params);

  ReportRun("fused/memory", fused_mem);
  ReportRun("fused/disk", fused_disk);
  ReportRun("classic/memory", classic_mem);
  ReportRun("classic/disk", classic_disk);
  PrintKV("scan reduction (iterative)",
          static_cast<double>(classic_mem.clustering.stats.iterative_scans) /
              static_cast<double>(
                  fused_mem.clustering.stats.iterative_scans +
                  fused_mem.clustering.stats.bootstrap_scans));
  PrintKV("bytes reduction (disk)",
          static_cast<double>(classic_disk.clustering.stats.bytes_read) /
              static_cast<double>(fused_disk.clustering.stats.bytes_read));

  bool ok = true;
  if (!SameClustering(fused_mem.clustering, classic_mem.clustering)) {
    std::fprintf(stderr, "FAIL: fused and classic engines disagree\n");
    ok = false;
  }
  if (!SameClustering(fused_mem.clustering, fused_disk.clustering)) {
    std::fprintf(stderr, "FAIL: memory and disk sources disagree\n");
    ok = false;
  }
  if (smoke) {
    params.fuse_scans = true;
    ok = CheckBudget("fused/memory", fused_mem, params) && ok;
    ok = CheckBudget("fused/disk", fused_disk, params) && ok;
    params.fuse_scans = false;
    ok = CheckBudget("classic/memory", classic_mem, params) && ok;
    ok = CheckBudget("classic/disk", classic_disk, params) && ok;
  }
  PrintKV("engines bit-identical", ok ? "yes" : "NO");

  PrintHeader("Fused disk scans by thread count");
  params.fuse_scans = true;
  double one_thread_seconds = 0.0;
  for (size_t threads : {1, 2, 4}) {
    ProclusParams threaded = params;
    threaded.num_threads = threads;
    const EngineRun run = RunOnce(*disk, threaded);
    const std::string name = "fused/disk threads=" + std::to_string(threads);
    if (threads == 1) one_thread_seconds = run.seconds;
    PrintKV(name + " seconds", run.seconds);
    PrintKV(name + " speedup", one_thread_seconds / run.seconds);
    PrintKV(name + " scans",
            static_cast<double>(run.clustering.stats.scans_issued));
    PrintKV(name + " bytes read",
            static_cast<double>(run.clustering.stats.bytes_read));
    if (!SameClustering(run.clustering, fused_disk.clustering)) {
      std::fprintf(stderr, "FAIL: %s disagrees with 1-thread fused/disk\n",
                   name.c_str());
      ok = false;
    }
    if (smoke) ok = CheckBudget(name, run, threaded) && ok;
  }
  PrintKV("thread sweep bit-identical", ok ? "yes" : "NO");
  FinishJson("scan_engine");
  std::remove(disk_path.c_str());
  if (!ok) return 1;
  return 0;
}
