#!/usr/bin/env python3
"""End-to-end PROCLUS fit benchmark: build, run one workload, report.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds e2ebench/ (which compiles
the library from src/) in Release into $CARGO_TARGET_DIR or .bench_build,
runs the proclus_e2e binary in a private temporary directory under
.bench_work/ (removed on exit, failures included), checks that the result
names every metric of BENCHMARK.json with its unit, and prints the
binary's metadata line followed by the result object as the last line.

Exit status: 0 when every operation passed its correctness checks, 1 on a
correctness miss (the result is still printed), 2 when the benchmark could
not run at all (no result printed).

Extra flags for the self-check (selfcheck.py): --scale shrinks N, and
--perturb corrupts one fit so the correctness gate must fire.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench-release")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    env = dict(os.environ, CCACHE_DISABLE="1")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", out, "--target", "proclus_e2e",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, cwd=ROOT)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    binary = os.path.join(out, "proclus_e2e")
    return binary if os.path.exists(binary) else None


def expected_metrics(trace):
    """(name, unit) pairs the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def validate(result, trace):
    """Returns a list of problems with the result object's shape."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = result["metrics"]
    expected = expected_metrics(trace)
    for name, unit in expected:
        got = metrics.get(name)
        if got is None:
            problems.append("missing metric " + name)
        elif got.get("unit") != unit:
            problems.append("metric %s has unit %r, expected %r"
                            % (name, got.get("unit"), unit))
        elif not isinstance(got.get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    extra = set(metrics) - {name for name, _ in expected}
    if extra:
        problems.append("unexpected metrics " + ", ".join(sorted(extra)))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir,
               "--scale", str(args.scale)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(work_root, "trace-%s.jsonl" % args.workload)]
    if args.perturb:
        command.append("--perturb")
    # SIGTERM unwinds like an exception, so the binary is stopped and the
    # work directory removed on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log("proclus_e2e exceeded %d s" % RUN_TIMEOUT_S)
            return 2
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        log("proclus_e2e failed with exit code %d" % proc.returncode)
        return 2
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("proclus_e2e printed no result object")
        return 2
    problems = validate(result, args.trace == 1)
    if problems:
        for problem in problems:
            log(problem)
        return 2
    correct = result["correct"] and result["failed"] == 0
    if correct != (proc.returncode == 0):
        log("proclus_e2e exit code disagrees with its correctness verdict")
        return 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
