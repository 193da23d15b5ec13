#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark at a tiny size.

    python3 e2ebench/selfcheck.py

Run from the repository root. For every workload of BENCHMARK.json, in both
trace modes, runs e2ebench/run.py on a shrunken input and checks that the
run passes and that its last stdout line names every metric of that mode
with the right unit. Then checks that the correctness gate works: a run
whose fit result is deliberately perturbed must report correct=false with
at least one failed operation and exit nonzero, and an unknown workload
must exit nonzero without printing a result. Exits 0 when all checks pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", SCALE, *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, message):
        print(("ok    " if ok else "FAIL  ") + message, flush=True)
        if not ok:
            failures.append(message)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, stderr = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            expect(code == 0 and result is not None,
                   "%s exits 0 with a result (exit %d)%s"
                   % (label, code, "" if code == 0 else "\n" + stderr[-800:]))
            if result is None:
                continue
            expect(result.get("correct") is True and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1,
                   "%s is correct with no failed operations" % label)
            metrics = result.get("metrics", {})
            for m in spec[key]:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), (int, float)),
                       "%s emits %s [%s]" % (label, m["name"], m["unit"]))
            if workload == "disk-d100" and trace == 1:
                value = lambda name: metrics.get(name, {}).get("value", 0.0)
                parts = sum(value(n) for n in (
                    "data.read_wait_s", "core.consume_s", "data.fetch_s",
                    "core.driver_s"))
                wall = value("core.split_wall_s")
                expect(wall > 0 and abs(parts - wall) <= 1e-6 * wall,
                       "%s: read_wait + consume + fetch + driver = traced "
                       "fit wall (%.9f vs %.9f)" % (label, parts, wall))

    code, result, _ = run("mem-case1", 0, "--perturb")
    expect(code != 0, "perturbed run exits nonzero (exit %d)" % code)
    expect(result is not None and result.get("correct") is False
           and result.get("failed", 0) >= 1
           and result["metrics"]["ok_frac"]["value"] < 1.0,
           "perturbed run reports correct=false, failed>=1, ok_frac<1")

    code, result, _ = run("no-such-workload", 0)
    expect(code != 0 and result is None,
           "unknown workload exits nonzero without a result")

    print("selfcheck: %s" % ("PASS" if not failures else
                             "%d FAILED" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
