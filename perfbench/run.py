#!/usr/bin/env python3
"""End-to-end benchmark of SpecAI (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds the library, `specaid` and the harness into .bench_build/ (first run
only), runs one workload, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1).

    python3 perfbench/run.py --selftest   # the verdict checker's fault rung
    python3 perfbench/run.py --record     # rewrite perfbench/expected/

Exit code 0 when a result was printed, 1 otherwise.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
OUT = os.path.join(".bench_build", "out")
HARNESS = os.path.join(BUILD, "specai-perfbench")
SPECAID = os.path.join(BUILD, "specai", "tools", "specaid")
WORKLOADS = ["spec-stress", "paper-kernels", "repair-corpus", "daemon-trace"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then brings the two targets up to date."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no SpecAI source tree at " + ROOT)
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(".bench_build", "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "specai-perfbench", "specaid"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                rc = subprocess.call(step, stdout=log, stderr=log,
                                     timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                fail("build failed: " + " ".join(step) + " (see " +
                     log_path + ")")


def harness(args):
    """Runs the harness in its own process group, so that a timeout also
    takes down the daemon it spawned. Returns (exit code, stdout lines)."""
    cmd = [HARNESS, "--data", "perfbench", "--out", OUT,
           "--specaid", SPECAID] + args
    # setup_s runs from here: spawning, loading, inputs, daemon start-up.
    cmd += ["--spawned-at", "%.9f" % time.monotonic()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("harness timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out.splitlines()


def run_flat(args):
    rc, lines = harness(args)
    if rc != 0 or not lines:
        fail("harness failed (exit %d)" % rc)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def selftest():
    """The checker's fault rung: one corrupted expected verdict must make
    the run report failures, and the intact files must not."""
    expected = os.path.join(".bench_build", "selftest-expected")
    shutil.rmtree(expected, ignore_errors=True)
    shutil.copytree(os.path.join("perfbench", "expected"), expected)
    common = ["--workload", "paper-kernels", "--seed", "1", "--seconds", "1",
              "--trace", "0", "--expected", expected]
    clean = run_flat(common)
    path = os.path.join(expected, "paper-kernels.txt")
    with open(path) as f:
        lines = f.read().splitlines()
    victim = next(i for i, l in enumerate(lines) if l.startswith("t5/"))
    key, verdict = lines[victim].split("\t", 1)
    fields = verdict.split(" ")
    name, value = fields[1].split("=")
    fields[1] = "%s=%d" % (name, int(value) + 1)
    lines[victim] = key + "\t" + " ".join(fields)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    corrupted = run_flat(common)
    ok = (clean["failed"] == 0 and clean["correct"] and
          corrupted["failed"] > 0 and corrupted["error_rate"] > 0 and
          not corrupted["correct"])
    print("selftest: intact files failed=%d, corrupted %s failed=%d "
          "error_rate=%.4f: %s" % (clean["failed"], key, corrupted["failed"],
                                   corrupted["error_rate"],
                                   "ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", action="store_true")
    opts = parser.parse_args()
    os.chdir(ROOT)
    build()

    if opts.selftest:
        return selftest()
    if opts.record:
        for workload in WORKLOADS:
            rc, _ = harness(["--workload", workload, "--record"])
            if rc != 0:
                fail("recording %s failed" % workload)
        return 0
    if not opts.workload:
        fail("--workload is required")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    flat = run_flat(["--workload", opts.workload, "--seed", str(opts.seed),
                     "--seconds", str(opts.seconds),
                     "--trace", str(opts.trace)])
    metrics = {}
    for m in spec["per_layer" if opts.trace else "end_to_end"]:
        if m["name"] not in flat:
            fail("harness did not report " + m["name"])
        metrics[m["name"]] = {"value": flat[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": flat["correct"],
                      "attempted": flat["attempted"],
                      "failed": flat["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
