#!/usr/bin/env python3
"""Serving benchmark: builds perfbench/src/main.exe from source and runs one
workload, printing the result as one JSON line (the last line of stdout).

    python3 perfbench/run.py --workload flat-serve --seed 1 --seconds 20 --trace 0

Run it from the repository root.  --trace 0 reports the end-to-end metrics
of BENCHMARK.json (timed serving without telemetry, plus the top heap of a
fresh untimed process); --trace 1 reports the per-layer metrics from a
separate traced run.  Every run is checked: each serving pass must render the
same report as the run's first pass and as a pass without the timing wrapper,
served trees must pass Verify.check, and seeds listed in
perfbench/expected.json must reproduce the pinned report digest.  Build
output and checkpoint files stay under .bench_build/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.abspath(os.path.join(".bench_build", "dune"))
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "src", "main.exe")
WORKLOADS = ("flat-serve", "overload-burst", "chaos-checkpoint")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(e, subprocess.TimeoutExpired):
            fail("timed out: " + " ".join(cmd))
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail("failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return out


def result_line(out):
    """The JSON line a main.exe mode prints, and the lines before it."""
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("no output")
    return json.loads(lines[-1]), lines[:-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    # Terminated runs still stop their children and remove their files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "expected.json")) as f:
        pinned = json.load(f)[args.workload].get(str(args.seed))

    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/src/main.exe"], timeout=850)

    work = os.path.join(".bench_build", "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        w, seed, secs = args.workload, str(args.seed), str(args.seconds)
        if args.trace:
            res, info = result_line(
                run([EXE, "trace", w, seed, secs, work], timeout=170))
            wanted = spec["per_layer"]
            digests = [res["digest"]]
        else:
            # The top heap of a fresh process that serves once without the
            # timing wrapper, and whose report must match the timed passes.
            heap, _ = result_line(run([EXE, "heap", w, seed, work], timeout=60))
            res, info = result_line(
                run([EXE, "measure", w, seed, secs, work], timeout=150))
            res["metrics"].update(heap["metrics"])
            res["correct"] = res["correct"] and heap["correct"]
            wanted = spec["end_to_end"]
            digests = [res["digest"], heap["digest"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in info:
        print(line)
    correct = res["correct"] and len(set(digests)) == 1
    if pinned is not None and pinned != digests[0]:
        print("report digest %s differs from the pinned %s"
              % (digests[0], pinned))
        correct = False
    metrics = {}
    for m in wanted:
        v = res["metrics"].get(m["name"])
        if v is None:
            # Not computable: every pass it needs failed the report gate.
            print("metric %s has no value" % m["name"])
            correct, v = False, 0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
