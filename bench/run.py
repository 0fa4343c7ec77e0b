"""Benchmark entry point for bspec.

    python3 bench/run.py --workload direct-limits --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding src/bspec and
fixtures/).  It measures `setup_s` as the median time to `import bspec` in
fresh interpreters, then starts one workload process (bench/worker.py) with a
fixed PYTHONHASHSEED, and prints one JSON object as its last line: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  End-to-end times are scaled by a machine-speed calibration
(bench/calibrate.py).  Workloads, metrics and reference figures are
described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HASH_SEED = "0"          # fixed, so set and dict orders (and `calls`) repeat
SETUP_SAMPLES = 9        # fresh interpreters timing `import bspec`
WORKER_TIMEOUT_S = 150   # one run must end within 180 s
IMPORT_PROBE = ("import sys, time\n"
                "t = time.perf_counter()\n"
                "import bspec\n"
                "t = time.perf_counter() - t\n"
                f"sys.path.insert(0, {HERE!r})\n"
                "from calibrate import CAL_S, calibrate\n"
                "sys.stdout.write(repr(t / calibrate(5) * CAL_S))\n")


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_times(n):
    """`import bspec` time in n fresh interpreters, after one unmeasured
    start that leaves the bytecode cache written.  Each is scaled by a
    calibration run in the same interpreter (bench/calibrate.py)."""
    out = []
    for k in range(n + 1):
        res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                             env=child_env(), capture_output=True, text=True,
                             timeout=60, check=True)
        if k:
            out.append(float(res.stdout))
    return out


def run_worker(args, mode):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--spans", os.path.join(ROOT, ".bench_out", "spans")]
    res = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                         timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {res.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="bspec benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    missing = [p for p in ("src/bspec/__init__.py", "fixtures")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"bench: not a bspec source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            result = run_worker(args, "trace")
            declared = spec["per_layer"]
        else:
            setup = import_times(SETUP_SAMPLES)
            result = run_worker(args, "timed")
            setup.append(result["metrics"].pop("import_s"))
            result["metrics"]["setup_s"] = statistics.median(setup)
            declared = spec["end_to_end"]
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    measured = result["metrics"]
    extra = {k: v for k, v in measured.items() if k not in {m["name"] for m in declared}}
    if extra:
        print(f"bench: also measured {json.dumps(extra)}", file=sys.stderr)
    absent = [m["name"] for m in declared if m["name"] not in measured]
    if absent:
        print(f"bench: metrics not measured: {absent}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
