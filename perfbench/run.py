"""Benchmark of the atomphoton CLI: one workload per call.

    python3 perfbench/run.py --workload tomo_bootstrap --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics instead.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import sample_slowdown
from tracing import import_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("tomo_bootstrap", "tomo_ingest", "scan_fringes", "calibrate_targets")
SETUP_STARTS = 5            # setup_s is the median over this many fresh starts
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "items_per_s": "1/s",
         "cpu_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "calls_per_op": "count", "calls_per_target": "count",
               "iterations": "count", "converged_ratio": "ratio", "overhead_pct": "%"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=16,
                    help="run length on the reference machine; fixes the number of rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "atomphoton" / "__init__.py").is_file():
        print(f"error: no atomphoton source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run stops its child too: subprocess.run kills it on any exception
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    env = child_env()
    runs = HERE / "_runs"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    base = [sys.executable, str(HERE / "workload_process.py"),
            "--workload", args.workload, "--seed", str(args.seed)]
    try:
        metrics = {}
        if args.trace:
            metrics.update(import_times(sys.executable, env, ROOT))
        else:
            setups, slow = [], [sample_slowdown()]
            for k in range(SETUP_STARTS):
                t0 = time.perf_counter()
                subprocess.run(base + ["--setup-only", "--run-dir", str(run_dir / f"setup{k}")],
                               env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                               timeout=60)
                setups.append(time.perf_counter() - t0)
                slow.append(sample_slowdown())
            scaled = [t * 2 / (a + b) for t, a, b in zip(setups, slow, slow[1:])]
            metrics["setup_s"] = statistics.median(scaled)
            raw = {"setup_s": statistics.median(setups)}
        proc = subprocess.run(
            base + ["--run-dir", str(run_dir / "run"), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            timeout=DEADLINE_S - (time.perf_counter() - start))
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics.update(report["layers"])
        units = {k: LAYER_UNITS.get(k.rsplit(".", 1)[1], "ms") for k in metrics}
    else:
        metrics.update(report["metrics"])
        units = UNITS
        raw.update(report["raw"])
        print("measured before scaling: " + json.dumps(raw), file=sys.stderr)
    print(json.dumps({
        "correct": report["unexpected"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
