"""One workload in one fresh process: a closed loop of CLI commands from a
single caller, run in process through `atomphoton.cli.main(argv)`.

Started by run.py, which pins BLAS to one thread. The run is `rounds`
whole rounds of the workload's fixed, seeded operations; rounds after the
first must reproduce the first round's artifacts byte for byte. Prints one
JSON line with the timings, the operation accounting and, with --trace 1,
the per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--run-dir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once atomphoton is imported and the inputs are written")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import atomphoton.cli as cli
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"error: atomphoton imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from speed import SpeedProbe
    from tracing import OP_SPAN, Tracer
    from workloads import WORKLOADS, CheckFailed, artifact_digests, compare_repeat

    input_dir = args.run_dir / "inputs"
    input_dir.mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[args.workload](args.seed, input_dir)
    if args.setup_only:
        return 0

    out_dir = args.run_dir / "out"
    out_dir.mkdir(exist_ok=True)
    rounds = max(2, round(args.seconds / work.nominal_round_s))
    sink = io.StringIO()
    first_digests, verdicts = {}, {}
    spans, raw_wall, raw_cpu = [], [], []
    items = failed = unexpected = 0

    with SpeedProbe() as probe:
        tracer = Tracer(probe) if args.trace else None
        for r in range(rounds):
            if tracer is not None and r == 1:
                tracer.install()          # round 0 stays untraced: it prices the tracing
            for k, op in enumerate(work.ops):
                prefix = str(out_dir / f"op{k:03d}")
                for stale in out_dir.glob(f"op{k:03d}.*"):
                    stale.unlink()
                argv = [a.replace("{out}", prefix) for a in op.argv]
                sink.seek(0)
                sink.truncate()
                error = None
                excluded = probe.excluded_wall, probe.excluded_cpu
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    with contextlib.redirect_stdout(sink):
                        if tracer is not None and r > 0:
                            rc = tracer.call(OP_SPAN, cli.main, argv)
                        else:
                            rc = cli.main(argv)
                except Exception:
                    rc = None
                    error = ("crash", traceback.format_exc())
                t1, c1 = time.perf_counter(), time.process_time()
                spans.append((t0, t1))
                t1 -= probe.excluded_wall - excluded[0]
                c1 -= probe.excluded_cpu - excluded[1]
                raw_wall.append(t1 - t0)
                raw_cpu.append(c1 - c0)
                if rc not in (0, None):
                    error = ("exit", f"exit code {rc}")
                if error is None:
                    items += op.items
                    digests = artifact_digests(prefix)
                    if r == 0:
                        first_digests[k] = digests
                        try:
                            op.check(prefix)
                        except CheckFailed as exc:
                            verdicts[k] = (exc.check, str(exc))
                        except Exception:
                            verdicts[k] = ("unreadable", traceback.format_exc())
                    elif k in first_digests:
                        try:
                            compare_repeat(first_digests[k], digests)
                        except CheckFailed as exc:
                            error = (exc.check, str(exc))
                    error = error or verdicts.get(k)
                if error is not None:
                    failed += 1
                    expected = op.known_fault is not None and error[0] == op.known_fault
                    unexpected += not expected
                    if r == 0:
                        kind = "known fault" if expected else "FAILED"
                        print(f"{kind}: {args.workload} {op.label}: {error[1]}", file=sys.stderr)

    slow = [probe.slowdown(a, b) for a, b in spans]
    durations = [t / s for t, s in zip(raw_wall, slow)]
    report = {
        "attempted": len(durations),
        "failed": failed,
        "unexpected": unexpected,
        "metrics": {
            "wall_s": sum(durations),
            "op_p50_ms": 1e3 * statistics.median(durations),
            "items_per_s": items / sum(durations),
            "cpu_s": sum(c / s for c, s in zip(raw_cpu, slow)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "raw": {"wall_s": sum(raw_wall), "op_p50_ms": 1e3 * statistics.median(raw_wall),
                "cpu_s": sum(raw_cpu), "mean_slowdown": statistics.fmean(slow)},
    }
    if tracer is not None:
        n = len(work.ops)
        round_s = [sum(durations[i:i + n]) for i in range(0, len(durations), n)]
        layers = tracer.layer_metrics(n_ops=n * (rounds - 1))
        layers["trace.overhead_pct"] = 100 * (statistics.fmean(round_s[1:]) / round_s[0] - 1)
        report["layers"] = layers
        write_spans(tracer, ROOT / "perfbench" / "_traces" / f"{args.workload}.spans.csv")
    print(json.dumps(report))
    return 0


def write_spans(tracer, path):
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")


if __name__ == "__main__":
    sys.exit(main())
