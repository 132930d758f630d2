"""Spans around the calls into each layer of the package, recorded from outside.

`Tracer.install` replaces each traced public function wherever a module of
the package binds it, so calls through `from .x import f` names are caught
as well. A function that no longer exists is skipped and reads as not
called. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import re
import statistics
import subprocess
import sys
import time

# span name -> (module, attribute); "Class.method" names a classmethod
TRACED = {
    "tomography.mle_reconstruct": ("tomography", "mle_reconstruct"),
    "tomography.bootstrap_metrics": ("tomography", "bootstrap_metrics"),
    "tomography.from_dataset": ("tomography", "TomographySet.from_dataset"),
    "tomography.linear_inversion": ("tomography", "linear_inversion"),
    "tomography.project_physical": ("tomography", "project_physical"),
    "tomography.write_state_json": ("tomography", "write_state_json"),
    "measurement.simulate_settings": ("measurement", "simulate_settings"),
    "measurement.read_counts_csv": ("measurement", "read_counts_csv"),
    "measurement.write_counts_csv": ("measurement", "write_counts_csv"),
    "states.apply_noise": ("states", "apply_noise"),
    "qmath.check_density_matrix": ("qmath", "check_density_matrix"),
    "metrics.fit_fringe": ("metrics", "fit_fringe"),
    "metrics.fidelity_to_target": ("metrics", "fidelity_to_target"),
    "metrics.negativity": ("metrics", "negativity"),
    "metrics.purity": ("metrics", "purity"),
    "metrics.chsh_max": ("metrics", "chsh_max"),
    "calibrate.calibrate_noise": ("calibrate", "calibrate_noise"),
    "calibrate.exact_observables": ("calibrate", "exact_observables"),
}
OP_SPAN = "cli.op"


class Tracer:
    """Records spans; each span's end leaves out the time `probe` spent on
    its reference computation inside the span."""

    def __init__(self, probe):
        self.probe = probe
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.fit_reports = []    # (iterations, converged) of every mle_reconstruct call
        self.records = 0         # records returned by simulate_settings

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        excluded = self.probe.excluded_wall
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter() - (self.probe.excluded_wall - excluded)
        if name == "tomography.mle_reconstruct":
            report = out[1]
            self.fit_reports.append((report.iterations, report.converged))
        elif name == "measurement.simulate_settings":
            self.records += len(out.records)
        return out

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "atomphoton"]
        for name, (module, attr) in TRACED.items():
            mod = sys.modules.get("atomphoton." + module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def layer_metrics(self, n_ops):
        """Per-operation figures of each layer; see README for the mapping."""
        total = {}
        self_time = {}
        calls = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - covered)
            calls[name] = calls.get(name, 0) + 1

        def ms(name):
            return 1e3 * total.get(name, 0.0) / n_ops

        iters = [it for it, _ in self.fit_reports]
        targets = calls.get("calibrate.calibrate_noise", 0)
        return {
            "tomography.mle_reconstruct.ms": ms("tomography.mle_reconstruct"),
            "tomography.mle_reconstruct.calls": calls.get("tomography.mle_reconstruct", 0) / n_ops,
            "tomography.mle.iterations": statistics.fmean(iters) if iters else 0.0,
            "tomography.mle.converged_ratio":
                sum(c for _, c in self.fit_reports) / len(iters) if iters else 0.0,
            "tomography.bootstrap_metrics.self_ms":
                1e3 * self_time.get("tomography.bootstrap_metrics", 0.0) / n_ops,
            "tomography.from_dataset.ms": ms("tomography.from_dataset"),
            "tomography.linear_inversion.ms": ms("tomography.linear_inversion"),
            "tomography.project_physical.ms": ms("tomography.project_physical"),
            "tomography.write_state_json.ms": ms("tomography.write_state_json"),
            "measurement.simulate_settings.ms_per_record":
                1e3 * total.get("measurement.simulate_settings", 0.0) / self.records
                if self.records else 0.0,
            "states.apply_noise.calls_per_op": calls.get("states.apply_noise", 0) / n_ops,
            "qmath.check_density_matrix.calls_per_op":
                calls.get("qmath.check_density_matrix", 0) / n_ops,
            "measurement.read_counts_csv.ms": ms("measurement.read_counts_csv"),
            "measurement.write_counts_csv.ms": ms("measurement.write_counts_csv"),
            "metrics.fit_fringe.ms": ms("metrics.fit_fringe"),
            "metrics.scalars.ms": sum(ms(n) for n in ("metrics.fidelity_to_target",
                                                      "metrics.negativity", "metrics.purity")),
            "metrics.chsh_max.ms": ms("metrics.chsh_max"),
            "calibrate.calibrate_noise.ms": ms("calibrate.calibrate_noise"),
            "calibrate.exact_observables.calls_per_target":
                calls.get("calibrate.exact_observables", 0) / targets if targets else 0.0,
            "calibrate.exact_observables.ms": ms("calibrate.exact_observables"),
            "cli.op.self_ms": 1e3 * self_time.get(OP_SPAN, 0.0) / n_ops,
        }


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_times(python, env, cwd, starts=3):
    """Cumulative import time in ms of atomphoton and of scipy's top-level
    imports, from `python -X importtime`; median over fresh starts."""
    samples = {"import.atomphoton.ms": [], "import.scipy.ms": []}
    for _ in range(starts):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import atomphoton"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import atomphoton failed: {proc.stderr[-2000:]}")
        atom_us = scipy_us = 0
        stack = []      # (depth, inside scipy) of the ancestors of the current line
        # importtime prints each import after the imports it caused, one level
        # deeper, so read backwards to meet every parent before its children
        for line in reversed(proc.stderr.splitlines()):
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            is_scipy = name.split(".")[0] == "scipy"
            if name == "atomphoton":
                atom_us = cumulative
            elif is_scipy and not inside:
                scipy_us += cumulative
            stack.append((depth, inside or is_scipy))
        samples["import.atomphoton.ms"].append(atom_us / 1e3)
        samples["import.scipy.ms"].append(scipy_us / 1e3)
    return {k: statistics.median(v) for k, v in samples.items()}
