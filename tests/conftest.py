"""Shared test configuration."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

import atomphoton
from atomphoton.cli import main

# Property tests are reproducible: examples come from a fixed derivation, no
# example database is read or written, and slow examples are not failures.
settings.register_profile("atomphoton", derandomize=True, database=None, deadline=None)
settings.load_profile("atomphoton")


@pytest.fixture
def refused(tmp_path, capsys):
    """refused(argv, expected): run the CLI in process and check its refusal
    contract: exit 1, nothing on stdout, one stderr line that starts with
    'error: ' and contains `expected`, and every path under tmp_path as it
    was, bytes and directories alike. Returns that line without its newline."""
    def tree():
        return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

    def check(argv, expected):
        capsys.readouterr()
        before = tree()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
        assert expected in err, err
        assert tree() == before
        return err[:-1]
    return check


@pytest.fixture(scope="session")
def package_env():
    """os.environ with this checkout's package first on PYTHONPATH, for every
    fresh interpreter a test starts."""
    path = [os.path.dirname(os.path.dirname(atomphoton.__file__)), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


@pytest.fixture(scope="session")
def kernel_switch_unavailable():
    """Why OPENBLAS_CORETYPE cannot pick another kernel here, or None: it
    needs x86_64 and an OpenBLAS built with DYNAMIC_ARCH."""
    if platform.machine() != "x86_64":
        return f"OPENBLAS_CORETYPE picks x86_64 kernels; this machine is {platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy reports no BLAS build configuration"
    config = blas.get("openblas configuration") or ""
    if "DYNAMIC_ARCH" not in config:
        return f"numpy's BLAS ({blas.get('name')}) is not an OpenBLAS built with DYNAMIC_ARCH"
    return None


# (prefix, argv): every command, the empty-cell fringe rows of one trial per
# point, a fit of the exact run's counts read back from its CSV, calibrations
# in, below (the default) and above the reachable band, and a refused scan,
# which must exit 1 and write nothing
CLI_RUNS = [
    ("tomo", ["--seed", "7", "tomo"]),
    ("scan", ["--seed", "3", "scan"]),
    ("scan1", ["--seed", "3", "scan", "--n-per-point", "1"]),
    ("exact", ["--exact", "tomo", "--bootstrap", "0"]),
    ("input", ["tomo", "--input", "exact.counts.csv", "--bootstrap", "0"]),
    ("inband", ["calibrate", "--vx", "0.9", "--vy", "0.9", "--fidelity", "0.93"]),
    ("calibrate", ["calibrate"]),
    ("offband", ["calibrate", "--vx", "0.78", "--vy", "0.78", "--fidelity", "0.9"]),
    ("plan", ["plan"]),
    ("refused", ["scan", "--n-points", "3"]),
]


@pytest.fixture(scope="session")
def cli_runs(tmp_path_factory, package_env, kernel_switch_unavailable):
    """CLI_RUNS through the path `python -m atomphoton.cli` takes, at once in
    fresh interpreters that differ only in PYTHONHASHSEED (hash0, hash1) or
    only in BLAS kernel (prescott, where it can switch); every fresh
    interpreter of the suite starts here. Each command must exit with its
    status. {interpreter: (its stdout, {file name: path}, {"atomphoton" or
    prefix: the numpy. and scipy modules the package import or the command
    loaded})}."""
    code = f"""
import json, runpy, sys
import atomphoton
def loaded():
    return {{m for m in sys.modules if m.startswith(("numpy.", "scipy"))}}
record = {{"atomphoton": sorted(loaded())}}
for prefix, argv in {CLI_RUNS!r}:
    before = loaded()
    sys.argv = ["atomphoton.cli", "--out", prefix, *argv]
    try:
        runpy.run_module("atomphoton.cli", run_name="__main__")
    except SystemExit as exc:
        if exc.code != (1 if prefix == "refused" else 0):
            sys.exit(f"{{prefix}}: exit status {{exc.code}}")
    else:
        sys.exit(f"{{prefix}}: no exit status")
    record[prefix] = sorted(loaded() - before)
print(json.dumps(record), file=sys.stderr)
"""
    env = {k: v for k, v in package_env.items() if k != "OPENBLAS_CORETYPE"}
    envs = {"hash0": {**env, "PYTHONHASHSEED": "0"}, "hash1": {**env, "PYTHONHASHSEED": "1"}}
    if kernel_switch_unavailable is None:
        envs["prescott"] = {**envs["hash0"], "OPENBLAS_CORETYPE": "Prescott"}
    procs = {}
    for name, child_env in envs.items():
        where = tmp_path_factory.mktemp(name)
        procs[name] = where, subprocess.Popen([sys.executable, "-c", code], cwd=where,
                                              env=child_env, stdout=subprocess.PIPE,
                                              stderr=subprocess.PIPE, text=True)
    # reap every interpreter before failing on any
    done = {name: (where, proc, *proc.communicate(timeout=120))
            for name, (where, proc) in procs.items()}
    ran = {}
    for name, (where, proc, out, err) in done.items():
        assert proc.returncode == 0, (name, err)
        ran[name] = (out, {p.name: p for p in where.iterdir()},
                     json.loads(err.splitlines()[-1]))
    return ran
