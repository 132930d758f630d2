"""Self-test of the output checks: every check passes on genuine artifacts
and rejects a deliberately corrupted copy.

    python3 perfbench/selftest.py        (from the root of the checkout)

Exits 0 when every corruption is caught by the check it targets.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import atomphoton.cli as cli  # noqa: E402

import model  # noqa: E402
import workloads as w  # noqa: E402

caught = []


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"command failed: {argv}")


def copy(prefix, tag):
    new = f"{prefix}-{tag}"
    p = Path(prefix)
    for f in p.parent.glob(p.name + ".*"):
        shutil.copy(f, new + f.name[len(p.name):])
    return new


def edit_json(prefix, suffix, change):
    path = Path(prefix + suffix)
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def expect(check, verify, prefix, tag, suffix, change):
    """Copy the artifacts of `prefix`, corrupt one file, and require `verify`
    to fail in `check`."""
    bad = copy(prefix, tag)
    if suffix.endswith(".json"):
        edit_json(bad, suffix, change)
    else:
        path = Path(bad + suffix)
        path.write_text(change(path.read_text()))
    try:
        verify(bad)
    except w.CheckFailed as exc:
        if exc.check != check:
            raise SystemExit(f"{tag}: caught by {exc.check}, expected {check}: {exc}")
        caught.append((check, tag))
        return
    raise SystemExit(f"{tag}: corruption not caught, expected {check}")


def set_state(rho):
    def change(state):
        state["real"], state["imag"] = np.real(rho).tolist(), np.imag(rho).tolist()
    return change


def set_noise(p, q, eps):
    def change(out):
        out["noise"].update(depolarizing=p, dephasing=q, eps01=eps, eps10=eps)
        v, f = model.closed_form_observables(p, q, eps)
        out["achieved"] = {"vx": v, "vy": v, "fidelity": f}
    return change


def tomo_cases(d):
    prefix = f"{d}/boot"
    run(["--seed", "5", "--out", prefix, "tomo", "--bootstrap", "30"])
    rho = model.noisy_state(model.TARGET, depolarizing=0.14)
    verify = lambda p: w.check_tomo(p, w.TomoSpec(rho, None, bootstrap=True))  # noqa: E731
    verify(prefix)
    state = json.loads(Path(prefix + ".state.json").read_text())
    fitted = np.array(state["real"]) + 1j * np.array(state["imag"])

    def skew(s):
        s["imag"][0][1] += 0.01
    expect("hermitian", verify, prefix, "herm", ".state.json", skew)
    expect("trace", verify, prefix, "trace", ".state.json", set_state(fitted * 1.01))
    expect("psd", verify, prefix, "psd", ".state.json", set_state(np.diag([1.1, -0.1, 0, 0])))
    expect("fidelity_band", verify, prefix, "band", ".state.json", set_state(np.eye(4) / 4))

    def nudge(key):
        def change(m):
            m[key] += 1e-6
        return change
    for key in ("fidelity", "negativity", "purity", "chsh_max"):
        expect("scalars", verify, prefix, f"scalar-{key}", ".metrics.json", nudge(key))

    def below_init(m):
        m["fit_report"]["log_likelihood"] = m["fit_report"]["init_log_likelihood"] - 1
    expect("loglik", verify, prefix, "ll-init", ".metrics.json", below_init)

    def wrong_ll(m):
        m["fit_report"]["log_likelihood"] += 1
        m["fit_report"]["init_log_likelihood"] += 1
    expect("loglik", verify, prefix, "ll-value", ".metrics.json", wrong_ll)

    def no_spread(m):
        m["bootstrap"]["purity"]["std"] = 0.0
    expect("bootstrap", verify, prefix, "boot-std", ".metrics.json", no_spread)

    def off_interval(m):
        b = m["bootstrap"]["fidelity"]
        b["ci95"] = [b["mean"] + 0.01, b["mean"] + 0.02]
    expect("bootstrap", verify, prefix, "boot-ci", ".metrics.json", off_interval)

    # expected counts: the fit must return the generating state
    work = w.tomo_ingest(0, d)
    k = w.INGEST_MIX.index("expected")
    prefix = f"{d}/ingest"
    run([a.replace("{out}", prefix) for a in work.ops[k].argv])
    verify = work.ops[k].check
    verify(prefix)
    state = json.loads(Path(prefix + ".state.json").read_text())
    fitted = np.array(state["real"]) + 1j * np.array(state["imag"])
    expect("expected_state", verify, prefix, "moved", ".state.json",
           set_state(0.999 * fitted + 0.001 * np.eye(4) / 4))


def scan_cases(d):
    prefix = f"{d}/scan"
    run(["--seed", "5", "--out", prefix, "scan"])
    verify = lambda p: w.check_scan(p, w.SCAN_NOISE[0])  # noqa: E731
    verify(prefix)

    def bump_p(text):
        lines = text.splitlines()
        cells = lines[3].split(",")
        cells[3] = repr(float(cells[3]) + 1e-6)
        lines[3] = ",".join(cells)
        return "\n".join(lines) + "\n"
    expect("fringe_table", verify, prefix, "table", ".fringes.csv", bump_p)

    def set_visibility(delta):
        def change(m):
            m["fits"]["sy"]["apd2"]["visibility"] += delta
        return change
    expect("visibility_band", verify, prefix, "band", ".metrics.json", set_visibility(-0.3))
    expect("refit", verify, prefix, "refit", ".metrics.json", set_visibility(1e-6))

    digests = w.artifact_digests(prefix)
    run(["--seed", "5", "--out", prefix, "scan"])
    w.compare_repeat(digests, w.artifact_digests(prefix))
    Path(prefix + ".counts.meta.json").write_text("{}\n")
    try:
        w.compare_repeat(digests, w.artifact_digests(prefix))
    except w.CheckFailed as exc:
        caught.append((exc.check, "rewritten sidecar"))
    else:
        raise SystemExit("repeat: changed artifact not caught")


def calibrate_cases(d):
    for tag, targets, wrong in (
        # same fidelity, off the target mean visibility / off the frontier
        ("in", (0.8, 0.82, 0.88), (1 - (4 * 0.88 - 1) / 3, 0.0, 0.0)),
        ("below", (0.85, 0.87, 0.875), (1 - (4 * 0.875 - 1) / (3 - 0.04), 0.01, 0.0)),
        ("above", (0.78, 0.78, 0.9), (0.05, (3 - 2.6 / 0.95) / 4, 0.0)),
    ):
        prefix = f"{d}/cal-{tag}"
        run(["--out", prefix, "calibrate", "--vx", repr(targets[0]), "--vy", repr(targets[1]),
             "--fidelity", repr(targets[2])])
        verify = lambda p, t=targets: w.check_calibrate(p, t)  # noqa: E731
        verify(prefix)
        expect("visibility_rule", verify, prefix, f"rule-{tag}", ".noise.json", set_noise(*wrong))
    out = json.loads(Path(prefix + ".noise.json").read_text())
    p, q = out["noise"]["depolarizing"], out["noise"]["dephasing"]

    def echo(o):
        o["targets"]["vx"] = 0.5
    expect("targets", verify, prefix, "echo", ".noise.json", echo)

    def achieved(o):
        o["achieved"]["vy"] += 1e-6
    expect("closed_form", verify, prefix, "achieved", ".noise.json", achieved)

    def asymmetric(o):
        o["noise"]["eps10"] += 1e-3
    expect("closed_form", verify, prefix, "asym", ".noise.json", asymmetric)
    expect("fidelity_target", verify, prefix, "fid", ".noise.json", set_noise(p + 0.01, q, 0.0))


def main():
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as d:
        tomo_cases(d)
        scan_cases(d)
        calibrate_cases(d)
    for check, tag in caught:
        print(f"caught  {check:16s} {tag}")
    print(f"selftest: {len(caught)} corruptions caught by the check they target")
    return 0


if __name__ == "__main__":
    sys.exit(main())
