"""The four workloads: their inputs, their operations and the output checks.

Inputs come from the workload seed, except the fixed `tomo --seed 7` and
the fixed calibration targets, whose order the seed draws. Every check
compares an artifact with a computation in `model` or with a property the
method must have, never with a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import model

BOOTSTRAP_REPLICAS = 250     # the CLI default
SIGMA_BAND = 6.0             # width of the statistical bands, in standard deviations
ANGLE_TOL = 1e-9


class CheckFailed(Exception):
    def __init__(self, check, message):
        super().__init__(f"{check}: {message}")
        self.check = check


@dataclass
class Op:
    """One CLI command. `argv` holds "{out}" where the output prefix goes."""

    label: str
    argv: list
    check: Callable[[str], None]
    items: int
    known_fault: str | None = None


@dataclass
class Workload:
    ops: list
    nominal_round_s: float      # sizes the run: rounds = seconds / nominal_round_s


def workload_rng(seed, name):
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def _require(ok, check, message):
    if not ok:
        raise CheckFailed(check, message)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def artifact_digests(prefix):
    """SHA-256 of every file the operation wrote, keyed by file name."""
    p = Path(prefix)
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(p.parent.glob(p.name + ".*"))}


def compare_repeat(first, again):
    _require(first == again, "repeat",
             f"artifacts differ from the first round: {sorted(set(first.items()) ^ set(again.items()))}")


# ----------------------------------------------------------------------
# tomography: tomo_bootstrap and tomo_ingest
# ----------------------------------------------------------------------

@dataclass
class TomoSpec:
    rho_true: np.ndarray        # state whose ideal-projector probabilities generated the counts
    counts_csv: str | None      # None: the op writes <prefix>.counts.csv itself
    expected: bool = False      # expected (non-integer) counts: the fit must return rho_true
    bootstrap: bool = False


def _near(x, target):
    return abs(x - target) < ANGLE_TOL


def read_sign_counts(path):
    """Counts CSV -> cells in eigenvalue-sign order per canonical (i, j)."""
    agg = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            theta, phi, beta = (float(row[k]) for k in ("theta", "phi", "beta"))
            if _near(theta, math.pi / 4):
                i, flipped = (0 if _near(phi % (2 * math.pi), 0.0) else 1), False
            else:
                i, flipped = 2, _near(theta, 0.0)
            j = 2 if row["photon_basis"] == "circular" else (0 if _near(beta, 0.0) else 1)
            cells = [float(row[c]) for c in ("n_f2_apd1", "n_f2_apd2", "n_f1_apd1", "n_f1_apd2")]
            agg[(i, j)] = agg.get((i, j), 0.0) + model.sign_cells(cells, flipped)
    return agg


def check_tomo(prefix, spec: TomoSpec):
    state = _read_json(prefix + ".state.json")
    metrics = _read_json(prefix + ".metrics.json")
    rho = np.array(state["real"]) + 1j * np.array(state["imag"])

    herm = np.max(np.abs(rho - rho.conj().T))
    _require(herm <= 1e-10, "hermitian", f"max |rho - rho^dagger| = {herm:.3e}")
    tr = np.trace(rho).real
    _require(abs(tr - 1) <= 1e-9, "trace", f"trace = {tr!r}")
    low = np.min(np.linalg.eigvalsh(rho))
    _require(low >= -1e-10, "psd", f"min eigenvalue = {low:.3e}")

    if spec.expected:
        dev = np.max(np.abs(rho - spec.rho_true))
        _require(dev <= 1e-4, "expected_state", f"max deviation from the generating state {dev:.3e}")

    probs = read_sign_counts(spec.counts_csv or prefix + ".counts.csv")
    n_diag = [probs[(k, k)].sum() for k in range(3)]
    f_true = model.fidelity(spec.rho_true)
    # the half-count prior pulls a pure state's fidelity down by up to about 2.6/N
    band = SIGMA_BAND * model.fidelity_sigma(spec.rho_true, n_diag) + 5.0 / min(n_diag)
    _require(abs(model.fidelity(rho) - f_true) <= band, "fidelity_band",
             f"fidelity {model.fidelity(rho):.5f}, generating state {f_true:.5f}, band {band:.5f}")

    own = {"fidelity": model.fidelity(rho), "negativity": model.negativity(rho),
           "purity": model.purity(rho), "chsh_max": model.chsh_max(rho)}
    for name, value in own.items():
        _require(abs(metrics[name] - value) <= 1e-9, "scalars",
                 f"{name}: metrics.json {metrics[name]!r}, recomputed {value!r}")

    report = metrics["fit_report"]
    _require(report["log_likelihood"] >= report["init_log_likelihood"], "loglik",
             f"fit {report['log_likelihood']!r} below its initialisation {report['init_log_likelihood']!r}")
    raw = model.sign_counts(probs)
    counts = np.where(raw == 0, 0.5, raw)       # the half-count prior on empty cells
    ll = model.log_likelihood(rho, counts)
    tol = 1e-6 * max(1.0, abs(ll))
    _require(abs(ll - report["log_likelihood"]) <= tol, "loglik",
             f"recomputed {ll!r}, reported {report['log_likelihood']!r}")
    ll_init = model.log_likelihood(model.simplex_projection(model.state_from_sign_probabilities(probs)),
                                   counts)
    _require(ll >= ll_init - tol, "loglik", f"{ll!r} below the projected linear inversion {ll_init!r}")

    if spec.bootstrap:
        for name in ("fidelity", "negativity", "purity"):
            b = metrics["bootstrap"][name]
            _require(b["std"] > 0, "bootstrap", f"{name} spread {b['std']!r}")
            lo, hi = b["ci95"]
            _require(lo <= b["mean"] <= hi, "bootstrap", f"{name} interval {b['ci95']} misses mean {b['mean']!r}")


# The CLI seed of the README's tomography example. The work of one `tomo`
# depends on its data: over ten seeds the fits took 7,600 to 10,000 L-BFGS-B
# iterations in all, a 13 % spread. So every run uses this one seed and does
# the same work, whatever the workload seed.
TOMO_SEED = 7


def tomo_bootstrap(seed, input_dir):
    """The default `tomo`: simulated Werner data at the default noise
    (depolarizing 0.14), 300 counts per setting, 250 bootstrap replicas."""
    rho = model.noisy_state(model.TARGET, depolarizing=0.14)
    op = Op(f"seed={TOMO_SEED}", ["--seed", str(TOMO_SEED), "--out", "{out}", "tomo"],
            lambda prefix: check_tomo(prefix, TomoSpec(rho, None, bootstrap=True)),
            items=1 + BOOTSTRAP_REPLICAS)
    return Workload([op], nominal_round_s=10.0)


INGEST_DATASETS = 192
COUNT_LEVELS = (30, 100, 300, 1000, 3000)
# per 8 datasets: 5 sampled, 1 sampled with empty cells, 2 with expected counts
INGEST_MIX = ("sampled",) * 5 + ("empty", "expected", "expected")


def _ingest_parameters(rng):
    """(kind, parameters) of every dataset. Within a kind each parameter is
    stratified over its range, so every seed gets the same spread of states
    and count levels and the run's work varies little from seed to seed."""
    out = [None] * INGEST_DATASETS
    for kind in ("sampled", "empty", "expected"):
        idx = [k for k in range(INGEST_DATASETS) if INGEST_MIX[k % len(INGEST_MIX)] == kind]
        m = len(idx)

        def strat(lo, hi):
            return lo + (hi - lo) * (rng.permutation(m) + rng.random(m)) / m
        if kind == "empty":
            # the ideal state at low counts: two cells of each diagonal setting stay empty
            zero = np.zeros(m)
            cols = dict(a=np.full(m, math.pi / 4), ph=zero, p=zero, q=zero, e01=zero, e10=zero,
                        n=np.resize((20, 40), m))
        else:
            cols = dict(a=strat(0.45, math.pi / 4), ph=strat(-0.6, 0.6),
                        # expected counts: keep the state well inside the PSD set
                        p=strat(0.2 if kind == "expected" else 0.0, 0.5), q=strat(0.0, 0.3),
                        # about a third of the datasets without readout confusion
                        e01=np.clip(strat(-0.02, 0.04), 0, None),
                        e10=np.clip(strat(-0.02, 0.04), 0, None),
                        n=np.array(COUNT_LEVELS)[rng.permutation(np.resize(np.arange(5), m))])
        for r, k in enumerate(idx):
            out[k] = kind, {name: col[r] for name, col in cols.items()}
    return out


def _ingest_dataset(rng, kind, a, ph, p, q, e01, e10, n):
    """Draw one dataset: returns (rows, generating effective state)."""
    ket = np.array([math.cos(a), 0, 0, np.exp(1j * ph) * math.sin(a)])
    rho = model.noisy_state(ket, p, q)
    n = int(n)
    z_flipped = bool(rng.random() < 0.5)
    split = bool(rng.random() < 0.4)
    rows, sign_probs = [], {}
    for i in range(3):
        atom = model.ATOM_Z_FLIPPED if (i == 2 and z_flipped) else model.ATOM_SETTINGS[i]
        for j in range(3):
            photon = model.PHOTON_SETTINGS[j]
            prob = model.outcome_probabilities(rho, atom, photon, e01, e10)
            sign_probs[(i, j)] = model.sign_cells(prob, i == 2 and z_flipped)
            if kind == "expected":
                parts = [n * prob * w for w in ((0.4, 0.6) if split else (1.0,))]
            else:
                n1 = int(rng.integers(1, n)) if split else n
                parts = [rng.multinomial(m, prob) for m in ((n1, n - n1) if split else (n,))]
            for cells in parts:
                rows.append([*atom, photon[0], *cells, "circular" if photon[1] else "linear"])
    rows = [rows[k] for k in rng.permutation(len(rows))]
    return rows, model.state_from_sign_probabilities(sign_probs)


def write_counts(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "phi", "beta", "n_f2_apd1", "n_f2_apd2", "n_f1_apd1", "n_f1_apd2",
                    "photon_basis"])
        for theta, phi, beta, *cells, basis in rows:
            w.writerow([f"{theta:.17g}", f"{phi:.17g}", f"{beta:.17g}",
                        *(f"{c:.17g}" for c in cells), basis])


def tomo_ingest(seed, input_dir):
    """`tomo --input <csv> --bootstrap 0` over counts CSVs drawn by numpy."""
    rng = workload_rng(seed, "tomo_ingest")
    ops = []
    for k, (kind, params) in enumerate(_ingest_parameters(rng)):
        rows, rho_eff = _ingest_dataset(rng, kind, **params)
        if kind == "expected" and np.min(np.linalg.eigvalsh(rho_eff)) < 0.01:
            raise RuntimeError(f"dataset {k}: expected-count state too close to the PSD boundary")
        path = str(Path(input_dir) / f"dataset{k:03d}.csv")
        write_counts(path, rows)
        spec = TomoSpec(rho_eff, path, expected=(kind == "expected"))
        ops.append(Op(f"{kind} dataset{k:03d}",
                      ["--out", "{out}", "tomo", "--input", path, "--bootstrap", "0"],
                      lambda prefix, spec=spec: check_tomo(prefix, spec), items=1))
    return Workload(ops, nominal_round_s=7.0)


# ----------------------------------------------------------------------
# scan_fringes
# ----------------------------------------------------------------------

SCAN_OPS = 96
SCAN_POINTS = 18
SCAN_TRIALS = 300
# (depolarizing, dephasing, symmetric readout confusion); the first is the CLI default
SCAN_NOISE = ((0.14, 0.0, 0.0), (0.08, 0.03, 0.02), (0.25, 0.0, 0.05))


def check_scan(prefix, noise):
    records = {}
    with open(prefix + ".counts.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            basis = "sx" if _near(float(row["phi"]), 0.0) else "sy"
            n = [float(row[c]) for c in ("n_f2_apd1", "n_f2_apd2", "n_f1_apd1", "n_f1_apd2")]
            _require(sum(n) == SCAN_TRIALS, "fringe_table", f"record with {sum(n)} trials")
            records.setdefault(basis, []).append((float(row["beta"]), n))
    _require(sorted(records) == ["sx", "sy"] and all(len(r) == SCAN_POINTS for r in records.values()),
             "fringe_table", f"records per basis { {b: len(r) for b, r in records.items()} }")

    with open(prefix + ".fringes.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    _require(len(table) == 2 * 2 * SCAN_POINTS, "fringe_table", f"{len(table)} fringe rows")
    expected = {}
    for basis, recs in records.items():
        for det in (1, 2):
            n_cond = [n[det - 1] + n[det + 1] for _, n in recs]
            p = [n[det + 1] / m for (_, n), m in zip(recs, n_cond)]
            expected[(basis, det)] = ([b for b, _ in recs], p, n_cond)
    for row in table:
        betas, p, n_cond = expected[(row["basis"], int(row["detector"]))]
        k = betas.index(float(row["beta"]))
        err = math.sqrt(p[k] * (1 - p[k]) / n_cond[k])
        _require(abs(float(row["p"]) - p[k]) <= 1e-12 and abs(float(row["error"]) - err) <= 1e-12,
                 "fringe_table", f"row {row} against p={p[k]!r}, error={err!r}")

    fits = _read_json(prefix + ".metrics.json")["fits"]
    v_true = model.closed_form_observables(noise[0], noise[1], noise[2])[0]
    for (basis, det), (betas, p, n_cond) in sorted(expected.items()):
        v = fits[basis][f"apd{det}"]["visibility"]
        band = SIGMA_BAND * model.fringe_visibility_sigma(betas, n_cond)
        _require(abs(v - v_true) <= band, "visibility_band",
                 f"{basis} apd{det}: {v:.4f} against exact {v_true:.4f} +- {band:.4f}")
        own = model.fit_fringe(betas, p)
        _require(abs(v - own) <= 1e-9, "refit", f"{basis} apd{det}: {v!r}, refit {own!r}")


def scan_fringes(seed, input_dir):
    """`scan` (18 points x 2 bases x 300 trials) over seeds and three noise settings."""
    seeds = workload_rng(seed, "scan_fringes").integers(0, 2**31 - 1, size=SCAN_OPS)
    ops = []
    for k, s in enumerate(seeds):
        noise = SCAN_NOISE[k % len(SCAN_NOISE)]
        flags = [] if k % len(SCAN_NOISE) == 0 else [
            "--depolarizing", repr(noise[0]), "--dephasing", repr(noise[1]),
            "--eps01", repr(noise[2]), "--eps10", repr(noise[2])]
        ops.append(Op(f"seed={s} noise={noise}", ["--seed", str(s), "--out", "{out}", "scan", *flags],
                      lambda prefix, noise=noise: check_scan(prefix, noise), items=2 * SCAN_POINTS))
    return Workload(ops, nominal_round_s=2.0)


# ----------------------------------------------------------------------
# calibrate_targets
# ----------------------------------------------------------------------

# (vx, vy, fidelity) on every branch of the model. Two are slow today (about
# 4.5 s, Nelder-Mead wandering along the in-band family); the other five
# take about 1 s, so the median latency stays in the fast mode.
CALIBRATION_TARGETS = (
    (0.9, 0.9, 0.93),       # inside the band, slow
    (0.8, 0.82, 0.88),      # inside the band
    (0.85, 0.87, 0.875),    # below the band: the demonstrated source
    (0.78, 0.78, 0.9),      # above the band
    (1.0, 1.0, 1.0),        # the perfect point
    (0.95, 0.93, 0.96),     # inside the band; the solver stops 5e-3 short of the mean visibility
)
# Target -> the check it fails on every run because of a fault in the program:
# calibrate_noise returns mean visibility 0.9452 for the reachable target 0.94.
KNOWN_FAULTS = {(0.95, 0.93, 0.96): "visibility_rule"}


def band_of(vx, vy, f):
    vbar = (vx + vy) / 2
    if f < (1 + 3 * vbar) / 4:
        return "below"
    if f > (1 + vbar) / 2:
        return "above"
    return "in"


def check_calibrate(prefix, targets):
    out = _read_json(prefix + ".noise.json")
    vx, vy, f = targets
    _require(out["targets"] == {"vx": vx, "vy": vy, "fidelity": f}, "targets",
             f"echoed {out['targets']}")
    noise = out["noise"]
    _require(noise["eps01"] == noise["eps10"], "closed_form",
             f"asymmetric readout confusion {noise['eps01']!r} / {noise['eps10']!r}")
    v_cf, f_cf = model.closed_form_observables(noise["depolarizing"], noise["dephasing"], noise["eps01"])
    for name, value in (("vx", v_cf), ("vy", v_cf), ("fidelity", f_cf)):
        _require(abs(out["achieved"][name] - value) <= 1e-9, "closed_form",
                 f"achieved {name} {out['achieved'][name]!r}, closed form {value!r}")
    _require(abs(f_cf - f) <= 1e-3, "fidelity_target", f"fidelity {f_cf!r} for target {f!r}")
    band = band_of(vx, vy, f)
    if band == "in":
        _require(abs(v_cf - (vx + vy) / 2) <= 1e-3, "visibility_rule",
                 f"in band: visibility {v_cf!r}, target mean {(vx + vy) / 2!r}")
    else:
        frontier = (4 * f_cf - 1) / 3 if band == "below" else 2 * f_cf - 1
        _require(abs(v_cf - frontier) <= 1e-6, "visibility_rule",
                 f"{band} the band: visibility {v_cf!r} off the frontier {frontier!r}")


def calibrate_targets(seed, input_dir):
    """`calibrate` over the fixed targets, in an order drawn from the seed."""
    order = workload_rng(seed, "calibrate_targets").permutation(len(CALIBRATION_TARGETS))
    ops = []
    for k in order:
        t = CALIBRATION_TARGETS[k]
        ops.append(Op(f"targets={t} ({band_of(*t)})",
                      ["--out", "{out}", "calibrate", "--vx", repr(t[0]), "--vy", repr(t[1]),
                       "--fidelity", repr(t[2])],
                      lambda prefix, t=t: check_calibrate(prefix, t), items=1,
                      known_fault=KNOWN_FAULTS.get(t)))
    return Workload(ops, nominal_round_s=10.5)


WORKLOADS = {
    "tomo_bootstrap": tomo_bootstrap,
    "tomo_ingest": tomo_ingest,
    "scan_fringes": scan_fringes,
    "calibrate_targets": calibrate_targets,
}
