"""Command-line pipeline: scan, tomo, calibrate, plan.

Configuration is a flat key-value text file (``key = value`` lines; a ``#``
at a line's start or after a blank opens a comment); command-line flags
override file values. Angles are radians, times seconds. Each command
computes and renders all of its outputs (<prefix>.counts.csv and its
.counts.meta.json, .fringes.csv, .state.json, .metrics.json, .noise.json,
.plan.json), then commits them at once: they land together or not at all,
and a failed command leaves the files already at its prefix as they were.
Outputs are bit-identical for a fixed config and seed on one numpy/BLAS
build; another build or BLAS kernel may add in another order. The counts
files stay byte-identical; on ordinary data the fitted numbers move by at
most about 1e-12 (log-likelihoods) and 1e-15 (states and metrics), and on
flat likelihoods the state by up to about 1e-10.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .artifacts import commit, json_text
from .calibrate import calibrate_noise
from .measurement import (
    ATOM_SX,
    ATOM_SY,
    MAX_COUNT,
    MeasurementSetting,
    PhotonSetting,
    check_integer,
    counts_files,
    read_counts_csv,
    simulate_settings,
)
from .metrics import (
    chsh_max,
    fidelity_to_target,
    fit_fringe,
    fringe_scans,
    negativity,
    purity,
)
from .planner import ExperimentPlan, build_plan
from .states import NoiseModel, ideal_state
from .tomography import (
    TomographySet,
    bootstrap_metrics,
    mle_reconstruct,
    simulate_tomography,
    state_payload,
)

# Noise preset reproducing the demonstrated source: depolarizing weight
# 0.14 gives exact fringe visibility 0.86 in both analysis bases.
DEFAULT_NOISE = NoiseModel(depolarizing=0.14)

ATOM_BASES = {"sx": ATOM_SX, "sy": ATOM_SY}


def parse_config(path):
    """{key: (line number, raw value)}; each known key at most once. The file
    is UTF-8; a byte-order mark is allowed."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    cfg = {}
    for lineno, raw in enumerate(lines, 1):
        # a '#' opens a comment at the line's start or after a space or tab
        line = (" " + raw).replace("\t#", " #").split(" #", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in cfg:
            raise ValueError(f"{path}:{lineno}: config key {key!r} repeated, "
                             f"first set on line {cfg[key][0]}")
        cfg[key] = (lineno, value)
    return cfg


def _merged(args, keys):
    """Config-file values overridden by any explicitly passed flags."""
    cfg = parse_config(args.config) if args.config else {}
    out = {}
    for key, caster, default in keys:
        if getattr(args, key, None) is not None:
            out[key] = getattr(args, key)
        elif key in cfg:
            lineno, value = cfg[key]
            try:
                out[key] = caster(value)
            except ValueError:
                raise ValueError(f"{args.config}:{lineno}: {key} = {value!r} is not "
                                 f"a valid {caster.__name__}") from None
        else:
            out[key] = default
    return out


# (key, type, default) of each command. A key is both the flag
# --<key with dashes> and the config key <key>.
_NOISE_KEYS = tuple((f.name, float, getattr(DEFAULT_NOISE, f.name)) for f in fields(NoiseModel))
_SCAN_KEYS = _NOISE_KEYS + (
    ("n_points", int, 18),
    ("n_per_point", int, 300),
    ("bases", str, "sx,sy"),
)
# the keys only a simulated tomo reads: an --input fit uses none of them
_SIMULATION_KEYS = _NOISE_KEYS + (("n_per_setting", int, 300),)
_TOMO_KEYS = _SIMULATION_KEYS + (("bootstrap", int, 250), ("input", str, None))
_CALIBRATE_KEYS = (
    ("vx", float, 0.85),
    ("vy", float, 0.87),
    ("fidelity", float, 0.875),
)
_PLAN_KEYS = tuple((f.name, float, f.default) for f in fields(ExperimentPlan))
# help text of the flags that have one
_FLAG_HELP = {
    "bases": "e.g. sx,sy",
    "bootstrap": "bootstrap replicas: 0 disables, else at least 2",
    "input": "ingest a counts CSV",
}


def _noise(params):
    return NoiseModel(**{key: params[key] for key, _, _ in _NOISE_KEYS})


def cmd_scan(args, params):
    noise = _noise(params)
    bases = [b.strip() for b in params["bases"].split(",")]
    unknown = [b for b in bases if b not in ATOM_BASES]
    if unknown:
        raise ValueError(f"unknown atomic bases: {unknown}; choose from sx, sy")
    if len(set(bases)) != len(bases):
        raise ValueError(f"bases must list distinct atomic bases (sx, sy), "
                         f"got {params['bases']!r}")
    n_points = check_integer("n_points", params["n_points"], 4)
    if check_integer("n_per_point", params["n_per_point"], 1) > MAX_COUNT:
        raise ValueError(f"n_per_point must be at most 2**53, got {params['n_per_point']}")
    betas = [k * math.pi / n_points for k in range(n_points)]

    settings = [MeasurementSetting(atom=ATOM_BASES[b], photon=PhotonSetting(beta=beta))
                for b in bases for beta in betas]
    dataset = simulate_settings(ideal_state(), settings, params["n_per_point"],
                                noise=noise, seed=args.seed, exact=args.exact)
    dataset.metadata["betas"] = betas
    dataset.metadata["bases"] = bases

    # records are basis-major, as the settings were listed
    counts = dataset.records.reshape(len(bases), n_points, 4)
    fits = {}
    # the rows csv.writer would write: no field needs quoting, CRLF ends each row
    fringes = ["basis,detector,beta,p,error\r\n"]
    for b, rows in zip(bases, counts):
        p, events = fringe_scans(rows)
        errors = np.sqrt(p * (1 - p) / events)   # NaN, like p, where there are no events
        fits[b] = {}
        for d in range(2):
            seen = events[:, d] > 0   # a point without events drops out of the fit
            try:
                fit = fit_fringe(np.asarray(betas)[seen], p[seen, d])
            except ValueError as exc:
                raise ValueError(f"{b} APD{d + 1} fringe, events at {np.count_nonzero(seen)} "
                                 f"of {n_points} scan points: {exc}") from None
            fits[b][f"apd{d + 1}"] = asdict(fit)
            fringes += [f"{b},{d + 1},{beta:.17g},,\r\n" if math.isnan(p_k)
                        else f"{b},{d + 1},{beta:.17g},{p_k:.17g},{err:.17g}\r\n"
                        for beta, p_k, err in zip(betas, p[:, d].tolist(), errors[:, d].tolist())]

    commit({
        **counts_files(dataset, args.out + ".counts.csv"),
        args.out + ".fringes.csv": "".join(fringes),
        args.out + ".metrics.json": json_text({
            "command": "scan",
            "seed": args.seed,
            "exact": args.exact,
            "noise": asdict(noise),
            "n_points": n_points,
            "n_per_point": params["n_per_point"],
            "fits": fits,
        }),
    })
    for b in bases:
        for det in ("apd1", "apd2"):
            print(f"{b} {det}: visibility = {fits[b][det]['visibility']:.4f}")
    return 0


def cmd_tomo(args, params):
    if params["bootstrap"] < 0 or params["bootstrap"] == 1:   # a spread needs 2 replicas
        raise ValueError(f"bootstrap must be 0 (disabled) or >= 2, got {params['bootstrap']}")
    if params["input"] == "":
        raise ValueError("input must name a counts CSV, got an empty path")
    if params["input"] is not None:
        # the simulation flags would be dropped, so they are refused; config
        # values stay, since one file serves every command
        dropped = [f"--{key.replace('_', '-')}" for key, _, _ in _SIMULATION_KEYS
                   if getattr(args, key) is not None]
        if dropped:
            raise ValueError(f"--input reads its counts from a file and would ignore "
                             f"the simulation flags given: {', '.join(dropped)}")
        dataset = read_counts_csv(params["input"])
        files = {}
    else:
        dataset = simulate_tomography(ideal_state(), params["n_per_setting"],
                                      noise=_noise(params), seed=args.seed, exact=args.exact)
        files = counts_files(dataset, args.out + ".counts.csv")

    ts = TomographySet.from_dataset(dataset)
    rho_hat, report = mle_reconstruct(ts)

    metrics = {
        "fidelity": fidelity_to_target(rho_hat),
        "negativity": negativity(rho_hat),
        "purity": purity(rho_hat),
        "chsh_max": chsh_max(rho_hat),
        "fit_report": asdict(report),
    }
    # the data decide: `--input` counts carry their own mode, whatever --exact says
    if params["bootstrap"] > 0 and ts.exact:
        print(f"note: bootstrap = {params['bootstrap']} skipped: expected counts "
              "have no sampling spread", file=sys.stderr)
    elif params["bootstrap"] > 0:
        metrics["bootstrap"] = bootstrap_metrics(
            rho_hat, ts, n_replicas=params["bootstrap"], seed=args.seed)
    files[args.out + ".state.json"] = json_text(state_payload(rho_hat, report))
    files[args.out + ".metrics.json"] = json_text({"command": "tomo", "seed": args.seed,
                                                   "exact": ts.exact, **metrics})
    commit(files)

    print("reconstructed state, real part:")
    for row in np.real(rho_hat):
        print("  " + "  ".join(f"{x:+.4f}" for x in row))
    print(f"fidelity   = {metrics['fidelity']:.4f}")
    print(f"negativity = {metrics['negativity']:.4f}")
    print(f"purity     = {metrics['purity']:.4f}")
    print(f"chsh_max   = {metrics['chsh_max']:.4f}")
    return 0


def cmd_calibrate(args, params):
    result = calibrate_noise(params["vx"], params["vy"], params["fidelity"])
    commit({args.out + ".noise.json": json_text({
        "command": "calibrate",
        "targets": params,
        "noise": asdict(result.noise),
        "achieved": result.achieved,
        "residuals": result.residuals,
    })})
    print("# calibrated noise model (config format)")
    for key, value in asdict(result.noise).items():
        print(f"{key} = {value:.12g}")
    for key in ("vx", "vy", "fidelity"):
        print(f"# {key}: target {params[key]:.4f}, achieved {result.achieved[key]:.4f}")
    print(f"# branch: {result.branch}")
    return 0


def cmd_plan(args, params):
    plan = ExperimentPlan(**params)
    report = build_plan(plan)

    commit({args.out + ".plan.json": json_text({"plan": asdict(plan), "report": asdict(report)})})

    # (quantity, computed, the demonstrated experiment's reference figure)
    rows = [
        ("atom-atom visibility", f"{report.v_atat:.4f}", "0.74"),
        ("CHSH S", f"{report.chsh_s:.4f}", "> 2"),
        ("pair rate [1/min]", f"{report.pair_rate * 60:.3f}", "1"),
        ("pairs needed", f"{report.pairs_needed}", "7000"),
        ("duration [days]", f"{report.duration / 86400:.2f}", "12"),
        ("collapse probability", f"{report.collapse_probability:.5f}", "> 0.99"),
        ("min separation [m]", f"{report.min_separation:.1f}", "150"),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"{'quantity':{width}}  {'computed':>12}  {'reference':>10}")
    for name, computed, reference in rows:
        print(f"{name:{width}}  {computed:>12}  {reference:>10}")
    return 0


# command -> (function, help line, keys)
_COMMANDS = {
    "scan": (cmd_scan, "simulate correlation-fringe scans", _SCAN_KEYS),
    "tomo": (cmd_tomo, "simulate or ingest tomography data and reconstruct", _TOMO_KEYS),
    "calibrate": (cmd_calibrate, "fit noise parameters to target observables", _CALIBRATE_KEYS),
    "plan": (cmd_plan, "Bell-test feasibility report", _PLAN_KEYS),
}
# One config file may serve every command, so a key is known if any command reads it.
_CONFIG_KEYS = {key for _, _, keys in _COMMANDS.values() for key, _, _ in keys}


@functools.cache
def build_parser():
    """The argparse tree of every command, built once per process at first use;
    every caller gets the same parser, so none may change it."""
    parser = argparse.ArgumentParser(
        prog="atomphoton",
        description="Atom-photon entanglement simulation and analysis pipeline.",
    )
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--exact", action="store_true",
                        help="expected counts instead of sampling")
    parser.add_argument("--out", type=str, default="run", help="output file prefix")
    parser.add_argument("--config", type=str, default=None, help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, keys) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_line)
        for key, caster, _ in keys:
            cmd.add_argument(f"--{key.replace('_', '-')}", dest=key, type=caster, default=None,
                             help=_FLAG_HELP.get(key))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    func, _, keys = _COMMANDS[args.command]
    params = {}
    try:
        check_integer("--seed", args.seed, 0)
        # "", "d/" or "d/." would write hidden files such as d/.plan.json
        if os.path.basename(args.out) in ("", ".", ".."):
            raise ValueError(f"--out must end in a file name prefix, got {args.out!r}")
        params = _merged(args, keys)
        return func(args, params)
    # a refused input, a file fault or a request too large for memory ends in one
    # error line, with nothing written; an interrupt or a bug propagates
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:   # named by the command's size fields, the integer keys it used:
        # --input simulates nothing, so the simulation keys drop out
        used = [k for k in keys if not (params.get("input") and k in _SIMULATION_KEYS)]
        sizes = ", ".join(f"{key} = {params[key]}" for key, caster, _ in used
                          if caster is int and key in params)
        detail = (f" at {sizes}" if sizes else "") + (f" ({exc})" if str(exc) else "")
        print(f"error: {args.command}: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
