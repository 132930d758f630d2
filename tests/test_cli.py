"""End-to-end CLI behavior: artifacts, determinism, error handling."""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from atomphoton import cli
from atomphoton.artifacts import commit
from atomphoton.cli import main
from atomphoton.measurement import (
    AtomSetting,
    Dataset,
    MeasurementSetting,
    PhotonSetting,
    counts_files,
    outcome_operators,
    outcome_probabilities,
    read_counts_csv,
)
from atomphoton.metrics import fit_fringe, fringe_scans
from atomphoton.states import NoiseModel, ideal_state
from atomphoton.tomography import canonical_settings, simulate_tomography


def read_json(path):
    return json.loads(Path(path).read_text())


def read_state_json(path):
    payload = read_json(path)
    return np.array(payload["real"]) + 1j * np.array(payload["imag"])


class TestScan:
    def test_default_scan_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["--seed", "4", "--out", out, "scan"]) == 0
        for suffix in (".counts.csv", ".counts.meta.json", ".fringes.csv", ".metrics.json"):
            assert os.path.exists(out + suffix)
        metrics = read_json(out + ".metrics.json")
        for basis in ("sx", "sy"):
            for det in ("apd1", "apd2"):
                v = metrics["fits"][basis][det]["visibility"]
                assert 0.78 <= v <= 0.94   # near the calibrated 0.86 at n=300

    def test_exact_mode_matches_analytic(self, tmp_path):
        out = str(tmp_path / "exact")
        assert main(["--exact", "--out", out, "scan"]) == 0
        metrics = read_json(out + ".metrics.json")
        for basis in ("sx", "sy"):
            for det in ("apd1", "apd2"):
                assert abs(metrics["fits"][basis][det]["visibility"] - 0.86) < 1e-6

    def test_same_seed_identical_bytes(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["--seed", "9", "--out", out1, "scan"]) == 0
        assert main(["--seed", "9", "--out", out2, "scan"]) == 0
        for suffix in (".counts.csv", ".fringes.csv", ".metrics.json"):
            assert Path(out1 + suffix).read_bytes() == Path(out2 + suffix).read_bytes()
        for out in (out1, out2):
            assert main(["--seed", "9", "--out", out + "t", "tomo", "--bootstrap", "20"]) == 0
        assert "bootstrap" in read_json(out1 + "t.metrics.json")
        for suffix in (".counts.csv", ".counts.meta.json", ".state.json", ".metrics.json"):
            assert Path(out1 + "t" + suffix).read_bytes() == Path(out2 + "t" + suffix).read_bytes()

    def test_five_word_seed_draws_as_seed_sequence(self, tmp_path):
        """A seed of five 32-bit words: record k is the multinomial draw that
        numpy's SeedSequence(entropy=seed, spawn_key=(k,)) gives, and the
        metrics echo the seed as the integer."""
        seed = 2**130 + 5
        out = str(tmp_path / "wide")
        assert main(["--seed", str(seed), "--out", out, "scan"]) == 0
        ds = read_counts_csv(out + ".counts.csv")
        probs = outcome_probabilities(ideal_state(), outcome_operators(ds.settings),
                                      NoiseModel(**ds.metadata["noise"]))
        probs /= probs.sum(axis=1, keepdims=True)
        for k, (record, p) in enumerate(zip(ds.records, probs)):
            oracle = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
            assert np.array_equal(record, oracle.multinomial(300, p))
        assert len(ds.records) == 36
        assert read_json(out + ".metrics.json")["seed"] == seed

    def test_counts_round_trip(self, tmp_path):
        out = str(tmp_path / "rt")
        assert main(["--seed", "2", "--out", out, "scan"]) == 0
        ds = read_counts_csv(out + ".counts.csv")
        assert len(ds.records) == 36   # 18 points x 2 bases
        assert ds.metadata["seed"] == 2

    def test_low_count_points_drop_out(self, tmp_path):
        out = str(tmp_path / "low")
        assert main(["--seed", "0", "--out", out, "scan", "--n-per-point", "1"]) == 0
        records = read_counts_csv(out + ".counts.csv").records.reshape(2, 18, 4)
        with open(out + ".fringes.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        fits = read_json(out + ".metrics.json")["fits"]
        empty = 0
        for b, rows in zip(("sx", "sy"), records):
            for d in (1, 2):
                lines = [r for r in table if r["basis"] == b and r["detector"] == str(d)]
                assert len(lines) == 18
                events = rows[:, d - 1] + rows[:, d + 1]
                for line, n in zip(lines, events):
                    assert (line["p"] == "" and line["error"] == "") == (n == 0)
                kept = [(float(r["beta"]), float(r["p"])) for r in lines if r["p"]]
                empty += 18 - len(kept)
                assert fits[b][f"apd{d}"] == dataclasses.asdict(fit_fringe(*zip(*kept)))
        assert empty == 36   # one trial per point: an event on exactly one detector

    def test_too_few_points_with_events_named(self, tmp_path, refused):
        err = refused(["--seed", "0", "--out", str(tmp_path / "few"), "scan", "--n-per-point", "1",
                       "--n-points", "5"], "sx APD1 fringe, events at 3 of 5 scan points")
        assert "at least 4 points" in err

    def test_refused_scan_keeps_earlier_files(self, tmp_path, refused):
        """A scan refused at the prefix of an earlier scan leaves that scan's
        four files as they were, and no temporary file."""
        out = str(tmp_path / "x")
        assert main(["--out", out, "scan"]) == 0
        assert len(list(tmp_path.iterdir())) == 4
        refused(["--seed", "0", "--out", out, "scan", "--n-points", "4", "--n-per-point", "1"],
                "fringe")

    def test_invalid_basis_rejected(self, tmp_path, refused):
        refused(["--out", str(tmp_path / "bad"), "scan", "--bases", "sz"], "unknown atomic bases")


def writer_counts(dataset):
    """The counts CSV of a dataset as csv.writer renders its rows."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["theta", "phi", "beta", "n_f2_apd1", "n_f2_apd2", "n_f1_apd1", "n_f1_apd2",
                "photon_basis"])
    for s, counts in zip(dataset.settings, dataset.records.tolist()):
        w.writerow([f"{x:.17g}" for x in (s.atom.theta, s.atom.phi, s.photon.beta, *counts)]
                   + ["circular" if s.photon.circular else "linear"])
    return buf.getvalue()


def writer_fringes(dataset, bases):
    """A scan's fringe table as csv.writer renders its rows: basis, detector,
    beta, and p with its binomial error, two empty cells where no event fell."""
    betas = dataset.metadata["betas"]
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["basis", "detector", "beta", "p", "error"])
    for b, rows in zip(bases, dataset.records.reshape(len(bases), len(betas), 4)):
        p, events = fringe_scans(rows)
        with np.errstate(invalid="ignore", divide="ignore"):
            errors = np.sqrt(p * (1 - p) / events)
        for d in range(2):
            for beta, p_k, err in zip(betas, p[:, d].tolist(), errors[:, d].tolist()):
                cells = ["", ""] if math.isnan(p_k) else [f"{p_k:.17g}", f"{err:.17g}"]
                w.writerow([b, d + 1, f"{beta:.17g}", *cells])
    return buf.getvalue()


def file_text(path):
    with open(path, newline="") as fh:
        return fh.read()


class TestCsvRendering:
    """The CSV artifacts equal csv.writer's rendering of the same cells, byte
    for byte: no field quoted, CRLF line endings."""

    @pytest.mark.parametrize("argv", [
        ["--seed", "0", "scan", "--n-per-point", "1"],
        ["--seed", "1", "scan", "--n-per-point", "1", "--bases", "sy,sx", "--n-points", "12"],
        ["--seed", "5", "scan", "--eps01", "0.03", "--dephasing", "0.1"],
        ["--exact", "scan", "--n-per-point", "7"],
        ["--seed", "2", "scan", "--n-per-point", str(2**53)],   # the largest count accepted
    ], ids=["one-trial", "one-trial-sy-first", "noisy", "exact", "2**53-trials"])
    def test_scan_artifacts(self, tmp_path, argv):
        out = str(tmp_path / "s")
        assert main(["--out", out, *argv]) == 0
        ds = read_counts_csv(out + ".counts.csv")   # the 17-digit text reads back losslessly
        assert file_text(out + ".counts.csv") == writer_counts(ds)
        fringes = file_text(out + ".fringes.csv")
        assert fringes == writer_fringes(ds, ds.metadata["bases"])
        if "1" in argv:   # one trial per point leaves each point without events on one detector
            assert fringes.count(",,\r\n") == len(ds.settings)

    def test_ingested_negative_angles_and_circular_rows(self, tmp_path):
        path = str(tmp_path / "lab.counts.csv")
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(
                [["theta", "phi", "beta", "n_f2_apd1", "n_f2_apd2", "n_f1_apd1", "n_f1_apd2",
                  "photon_basis"],
                 [-0.7853981633974483, -1.5707963267948966, -0.0, 3, 0, 1, 2, "linear"],
                 [-2.5e-17, 0.0, -6.283185307179586, 0, 0, 0, 9, "circular"],
                 [1e-300, -3.1, 0.3, 1, 1, 1, 1, "circular"],
                 ["-1", "-2", "-3", "10", "20", "30", "40", "linear"]])
        ds = read_counts_csv(path)
        text = counts_files(ds, path)[path]
        assert text == writer_counts(ds)
        assert "-0," in text and ",circular\r\n" in text

    def test_exact_fractional_counts(self, tmp_path):
        ds = simulate_tomography(ideal_state(), 2.5, noise=NoiseModel(depolarizing=0.3),
                                 exact=True)
        assert np.any(ds.records % 1)
        path = str(tmp_path / "x.counts.csv")
        assert counts_files(ds, path)[path] == writer_counts(ds)


class TestTomo:
    def test_ideal_exact(self, tmp_path):
        out = str(tmp_path / "ideal")
        assert main(["--exact", "--out", out, "tomo",
                     "--depolarizing", "0", "--dephasing", "0"]) == 0
        metrics = read_json(out + ".metrics.json")
        assert abs(metrics["fidelity"] - 1.0) < 1e-6
        assert abs(metrics["negativity"] - 0.5) < 1e-4

    def test_werner_exact(self, tmp_path):
        out = str(tmp_path / "werner")
        assert main(["--exact", "--out", out, "tomo",
                     "--depolarizing", "0.14", "--dephasing", "0"]) == 0
        metrics = read_json(out + ".metrics.json")
        assert abs(metrics["fidelity"] - 0.895) < 1e-4
        assert abs(metrics["negativity"] - 0.395) < 1e-4

    def test_state_json_round_trip(self, tmp_path):
        out = str(tmp_path / "state")
        assert main(["--seed", "5", "--out", out, "tomo", "--bootstrap", "0"]) == 0
        rho = read_state_json(out + ".state.json")
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-9
        payload = read_json(out + ".state.json")
        assert "basis" in payload
        assert payload["fit_report"]["converged"]

    def test_real_part_table_printed(self, tmp_path, capsys):
        out = str(tmp_path / "tbl")
        assert main(["--exact", "--out", out, "tomo"]) == 0
        text = capsys.readouterr().out
        assert "real part" in text
        assert "+0.4650" in text   # corner entry of the exact Werner(0.86) pattern

    def test_bootstrap_error_bars(self, tmp_path):
        out = str(tmp_path / "boot")
        assert main(["--seed", "1", "--out", out, "tomo", "--bootstrap", "12"]) == 0
        metrics = read_json(out + ".metrics.json")
        assert "bootstrap" in metrics
        assert metrics["bootstrap"]["fidelity"]["std"] > 0

    def test_exact_mode_bootstrap_skip_reported(self, tmp_path, capsys):
        plain, boot = str(tmp_path / "plain"), str(tmp_path / "boot")
        assert main(["--exact", "--out", plain, "tomo", "--bootstrap", "0"]) == 0
        assert capsys.readouterr().err == ""
        assert main(["--exact", "--out", boot, "tomo", "--bootstrap", "5"]) == 0
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "bootstrap" in err and "sampling spread" in err
        for suffix in (".counts.csv", ".state.json", ".metrics.json"):
            assert Path(plain + suffix).read_bytes() == Path(boot + suffix).read_bytes()

    def test_bootstrap_skip_follows_the_data_not_the_flag(self, tmp_path, capsys):
        """`tomo --input` reads the data's mode from the counts sidecar:
        expected counts skip the bootstrap without --exact, sampled counts
        get it with --exact, and metrics.json records the data's mode."""
        exact_src, sampled_src = str(tmp_path / "exact_src"), str(tmp_path / "sampled_src")
        assert main(["--exact", "--out", exact_src, "tomo", "--bootstrap", "0"]) == 0
        assert main(["--seed", "3", "--out", sampled_src, "tomo", "--bootstrap", "0"]) == 0
        capsys.readouterr()

        out = str(tmp_path / "exact_in")
        assert main(["--out", out, "tomo", "--bootstrap", "4",
                     "--input", exact_src + ".counts.csv"]) == 0
        assert "sampling spread" in capsys.readouterr().err
        metrics = read_json(out + ".metrics.json")
        assert metrics["exact"] is True and "bootstrap" not in metrics

        out = str(tmp_path / "sampled_in")
        assert main(["--exact", "--out", out, "tomo", "--bootstrap", "4",
                     "--input", sampled_src + ".counts.csv"]) == 0
        assert capsys.readouterr().err == ""
        metrics = read_json(out + ".metrics.json")
        assert metrics["exact"] is False
        assert metrics["bootstrap"]["fidelity"]["std"] > 0

    def test_negative_bootstrap_flag_rejected(self, tmp_path, refused):
        refused(["--out", str(tmp_path / "neg"), "tomo", "--bootstrap", "-5"], "bootstrap")

    def test_negative_bootstrap_config_rejected(self, tmp_path, refused):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("bootstrap = -2\n")
        refused(["--config", str(cfg), "--out", str(tmp_path / "neg"), "tomo"], "bootstrap")

    def test_ingest_external_counts(self, tmp_path):
        src = str(tmp_path / "src")
        assert main(["--seed", "3", "--out", src, "tomo", "--bootstrap", "0"]) == 0
        out = str(tmp_path / "ingest")
        assert main(["--out", out, "tomo", "--bootstrap", "0",
                     "--input", src + ".counts.csv"]) == 0
        m_src = read_json(src + ".metrics.json")
        m_out = read_json(out + ".metrics.json")
        assert abs(m_src["fidelity"] - m_out["fidelity"]) < 1e-9

    @pytest.mark.parametrize("argv, flag", [
        (["--n-per-setting", "5"], "--n-per-setting"),
        (["--depolarizing", "0.9"], "--depolarizing"),
        (["--dephasing", "0.2"], "--dephasing"),
        (["--eps01", "0.3"], "--eps01"),
        (["--eps10", "0.3"], "--eps10"),
    ])
    def test_simulation_flags_refused_with_input(self, tmp_path, refused, argv, flag):
        """`--input` counts ignore every simulation flag, so one passed beside
        it is an error that names it (and any other passed), with no artifact."""
        src = str(tmp_path / "src")
        assert main(["--seed", "3", "--out", src, "tomo", "--bootstrap", "0"]) == 0
        out = str(tmp_path / "in")
        assert refused(["--out", out, "tomo", "--bootstrap", "0", "--input", src + ".counts.csv",
                        *argv], flag).startswith("error: --input ")
        assert "--eps10" in refused(["--out", out, "tomo", "--input", src + ".counts.csv",
                                     "--eps10", "0", *argv], flag)

    def test_config_simulation_values_accepted_with_input(self, tmp_path):
        """One config file serves every command, so its simulation values do
        not stop a fit of `--input` counts."""
        src = str(tmp_path / "src")
        assert main(["--seed", "3", "--out", src, "tomo", "--bootstrap", "0"]) == 0
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("depolarizing = 0.5\nn_per_setting = 0\nbootstrap = 0\n")
        out = str(tmp_path / "in")
        assert main(["--config", str(cfg), "--out", out, "tomo",
                     "--input", src + ".counts.csv"]) == 0
        assert (tmp_path / "in.state.json").read_bytes() == \
            (tmp_path / "src.state.json").read_bytes()

    def test_incomplete_settings_named(self, tmp_path, refused):
        src = str(tmp_path / "full")
        assert main(["--seed", "3", "--out", src, "tomo", "--bootstrap", "0"]) == 0
        lines = Path(src + ".counts.csv").read_text().splitlines()
        # drop the atomic-y / photonic-z row (row order follows the label order)
        trimmed = [l for i, l in enumerate(lines) if i != 6]
        broken = str(tmp_path / "broken.counts.csv")
        Path(broken).write_text("\n".join(trimmed) + "\n")
        refused(["--out", str(tmp_path / "rec"), "tomo", "--input", broken],
                "error: the settings leave the Pauli coefficients yz undetermined")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_input_refused(self, tmp_path, refused, source):
        """An empty `input` is an error naming it, not a simulated run."""
        out = str(tmp_path / "empty")
        if source == "flag":
            argv = ["--out", out, "tomo", "--input", ""]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("input =\n")
            argv = ["--config", str(cfg), "--out", out, "tomo"]
        assert refused(argv, "input ").startswith("error: input ")

    def test_scan_counts_rejected_by_record(self, tmp_path, refused):
        scan = str(tmp_path / "scan")
        assert main(["--seed", "1", "--out", scan, "scan"]) == 0
        # sigma_x and sigma_y atoms with linear photons: rank 9, nothing of z
        err = refused(["--out", str(tmp_path / "tomo"), "tomo", "--input", scan + ".counts.csv"],
                      "design rank 9")
        assert err == ("error: the settings leave the Pauli coefficients iz, xz, yz, zi, zx, zy, "
                       "zz undetermined (design rank 9)")


class TestCalibrateCmd:
    def test_trivial_targets(self, tmp_path):
        out = str(tmp_path / "cal0")
        assert main(["--out", out, "calibrate",
                     "--vx", "1", "--vy", "1", "--fidelity", "1"]) == 0
        payload = read_json(out + ".noise.json")
        assert payload["noise"]["depolarizing"] < 1e-6

    def test_demonstrated_targets(self, tmp_path, capsys):
        out = str(tmp_path / "cal")
        assert main(["--out", out, "calibrate"]) == 0
        payload = read_json(out + ".noise.json")
        assert abs(payload["achieved"]["fidelity"] - 0.875) < 1e-3
        text = capsys.readouterr().out
        assert "depolarizing =" in text   # config-format echo

    def test_infeasible_targets_exit_nonzero(self, tmp_path, refused):
        refused(["--out", str(tmp_path / "bad"), "calibrate",
                 "--vx", "0.9", "--vy", "0.9", "--fidelity", "0.5"], "frontier")


class TestPlanCmd:
    def test_default_plan(self, tmp_path, capsys):
        out = str(tmp_path / "plan")
        assert main(["--out", out, "plan"]) == 0
        payload = read_json(out + ".plan.json")
        assert abs(payload["report"]["v_atat"] - 0.7396) < 1e-9
        assert payload["report"]["collapse_probability"] > 0.99
        text = capsys.readouterr().out
        assert "reference" in text

    def test_subthreshold_exit_nonzero(self, tmp_path, refused):
        refused(["--out", str(tmp_path / "sub"), "plan", "--v-atph", "0.5"], "no violation")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [key for key, _, _ in cli._PLAN_KEYS])
    def test_non_finite_field_named(self, tmp_path, refused, field, value):
        refused(["--out", str(tmp_path / "nf"), "plan", f"--{field.replace('_', '-')}={value}"],
                f"{field} must be a finite number")

    @pytest.mark.parametrize("flags, field", [
        (["--n-lifetimes", "1e308", "--lifetime-tau", "10"], "min_separation"),
        (["--rep-rate", "1e-300"], "duration"),
        (["--target-sigmas", "1e200"], "pairs_needed"),
    ])
    def test_overflowing_report_field_named(self, tmp_path, refused, flags, field):
        refused(["--out", str(tmp_path / "of"), "plan", *flags], f"{field} overflows")

    @pytest.mark.parametrize("flags, message", [
        (["--eta-ph", "0"], "eta_ph must lie in (0, 1], got 0.0"),
        (["--p-bsm", "0"], "p_bsm must lie in (0, 1], got 0.0"),
        (["--transmission", "0"], "transmission must lie in (0, 1], got 0.0"),
        (["--duty", "0"], "duty must lie in (0, 1], got 0.0"),
        (["--target-sigmas", "0"], "target_sigmas must be positive, got 0.0"),
        (["--eta-ph", "1e-200"], "pair_rate underflows to 0"),
    ])
    def test_zero_rate_field_named(self, tmp_path, refused, flags, message):
        refused(["--out", str(tmp_path / "zr"), "plan", *flags], f"error: {message}")

    @pytest.mark.parametrize("field, value, rule", [
        ("v_atph", "1.5", "lie in [0, 1]"),
        ("bsm_fidelity", "1.5", "lie in [0, 1]"),
        ("rep_rate", "0", "be positive"),
        ("lifetime_tau", "0", "be positive"),
        ("t_stirap", "-1e-6", "be non-negative"),
        ("n_lifetimes", "-1", "be non-negative"),
        ("measurement_window", "-1e-6", "be non-negative"),
    ])
    def test_out_of_range_field_named(self, tmp_path, refused, field, value, rule):
        """`ExperimentPlan` is the one gate on every field: the helpers
        `build_plan` calls do not check them again."""
        refused(["--out", str(tmp_path / "or"), "plan", f"--{field.replace('_', '-')}={value}"],
                f"error: {field} must {rule}, got {float(value)}")


class TestConfigFile:
    def test_config_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# scan configuration\n"
            "depolarizing = 0.2\n"
            "n_points = 9\n"
            "n_per_point = 120\n"
            "bases = sx\n"
        )
        out = str(tmp_path / "cfg")
        assert main(["--config", str(cfg), "--seed", "8", "--out", out, "scan"]) == 0
        ds = read_counts_csv(out + ".counts.csv")
        assert len(ds.records) == 9
        assert ds.records[0].sum() == 120
        assert ds.metadata["noise"]["depolarizing"] == 0.2
        # flag overrides the file value
        out2 = str(tmp_path / "cfg2")
        assert main(["--config", str(cfg), "--seed", "8", "--out", out2, "scan",
                     "--n-points", "6"]) == 0
        assert len(read_counts_csv(out2 + ".counts.csv").records) == 6

    def test_malformed_config_rejected(self, tmp_path, refused):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("depolarizing 0.2\n")
        refused(["--config", str(cfg), "--out", str(tmp_path / "x"), "scan"], "key = value")

    def test_unknown_key_named_with_file_and_line(self, tmp_path, refused):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("n_points = 9\ndepolarising = 0.3\n")
        err = refused(["--config", str(cfg), "--out", str(tmp_path / "typo"), "scan"], f"{cfg}:2:")
        assert "depolarising" in err

    @pytest.mark.parametrize("line, command", [
        ("bootstrap = 2.5", "tomo"),
        ("n_points = ten", "scan"),
        ("vx = 0.9.1", "calibrate"),
        ("rep_rate = fast", "plan"),
    ])
    def test_unparsable_value_named_with_file_key_and_value(self, tmp_path, refused, line,
                                                            command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# values\n{line}\n")
        key, value = (part.strip() for part in line.split("="))
        refused(["--config", str(cfg), "--out", str(tmp_path / "bad"), command],
                f"{cfg}:2: {key} = {value!r} is not a valid")

    def test_repeated_key_named_with_both_lines(self, tmp_path, refused):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("depolarizing = 0.1\nn_points = 9\ndepolarizing = 0.3\n")
        refused(["--config", str(cfg), "--out", str(tmp_path / "twice"), "scan"],
                f"{cfg}:3: config key 'depolarizing' repeated, first set on line 1")

    def test_byte_order_mark_accepted(self, tmp_path):
        text = "depolarizing = 0.2\nn_points = 6\n"
        (tmp_path / "plain.cfg").write_text(text, encoding="utf-8")
        (tmp_path / "bom.cfg").write_text(text, encoding="utf-8-sig")
        for name in ("plain", "bom"):
            assert main(["--config", str(tmp_path / f"{name}.cfg"), "--seed", "4",
                         "--out", str(tmp_path / name), "scan"]) == 0
        for suffix in (".counts.csv", ".fringes.csv", ".metrics.json"):
            assert (tmp_path / f"bom{suffix}").read_bytes() == \
                (tmp_path / f"plain{suffix}").read_bytes()

    def test_undecodable_config_named(self, tmp_path, refused):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# d\xe9phasage\ndephasing = 0.1\n")
        assert refused(["--config", str(cfg), "--out", str(tmp_path / "x"), "scan"],
                       "can't decode byte 0xe9").startswith(f"error: {cfg}: ")

    def test_hash_inside_value_kept(self, tmp_path):
        """A '#' opens a comment only at a line's start or after a space or
        tab; inside a value it is part of the value."""
        (tmp_path / "d#1").mkdir()
        src = str(tmp_path / "d#1" / "x#y")
        assert main(["--seed", "3", "--out", src, "tomo", "--bootstrap", "0"]) == 0
        cfg = tmp_path / "hash.cfg"
        cfg.write_text(f"# ingest\ninput = {src}.counts.csv  # trailing comment\n"
                       "bootstrap = 0\t# after a tab\n")
        out = str(tmp_path / "fit")
        assert main(["--config", str(cfg), "--out", out, "tomo"]) == 0
        assert (tmp_path / "fit.state.json").read_bytes() == \
            (tmp_path / "d#1" / "x#y.state.json").read_bytes()

    def test_one_file_serves_every_command(self, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(
            "depolarizing = 0.2\n"      # scan and tomo
            "n_points = 6\n"            # scan
            "n_per_setting = 50\n"      # tomo
            "bootstrap = 0\n"           # tomo
            "vx = 0.86\n"               # calibrate
            "rep_rate = 5e5\n"          # plan
        )
        for command in ("scan", "tomo", "calibrate", "plan"):
            out = str(tmp_path / command)
            assert main(["--config", str(cfg), "--out", out, command]) == 0
        assert len(read_counts_csv(str(tmp_path / "scan.counts.csv")).records) == 12
        tomo = read_counts_csv(str(tmp_path / "tomo.counts.csv"))
        assert tomo.records[0].sum() == 50
        assert tomo.metadata["noise"]["depolarizing"] == 0.2
        assert "bootstrap" not in read_json(tmp_path / "tomo.metrics.json")
        assert read_json(tmp_path / "calibrate.noise.json")["targets"]["vx"] == 0.86
        assert read_json(tmp_path / "plan.plan.json")["plan"]["rep_rate"] == 5e5


# every (command, key, type, default) of the command table
TABLE = [(command, key, caster, default) for command, (_, _, keys) in cli._COMMANDS.items()
         for key, caster, default in keys]
SAMPLE = {int: "3", float: "0.25", str: "sy"}


def flag(key):
    return "--" + key.replace("_", "-")


class TestCommandTable:
    """A command's key table is the one place its options are declared: each
    key is the flag --<key with dashes> and the config key <key>."""

    @pytest.mark.parametrize("command, key, caster, default", TABLE,
                             ids=[f"{command}-{key}" for command, key, _, _ in TABLE])
    def test_flag_and_config_key_agree(self, tmp_path, command, key, caster, default):
        parser = cli.build_parser()
        keys = cli._COMMANDS[command][2]
        value = SAMPLE[caster]
        flagged = parser.parse_args([command, flag(key), value])
        assert getattr(flagged, key) == caster(value)
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key} = {value}\n")
        from_file = parser.parse_args(["--config", str(cfg), command])
        params = cli._merged(flagged, keys)
        assert cli._merged(from_file, keys) == params
        assert params == {**{k: d for k, _, d in keys}, key: caster(value)}
        assert cli._merged(parser.parse_args([command]), keys)[key] == default
        assert cli.build_parser() is parser

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_no_flag_outside_the_table(self, command):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert flags == {"-h", "--help"} | {flag(k) for k, _, _ in cli._COMMANDS[command][2]}
        assert cli._CONFIG_KEYS == {key for _, key, _, _ in TABLE}

    @pytest.mark.parametrize("command", ["scan", "tomo"])
    def test_noise_flags_are_the_noise_model_fields(self, command):
        keys = cli._COMMANDS[command][2]
        names = [f.name for f in dataclasses.fields(NoiseModel)]
        assert [key for key, _, _ in keys[:len(names)]] == names
        params = cli._merged(cli.build_parser().parse_args([command]), keys)
        assert cli._noise(params) == NoiseModel(depolarizing=0.14)


class TestFlagValidation:
    """Each bad flag fails with exit 1, an error that names it, and no artifact."""

    @pytest.mark.parametrize("argv, name", [
        (["--seed", "-1", "scan"], "--seed"),
        (["--seed", "-1", "tomo", "--bootstrap", "0"], "--seed"),
        (["tomo", "--n-per-setting", "0"], "n_per_setting"),
        (["scan", "--n-per-point", "0"], "n_per_point"),
        (["scan", "--bases", ""], "bases"),
        (["scan", "--bases", "sx,sx"], "bases"),
        (["scan", "--bases", "sx, sy,sx"], "bases"),
        (["scan", "--bases", "sx,"], "bases"),
        (["scan", "--bases", "sx,,sy"], "bases"),
        (["tomo", "--bootstrap", "1"], "bootstrap"),
        (["scan", "--n-points", "3"], "n_points"),
        (["--seed", "-1", "plan"], "--seed"),
        (["--seed", "-1", "calibrate"], "--seed"),
        (["tomo", "--n-per-setting", str(2**53 + 1), "--bootstrap", "0"], "n_per_setting"),
        (["--exact", "tomo", "--n-per-setting", str(2**53 + 1)], "n_per_setting"),
        (["scan", "--n-per-point", str(2**53 + 1)], "n_per_point"),
        (["scan", "--n-per-point", "100000000000000000000"], "n_per_point"),
    ])
    def test_rejected_and_named(self, tmp_path, refused, argv, name):
        refused(["--out", str(tmp_path / "bad"), *argv], name)

    @pytest.mark.parametrize("argv", [["plan"], ["scan"], ["tomo", "--bootstrap", "0"],
                                      ["calibrate"]])
    def test_empty_out_refused(self, tmp_path, monkeypatch, refused, argv):
        """A prefix with no file name part would write hidden files such as
        .plan.json into the working directory, or d/.plan.json and
        d/..plan.json into d."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        for out in ("", "d/", "d/.", "d/.."):
            assert refused(["--out", out, *argv], "--out ").startswith("error: --out ")


class TestOversizeRequest:
    """A request too large for memory ends in one error line that names the
    command and its size fields, with exit 1 and no artifact."""

    @pytest.mark.parametrize("target, argv, detail, message", [
        ("simulate_settings", ["scan", "--n-points", "5", "--n-per-point", "7"], "",
         "error: scan: out of memory at n_points = 5, n_per_point = 7"),
        ("bootstrap_metrics", ["tomo", "--n-per-setting", "20", "--bootstrap", "3"],
         "Unable to allocate 8.38 GiB",
         "error: tomo: out of memory at n_per_setting = 20, bootstrap = 3 "
         "(Unable to allocate 8.38 GiB)"),
    ], ids=["scan", "tomo"])
    def test_named_by_size_fields(self, tmp_path, monkeypatch, refused, target, argv, detail,
                                  message):
        def oversize(*args, **kwargs):
            raise MemoryError(detail)
        monkeypatch.setattr(cli, target, oversize)
        assert refused(["--out", str(tmp_path / "big"), *argv], message) == message

    def test_input_named_by_bootstrap_alone(self, tmp_path, monkeypatch, refused):
        """`--input` simulates nothing, so the line names no `n_per_setting`
        (its default would be named though the run never used it)."""
        csv_path = tmp_path / "ci.counts.csv"
        commit(counts_files(simulate_tomography(ideal_state(), 30, seed=7), csv_path))

        def oversize(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.38 GiB")
        monkeypatch.setattr(cli, "bootstrap_metrics", oversize)
        message = "error: tomo: out of memory at bootstrap = 5 (Unable to allocate 8.38 GiB)"
        assert refused(["--out", str(tmp_path / "big"), "tomo", "--input", str(csv_path),
                        "--bootstrap", "5"], message) == message


class TestInterruptedRun:
    def test_interrupt_in_bootstrap_leaves_no_artifact(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "bootstrap_metrics", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["--seed", "7", "--out", str(tmp_path / "run"), "tomo", "--bootstrap", "5"])
        assert list(tmp_path.iterdir()) == []


class TestCountsCsvIngest:
    def test_byte_order_mark_accepted(self, tmp_path):
        src = str(tmp_path / "src")
        assert main(["--seed", "3", "--out", src, "tomo", "--bootstrap", "0"]) == 0
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(src + ".counts.csv").read_bytes())
        out = str(tmp_path / "bom")
        assert main(["--out", out, "tomo", "--bootstrap", "0", "--input", str(bom)]) == 0
        assert Path(out + ".state.json").read_text() == Path(src + ".state.json").read_text()

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("theta,phi,beta,n_f2_apd1,n_f2_apd2,n_f1_apd1,n_f1_apd2,photon_basis\n",
         "no records"),
    ])
    def test_empty_csv_names_file(self, tmp_path, refused, text, message):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        assert str(path) in refused(["--out", str(tmp_path / "o"), "tomo", "--input", str(path)],
                                    message)

    @pytest.mark.parametrize("row, message", [
        (b"0.78\xff,0,0,10,20,30,40,linear\n", "can't decode byte 0xff"),
        (b"0,0,0,10,20,30,40," + b"x" * 131_073 + b"\n", "field larger than field limit"),
    ], ids=["non-utf8-byte", "oversized-field"])
    def test_unreadable_csv_refused(self, tmp_path, refused, row, message):
        path = tmp_path / "bad.counts.csv"
        path.write_bytes(b"theta,phi,beta,n_f2_apd1,n_f2_apd2,n_f1_apd1,n_f1_apd2,photon_basis\n"
                         + row)
        assert refused(["--out", str(tmp_path / "o"), "tomo", "--input", str(path)],
                       message).startswith(f"error: {path}: ")

    @pytest.mark.parametrize("sidecar, message", [
        ('{"exact": "false"}', "field 'exact' must be true or false, got \"false\""),
        ("[1, 2]", "expected a JSON object, got [1, 2]"),
    ], ids=["string-exact", "array"])
    def test_bad_sidecar_refused(self, tmp_path, refused, sidecar, message):
        src = str(tmp_path / "src")
        assert main(["--out", src, "tomo", "--bootstrap", "0"]) == 0
        meta = tmp_path / "src.counts.meta.json"
        meta.write_text(sidecar)
        assert refused(["--out", str(tmp_path / "o"), "tomo", "--input", src + ".counts.csv"],
                       message) == f"error: {meta}: {message}"


@pytest.fixture
def seed7(tmp_path):
    """The prefix of a `--seed 7 tomo --bootstrap 0` run in tmp_path."""
    src = str(tmp_path / "s7")
    assert main(["--seed", "7", "--out", src, "tomo", "--bootstrap", "0"]) == 0
    return src


class TestOutOfRangeCountsCsv:
    """Numbers a counts CSV or its sidecar cannot hold are refused by name,
    with one error line and no artifact."""

    @pytest.mark.parametrize("value", ["1e300", str(2**53 + 2)])
    def test_count_beyond_float_exactness_named(self, tmp_path, refused, seed7, value):
        """Cells of 1e300 fit as "converged" through an overflowing gap bound
        before they were refused."""
        big = tmp_path / "big.counts.csv"
        rewrite_counts(seed7 + ".counts.csv", big,
                       cell=lambda row, name, v: value if row == 2 else v)
        error = (f"error: {big}: row 2: counts must be four finite non-negative cells of at "
                 "most 2**53")
        assert refused(["--out", str(tmp_path / "o"), "tomo", "--input", str(big)],
                       error).startswith(error)

    def test_refused_sum_names_its_rows(self, tmp_path, refused):
        """Rows each within 2**53 whose sum at one setting is beyond it are
        refused under the rows summed."""
        settings = canonical_settings()
        path = tmp_path / "sum.counts.csv"
        commit(counts_files(Dataset(settings + settings[:1],
                                    [[2**52, 1, 1, 1]] * 9 + [[2**52 + 2, 0, 0, 0]]), path))
        error = ("error: setting 1 (rows 1 and 10 summed): counts must be four finite "
                 "non-negative cells of at most 2**53")
        assert refused(["--out", str(tmp_path / "o"), "tomo", "--input", str(path)],
                       error) == error

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_sidecar_named(self, tmp_path, refused, seed7, value):
        meta = Path(seed7 + ".counts.meta.json")
        meta.write_text(meta.read_text().replace('"exact": false', f'"exact": false, "x": {value}'))
        error = f"error: {meta}: Out of range float values are not JSON compliant"
        assert refused(["--out", str(tmp_path / "o"), "tomo", "--input", seed7 + ".counts.csv"],
                       error).startswith(error)


def rewrite_counts(src, dst, angle=None, cell=None):
    """Copy a counts CSV, passing each angle field through `angle` and each
    count field through `cell(row, name, value)`, both on the text."""
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(dst, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for k, row in enumerate(rows, 1):
            for name in row:
                if angle and name in ("theta", "phi", "beta"):
                    row[name] = angle(row[name])
                elif cell and name.startswith("n_"):
                    row[name] = cell(k, name, row[name])
            writer.writerow(row)


def add_half(row, name, value):
    """Half a count more in row 3's (F1, APD1) cell."""
    return f"{float(value) + 0.5}" if (row, name) == (3, "n_f1_apd1") else value


class TestLabCounts:
    """Counts CSVs as a lab writes them: rounded angles are fit through their
    own design; degrees and fractional sampled counts are refused."""

    def test_six_digit_angles_accepted(self, tmp_path, seed7):
        rounded = tmp_path / "r6.counts.csv"
        rewrite_counts(seed7 + ".counts.csv", rounded, angle=lambda v: f"{float(v):.6f}")
        out = str(tmp_path / "r6")
        assert main(["--out", out, "tomo", "--bootstrap", "0", "--input", str(rounded)]) == 0
        got, want = (read_json(p + ".metrics.json") for p in (out, seed7))
        assert got["fit_report"]["converged"] and got["fit_report"]["iterations"] == 8
        assert abs(got["fidelity"] - want["fidelity"]) <= 1e-6

    def test_degrees_refused(self, tmp_path, refused, seed7):
        degrees = tmp_path / "deg.counts.csv"
        rewrite_counts(seed7 + ".counts.csv", degrees,
                       angle=lambda v: repr(math.degrees(float(v))))
        error = (f"error: {degrees}: row 1: field 'theta' is 45.0, beyond 2 pi in magnitude: "
                 "angles are radians")
        assert refused(["--out", str(tmp_path / "deg"), "tomo", "--input", str(degrees)],
                       error) == error

    def test_fractional_sampled_count_refused(self, tmp_path, refused, seed7):
        half = seed7 + ".counts.csv"
        rewrite_counts(half, half, cell=add_half)   # in place, next to its sampled sidecar
        err = refused(["--out", str(tmp_path / "half"), "tomo", "--input", str(half)],
                      "not a whole number of counts")
        assert err.startswith(f"error: {half}: row 3: field 'n_f1_apd1' is ")
        sidecar = tmp_path / "s7.counts.meta.json"
        assert err.endswith(f'not a whole number of counts, and {sidecar} does not say "exact": '
                            'true')

    def test_fractional_counts_without_sidecar_not_resampled(self, tmp_path, refused, seed7):
        """Without a sidecar the counts are fit as given; the bootstrap, which
        draws whole numbers of trials, refuses them and nothing is written."""
        half = tmp_path / "half.counts.csv"
        rewrite_counts(seed7 + ".counts.csv", half, cell=add_half)
        out = str(tmp_path / "out")
        refused(["--out", out, "tomo", "--input", str(half)], "error: bootstrap: setting totals")
        assert main(["--out", out, "tomo", "--bootstrap", "0", "--input", str(half)]) == 0


class TestImports:
    @pytest.mark.threaded_blas
    def test_scipy_and_lazy_numpy_modules_stay_off_the_command_path(self, cli_runs):
        """scipy is for calibrate alone; the numpy modules that the first tomo
        or scan would import lazily are loaded with the package instead, and
        numpy.ma (12-25 ms, which np.percentile imports) not at all."""
        loaded = cli_runs["hash0"][2]
        assert not [m for m in loaded["atomphoton"] if m.startswith("scipy")]
        assert "numpy.ma" not in loaded["atomphoton"]
        for prefix in ("tomo", "scan", "scan1", "exact", "input"):
            assert loaded[prefix] == [], prefix


def assert_json_close(a, b, where=""):
    """Same structure, equal strings, booleans and integers, floats within 1e-9."""
    assert type(a) is type(b), where
    if isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            assert_json_close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            assert_json_close(x, y, f"{where}[{k}]")
    elif isinstance(a, float):
        assert abs(a - b) <= 1e-9, (where, a, b)
    else:
        assert a == b, where


@pytest.mark.threaded_blas
class TestCrossProcess:
    """The determinism contract across processes, read from `cli_runs`: one
    command list in fresh interpreters that differ only in PYTHONHASHSEED or
    only in BLAS kernel, exit statuses included."""

    @staticmethod
    def writers(runs):
        """The prefixes of the commands that ran, less the refused one."""
        return set(runs["hash0"][2]) - {"atomphoton", "refused"}

    def test_hash_seeds_write_the_same_bytes(self, cli_runs):
        """Artifacts follow from the config and seed alone: processes that
        differ only in PYTHONHASHSEED, which sets the iteration order of a
        set of strings, write the same bytes and print the same lines."""
        (printed0, files0, _), (printed1, files1, _) = cli_runs["hash0"], cli_runs["hash1"]
        assert printed0 == printed1
        assert sorted(files0) == sorted(files1)
        assert [name for name in files0
                if files0[name].read_bytes() != files1[name].read_bytes()] == []
        assert {name.split(".")[0] for name in files0} == self.writers(cli_runs)
        assert not [name for name in files0 if name.endswith(".tmp")]

    def test_default_and_prescott_kernels_agree(self, cli_runs, kernel_switch_unavailable):
        """Another kernel, at the caller's BLAS thread setting, may add in
        another order, so the fitted numbers may move in their last digits,
        but never by more than 1e-9, and the counts, which use no BLAS, not at all."""
        if kernel_switch_unavailable:
            pytest.skip(kernel_switch_unavailable)
        (_, default, _), (_, prescott, _) = cli_runs["hash0"], cli_runs["prescott"]
        assert sorted(default) == sorted(prescott)
        assert {name.split(".")[0] for name in default} == self.writers(cli_runs)
        for name, path in default.items():
            if name.endswith((".csv", ".meta.json")):   # counts and fringes: no BLAS
                assert path.read_bytes() == prescott[name].read_bytes(), name
            else:
                assert_json_close(read_json(path), read_json(prescott[name]), name)
