"""Atomic artifact writers."""

import csv
import json

import pytest

from atomphoton.artifacts import atomic_open, write_json


def test_bytes_match_sorted_indented_dump(tmp_path):
    payload = {"b": [1.5, 2, None], "a": {"z": "x", "y": 1e-17}}
    target = tmp_path / "out.json"
    write_json(payload, target)
    assert target.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_failed_serialization_leaves_no_file(tmp_path):
    # "a" is serialized and written before "b" fails
    payload = {"a": list(range(10_000)), "b": object()}
    with pytest.raises(TypeError):
        write_json(payload, tmp_path / "out.json")
    assert list(tmp_path.iterdir()) == []


def test_failed_serialization_keeps_previous_target(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("previous\n")
    with pytest.raises(TypeError):
        write_json({"a": 1, "b": object()}, target)
    assert target.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_atomic_open_writes_what_open_writes(tmp_path):
    rows = [["theta", "beta"], ["0.5", "1e-17"]]
    with open(tmp_path / "plain.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with atomic_open(tmp_path / "atomic.csv", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert (tmp_path / "atomic.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.csv", "plain.csv"]


def test_failure_inside_block_keeps_previous_target(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("previous\n")
    with pytest.raises(RuntimeError):
        with atomic_open(target, newline="") as fh:
            fh.write("half a table\n" * 1000)
            raise RuntimeError("interrupted")
    assert target.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_failure_inside_block_leaves_no_file(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_open(tmp_path / "out.csv") as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []
