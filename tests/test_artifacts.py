"""Atomic JSON artifact writer."""

import json

import pytest

from atomphoton.artifacts import write_json


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
