"""All-or-nothing artifact commits."""

import csv
import io
import json
import os

import pytest

from atomphoton.artifacts import commit, json_text


def test_bytes_match_sorted_indented_dump(tmp_path):
    payload = {"b": [1.5, 2, None], "a": {"z": "x", "y": 1e-17}}
    target = tmp_path / "out.json"
    commit({target: json_text(payload)})
    assert target.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_failed_serialization_leaves_no_file(tmp_path):
    # "a" is serialized before "b" fails
    payload = {"a": list(range(10_000)), "b": object()}
    with pytest.raises(TypeError):
        commit({tmp_path / "out.json": json_text(payload)})
    assert list(tmp_path.iterdir()) == []


def test_failed_serialization_keeps_previous_target(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("previous\n")
    with pytest.raises(TypeError):
        commit({target: json_text({"a": 1, "b": object()})})
    assert target.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_commit_writes_what_open_writes(tmp_path):
    rows = [["theta", "beta"], ["0.5", "1e-17"]]
    with open(tmp_path / "plain.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    commit({tmp_path / "committed.csv": buf.getvalue(), tmp_path / "lf.txt": "a\nb\r\n"})
    assert (tmp_path / "committed.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert (tmp_path / "lf.txt").read_bytes() == b"a\nb\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["committed.csv", "lf.txt", "plain.csv"]


def test_failed_write_keeps_previous_targets(tmp_path):
    """A text that cannot be written fails before any target is replaced."""
    for name in ("a.csv", "b.json"):
        (tmp_path / name).write_text(f"previous {name}\n")
    with pytest.raises(TypeError):
        commit({tmp_path / "a.csv": "half a table\n" * 1000, tmp_path / "b.json": 42})
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
        "a.csv": "previous a.csv\n", "b.json": "previous b.json\n"}


def test_failed_write_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        commit({tmp_path / "a.csv": "partial", tmp_path / "b.json": object()})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k", range(3))
def test_failed_replace_removes_replaced_targets(tmp_path, k):
    """With a directory at the k-th target its replace fails: the targets
    replaced before it are removed, the ones after it stay as they were."""
    names = ["a.csv", "b.json", "c.json"]
    for name in names:
        (tmp_path / name).write_text(f"previous {name}\n")
    (tmp_path / names[k]).unlink()
    (tmp_path / names[k]).mkdir()
    with pytest.raises(OSError):
        commit({tmp_path / name: f"new {name}\n" for name in names})
    assert (tmp_path / names[k]).is_dir()
    assert {p.name: p.read_text() for p in tmp_path.iterdir() if p.is_file()} == {
        name: f"previous {name}\n" for name in names[k + 1:]}


def test_interrupted_replace_removes_replaced_targets(tmp_path, monkeypatch):
    """An interrupt between two replaces leaves neither the new first file
    nor any temporary file behind."""
    real_replace = os.replace

    def replace_once(src, dst):
        monkeypatch.setattr(os, "replace", interrupted)
        real_replace(src, dst)

    def interrupted(src, dst):
        raise KeyboardInterrupt
    monkeypatch.setattr(os, "replace", replace_once)
    (tmp_path / "b.json").write_text("previous\n")
    with pytest.raises(KeyboardInterrupt):
        commit({tmp_path / "a.csv": "new\n", tmp_path / "b.json": "new\n"})
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"b.json": "previous\n"}
