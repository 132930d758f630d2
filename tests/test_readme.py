"""The README's library quick start runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(tmp_path, monkeypatch):
    """The README's one python block runs as written, so a public name it
    uses cannot leave the package unnoticed."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(blocks[0], {"__name__": "readme"})
