"""Atomic JSON artifact writer shared by every command."""

import contextlib
import json
import os


def write_json(payload, path):
    """Write payload as JSON (indent 2, sorted keys, trailing newline).

    The text goes to a temporary file in the target's directory, which then
    replaces the target, so the target is either complete or untouched.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
