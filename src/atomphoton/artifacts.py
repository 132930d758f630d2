"""Atomic artifact writers shared by every command."""

import contextlib
import json
import os


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """Text file handle whose content replaces path only on a clean exit.

    The text goes to a temporary file in the target's directory, which then
    replaces the target; on an error the temporary file is removed, so the
    target is either complete or untouched.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_json(payload, path):
    """Write payload as JSON (indent 2, sorted keys, trailing newline), atomically."""
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
