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


def json_text(payload):
    """payload as JSON text: indent 2, sorted keys, trailing newline. A payload
    that JSON cannot hold fails here, before any file is opened."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(payload, path):
    """Write `json_text(payload)` atomically."""
    with atomic_open(path) as fh:
        fh.write(json_text(payload))
