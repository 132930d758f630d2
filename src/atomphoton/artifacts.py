"""Artifact files of a command, committed all or nothing."""

import contextlib
import json
import os


def json_text(payload):
    """payload as JSON text: indent 2, sorted keys, trailing newline. A payload
    that JSON cannot hold fails here, before any file is opened."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def commit(files):
    """Write each {path: text} entry byte for byte, all or nothing.

    Every text goes to a temporary file beside its target, and the targets
    are replaced only once every text is written. On any error, interrupts
    included, the temporary files and every target already replaced are
    removed: the targets end all new, or none of them new.
    """
    staged = {f"{os.fspath(path)}.{os.getpid()}.tmp": path for path in files}
    replaced = []
    try:
        for tmp, text in zip(staged, files.values()):
            with open(tmp, "w", newline="") as fh:
                fh.write(text)
        for tmp, path in staged.items():
            os.replace(tmp, path)
            replaced.append(path)
    except BaseException:
        for path in [*staged, *replaced]:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        raise
