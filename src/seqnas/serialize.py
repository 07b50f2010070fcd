"""Versioned JSON checkpoints with base64-packed arrays.

Layout (documented for external readers):

    {
      "format": "seqnas-checkpoint",
      "version": 1,
      "kind": "search" | "train",
      "config": { ... resolved run configuration ... },
      "counters": { "epoch": int, "step": int, ... },
      "extra": { ... },
      "arrays": { "<name>": {"dtype": "float32",
                              "shape": [..],
                              "data": "<base64 of raw little-endian bytes>"} }
    }

Saving goes through atomic_write, as every whole-file output of a run
does: a sibling temp file renamed over the target, so a file on disk is
always complete.  Loading validates the whole document before any state
is touched.
"""

import base64
import contextlib
import json
import os

import numpy as np

FORMAT = "seqnas-checkpoint"
VERSION = 1


class CheckpointError(RuntimeError):
    """Raised for unreadable, mismatched, or corrupted checkpoint files."""


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """Write path through a sibling temp file renamed over it when the block
    completes, so path holds its old content or the whole new file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def encode_array(a):
    a = np.ascontiguousarray(a)
    return {
        "dtype": a.dtype.name,
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def decode_array(d):
    try:
        raw = base64.b64decode(d["data"], validate=True)
        arr = np.frombuffer(raw, dtype=np.dtype(d["dtype"])).reshape(d["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupted array entry: {exc}") from exc
    return arr.copy()


def save_checkpoint(path, kind, config, counters, arrays, extra=None):
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "kind": kind,
        "config": config,
        "counters": counters,
        "extra": extra or {},
        "arrays": {name: encode_array(a) for name, a in arrays.items()},
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True)


def load_checkpoint(path, expect_kind=None):
    """Parse and fully validate a checkpoint; nothing is mutated on failure."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise CheckpointError(f"{path} is not a {FORMAT} file")
    if doc.get("version") != VERSION:
        raise CheckpointError(
            f"checkpoint version {doc.get('version')} != engine version {VERSION}"
        )
    if expect_kind is not None and doc.get("kind") != expect_kind:
        raise CheckpointError(
            f"expected a {expect_kind!r} checkpoint, found {doc.get('kind')!r}"
        )
    for key in ("config", "counters", "arrays"):
        if key not in doc:
            raise CheckpointError(f"checkpoint missing field {key!r}")
    doc["arrays"] = {name: decode_array(d) for name, d in doc["arrays"].items()}
    return doc
