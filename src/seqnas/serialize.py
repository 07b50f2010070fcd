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
is touched, and load_arrays checks every array's name and shape before it
copies any.  The appended log.csv files go through RunLog instead.
"""

import base64
import contextlib
import csv
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


def write_json(path, doc):
    """Write doc to path through atomic_write as indented JSON with sorted keys."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


class RunLog:
    """Appendable CSV log whose first column is a monotone counter.

    Opening a log keeps only the complete rows of an existing file whose
    counter is below first, so a run resumed into its own directory
    rewrites the rows after its checkpoint instead of repeating them.
    """

    def __init__(self, path, columns, first=0):
        self.path = path
        kept = []
        if first > 0 and os.path.exists(path):
            with open(path, newline="") as fh:
                kept = [line for line in fh.readlines()[1:]
                        if line.endswith("\n") and int(line.split(",", 1)[0]) < first]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(columns)
            fh.writelines(kept)

    def append(self, *row):
        with open(self.path, "a", newline="") as fh:
            csv.writer(fh).writerow(row)


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
    # json.dumps uses the C encoder; json.dump writes the same bytes in pure Python
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True))


def load_checkpoint(path, expect_kind=None):
    """Parse and fully validate a checkpoint; nothing is mutated on failure."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
        raise CheckpointError(f"checkpoint {path} is not valid UTF-8 JSON: {exc}") from exc
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
    for key in ("config", "counters", "extra", "arrays"):
        if not isinstance(doc.get(key), dict):
            found = type(doc[key]).__name__ if key in doc else "nothing"
            raise CheckpointError(f"checkpoint {key} must be an object, got {found}")
    doc["arrays"] = {name: decode_array(d) for name, d in doc["arrays"].items()}
    return doc


def load_arrays(live, saved):
    """Copy saved[name] into each live array, cast to its dtype, once every name
    and shape is checked: on a mismatch (a CheckpointError) nothing is copied."""
    missing, extra = sorted(set(live) - set(saved)), sorted(set(saved) - set(live))
    if missing or extra:
        raise CheckpointError(
            f"checkpoint array mismatch: missing={missing[:4]} extra={extra[:4]}")
    for name, dst in live.items():
        if np.shape(saved[name]) != dst.shape:
            raise CheckpointError(f"checkpoint array {name} shape mismatch: "
                                  f"{np.shape(saved[name])} vs {dst.shape}")
    for name, dst in live.items():
        dst[...] = saved[name]
