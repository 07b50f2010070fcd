"""Config dataclasses whose fields each declare type, default and range once.

A field's annotation is its type; `spec(default, min=, above=, below=,
choices=)` gives its default and range (`min` inclusive, `above` and
`below` exclusive).  Config.__post_init__ checks every field, so keyword
calls, the CLI's file and flags, and checkpoint configs pass one check:
an int rejects a bool, a float takes an int and rejects a non-finite
value, a tuple takes a list, a nested config takes a JSON object.
"""

import math
import operator
from dataclasses import asdict, field, fields, is_dataclass

from .data import DataError

_RULES = {"min": (">=", operator.ge), "above": (">", operator.gt),
          "below": ("<", operator.lt), "choices": ("one of", lambda v, c: v in c)}


class ConfigError(DataError):
    """A value that does not fit its field, or (problem None) an unknown key;
    the message names the dotted key and any flag that set the value."""

    def __init__(self, key, problem=None):
        super().__init__(key, problem)
        self.key, self.problem, self.flag = key, problem, None

    def __str__(self):
        name = repr(self.key) + (f" (set by {self.flag})" if self.flag else "")
        return f"{name} {self.problem}" if self.problem else f"unknown key {name}"


def spec(default, **limits):
    """A config field: its default and any of `min`, `above`, `below`, `choices`."""
    return field(default=default, metadata=limits)


def _checked(f, value):
    """value as field f stores it, or a ConfigError naming f."""
    kind = f.type
    if is_dataclass(kind):
        return value if isinstance(value, kind) else kind.from_dict(value, f.name)
    if value is None and f.default is None:  # None stands for a default worked out later
        return None
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        value = float(value)
    if kind is tuple and isinstance(value, list):
        value = tuple(value)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f.name, f"must be of type {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f.name, f"must be finite, got {value!r}")
    for rule, bound in f.metadata.items():
        sign, holds = _RULES[rule]
        if not holds(value, bound):
            raise ConfigError(f.name, f"must be {sign} {bound}, got {value!r}")
    return value


class Config:
    """Base of the config dataclasses: checked fields, one to_dict/from_dict pair."""

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, _checked(f, getattr(self, f.name)))

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, doc, section=""):
        """cls built from a JSON object; a ConfigError names its key under section."""
        try:
            if not isinstance(doc, dict):
                raise ConfigError("", f"must be an object, got {doc!r}")
            unknown = sorted(set(doc) - {f.name for f in fields(cls)})
            if unknown:
                raise ConfigError(unknown[0])
            return cls(**doc)
        except ConfigError as exc:
            exc.key = ".".join(k for k in (section, exc.key) if k)
            raise


def declared(cls, key):
    """The field of cls that declares a dotted key such as "optimizer.xi"."""
    for name in key.split("."):
        f = {f.name: f for f in fields(cls)}[name]
        cls = f.type
    return f
