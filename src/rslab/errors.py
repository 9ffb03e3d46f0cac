"""Exception hierarchy shared across the package, the JSON codec, and the
JSON and CSV artifact writers.

The CLI maps these onto exit codes: ConfigError -> 2, OSError -> 3,
NumericalError -> 4, every other RslabError -> 5. Every file reader raises a
FormatError subclass on malformed input, so a corrupt dataset, checkpoint or
dump exits 5; a missing or unreadable file stays an OSError.
"""
import csv
import dataclasses
import json
import math
import types
import typing


class RslabError(Exception):
    """Base class for all rslab errors."""


class ConfigError(RslabError):
    """Invalid configuration: bad JSON schema, unknown keys, bad enum values."""


class NumericalError(RslabError):
    """A numerical routine failed (SVD non-convergence, diverging loss)."""


class ValidationError(RslabError):
    """Input data violates a documented contract."""


class ShapeError(ValidationError):
    """Matrix/tensor dimensions incompatible with the operation."""


class AlignmentError(ValidationError):
    """Paired data streams disagree on length or point order."""


class EmptySelectionError(ValidationError):
    """A selection (e.g. lag filter) matched no entries."""


class ProbeMismatchError(ValidationError):
    """Activation dumps were recorded over different probe sets."""


class KindError(ConfigError):
    """Unsupported enum kind passed to a dispatch function."""


class FormatError(ValidationError):
    """A file violates its on-disk format."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class VersionError(FormatError):
    """File format version is not supported."""


class TruncatedError(FormatError):
    """Declared payload extends past the end of the file."""


class ManifestError(FormatError):
    """Manifest is missing, malformed, or disagrees with the records."""


def from_json(cls, d, what: str):
    """Build dataclass `cls` from the JSON object `d`, checking every field.

    The allowed keys, the required keys (fields with no default) and each
    value's type come from the dataclass fields and their annotations: str,
    int, float (an int is accepted), bool, X | None, tuple[T, ...] (read from
    a JSON list) and nested dataclasses, which this function decodes under
    their field's name. Null means the field is absent. A non-object, an
    unknown key, a missing required key, a value of another type or a
    non-finite float (JSON's NaN and Infinity, or an int too large for a
    float) raises ConfigError; a bool is never taken for a number, and an
    int given for a float stays an int.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object, got {d!r}")
    fields = dataclasses.fields(cls)
    unknown = set(d) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    shown = f"{what} {d!r}"
    kwargs = {}
    for f in fields:
        v = d.get(f.name)
        if v is not None:
            kwargs[f.name] = _decode(v, hints[f.name], f.name, f"{shown}: {f.name!r}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{shown}: {f.name!r} is required")
    return cls(**kwargs)


def _decode(v, tp, name: str, where: str):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None; v is not None
        (tp,) = [t for t in typing.get_args(tp) if t is not type(None)]
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        if not isinstance(v, list):
            raise ConfigError(f"{where} must be a list of {item.__name__}")
        return tuple(_decode(x, item, name, where) for x in v)
    if dataclasses.is_dataclass(tp):
        return from_json(tp, v, name)
    allowed = (int, float) if tp is float else tp
    if isinstance(v, bool) != (tp is bool) or not isinstance(v, allowed):
        raise ConfigError(f"{where} must be {tp.__name__}")
    if tp is float:
        try:
            finite = math.isfinite(v)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ConfigError(f"{where} must be finite")
    return v


def to_json(obj) -> dict:
    """The JSON object of a dataclass: every non-None field, in field order,
    a dataclass value as its own object."""
    out = {}
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if v is not None:
            out[f.name] = to_json(v) if dataclasses.is_dataclass(v) else v
    return out


def write_json(path, doc) -> None:
    """Write a JSON artifact: keys sorted, one-space indent, final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write a CSV artifact: the header row, then `rows`, a float cell as %.12g."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([format(v, ".12g") if isinstance(v, float) else v for v in row] for row in rows)


def read_json(path, error_cls):
    """Parse a JSON file; content that is not JSON raises `error_cls`.

    Bytes that are not UTF-8 and nesting too deep to parse count as not
    JSON. A missing or unreadable file stays an OSError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError covers bad UTF-8
            raise error_cls(f"{path}: invalid JSON: {exc}") from exc
