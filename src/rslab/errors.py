"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, OSError -> 3,
NumericalError -> 4, every other RslabError -> 5. Every file reader raises a
FormatError subclass on malformed input, so a corrupt dataset, checkpoint or
dump exits 5; a missing or unreadable file stays an OSError.
"""


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


class InvalidGramError(ValidationError):
    """A matrix claimed to be a Gram matrix is not symmetric."""


class EmptySelectionError(ValidationError):
    """A selection (e.g. lag filter) matched no entries."""


class ProbeMismatchError(ValidationError):
    """Activation dumps were recorded over different probe sets."""


class KindError(ValidationError):
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


def check_json_fields(d, fields: dict, what: str, required=()) -> dict:
    """Type-check one JSON object and return it without its null fields.

    `fields` maps every allowed key to (types, description); a one-item
    list [types] means a list whose items all have those types. A key in
    `required` must be present and not null. A non-object, an unknown key
    or a value of another type raises ConfigError; a bool is never taken
    for a number.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object, got {d!r}")
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(unknown)}")
    out = {}
    for key, (types, description) in fields.items():
        v = d.get(key)
        if v is None and key not in required:
            continue
        if not _has_types(v, types):
            raise ConfigError(f"{what} {d!r}: {key!r} must be {description}")
        out[key] = v
    return out


def _has_types(v, types) -> bool:
    if isinstance(types, list):
        return isinstance(v, list) and all(_has_types(x, types[0]) for x in v)
    return not isinstance(v, bool) and isinstance(v, types)
