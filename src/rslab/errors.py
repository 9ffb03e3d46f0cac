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
