"""Exception hierarchy for the whole package.

The CLI maps these onto exit codes: ConfigError and subclasses exit 1,
DataError and subclasses exit 2, anything else escaping a command is an
internal invariant failure and exits 3.
"""


class ScaRecoError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ScaRecoError):
    """A parameter or option is invalid regardless of the input data."""


class DataError(ScaRecoError):
    """An input artifact is malformed, inconsistent, or unusable."""


class ParseError(DataError):
    """A file could not be parsed at all (bad JSON, bad TSV/CSV structure)."""


class SchemaError(DataError):
    """A parsed artifact violates its schema (missing field, bad value)."""


class MismatchError(DataError):
    """An artifact disagrees with its surrounding context (ids, names)."""


class IoError(DataError):
    """A required file or directory could not be read or written."""


class UnknownCategory(DataError):
    """A mapping row references a category id absent from the taxonomy."""


class DuplicateConflict(DataError):
    """The same key is mapped twice to different values."""


class UnmappedType(DataError):
    """An analyzer-native warning type has no category mapping."""


class DuplicateProject(DataError):
    """The same project id occurs twice in a feature table."""


class NonNumericCell(DataError):
    """A feature table cell is not a finite number."""


class NonFiniteStatistic(DataError):
    """A feature column's mean or standard deviation is not finite."""


class UnknownFeature(DataError):
    """A referenced feature name does not exist in the feature table."""


class LengthMismatch(ScaRecoError):
    """Two parallel sequences have different lengths."""


class TooFewSamples(DataError):
    """Not enough rows for the requested operation (e.g. folds > n)."""


class DegenerateDataset(DataError):
    """Training data carries fewer than two distinct labels."""


class InvalidBeta(ConfigError):
    """The F-measure weight must be a non-negative real or infinity."""


class InvalidTarget(ConfigError):
    """Requested number of surviving features is out of range."""


class InvalidCount(ConfigError, ValueError):
    """A count such as folds or repeats is below its minimum."""


class InvalidK(ConfigError):
    """Requested number of principal components is out of range."""


class UnsupportedModelKind(ConfigError):
    """The model kind is not usable in the requested role."""


class NotFittedError(ScaRecoError):
    """An estimator was used before fit() completed."""
