"""Exception hierarchy for the whole package.

The CLI maps these onto exit codes: ConfigError and subclasses exit 1,
DataError and subclasses exit 2, anything else escaping a command is an
internal invariant failure and exits 3.

A class exists only for an exit code, for a handler that tells it apart
from its parent, or for an internal fault that exits 3 on purpose; any
other error is a ConfigError or DataError whose message says what went
wrong.  The kept subclasses:

- SchemaError: ``pipeline._read_jsonl`` tells it from a decode error of
  the same line, and ``RecommendationModel.load`` catches it;
- UnmappedType: ``pipeline.label_project`` names the report and entry;
- NonFiniteStatistic: the CLI names the features file;
- LengthMismatch, NotFittedError: internal faults (``load`` catches a
  LengthMismatch that a model file's state causes).
"""


class ScaRecoError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ScaRecoError):
    """A parameter or option is invalid regardless of the input data."""


class DataError(ScaRecoError):
    """An input artifact is malformed, inconsistent, or unusable."""


class SchemaError(DataError):
    """A parsed artifact violates its schema (missing field, bad value)."""


class UnmappedType(DataError):
    """An analyzer-native warning type has no category mapping."""


class NonFiniteStatistic(DataError):
    """A feature column's mean or standard deviation is not finite."""


class LengthMismatch(ScaRecoError):
    """Two parallel sequences have different lengths."""


class NotFittedError(ScaRecoError):
    """An estimator was used before fit() completed."""
