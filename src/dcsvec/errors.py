"""Exception types shared across the package.

``exit_code`` is what the CLI returns when the error escapes: 2 for bad
user input, 1 for runtime failures.
"""


class DcsvecError(Exception):
    exit_code = 1


class InputError(DcsvecError):
    exit_code = 2


class InvalidConfig(InputError, ValueError):
    """A setting is out of range: training, vocab thresholds, query k."""


class MissingField(DcsvecError):
    """A tuple was projected on a field it does not carry."""


class UnknownWord(DcsvecError):
    """Word absent from a database or vocabulary (strict mode)."""


class UnknownField(DcsvecError):
    """Field has no learned matrix / vocabulary entry (strict mode)."""


class MissingPlaceholder(InputError):
    """A training tree's word or field is absent from the vocabulary file,
    and so is the placeholder it would fall back on."""


class MalformedLine(InputError):
    """A line of an input file could not be parsed."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class CyclicTree(InputError):
    """Token heads do not form a single rooted tree."""


class EmptyCorpus(InputError):
    """No usable trees in the corpus stream."""


class ZeroNorm(DcsvecError):
    """Normalization requested for a zero vector or matrix."""


class BadMagic(InputError):
    """File does not start with the expected format header."""


class DimensionMismatch(InputError):
    """Inconsistent dimensions or tables in a model file."""


class TruncatedFile(InputError):
    """Binary payload shorter than the header promises."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class NonFiniteGradient(DcsvecError):
    """Training diverged: a gradient norm is inf or NaN."""


class LengthMismatch(InputError):
    """Paired lists of different (or zero) length."""


class ConversionFailure(DcsvecError):
    """A sentence required by an evaluation item could not be converted."""
