"""Exception types shared across the package, and the helpers of every file
reader and writer: ``text_lines``, the numbered-line loop and ``opened``.

``exit_code`` is what the CLI returns when the error escapes: 2 for bad
user input, 1 for runtime failures.
"""

import re
from contextlib import contextmanager

_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # a byte that surrogateescape could not decode


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


def text_lines(path):
    """Yield the lines of the UTF-8 text file at ``path``, newline kept
    (CRLF and lone CR read as LF).  A line that is not UTF-8 is a
    MalformedLine naming its line: undecodable bytes arrive as the lone
    surrogates of ``surrogateescape``, which valid UTF-8 never decodes to."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            bad = not line.isascii() and _ESCAPED_BYTE.search(line)
            if bad:
                raise MalformedLine(f"not UTF-8: byte 0x{ord(bad[0]) - 0xDC00:02x} at character {bad.start() + 1}", line_no)
            yield line


def parse_lines(lines, parse, first=1):
    """Yield ``parse(line)``, newline stripped, for each non-blank line,
    numbering lines from ``first``; a KeyError, ValueError, TypeError or
    OverflowError from ``parse`` becomes a MalformedLine carrying that
    line's number."""
    for line_no, line in enumerate(lines, start=first):
        if not line.strip():
            continue
        try:
            yield parse(line.rstrip("\n"))
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise MalformedLine(str(exc), line_no) from exc


@contextmanager
def opened(target, mode, **kwargs):
    """``target`` as a file object: a path is opened in ``mode`` and closed
    on exit; an open file handle is passed through and left open."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, mode, **kwargs) as fh:
            yield fh
    else:
        yield target


class CyclicTree(InputError, ValueError):
    """Token ids and heads do not form a single rooted tree.  A ValueError
    too, so a line reader reports it as a MalformedLine with its number."""


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
