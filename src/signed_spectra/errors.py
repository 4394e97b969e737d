"""Exception types shared across the toolkit."""

from __future__ import annotations

import operator


class SignedSpectraError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SignedSpectraError):
    """A ``.sg`` document failed validation.

    ``line`` is the 1-based line number of the offending input line, or
    ``None`` when the error was raised outside of parsing (for example by
    direct graph construction).
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedLineError(ParseError):
    """A line does not match the expected token layout."""


class DuplicateEdgeError(ParseError):
    """The same unordered vertex pair appears more than once."""


class SelfLoopError(ParseError):
    """An edge joins a vertex to itself."""


class IndexOutOfRangeError(ParseError):
    """A vertex index lies outside ``[0, n)``."""


class InvalidParamsError(SignedSpectraError, ValueError):
    """Arguments violate a documented precondition."""


def _int_param(owner: str, name: str, value: object) -> int:
    """``value`` as an integer in the sense of ``operator.index`` (Python and
    numpy ints, bools); a float or a string raises InvalidParamsError naming
    ``owner``'s parameter ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParamsError(f"{owner} parameter {name!r} must be an integer, got {value!r}") from None


class LengthMismatchError(SignedSpectraError, ValueError):
    """A switching vector's length differs from the graph order."""


class NotACycleError(SignedSpectraError, ValueError):
    """A vertex sequence is not a closed walk of the graph."""


class UnderlyingMismatchError(SignedSpectraError, ValueError):
    """Two graphs do not share the same underlying unsigned graph."""


class NotSymmetricError(SignedSpectraError, ValueError):
    """A matrix expected to be symmetric is not (tolerance 1e-12)."""


class NoConvergenceError(SignedSpectraError, RuntimeError):
    """The LAPACK eigensolver failed to converge (a ``numpy.linalg.LinAlgError``)."""


class UnknownBoundError(SignedSpectraError, LookupError):
    """A bound identifier is not present in the registry."""


class MissingParamError(SignedSpectraError, ValueError):
    """A bound needing parameters (r, q) was invoked without them."""


class InvalidConfigError(SignedSpectraError, ValueError):
    """A counterexample-search configuration is invalid."""


class TooLargeError(SignedSpectraError):
    """An exact-computation guard was exceeded.

    Guards exist because several invariants are computed by exponential
    enumeration; ``invariants._GUARDS`` holds their limits.  They can be
    lifted per call with ``force=True`` or globally through the
    ``SIGNED_SPECTRA_MAX_N`` environment variable.
    """

    def __init__(self, message: str, n: int | None = None, limit: int | None = None):
        self.n = n
        self.limit = limit
        super().__init__(message)
