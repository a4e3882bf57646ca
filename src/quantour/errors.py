"""Exception hierarchy.

Every error raised by this package derives from QuantourError.  Degeneracy
errors carry enough detail (offending indices, nearest admissible values)
for a caller to repair the input instead of guessing.
"""

from __future__ import annotations


class QuantourError(Exception):
    """Base class for all package errors."""


class TauOutOfRange(QuantourError):
    """Quantile level outside the open interval (0, 1)."""

    def __init__(self, tau: float):
        self.tau = tau
        super().__init__(f"quantile level must lie strictly inside (0, 1), got {tau!r}")


class DegenerateTau(QuantourError):
    """n * tau is an integer, so the quantile hyperplane is not unique.

    Carries the two nearest admissible levels so callers (and the CLI)
    can tell the user exactly how to move off the lattice.
    """

    def __init__(self, tau: float, n: int):
        self.tau = tau
        self.n = n
        m = round(n * tau)
        self.nearest = ((m - 0.5) / n, (m + 0.5) / n)
        super().__init__(
            f"n * tau = {n * tau:.12g} is an integer; hyperplanes are non-unique. "
            f"Nearest admissible levels for n = {n}: "
            f"{self.nearest[0]:.12g} or {self.nearest[1]:.12g}"
        )


class DegenerateData(QuantourError):
    """Input points violate general position (duplicates, collinear triples, ...)."""

    def __init__(self, message: str, indices=()):
        self.indices = tuple(int(i) for i in indices)
        if self.indices:
            message = f"{message} (rows {list(self.indices)})"
        super().__init__(message)


class DegenerateDesign(QuantourError):
    """Design matrix is rank deficient or no unique vertex solution exists.

    ``indices``, when known: the sorted basis, then the rows off it on the
    fitted hyperplane.  DegenerateData wrappers pass them on.
    """

    def __init__(self, message: str, indices=()):
        self.indices = tuple(int(i) for i in indices)
        super().__init__(message)


class NoConvergence(QuantourError):
    """Iteration cap exceeded or an optimality certificate failed."""


class DimensionTooSmall(QuantourError):
    """Operation requires a higher ambient dimension."""


class DimensionMismatch(QuantourError):
    """Inputs disagree on dimensions (point vs cloud, u vs cloud, ...)."""


class NotBounded(QuantourError):
    """A bounded region was required but the input region is unbounded."""


class EmptyHalfspace(QuantourError):
    """An operation needed observations strictly on both hyperplane sides."""


class SingularSystem(QuantourError):
    """A square linear system that should be regular is numerically singular."""


class ArcGap(QuantourError):
    """Direction sweep produced arcs that do not tile the circle.

    This is an internal consistency failure and therefore a bug signal,
    never silently ignored.
    """


class EllOutOfRange(QuantourError):
    """Outlier step index outside the supported range."""


class MixedModels(QuantourError):
    """Regression quantiles from different data sets or levels were combined."""


class TooFewPointsPerBin(QuantourError):
    """Coverage diagnostic requested more bins than the data can fill."""


class ParseError(QuantourError):
    """Malformed input file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyInput(ParseError):
    """Input file contains no data rows."""

    def __init__(self, message: str = "input contains no data rows"):
        super().__init__(message, line=None)


class HeaderMismatch(ParseError):
    """Input header does not match the expected column layout."""

    def __init__(self, message: str):
        super().__init__(message, line=1)


class StillDegenerate(DegenerateData):
    """Jitter could not remove the degeneracy; carries the rows still at fault."""
