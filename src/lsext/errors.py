"""Exception types shared across the package."""

from __future__ import annotations


class LsextError(Exception):
    """Base class for all package-specific errors."""


class EnumerationCapExceeded(LsextError):
    """An enumeration would exceed the configured cap.

    The cap bounds the number of one-dimensional-subspace representatives a
    single call may materialize; see `lsext.field.enumeration_cap`.
    """

    def __init__(self, count: int, cap: int) -> None:
        self.count = count
        self.cap = cap
        super().__init__(
            f"{count} canonical representatives exceed the enumeration cap {cap} "
            f"(set LSEXT_ENUM_CAP to raise it)"
        )


class RankDeficientError(LsextError):
    """A generator matrix does not have full row rank."""


class DegenerateCodeError(LsextError):
    """Operation requires a code without all-zero generator columns."""


class ConsistencyError(LsextError):
    """Two objects that must describe the same code do not match."""


class InfeasibleSolutionError(LsextError):
    """A column multiset does not satisfy the covering requirement."""


class VerificationError(LsextError):
    """Re-verification of an extension or puncture failed; indicates a bug."""


class ParseError(LsextError):
    """A code file is malformed; message carries the offending line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
