"""Exception types named for the contract they uphold."""

from __future__ import annotations

__all__ = [
    "GroupCutError",
    "NotAUnit",
    "NotPrime",
    "ZeroElement",
    "NotSubadditive",
    "IdenticallyZero",
    "NotNondecreasing",
    "NotMinimal",
    "DimensionCap",
    "OutOfRange",
    "NotInClassG",
    "GridMismatch",
    "RhsMismatch",
    "ValidationFailure",
]


class GroupCutError(Exception):
    """Base class for domain errors raised by this package."""


class NotAUnit(GroupCutError):
    """Residue is not invertible modulo the group order."""


class NotPrime(GroupCutError):
    """Operation requires a prime group order."""


class ZeroElement(GroupCutError):
    """The zero residue is not allowed here."""


class NotSubadditive(GroupCutError):
    """Input function violates subadditivity."""


class IdenticallyZero(GroupCutError):
    """Input function is zero everywhere."""


class NotNondecreasing(GroupCutError):
    """Input function must be nondecreasing."""


class NotMinimal(GroupCutError):
    """Input function fails the minimality conditions."""


class DimensionCap(GroupCutError):
    """Group order exceeds the configured enumeration cap."""

    @classmethod
    def order(cls, q: int, cap: str, limit: int) -> DimensionCap:
        """'q=<q> exceeds the <cap> cap <limit>'.  An order too long for the
        interpreter's int-to-string digit limit is named by its bit length,
        so that the refusal cannot fail on its own message."""
        try:
            name = f"q={q}"
        except ValueError:
            name = f"a q of {q.bit_length()} bits"
        return cls(f"{name} exceeds the {cap} cap {limit}")


class OutOfRange(GroupCutError):
    """Index or coordinate outside its admissible range."""


class NotInClassG(GroupCutError):
    """Function is not nondecreasing, subadditive and wrap-symmetric."""


class GridMismatch(GroupCutError):
    """Tableau fractions do not live on the function's grid."""


class RhsMismatch(GroupCutError):
    """Tableau right-hand side disagrees with the function's."""


class ValidationFailure(GroupCutError):
    """A predicted identity failed its exact check."""
