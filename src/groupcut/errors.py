"""Exception types named for the contract they uphold."""

from __future__ import annotations


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


class OutOfRange(GroupCutError):
    """Index or coordinate outside its admissible range."""


class NotInClassG(GroupCutError):
    """Function is not nondecreasing, subadditive and wrap-symmetric."""


class GridMismatch(GroupCutError):
    """Tableau fractions do not live on the function's grid."""


class RhsMismatch(GroupCutError):
    """Tableau right-hand side disagrees with the function's."""


class ValidationFailure(GroupCutError):
    """A predicted identity failed an exact or toleranced check."""
