"""Semantic exception hierarchy.

Every failure mode of the calculus gets its own class so callers can
distinguish modelling errors (mismatched spaces, missing support) from
plain bad input (weights that do not sum to one).
"""

from __future__ import annotations


class SoftbayesError(Exception):
    """Base class for all library errors.  ``element``, when set, is the
    element the error is about and ``space`` the space it was sought in."""

    def __init__(self, message: str = "", element: object = None, space=None):
        super().__init__(message)
        self.element, self.space = element, space


# ---------------------------------------------------------------------------
# value construction


class WeightSumNotOne(SoftbayesError):
    """State weights must sum to exactly 1 (rational equality)."""


class UnknownElement(SoftbayesError):
    """An element was used that does not belong to the space at hand."""


class DuplicateElement(SoftbayesError):
    """The same element was listed twice in one construction."""


class ValueOutOfRange(SoftbayesError):
    """A probability or predicate value fell outside [0, 1]."""


class MissingRow(SoftbayesError):
    """A channel is missing the row for some domain element."""


# ---------------------------------------------------------------------------
# calculus preconditions


class SpaceMismatch(SoftbayesError):
    """Two values live on different spaces (identity: name + element list),
    or a product space would be too large to build (``core.MAX_PRODUCT``)."""


class ZeroValidity(SoftbayesError):
    """Conditioning on a predicate with validity 0 is undefined."""


class NotAProductSpace(SoftbayesError):
    """Marginalisation needs a state on a binary product space."""


class NotFullSupport(SoftbayesError):
    """Bayesian inversion needs the predicted state to have full support."""


class DivisionBySupportGap(SoftbayesError):
    """A state/state ratio is undefined where the denominator state is 0."""


class NotDeterministic(SoftbayesError):
    """A partition update needs a channel whose rows are all point masses."""


class EmptyBlockWithMass(SoftbayesError):
    """A partition block carries evidence mass but has prior mass 0."""


class DegenerateEvent(SoftbayesError):
    """An all-things-considered update hit an event of mass 0 or 1."""


class ZeroMass(SoftbayesError):
    """A brute-force table was conditioned down to total mass 0."""


class NonBinaryEvidenceSpace(SoftbayesError):
    """The sweep needs a binary evidence space for its parameter."""


class NumberTooLarge(SoftbayesError):
    """A kernel would build a number of more than ``core.MAX_BITS`` bits."""
