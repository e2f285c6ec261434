"""Brute-force verifier over materialised joint tables.

Everything here is computed by direct enumeration over the joint
distribution ``mass(x, y) = prior(x) * channel(x)(y)``: weighting,
renormalising, and summing raw rationals.  None of the transformation
operators from the main library are used — that independence is the
point, since test suites compare both routes for exact equality.

Every sum is exact and taken once: the summands are put over the lcm of
their denominators and their integer numerators added.  Conditioning
followed by the X-marginal, the route of Pearl's rule, is one pass over
the cells that weighs each, sums per x and divides by the total once.
An inverted-channel row is the joint conditioned on the point evidence
1_y, which is column y renormalised, so it is computed from that column
alone and kept on its table.  The tables stay materialised and every
value is enumerated: only the arithmetic is shared, never a formula of
the main library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from types import MappingProxyType
from typing import Mapping

from .core import Channel, Element, Space, State
from .errors import ZeroMass

ZERO = Fraction(0)


def _over_lcm(values) -> tuple[list[int], int]:
    """Fractions as integer numerators over the lcm of their denominators."""
    values = list(values)
    # a list, not a generator: on CPython 3.11, 12,000 calls unpacking a
    # generator into lcm left about 2 MB allocated, and a list leaves none
    big = lcm(*[v.denominator for v in values])
    return [v.numerator * (big // v.denominator) for v in values], big


def _exact_sum(values) -> Fraction:
    """The sum of fractions: their numerators over one lcm, added as integers."""
    nums, big = _over_lcm(values)
    return Fraction(sum(nums), big)


def _shares(keys, nums: list[int]) -> dict:
    """Each key's integer mass over the total mass, exactly."""
    total = sum(nums)
    if total == 0:
        raise ZeroMass("weighted joint table has total mass 0")
    return {key: Fraction(k, total) for key, k in zip(keys, nums)}


@dataclass(frozen=True)
class JointTable:
    """Mass function on pairs (x, y) with total mass exactly 1."""

    domain: Space
    codomain: Space
    mass: Mapping[tuple[Element, Element], Fraction]
    # y -> the X-marginal conditioned on 1_y, filled by oracle_dagger_row
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # one subset test per axis and one sign test; only when one fails are
        # the cells walked, so the first faulty cell still decides the error
        known = self.domain._members.issuperset(
            [x for x, _ in self.mass]
        ) and self.codomain._members.issuperset([y for _, y in self.mass])
        nums, big = _over_lcm(self.mass.values())
        if not known or min(nums, default=0) < 0:
            for (x, y), k in zip(self.mass, nums):
                if not known:
                    self.domain.require(x)
                    self.codomain.require(y)
                if k < 0:
                    raise ZeroMass(f"negative mass at ({x}, {y})")
        if sum(nums) != big:
            total = Fraction(sum(nums), big)
            raise ZeroMass(f"joint mass sums to {total}, expected 1")
        full = {
            (x, y): self.mass.get((x, y), ZERO)
            for x in self.domain.elements
            for y in self.codomain.elements
        }
        object.__setattr__(self, "mass", MappingProxyType(full))

    def __reduce__(self):
        """Copy and pickle by the constructor, from the cells (a
        MappingProxyType cannot be pickled); the row cache starts empty."""
        return JointTable, (self.domain, self.codomain, dict(self.mass))


def joint_of(sigma: State, c: Channel) -> JointTable:
    """Materialise the joint: mass(x, y) = sigma(x) * c(x)(y)."""
    mass = {
        (x, y): sigma.weights[x] * c.rows[x].weights[y]
        for x in sigma.space.elements
        for y in c.codomain.elements
    }
    return JointTable(sigma.space, c.codomain, mass)


def _weighed(
    joint: JointTable, weight: Mapping[tuple[Element, Element], Fraction]
) -> list[int]:
    """Every cell times its weight, in cell order, as integer numerators over
    one denominator; ZeroMass at the first negative one."""
    masses, _ = _over_lcm(joint.mass.values())
    weights, _ = _over_lcm([weight[xy] for xy in joint.mass])
    weighed = list(map(mul, masses, weights))
    if min(weighed) < 0:
        x, y = next(xy for xy, v in zip(joint.mass, weighed) if v < 0)
        raise ZeroMass(f"negative mass at ({x}, {y})")
    return weighed


def _summed(space: Space, pairs, nums: list[int], axis: int) -> dict[Element, int]:
    """Integer masses summed per element of ``space``, the ``axis`` of each pair."""
    sums = dict.fromkeys(space.elements, 0)
    for pair, k in zip(pairs, nums):
        sums[pair[axis]] += k
    return sums


def conditioned_x_marginal(
    joint: JointTable, weight: Mapping[tuple[Element, Element], Fraction]
) -> State:
    """The X-marginal of the joint reweighed by ``weight`` and renormalised,
    in one pass: each cell weighed, the cells summed per x, and each sum
    divided by their total."""
    sums = _summed(joint.domain, joint.mass, _weighed(joint, weight), 0)
    return State(joint.domain, _shares(sums, list(sums.values())))


def _marginal(space: Space, joint: JointTable, axis: int) -> State:
    nums, big = _over_lcm(joint.mass.values())
    sums = _summed(space, joint.mass, nums, axis)
    return State(space, {e: Fraction(k, big) for e, k in sums.items()})


def x_marginal(joint: JointTable) -> State:
    return _marginal(joint.domain, joint, 0)


def y_marginal(joint: JointTable) -> State:
    return _marginal(joint.codomain, joint, 1)


def oracle_pearl(joint: JointTable, q_values: Mapping[Element, Fraction]) -> State:
    """Backward inference by enumeration: weigh each cell by q(y), marginalise."""
    weight = {(x, y): q_values[y] for (x, y) in joint.mass}
    return conditioned_x_marginal(joint, weight)


def oracle_dagger_row(joint: JointTable, y: Element) -> State:
    """The inverted-channel row at y: the joint conditioned on the point
    evidence 1_y, which is column y renormalised.

    Each row is computed once per table and kept, so Jeffrey's rule and a
    row-by-row comparison share it; a row with no mass is never kept.
    """
    row = joint._rows.get(y)
    if row is None:
        joint.codomain.require(y)
        column, _ = _over_lcm(joint.mass[x, y] for x in joint.domain.elements)
        row = joint._rows[y] = State(
            joint.domain, _shares(joint.domain.elements, column)
        )
    return row


def oracle_jeffrey(joint: JointTable, rho: State) -> State:
    """Jeffrey's rule by enumeration: rho-convex combination of point updates.

    For each y with rho(y) > 0, condition the joint on 1_y, take the
    X-marginal, and mix the results with weights rho(y).
    """
    parts = []
    for y in joint.codomain.elements:
        r = rho.weights[y]
        if r == 0:
            continue
        try:
            parts.append((r, oracle_dagger_row(joint, y)))
        except ZeroMass:
            raise ZeroMass(
                f"evidence has mass {r} at {y!r} but the joint has none there"
            )
    return State(
        joint.domain,
        {
            x: _exact_sum(r * row.weights[x] for r, row in parts)
            for x in joint.domain.elements
        },
    )
