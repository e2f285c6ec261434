"""Brute-force verifier over materialised joint tables.

Everything here is computed by direct enumeration over the joint
distribution ``mass(x, y) = prior(x) * channel(x)(y)``: weighting,
renormalising, and summing raw rationals.  None of the transformation
operators from the main library are used — that independence is the
point, since test suites compare both routes for exact equality.

An inverted-channel row is the joint conditioned on the point evidence
1_y, which is column y renormalised, so it is computed from that column
alone and kept on its table.  Otherwise deliberately unoptimised; tables
are tiny in every intended use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .core import Channel, Element, Space, State
from .errors import ZeroMass

ZERO = Fraction(0)


@dataclass(frozen=True)
class JointTable:
    """Mass function on pairs (x, y) with total mass exactly 1."""

    domain: Space
    codomain: Space
    mass: Mapping[tuple[Element, Element], Fraction]
    # y -> the X-marginal conditioned on 1_y, filled by oracle_dagger_row
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # one subset test per axis; only when one fails are the cells walked
        # for membership, so the first faulty cell still decides the error
        known = self.domain._members.issuperset(
            [x for x, _ in self.mass]
        ) and self.codomain._members.issuperset([y for _, y in self.mass])
        total = ZERO
        for (x, y), m in self.mass.items():
            if not known:
                self.domain.require(x)
                self.codomain.require(y)
            if m < 0:
                raise ZeroMass(f"negative mass at ({x}, {y})")
            total += m
        if total != 1:
            raise ZeroMass(f"joint mass sums to {total}, expected 1")
        full = {
            (x, y): self.mass.get((x, y), ZERO)
            for x in self.domain.elements
            for y in self.codomain.elements
        }
        object.__setattr__(self, "mass", MappingProxyType(full))


def joint_of(sigma: State, c: Channel) -> JointTable:
    """Materialise the joint: mass(x, y) = sigma(x) * c(x)(y)."""
    mass = {
        (x, y): sigma.weights[x] * c.rows[x].weights[y]
        for x in sigma.space.elements
        for y in c.codomain.elements
    }
    return JointTable(sigma.space, c.codomain, mass)


def oracle_condition(
    joint: JointTable, weight: Mapping[tuple[Element, Element], Fraction]
) -> JointTable:
    """Reweigh every cell and renormalise exactly."""
    weighted = {xy: m * weight[xy] for xy, m in joint.mass.items()}
    total = sum(weighted.values(), ZERO)
    if total == 0:
        raise ZeroMass("weighted joint table has total mass 0")
    return JointTable(
        joint.domain, joint.codomain, {xy: m / total for xy, m in weighted.items()}
    )


def x_marginal(joint: JointTable) -> State:
    weights = {x: ZERO for x in joint.domain.elements}
    for (x, _y), m in joint.mass.items():
        weights[x] += m
    return State(joint.domain, weights)


def y_marginal(joint: JointTable) -> State:
    weights = {y: ZERO for y in joint.codomain.elements}
    for (_x, y), m in joint.mass.items():
        weights[y] += m
    return State(joint.codomain, weights)


def oracle_pearl(joint: JointTable, q_values: Mapping[Element, Fraction]) -> State:
    """Backward inference by enumeration: weigh each cell by q(y), marginalise."""
    weight = {(x, y): q_values[y] for (x, y) in joint.mass}
    return x_marginal(oracle_condition(joint, weight))


def oracle_dagger_row(joint: JointTable, y: Element) -> State:
    """The inverted-channel row at y: the joint conditioned on the point
    evidence 1_y, which is column y renormalised.

    Each row is computed once per table and kept, so Jeffrey's rule and a
    row-by-row comparison share it; a row with no mass is never kept.
    """
    row = joint._rows.get(y)
    if row is None:
        joint.codomain.require(y)
        column = {x: joint.mass[x, y] for x in joint.domain.elements}
        total = sum(column.values(), ZERO)
        if total == 0:
            raise ZeroMass("weighted joint table has total mass 0")
        row = joint._rows[y] = State(
            joint.domain, {x: m / total for x, m in column.items()}
        )
    return row


def oracle_jeffrey(joint: JointTable, rho: State) -> State:
    """Jeffrey's rule by enumeration: rho-convex combination of point updates.

    For each y with rho(y) > 0, condition the joint on 1_y, take the
    X-marginal, and mix the results with weights rho(y).
    """
    weights = {x: ZERO for x in joint.domain.elements}
    for y in joint.codomain.elements:
        r = rho.weights[y]
        if r == 0:
            continue
        try:
            row = oracle_dagger_row(joint, y)
        except ZeroMass:
            raise ZeroMass(
                f"evidence has mass {r} at {y!r} but the joint has none there"
            )
        for x, w in row.weights.items():
            weights[x] += r * w
    return State(joint.domain, weights)
