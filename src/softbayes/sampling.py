"""Seeded random instances for randomized law checking.

Weights are drawn as small integer numerators and normalised, so inputs
stay exact rationals with modest denominators.  Used by the property
suites and by the ``check`` command.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import Channel, Predicate, Space, State

DEFAULT_MAX_DENOMINATOR = 20


def random_space(rng: random.Random, name: str, max_size: int = 5) -> Space:
    size = rng.randint(2, max_size)
    return Space(name, tuple(f"{name}{i}" for i in range(size)))


def random_state(
    rng: random.Random,
    space: Space,
    max_den: int = DEFAULT_MAX_DENOMINATOR,
    full_support: bool = False,
) -> State:
    lo = 1 if full_support else 0
    while True:
        numerators = [rng.randint(lo, max_den) for _ in space.elements]
        total = sum(numerators)
        if total > 0:
            break
    return State._from_integers(space, numerators, total)


def random_predicate(
    rng: random.Random,
    space: Space,
    max_den: int = DEFAULT_MAX_DENOMINATOR,
    nonzero: bool = False,
) -> Predicate:
    while True:
        values = {}
        for x in space.elements:
            den = rng.randint(1, max_den)
            values[x] = Fraction(rng.randint(0, den), den)
        if not nonzero or any(values.values()):
            return Predicate(space, values)


def random_channel(
    rng: random.Random,
    domain: Space,
    codomain: Space,
    max_den: int = DEFAULT_MAX_DENOMINATOR,
    full_support_rows: bool = False,
) -> Channel:
    rows = {
        x: random_state(rng, codomain, max_den, full_support=full_support_rows)
        for x in domain.elements
    }
    return Channel(domain, codomain, rows)
