"""Exact reference results, computed without the code under test.

The kernel reference works on plain integers: a prior ``a[x] / sum(a)``, a
channel whose row ``x`` is ``b[x][y] / sum(b[x])``, a predicate value
``u[y] / v[y]`` and an evidence state ``r[y] / sum(r)``.  Each result is
put over one common denominator with integer sums and reduced to a
``Fraction`` only at the end, so it shares no code path with the
``Fraction``-per-addition kernel in ``softbayes.core`` / ``softbayes.updates``.
The bench self-test checks these formulas against ``softbayes.oracle``.

The netspec-dag reference recomputes each generated query bottom-up with
plain ``Fraction`` lists, once per query, from the generator's own numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod


@dataclass(frozen=True)
class KernelInstance:
    """One dense soft-evidence instance as integer numerators."""

    a: tuple[int, ...]  # prior numerators, all positive
    b: tuple[tuple[int, ...], ...]  # channel rows, all entries positive
    pred: tuple[tuple[int, int], ...]  # predicate values u/v, not all zero
    r: tuple[int, ...]  # evidence numerators, not all zero


def _row_scale(inst: KernelInstance) -> tuple[int, list[int]]:
    """L = lcm of the row totals, and L / total for each row."""
    totals = [sum(row) for row in inst.b]
    big = lcm(*totals)
    return big, [big // t for t in totals]


def _prediction_numerators(inst: KernelInstance, scale: list[int]) -> list[int]:
    """N[y] with (c >> sigma)(y) = N[y] / (sum(a) * L)."""
    n_out = len(inst.b[0])
    return [
        sum(ax * row[y] * s for ax, row, s in zip(inst.a, inst.b, scale))
        for y in range(n_out)
    ]


def state_transform(inst: KernelInstance) -> list[Fraction]:
    big, scale = _row_scale(inst)
    den = sum(inst.a) * big
    return [Fraction(num, den) for num in _prediction_numerators(inst, scale)]


def pearl_update(inst: KernelInstance) -> list[Fraction]:
    """sigma conditioned on c << q, normalised once."""
    _, scale = _row_scale(inst)
    v_all = lcm(*(v for _, v in inst.pred))
    q = [u * (v_all // v) for u, v in inst.pred]  # q[y] = q_num[y] / v_all
    weights = [
        ax * s * sum(bxy * qy for bxy, qy in zip(row, q))
        for ax, row, s in zip(inst.a, inst.b, scale)
    ]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def dagger(inst: KernelInstance) -> list[list[Fraction]]:
    """Inverted rows: row y, element x is sigma(x) c(x)(y) / (c >> sigma)(y)."""
    _, scale = _row_scale(inst)
    pred_num = _prediction_numerators(inst, scale)
    return [
        [Fraction(ax * row[y] * s, pred_num[y]) for ax, row, s in zip(inst.a, inst.b, scale)]
        for y in range(len(pred_num))
    ]


def jeffrey_update(inst: KernelInstance) -> list[Fraction]:
    """sum_y rho(y) * dagger row y, over the product of the row denominators."""
    _, scale = _row_scale(inst)
    pred_num = _prediction_numerators(inst, scale)
    used = [y for y, ry in enumerate(inst.r) if ry]
    den = prod(pred_num[y] for y in used)
    share = {y: inst.r[y] * (den // pred_num[y]) for y in used}
    total_r = sum(inst.r)
    return [
        Fraction(ax * s * sum(row[y] * share[y] for y in used), total_r * den)
        for ax, row, s in zip(inst.a, inst.b, scale)
    ]


# -- netspec-dag -------------------------------------------------------------


@dataclass(frozen=True)
class DagNetwork:
    """A generated chain network: q0 = c >> s0, q1 = c >> s1, and
    q_i = blend(w_i, c >> q_{i-1}, q_{i-2}) for i >= 2."""

    s0: tuple[Fraction, ...]
    s1: tuple[Fraction, ...]
    channel: tuple[tuple[Fraction, ...], ...]
    blend: tuple[Fraction, ...]  # w_i for i = 2 .. depth

    @property
    def depth(self) -> int:
        return len(self.blend) + 1


def _push(channel, state) -> list[Fraction]:
    return [sum(sx * row[y] for sx, row in zip(state, channel)) for y in range(len(channel[0]))]


def dag_value(net: DagNetwork) -> list[Fraction]:
    """The exact value of the deepest query, each query computed once."""
    older, newer = _push(net.channel, net.s0), _push(net.channel, net.s1)
    for w in net.blend:
        moved = _push(net.channel, newer)
        older, newer = newer, [w * m + (1 - w) * o for m, o in zip(moved, older)]
    return newer
