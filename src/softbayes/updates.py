"""Bayesian channel inversion and the soft-evidence update rules.

Two rules accommodate soft evidence about the codomain of a channel
``c : X -> Y`` with prior ``sigma`` on X:

* Pearl's rule treats the evidence as a fuzzy predicate ``q`` on Y and
  *factors it in* by backward inference: the posterior is ``sigma``
  conditioned on ``c << q``.  Iterated Pearl updates commute, and the
  updated state makes the evidence "more true" (improvement).

* Jeffrey's rule treats the evidence as a new state of affairs ``rho``
  on Y and *adjusts to it* by pushing ``rho`` through the inverted
  channel: the posterior is ``dagger(c, sigma) >> rho`` (correction).
  Iterated Jeffrey updates do not commute in general.

The inversion ``dagger(c, sigma)`` only exists when the prediction
``c >> sigma`` has full support.  ``jeffrey_update`` offers a relaxed
mode that inverts only the rows the evidence actually touches, which is
the natural precondition for partition-style updates.

Also here: the event-based softness specifications ("all things
considered" posterior validity and "nothing else considered" Bayes
factor), the convex blend of the two rules, total variation distance,
and state/predicate conversions.  Both event forms condition the prior
on a two-valued predicate {E: a, not-E: b}: ATC on the ratio predicate
of Jeffrey's rule on the partition {E, not-E}, NEC on the factor
predicate {E: k, not-E: 1}.  States and predicates stay distinct types
throughout; the conversions are explicit.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import core
from .core import (
    Channel,
    Element,
    Predicate,
    State,
    as_fraction,
    condition,
    indicator,
    predicate_transform,
    render_element,
    state_transform,
    validity,
)
from .errors import (
    DegenerateEvent,
    DivisionBySupportGap,
    EmptyBlockWithMass,
    NonBinaryEvidenceSpace,
    NotDeterministic,
    NotFullSupport,
    ValueOutOfRange,
)


# ---------------------------------------------------------------------------
# Bayesian inversion


def dagger(c: Channel, sigma: State) -> Channel:
    """The inverted channel c†_sigma : Y -> X.

    Row at y is sigma conditioned on the point evidence 1_y pulled back
    through c, i.e. weight sigma(x)*c(x)(y) / (c >> sigma)(y).  Requires
    the predicted state c >> sigma to have full support; raises
    NotFullSupport naming the first offending element otherwise.

    Unlike other kernel results, the rows are built with their Fraction
    maps: ``--explain`` prints them, and with them deferred the
    ``kernel-dense`` benchmark's timed call shrank so far that its worker,
    whose check reads every row, ran past the 150 s limit of
    ``bench/run.py`` (ROADMAP item 4).
    """
    w, rows, predicted = _prediction(c, sigma)
    inverted = _inverted_rows(c, w, rows, predicted, range(len(predicted)))
    for row in inverted.values():
        row.weights  # built now, once
    return Channel(c.codomain, c.domain, inverted)


def _prediction(c: Channel, sigma: State):
    """The integer joint (w, rows) and the prediction's numerators,
    computed once for everything an inversion needs."""
    core._require_same_space(sigma.space, c.domain, "inversion")
    w, rows, _ = core._joint(c, sigma)
    return w, rows, core._predicted(w, rows)


def _require_support(c: Channel, predicted: list[int], needed: Sequence[int]) -> None:
    """NotFullSupport at the first needed element the prediction misses."""
    for j in needed:
        if predicted[j] == 0:
            y = c.codomain.elements[j]
            raise NotFullSupport(
                f"cannot invert: predicted state has weight 0 at "
                f"{render_element(y)}",
                element=y,
            )


def _inverted_rows(
    c: Channel, w: list[int], rows, predicted: list[int], needed: Sequence[int]
) -> dict[Element, State]:
    """Row y is w[x] * rows[x][y] / predicted[y]; it sums to 1 by construction."""
    _require_support(c, predicted, needed)
    columns = list(zip(*rows))
    return {
        c.codomain.elements[j]: State._from_integers(
            c.domain, list(map(mul, w, columns[j])), predicted[j]
        )
        for j in needed
    }


# ---------------------------------------------------------------------------
# the two update rules


def pearl_update(sigma: State, c: Channel, q: Predicate) -> State:
    """Factor predicate evidence in by backward inference: sigma|_(c << q).

    Computed in one normalisation: the weight at x is proportional to
    sigma(x) * (c << q)(x), with no intermediate predicate.
    """
    core._require_same_space(q.space, c.codomain, "predicate transformation")
    core._require_same_space(sigma.space, c.domain, "validity")
    w, rows, _ = core._joint(c, sigma)
    return core._normalised(sigma.space, core._pulled_back(w, rows, q._nums))


def jeffrey_update(
    sigma: State, c: Channel, rho: State, *, relaxed: bool = False
) -> State:
    """Adjust to a new state of affairs: dagger(c, sigma) >> rho.

    With ``relaxed=True`` the inversion is computed only at elements
    where rho has positive weight, so the prediction c >> sigma may have
    support gaps as long as the evidence avoids them.

    Computed through the translation to Pearl's rule: the posterior is
    sigma conditioned on c << (rho / tau), tau = c >> sigma (the ratio
    predicate; Chan & Darwiche's virtual evidence).  In integers, with
    T = predicted and D the lcm of T[y] where rho has weight, the ratio
    predicate is r_y * D / T[y] and the weight at x is
    w[x] * sum_y rows[x][y] * r_y * D / T[y], over R * D exactly.
    """
    core._require_same_space(rho.space, c.codomain, "Jeffrey update")
    w, rows, predicted = _prediction(c, sigma)
    r = rho._nums
    _require_support(
        c, predicted, [j for j, k in enumerate(r) if k] if relaxed else range(len(r))
    )
    ratio, big = _ratio_numerators(r, predicted)
    return State._from_integers(
        c.domain, core._pulled_back(w, rows, ratio), rho._den * big
    )


def _ratio_numerators(r: Sequence[int], t: Sequence[int]) -> tuple[list[int], int]:
    """The ratio predicate r / t in integers: r_y * D / t_y (0 where r_y is 0)
    and D, the lcm of t_y where r_y > 0, each of which must be positive."""
    big = lcm(*(t_y for r_y, t_y in zip(r, t) if r_y))
    return [r_y * (big // t_y) if r_y else 0 for r_y, t_y in zip(r, t)], big


def forward_inference(sigma: State, c: Channel, p: Predicate) -> State:
    """Condition on predicate evidence, then predict: c >> (sigma|_p)."""
    return state_transform(c, condition(sigma, p))


# ---------------------------------------------------------------------------
# state/predicate conversions


def state_to_predicate(rho: State) -> Predicate:
    """Read a state's weights as predicate values (they lie in [0, 1])."""
    return Predicate._from_integers(rho.space, rho._nums, rho._den)


def normalize_predicate(p: Predicate) -> State:
    """Normalise a predicate with positive total value to a state."""
    total = sum(p._nums)
    if total == 0:
        raise ValueOutOfRange("cannot normalise the zero predicate to a state")
    return State._from_integers(p.space, p._nums, total)


def state_to_predicate_ratio(rho: State, tau: State) -> Predicate:
    """The ratio predicate rho/tau, rescaled so its maximum value is 1.

    Translates Jeffrey evidence rho into Pearl evidence against the
    prediction tau: conditioning on this predicate reproduces the
    Jeffrey posterior.  Undefined where rho is positive but tau is 0.
    """
    core._require_same_space(rho.space, tau.space, "state ratio")
    for y, r, t in zip(rho.space.elements, rho._nums, tau._nums):
        if r and not t:
            raise DivisionBySupportGap(
                f"ratio undefined: evidence has mass at "
                f"{render_element(y)} where the prediction has none"
            )
    # rho sums to 1, so some ratio is positive whenever tau is a state
    ratio, _ = _ratio_numerators(rho._nums, tau._nums)
    return Predicate._from_integers(rho.space, ratio, max(ratio))


# ---------------------------------------------------------------------------
# partition / event forms


def partition_jeffrey(f: Channel, omega: State, rho: State) -> State:
    """Jeffrey's rule along a deterministic channel, by block conditioning.

    The posterior sum_i rho(i) * omega|_(1_{U_i}) over the blocks
    U_i = f^{-1}(i) is ``jeffrey_update(omega, f, rho, relaxed=True)``, and
    is computed so: for a deterministic f the inverted row at i is omega
    conditioned on U_i, and the prediction at i is the prior mass of U_i.
    """
    core._require_same_space(omega.space, f.domain, "partition update")
    core._require_same_space(rho.space, f.codomain, "partition update")
    if not f.is_deterministic:
        raise NotDeterministic(
            "partition update needs a deterministic channel (all rows point masses)"
        )
    try:
        return jeffrey_update(omega, f, rho, relaxed=True)
    except NotFullSupport as exc:
        i = exc.element
        raise EmptyBlockWithMass(
            f"evidence gives mass {rho.weights[i]} to block "
            f"{render_element(i)} whose prior mass is 0"
        ) from None


def _event_members(omega: State, event: Iterable[Element]) -> frozenset:
    """The event's elements, checked in the order listed so that the first
    unknown one is named."""
    listed = tuple(event)
    if not listed:
        raise DegenerateEvent("event must be a nonempty set of elements")
    for x in listed:
        omega.space.require(x)
    return frozenset(listed)


def _event_predicate(omega: State, members: frozenset, a: int, b: int) -> Predicate:
    """The two-valued predicate {E: a, not-E: b} / max(a, b) on omega's space."""
    values = [a if x in members else b for x in omega.space.elements]
    return Predicate._from_integers(omega.space, values, max(a, b))


def atc_update(omega: State, event: Iterable[Element], strength) -> State:
    """"All things considered": prescribe the posterior validity of an event.

    The result gives the event total mass exactly ``strength``, scaling
    inside and outside the event separately: Jeffrey on the two-block
    partition {E, not-E}, computed as conditioning on its ratio predicate
    {E: q / inside, not-E: (1 - q) / outside}.  Degenerate when the needed
    side of the partition has prior mass 0.
    """
    q = as_fraction(strength)
    if q < 0 or q > 1:
        raise ValueOutOfRange(f"strength {q} lies outside [0, 1]")
    members = _event_members(omega, event)
    inside = sum(k for x, k in zip(omega.space.elements, omega._nums) if x in members)
    outside = omega._den - inside
    if q > 0 and inside == 0:
        raise DegenerateEvent(f"event has prior mass 0 but target validity {q}")
    if q < 1 and outside == 0:
        raise DegenerateEvent(
            f"event complement has prior mass 0 but target validity {q}"
        )
    m, n = q.numerator, q.denominator
    (a, b), _ = _ratio_numerators((m, n - m), (inside, outside))
    return condition(omega, _event_predicate(omega, members, a, b))


def nec_update(omega: State, event: Iterable[Element], factor) -> State:
    """"Nothing else considered": weigh an event by a Bayes factor k > 0.

    Multiplies mass inside the event by k and renormalises: Pearl's rule
    with the two-valued factor predicate {E: k, not-E: 1}, computed as
    conditioning on it scaled into [0, 1] by its maximum.
    """
    k = as_fraction(factor)
    if k <= 0:
        raise ValueOutOfRange(f"Bayes factor must be positive, got {k}")
    members = _event_members(omega, event)
    return condition(
        omega, _event_predicate(omega, members, k.numerator, k.denominator)
    )


def blend_update(s, jr: State, pr: State) -> State:
    """Convex mix s*JR + (1-s)*PR of a Jeffrey and a Pearl posterior."""
    s = as_fraction(s)
    m, n = s.numerator, s.denominator
    if m < 0 or m > n:
        raise ValueOutOfRange(f"blend weight {s} lies outside [0, 1]")
    core._require_same_space(jr.space, pr.space, "blend")
    core._require_bits(jr._den, pr._den)
    jw, pw = m * pr._den, (n - m) * jr._den
    return State._from_integers(
        jr.space,
        [jw * j + pw * p for j, p in zip(jr._nums, pr._nums)],
        n * jr._den * pr._den,
    )


def evidence_sweep(
    sigma: State, c: Channel, target: Element, steps: int
) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
    """Both rules at ``target`` as the evidence on a binary codomain {y1, y2}
    moves from y2 to y1: rows (r, Jeffrey, Pearl) for r = i / steps,
    i = 0..steps, Jeffrey's evidence the state {y1: r, y2: 1 - r} (relaxed)
    and Pearl's the predicate with the same values.

    The codomain and target are checked at once; each row is computed as it
    is read, so a space mismatch, or a gap in the prediction that a step's
    evidence needs, raises at that row, after the rows before it.
    """
    if len(c.codomain) != 2:
        raise NonBinaryEvidenceSpace(
            f"sweep needs a binary evidence space, {c.codomain.name!r} "
            f"has {len(c.codomain)} elements"
        )
    sigma.space.require(target)
    return _sweep_rows(sigma, c, sigma.space.elements.index(target), steps)


def _sweep_rows(sigma: State, c: Channel, t: int, n: int):
    # Both rules mix the two inverted rows d_y = joint(t, y) / tau_y, in
    # integers j_y / t_y.  Jeffrey(r) = r * d1 + (1 - r) * d2; Pearl's
    # posterior is the joint weighed by q and renormalised, which at t is
    # (i * j1 + (n - i) * j2) / (i * t1 + (n - i) * t2).
    w, rows, predicted = _prediction(c, sigma)
    (j1, j2), (t1, t2) = [w[t] * k for k in rows[t]], predicted
    # where the prediction misses y there is no row y, and any step that
    # would weigh it fails the support check first: the other row stands in
    if not t1:
        j1, t1 = j2, t2
    if not t2:
        j2, t2 = j1, t1
    for i in range(n + 1):
        _require_support(c, predicted, [j for j, k in enumerate((i, n - i)) if k])
        yield (
            Fraction(i, n),
            Fraction(i * j1 * t2 + (n - i) * j2 * t1, n * t1 * t2),
            Fraction(i * j1 + (n - i) * j2, i * t1 + (n - i) * t2),
        )


def total_variation(sigma: State, other: State) -> Fraction:
    """Distance sum_x |sigma(x) - other(x)| (un-halved convention)."""
    core._require_same_space(sigma.space, other.space, "total variation")
    a, b = sigma._den, other._den
    return Fraction(
        sum(abs(j * b - k * a) for j, k in zip(sigma._nums, other._nums)), a * b
    )


# ---------------------------------------------------------------------------
# working (for --explain output)
#
# Each rule's working is a function of the rule's own arguments, computed
# only when asked for, after the rule's kernel has produced the posterior:
# (label, value) steps in display order, the prior first.


def pearl_report(sigma: State, c: Channel, q: Predicate) -> tuple:
    """The transformed predicate c << q and its validity in the prior."""
    transformed = predicate_transform(c, q)
    return (
        ("prior", sigma),
        ("transformed predicate", transformed),
        ("validity", validity(sigma, transformed)),
    )


def jeffrey_report(sigma: State, c: Channel, rho: State) -> tuple:
    """The prediction c >> sigma and each row of the inverted channel."""
    rows = dagger(c, sigma).rows
    return (
        ("prior", sigma),
        ("prediction", state_transform(c, sigma)),
        *((f"inverted row {render_element(y)}", row) for y, row in rows.items()),
    )


def atc_report(omega: State, event: Iterable[Element], strength) -> tuple:
    """The event's prior mass."""
    return (
        ("prior", omega),
        ("event prior mass", validity(omega, indicator(omega.space, event))),
    )


def nec_report(omega: State, event: Iterable[Element], factor) -> tuple:
    """The factor predicate {E: k, not-E: 1}, scaled into [0, 1], that
    ``nec_update`` conditions on."""
    k = as_fraction(factor)
    equivalent = _event_predicate(omega, frozenset(event), k.numerator, k.denominator)
    return (("prior", omega), ("equivalent predicate", equivalent))


def blend_report(s, jr: State, pr: State) -> tuple:
    """The weight s and both parts; the Pearl part stands as the prior."""
    return (
        ("prior", pr),
        ("novelty s", as_fraction(s)),
        ("jeffrey part", jr),
        ("pearl part", pr),
    )
