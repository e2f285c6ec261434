"""Property-based tests of the calculus laws on randomly generated instances.

Every law is checked with exact rational equality — no tolerances anywhere.
Strategies draw small integer numerators and normalise, so all inputs are
honest states/channels with modest denominators.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from softbayes import (
    Space,
    State,
    compose,
    condition,
    conjunction,
    dagger,
    forward_inference,
    indicator,
    jeffrey_update,
    make_predicate,
    marginal,
    nec_update,
    atc_update,
    blend_update,
    pearl_update,
    point,
    point_mass,
    predicate_transform,
    product_state,
    scale,
    state_to_predicate_ratio,
    state_transform,
    total_variation,
    truth,
    validity,
)
from softbayes.core import Channel, Predicate
from softbayes.errors import NotFullSupport, ZeroMass, ZeroValidity
from softbayes.oracle import (
    joint_of,
    oracle_dagger_row,
    oracle_jeffrey,
    oracle_pearl,
    y_marginal,
)
from softbayes.updates import evidence_sweep
from theorems import divergence_at_most, jeffrey_corrects, pearl_improves

MAX_NUM = 20

settings.register_profile("laws", deadline=None, max_examples=100)
settings.load_profile("laws")


def _space(name: str, size: int) -> Space:
    return Space(name, tuple(f"{name}{i}" for i in range(size)))


@st.composite
def state_on(draw, space: Space, full_support: bool = False) -> State:
    lo = 1 if full_support else 0
    nums = draw(
        st.lists(
            st.integers(lo, MAX_NUM),
            min_size=len(space),
            max_size=len(space),
        ).filter(lambda ns: sum(ns) > 0)
    )
    total = sum(nums)
    return State(space, {x: F(n, total) for x, n in zip(space.elements, nums)})


@st.composite
def predicate_on(draw, space: Space, nonzero: bool = False) -> Predicate:
    values = {}
    for x in space.elements:
        den = draw(st.integers(1, MAX_NUM))
        values[x] = F(draw(st.integers(0, den)), den)
    if nonzero:
        assume(any(values.values()))
    return Predicate(space, values)


@st.composite
def channel_on(draw, dom: Space, cod: Space, full_support_rows: bool = False):
    rows = {x: draw(state_on(cod, full_support=full_support_rows)) for x in dom}
    return Channel(dom, cod, rows)


@st.composite
def triple(draw, full=False):
    """(sigma, channel, codomain) with optional everywhere-positive weights."""
    dom = _space("x", draw(st.integers(2, 5)))
    cod = _space("y", draw(st.integers(2, 5)))
    sigma = draw(state_on(dom, full_support=full))
    c = draw(channel_on(dom, cod, full_support_rows=full))
    return sigma, c, cod


@st.composite
def unit_fraction(draw, exclude_zero=False):
    den = draw(st.integers(1, MAX_NUM))
    num = draw(st.integers(1 if exclude_zero else 0, den))
    return F(num, den)


class TestTransformationLaws:
    @given(data=st.data())
    def test_adjointness(self, data):
        sigma, c, cod = data.draw(triple())
        q = data.draw(predicate_on(cod))
        assert validity(state_transform(c, sigma), q) == validity(
            sigma, predicate_transform(c, q)
        )

    @given(data=st.data())
    def test_compositionality(self, data):
        sigma, c, cod = data.draw(triple())
        far = _space("z", data.draw(st.integers(2, 4)))
        d = data.draw(channel_on(cod, far))
        q = data.draw(predicate_on(far))
        dc = compose(d, c)
        assert state_transform(dc, sigma) == state_transform(
            d, state_transform(c, sigma)
        )
        assert predicate_transform(dc, q) == predicate_transform(
            c, predicate_transform(d, q)
        )

    @given(data=st.data())
    def test_composition_associative(self, data):
        _sigma, c, cod = data.draw(triple())
        mid = _space("z", data.draw(st.integers(2, 4)))
        far = _space("w", data.draw(st.integers(2, 4)))
        d = data.draw(channel_on(cod, mid))
        e = data.draw(channel_on(mid, far))
        assert compose(compose(e, d), c) == compose(e, compose(d, c))

    @given(data=st.data())
    def test_lifting_respects_composition(self, data):
        a = _space("a", data.draw(st.integers(2, 4)))
        b = _space("b", data.draw(st.integers(2, 4)))
        cc = _space("c", data.draw(st.integers(2, 4)))
        f = {x: data.draw(st.sampled_from(b.elements)) for x in a.elements}
        g = {y: data.draw(st.sampled_from(cc.elements)) for y in b.elements}
        from softbayes import lift_function

        assert compose(lift_function(b, cc, g), lift_function(a, b, f)) == (
            lift_function(a, cc, {x: g[f[x]] for x in a.elements})
        )

    @given(data=st.data())
    def test_normalization_everywhere(self, data):
        sigma, c, cod = data.draw(triple())
        assert sum(w for _, w in state_transform(c, sigma).items()) == 1
        rho = data.draw(state_on(cod))
        pair = product_state(sigma, rho)
        assert sum(w for _, w in pair.items()) == 1
        assert marginal(pair, "first") == sigma
        assert marginal(pair, "second") == rho


class TestConditioningLaws:
    @given(data=st.data())
    def test_bayes_rule_for_fuzzy_predicates(self, data):
        space = _space("x", data.draw(st.integers(2, 5)))
        sigma = data.draw(state_on(space))
        p = data.draw(predicate_on(space))
        q = data.draw(predicate_on(space))
        assume(validity(sigma, p) != 0)
        assert validity(condition(sigma, p), q) == (
            validity(sigma, conjunction(p, q)) / validity(sigma, p)
        )

    @given(data=st.data())
    def test_iterated_conditioning_commutes(self, data):
        space = _space("x", data.draw(st.integers(2, 5)))
        sigma = data.draw(state_on(space))
        p = data.draw(predicate_on(space))
        q = data.draw(predicate_on(space))
        assume(validity(sigma, conjunction(p, q)) != 0)
        both = condition(sigma, conjunction(p, q))
        assert condition(condition(sigma, p), q) == both
        assert condition(condition(sigma, q), p) == both

    @given(data=st.data())
    def test_scalar_invariance(self, data):
        space = _space("x", data.draw(st.integers(2, 5)))
        sigma = data.draw(state_on(space))
        p = data.draw(predicate_on(space))
        s = data.draw(unit_fraction(exclude_zero=True))
        assume(validity(sigma, p) != 0)
        assert condition(sigma, scale(s, p)) == condition(sigma, p)

    @given(data=st.data())
    def test_improvement(self, data):
        space = _space("x", data.draw(st.integers(2, 5)))
        sigma = data.draw(state_on(space))
        p = data.draw(predicate_on(space))
        assume(validity(sigma, p) != 0)
        assert validity(condition(sigma, p), p) >= validity(sigma, p)


class TestPearlLaws:
    @given(data=st.data())
    def test_scalar_invariance_and_uniform_noop(self, data):
        sigma, c, cod = data.draw(triple())
        q = data.draw(predicate_on(cod))
        s = data.draw(unit_fraction(exclude_zero=True))
        assume(validity(sigma, predicate_transform(c, q)) != 0)
        assert pearl_update(sigma, c, scale(s, q)) == pearl_update(sigma, c, q)
        assert pearl_update(sigma, c, scale(s, truth(cod))) == sigma

    @given(data=st.data())
    def test_iterated_updates_commute(self, data):
        dom = _space("x", data.draw(st.integers(2, 4)))
        cod1 = _space("y", data.draw(st.integers(2, 4)))
        cod2 = _space("z", data.draw(st.integers(2, 4)))
        sigma = data.draw(state_on(dom))
        c = data.draw(channel_on(dom, cod1))
        d = data.draw(channel_on(dom, cod2))
        p = data.draw(predicate_on(cod1))
        q = data.draw(predicate_on(cod2))
        cp = predicate_transform(c, p)
        dq = predicate_transform(d, q)
        assume(validity(sigma, conjunction(cp, dq)) != 0)
        joint = condition(sigma, conjunction(cp, dq))
        assert condition(condition(sigma, cp), dq) == joint
        assert condition(condition(sigma, dq), cp) == joint


class TestInversionLaws:
    @given(data=st.data())
    def test_backward_as_forward(self, data):
        sigma, c, cod = data.draw(triple(full=True))
        q = data.draw(predicate_on(cod, nonzero=True))
        tau = state_transform(c, sigma)
        assert pearl_update(sigma, c, q) == state_transform(
            dagger(c, sigma), condition(tau, q)
        )

    @given(data=st.data())
    def test_forward_as_backward(self, data):
        sigma, c, cod = data.draw(triple(full=True))
        p = data.draw(predicate_on(c.domain, nonzero=True))
        assume(validity(sigma, p) != 0)
        tau = state_transform(c, sigma)
        assert forward_inference(sigma, c, p) == condition(
            tau, predicate_transform(dagger(c, sigma), p)
        )

    @given(data=st.data())
    def test_double_inversion_at_support_points(self, data):
        sigma, c, cod = data.draw(triple(full=True))
        back = dagger(c, sigma)
        forth = dagger(back, state_transform(c, sigma))
        for x in c.domain.elements:
            if sigma(x) > 0:
                assert forth.rows[x] == c.rows[x]

    @given(data=st.data())
    def test_dagger_of_composite(self, data):
        sigma, c, cod = data.draw(triple(full=True))
        far = _space("z", data.draw(st.integers(2, 4)))
        d = data.draw(channel_on(cod, far, full_support_rows=True))
        lhs = dagger(compose(d, c), sigma)
        rhs = compose(dagger(c, sigma), dagger(d, state_transform(c, sigma)))
        assert lhs == rhs


class TestJeffreyLaws:
    @given(data=st.data())
    def test_predicted_state_noop(self, data):
        sigma, c, _ = data.draw(triple(full=True))
        assert jeffrey_update(sigma, c, state_transform(c, sigma)) == sigma

    @given(data=st.data())
    def test_point_evidence_coincides_with_pearl(self, data):
        sigma, c, cod = data.draw(triple(full=True))
        y = cod.elements[0]
        assert jeffrey_update(sigma, c, point_mass(cod, y)) == pearl_update(
            sigma, c, point(cod, y)
        )

    @given(data=st.data())
    def test_ratio_translation_to_pearl(self, data):
        sigma, c, cod = data.draw(triple(full=True))
        rho = data.draw(state_on(cod))
        tau = state_transform(c, sigma)
        assert jeffrey_update(sigma, c, rho) == pearl_update(
            sigma, c, state_to_predicate_ratio(rho, tau)
        )

    @given(data=st.data())
    def test_partition_form_agrees_with_inversion_form(self, data):
        from softbayes import lift_function, partition_jeffrey

        dom = _space("x", data.draw(st.integers(2, 5)))
        blocks = _space("i", data.draw(st.integers(2, 3)))
        f = {x: data.draw(st.sampled_from(blocks.elements)) for x in dom.elements}
        chan = lift_function(dom, blocks, f)
        omega = data.draw(state_on(dom, full_support=True))
        assume(set(f.values()) == set(blocks.elements))  # every block inhabited
        rho = data.draw(state_on(blocks))
        assert partition_jeffrey(chan, omega, rho) == jeffrey_update(
            omega, chan, rho
        )

    @given(data=st.data())
    def test_general_channel_distance_bound(self, data):
        sigma, c, cod = data.draw(triple(full=True))
        rho = data.draw(state_on(cod))
        other = data.draw(state_on(c.domain))
        posterior = jeffrey_update(sigma, c, rho)
        assert total_variation(posterior, sigma) <= total_variation(
            sigma, other
        ) + total_variation(state_transform(c, other), rho)


class TestEventFormLaws:
    @given(data=st.data())
    def test_atc_postcondition(self, data):
        space = _space("x", data.draw(st.integers(2, 5)))
        omega = data.draw(state_on(space, full_support=True))
        cut = data.draw(st.integers(1, len(space) - 1))
        event = set(space.elements[:cut])
        q = data.draw(unit_fraction())
        updated = atc_update(omega, event, q)
        assert validity(updated, indicator(space, event)) == q

    @given(data=st.data())
    def test_nec_agrees_with_pearl_on_two_valued_predicate(self, data):
        space = _space("x", data.draw(st.integers(2, 5)))
        omega = data.draw(state_on(space, full_support=True))
        cut = data.draw(st.integers(1, len(space) - 1))
        event = set(space.elements[:cut])
        k = F(data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40)))
        r = min(F(1), k)
        pred = make_predicate(
            space, {x: (r if x in event else r / k) for x in space.elements}
        )
        from softbayes import identity_channel

        assert nec_update(omega, event, k) == pearl_update(
            omega, identity_channel(space), pred
        )


@st.composite
def sparse_instance(draw, two_valued=False):
    """(sigma, c, rho, q) with about half of all numerators 0, so zero prior
    weights, zero predicate values and gaps in c >> sigma all occur; with
    ``two_valued``, on a codomain of two elements."""
    dom = _space("x", draw(st.integers(2, 4)))
    cod = _space("y", 2 if two_valued else draw(st.integers(2, 4)))
    num = st.one_of(st.just(0), st.integers(1, MAX_NUM))

    def state(space):
        nums = draw(
            st.lists(num, min_size=len(space), max_size=len(space)).filter(
                lambda ns: sum(ns) > 0
            )
        )
        return State(space, {x: F(n, sum(nums)) for x, n in zip(space, nums)})

    sigma = state(dom)
    c = Channel(dom, cod, {x: state(cod) for x in dom})
    q = Predicate(cod, {y: F(draw(num), MAX_NUM) for y in cod})
    return sigma, c, state(cod), q


class TestBinaryMixtureIdentity:
    """For binary evidence both rules mix the same two inverted rows d1, d2:
    Jeffrey at strength r is blend(r, d1, d2), Pearl's is blend(s, d1, d2)
    with s = r*tau1 / (r*tau1 + (1-r)*tau2), tau = c >> sigma."""

    @given(data=st.data())
    def test_both_rules_are_blends_of_the_inverted_rows(self, data):
        num = st.one_of(st.just(0), st.integers(1, MAX_NUM))

        def state(space):
            nums = data.draw(
                st.lists(num, min_size=len(space), max_size=len(space)).filter(
                    lambda ns: sum(ns) > 0
                )
            )
            return State(space, {x: F(n, sum(nums)) for x, n in zip(space, nums)})

        dom, cod = _space("x", data.draw(st.integers(1, 4))), _space("y", 2)
        sigma = state(dom)
        c = Channel(dom, cod, {x: state(cod) for x in dom})
        tau = state_transform(c, sigma)
        assume(len(tau.support()) == len(cod))  # both inverted rows exist
        d1, d2 = dagger(c, sigma).rows.values()
        r = data.draw(unit_fraction())
        y1, y2 = cod.elements
        rho = State(cod, {y1: r, y2: 1 - r})
        assert jeffrey_update(sigma, c, rho, relaxed=True) == blend_update(r, d1, d2)
        t1, t2 = tau(y1), tau(y2)
        s = r * t1 / (r * t1 + (1 - r) * t2)
        q = make_predicate(cod, {y1: r, y2: 1 - r})
        assert pearl_update(sigma, c, q) == blend_update(s, d1, d2)

    @given(data=st.data())
    def test_evidence_sweep_rows_are_both_rules_at_the_target(self, data):
        """Each sweep row is the two rules' weight at the target for the
        evidence {y1: r, y2: 1 - r}; a prediction gap ends the sweep at the
        first step that needs it, as the relaxed Jeffrey update fails there."""
        sigma, c, _, _ = data.draw(sparse_instance(two_valued=True))
        target = data.draw(st.sampled_from(sigma.space.elements))
        steps = data.draw(st.integers(1, 6))
        y1, y2 = c.codomain.elements
        rows = evidence_sweep(sigma, c, target, steps)
        for i in range(steps + 1):
            r = F(i, steps)
            rho = State(c.codomain, {y1: r, y2: 1 - r})
            try:
                row = next(rows)
            except NotFullSupport as exc:
                with pytest.raises(NotFullSupport) as raised:
                    jeffrey_update(sigma, c, rho, relaxed=True)
                assert str(raised.value) == str(exc)
                return
            q = make_predicate(c.codomain, {y1: r, y2: 1 - r})
            assert row == (
                r,
                jeffrey_update(sigma, c, rho, relaxed=True).weights[target],
                pearl_update(sigma, c, q).weights[target],
            )
        with pytest.raises(StopIteration):
            next(rows)


class TestUpdateTheorems:
    """The paper's two theorems, decided exactly: Pearl's rule improves the
    evidence's validity through the channel, Jeffrey's rule moves the
    prediction towards the evidence in KL divergence."""

    @given(data=st.data())
    def test_pearl_improves_through_a_channel(self, data):
        sigma, c, cod = data.draw(triple())
        q = data.draw(predicate_on(cod))
        assume(validity(sigma, predicate_transform(c, q)) != 0)
        assert pearl_improves(sigma, c, q)

    @given(sparse_instance())
    def test_jeffrey_corrects_towards_the_evidence(self, instance):
        """With support gaps in c >> sigma wherever the evidence avoids them."""
        sigma, c, rho, _ = instance
        predicted = state_transform(c, sigma)
        assume(all(predicted(y) for y in rho.support()))
        assert jeffrey_corrects(sigma, c, rho, relaxed=True)

    @given(data=st.data())
    def test_jeffrey_corrects_with_full_support(self, data):
        sigma, c, cod = data.draw(triple(full=True))
        rho = data.draw(state_on(cod))
        assert jeffrey_corrects(sigma, c, rho)

    def test_divergence_comparison_cases(self):
        space = _space("y", 2)

        def s(a, b):
            return State(space, {"y0": F(*a), "y1": F(*b)})

        rho, far, gap = s((1, 2), (1, 2)), s((1, 4), (3, 4)), s((1, 1), (0, 1))
        assert divergence_at_most(rho, rho, far)  # 0 <= KL(rho ‖ far)
        assert not divergence_at_most(rho, far, rho)
        assert divergence_at_most(rho, far, far)
        assert not divergence_at_most(rho, gap, far)  # infinite vs finite
        assert divergence_at_most(rho, far, gap)
        assert divergence_at_most(rho, gap, gap)  # both infinite
        point = s((1, 1), (0, 1))  # n_y = 0 at y1: a gap there costs nothing
        assert divergence_at_most(point, gap, far)
        assert not divergence_at_most(point, far, gap)


class TestIntegerKernelAgainstOracle:
    """The integer kernel equals brute-force enumeration over the joint
    table exactly, and fails exactly where the enumeration has no mass."""

    @given(sparse_instance())
    def test_pearl(self, instance):
        sigma, c, _, q = instance
        try:
            expected = oracle_pearl(joint_of(sigma, c), q.values)
        except ZeroMass:
            with pytest.raises(ZeroValidity):
                pearl_update(sigma, c, q)
        else:
            assert pearl_update(sigma, c, q) == expected

    @given(sparse_instance(), st.booleans())
    def test_jeffrey_strict_and_relaxed(self, instance, relaxed):
        sigma, c, rho, _ = instance
        joint = joint_of(sigma, c)
        predicted = y_marginal(joint)
        needed = rho.support() if relaxed else c.codomain.elements
        gaps = [y for y in needed if predicted(y) == 0]
        if gaps:
            with pytest.raises(NotFullSupport) as err:
                jeffrey_update(sigma, c, rho, relaxed=relaxed)
            assert err.value.element == gaps[0]
        else:
            assert jeffrey_update(sigma, c, rho, relaxed=relaxed) == oracle_jeffrey(
                joint, rho
            )

    @given(sparse_instance())
    def test_dagger_rows(self, instance):
        sigma, c, _, _ = instance
        joint = joint_of(sigma, c)
        gaps = [y for y, w in y_marginal(joint).items() if w == 0]
        if gaps:
            with pytest.raises(NotFullSupport) as err:
                dagger(c, sigma)
            assert err.value.element == gaps[0]
        else:
            inverse = dagger(c, sigma)
            for y in c.codomain:
                assert inverse.rows[y] == oracle_dagger_row(joint, y)
