"""Inversion and the update rules, against the worked literature values."""

import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from softbayes import (
    Space,
    atc_update,
    blend_update,
    condition,
    dagger,
    forward_inference,
    identity_channel,
    indicator,
    jeffrey_update,
    lift_function,
    make_channel,
    make_predicate,
    make_state,
    nec_update,
    normalize_predicate,
    partition_jeffrey,
    pearl_update,
    point,
    point_mass,
    predicate_transform,
    scale,
    state_to_predicate,
    state_to_predicate_ratio,
    state_transform,
    total_variation,
    truth,
    uniform_state,
    validity,
)
from softbayes.errors import (
    DegenerateEvent,
    DivisionBySupportGap,
    EmptyBlockWithMass,
    NotDeterministic,
    NotFullSupport,
    UnknownElement,
    ValueOutOfRange,
    ZeroValidity,
)
from softbayes.sampling import random_channel, random_space, random_state
from softbayes.updates import (
    atc_report,
    blend_report,
    jeffrey_report,
    nec_report,
    pearl_report,
)


class TestDagger:
    def test_disease_inversion_rows(self, disease):
        _, _, _, prior, sens, _ = disease
        inv = dagger(sens, prior)
        assert inv.rows["t"]("d") == F(18, 117)
        assert inv.rows["t"]("~d") == F(99, 117)
        assert inv.rows["~t"]("d") == F(2, 1883)
        assert inv.rows["~t"]("~d") == F(1881, 1883)

    def test_identity_inverts_to_identity(self):
        sp = Space("xyz", ("x", "y", "z"))
        st = make_state(sp, {"x": F(1, 2), "y": F(1, 4), "z": F(1, 4)})
        assert dagger(identity_channel(sp), st) == identity_channel(sp)

    def test_certainty_row_and_composite_crosscheck(self, disease):
        _, _, _, prior, sens, ev = disease
        tau = state_transform(sens, prior)
        inv_ev = dagger(ev, tau)
        assert inv_ev.rows["c"]("t") == F(936, 4702)
        assert inv_ev.rows["c"]("~t") == F(3766, 4702)
        # composing the two inversions reproduces Pr(d|c) = 148/4702
        via = state_transform(dagger(sens, prior), inv_ev.rows["c"])
        assert via("d") == F(148, 4702)

    def test_full_support_required_and_element_named(self):
        sp = Space("xy", ("x", "y"))
        out = Space("uv", ("u", "v"))
        c = make_channel(
            sp, out, {"x": {"u": F(1)}, "y": {"u": F(1)}}
        )
        with pytest.raises(NotFullSupport) as err:
            dagger(c, uniform_state(sp))
        assert err.value.element == "v"


class TestPearlUpdate:
    def test_disease_soft_positive(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        q = make_predicate(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
        posterior = pearl_update(prior, sens, q)
        assert posterior("d") == F(148, 4702)
        assert posterior("~d") == F(4554, 4702)

    def test_halpern_glimpse(self, halpern):
        color, glimpse, prior, coarse = halpern
        q = make_predicate(glimpse, {"gb": F(7, 10), "ry": F(3, 10)})
        posterior = pearl_update(prior, coarse, q)
        assert posterior == make_state(
            color, {"r": F(3, 23), "b": F(7, 23), "g": F(7, 23), "y": F(6, 23)}
        )

    def test_uniform_evidence_is_noop(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        for s in (F(1), F(1, 2), F(1, 7)):
            assert pearl_update(prior, sens, scale(s, truth(test_sp))) == prior

    def test_zero_validity_raises(self):
        sp = Space("xy", ("x", "y"))
        out = Space("uv", ("u", "v"))
        c = make_channel(sp, out, {"x": {"u": F(1)}, "y": {"u": F(1)}})
        with pytest.raises(ZeroValidity):
            pearl_update(uniform_state(sp), c, point(out, "v"))


class TestJeffreyUpdate:
    def test_disease_soft_positive(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        rho = make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
        posterior = jeffrey_update(prior, sens, rho)
        assert posterior("d") == F(27162, 220311)
        assert posterior("~d") == F(193149, 220311)

    def test_predicted_state_is_noop(self, disease):
        _, _, _, prior, sens, _ = disease
        assert jeffrey_update(prior, sens, state_transform(sens, prior)) == prior

    def test_halpern_glimpse(self, halpern):
        color, glimpse, prior, coarse = halpern
        rho = make_state(glimpse, {"gb": F(7, 10), "ry": F(3, 10)})
        assert jeffrey_update(prior, coarse, rho) == make_state(
            color, {"r": F(1, 10), "b": F(7, 20), "g": F(7, 20), "y": F(1, 5)}
        )

    def test_strict_needs_full_support(self):
        sp = Space("xy", ("x", "y"))
        out = Space("uvw", ("u", "v", "w"))
        c = make_channel(
            sp,
            out,
            {
                "x": {"u": F(1, 2), "v": F(1, 2)},
                "y": {"u": F(1, 4), "v": F(3, 4)},
            },
        )
        sigma = uniform_state(sp)
        rho = make_state(out, {"u": F(1, 2), "v": F(1, 2)})
        with pytest.raises(NotFullSupport):
            jeffrey_update(sigma, c, rho)
        # the relaxed mode only inverts rows the evidence touches
        relaxed = jeffrey_update(sigma, c, rho, relaxed=True)
        assert sum(w for _, w in relaxed.items()) == 1
        # ... but still refuses evidence outside the predicted support
        bad = point_mass(out, "w")
        with pytest.raises(NotFullSupport):
            jeffrey_update(sigma, c, bad, relaxed=True)

    def test_point_evidence_coincides_with_pearl(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        assert jeffrey_update(prior, sens, point_mass(test_sp, "t")) == pearl_update(
            prior, sens, point(test_sp, "t")
        )


class TestStateToPredicateRatio:
    def test_equal_states_give_truth(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        tau = state_transform(sens, prior)
        assert state_to_predicate_ratio(tau, tau) == truth(test_sp)

    def test_disease_ratio_values(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        rho = make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
        tau = state_transform(sens, prior)
        ratio = state_to_predicate_ratio(rho, tau)
        # raw ratios 1600/117 and 400/1883, rescaled by the maximum
        assert ratio("t") == F(1)
        assert ratio("~t") == F(117, 7532)

    def test_translates_jeffrey_to_pearl_on_random_instances(self):
        rng = random.Random(20260809)
        for _ in range(200):
            dom = random_space(rng, "x")
            cod = random_space(rng, "y")
            sigma = random_state(rng, dom, full_support=True)
            c = random_channel(rng, dom, cod, full_support_rows=True)
            rho = random_state(rng, cod)
            tau = state_transform(c, sigma)
            ratio = state_to_predicate_ratio(rho, tau)
            assert pearl_update(sigma, c, ratio) == jeffrey_update(sigma, c, rho)

    def test_support_gap_rejected(self):
        sp = Space("xy", ("x", "y"))
        rho = uniform_state(sp)
        tau = point_mass(sp, "x")
        with pytest.raises(DivisionBySupportGap):
            state_to_predicate_ratio(rho, tau)

    def test_matches_the_fraction_definition_on_random_pairs(self):
        """Against r/t divided by its maximum, 0 where t is 0; where rho has
        mass at a gap of tau, the first such element is named."""
        rng = random.Random(20261019)
        rejected = 0
        for _ in range(300):
            sp = random_space(rng, "y")
            rho, tau = random_state(rng, sp), random_state(rng, sp)
            gaps = [y for y in sp if rho(y) and not tau(y)]
            if gaps:
                rejected += 1
                message = f"^ratio undefined: evidence has mass at {gaps[0]} where"
                with pytest.raises(DivisionBySupportGap, match=message):
                    state_to_predicate_ratio(rho, tau)
                continue
            ratios = {y: rho(y) / tau(y) if tau(y) else F(0) for y in sp}
            peak = max(ratios.values())
            expected = make_predicate(sp, {y: r / peak for y, r in ratios.items()})
            assert state_to_predicate_ratio(rho, tau) == expected
        assert 0 < rejected < 300


class TestStatePredicateConversions:
    def test_state_to_predicate_keeps_weights(self, disease):
        _, _, _, prior, _, _ = disease
        p = state_to_predicate(prior)
        assert p("d") == F(1, 100) and p("~d") == F(99, 100)

    def test_normalize_predicate(self):
        sp = Space("xy", ("x", "y"))
        p = make_predicate(sp, {"x": F(1, 2), "y": F(1, 4)})
        st = normalize_predicate(p)
        assert st == make_state(sp, {"x": F(2, 3), "y": F(1, 3)})

    def test_normalize_zero_predicate_rejected(self):
        sp = Space("xy", ("x", "y"))
        with pytest.raises(ValueOutOfRange):
            normalize_predicate(make_predicate(sp, {}))


class TestPartitionJeffrey:
    def test_halpern_by_blocks(self, halpern):
        color, glimpse, prior, coarse = halpern
        rho = make_state(glimpse, {"gb": F(7, 10), "ry": F(3, 10)})
        assert partition_jeffrey(coarse, prior, rho) == jeffrey_update(
            prior, coarse, rho
        )
        assert partition_jeffrey(coarse, prior, rho)("r") == F(1, 10)

    def test_pushforward_evidence_is_noop(self, halpern):
        _, _, prior, coarse = halpern
        rho = state_transform(coarse, prior)
        assert partition_jeffrey(coarse, prior, rho) == prior

    def test_pushforward_of_posterior_is_evidence(self, halpern):
        _, glimpse, prior, coarse = halpern
        rho = make_state(glimpse, {"gb": F(7, 10), "ry": F(3, 10)})
        posterior = partition_jeffrey(coarse, prior, rho)
        assert state_transform(coarse, posterior) == rho

    def test_needs_deterministic_channel(self, disease):
        _, _, _, prior, sens, _ = disease
        rho = make_state(sens.codomain, {"t": F(1, 2), "~t": F(1, 2)})
        with pytest.raises(NotDeterministic):
            partition_jeffrey(sens, prior, rho)

    def test_empty_block_with_mass(self):
        sp = Space("xy", ("x", "y"))
        out = Space("blocks", ("p", "q"))
        f = lift_function(sp, out, {"x": "p", "y": "p"})
        rho = make_state(out, {"p": F(1, 2), "q": F(1, 2)})
        with pytest.raises(EmptyBlockWithMass):
            partition_jeffrey(f, uniform_state(sp), rho)


class TestAtcUpdate:
    def test_matches_two_block_partition_jeffrey(self, disease):
        sp, _, _, prior, _, _ = disease
        blocks = Space("blocks", ("inside", "outside"))
        split = lift_function(sp, blocks, {"d": "inside", "~d": "outside"})
        q = F(3, 10)
        rho = make_state(blocks, {"inside": q, "outside": 1 - q})
        assert atc_update(prior, {"d"}, q) == partition_jeffrey(split, prior, rho)

    def test_current_validity_is_noop(self, disease):
        sp, _, _, prior, _, _ = disease
        q = validity(prior, indicator(sp, {"d"}))
        assert atc_update(prior, {"d"}, q) == prior

    def test_certain_evidence_is_hard_conditioning(self, halpern):
        color, _, prior, _ = halpern
        assert atc_update(prior, {"b", "g"}, F(1)) == condition(
            prior, indicator(color, {"b", "g"})
        )
        assert atc_update(prior, {"b", "g"}, F(0)) == condition(
            prior, indicator(color, {"r", "y"})
        )

    def test_postcondition_exact(self, halpern):
        color, _, prior, _ = halpern
        for q in (F(0), F(1, 7), F(2, 3), F(1)):
            updated = atc_update(prior, {"b", "g"}, q)
            assert validity(updated, indicator(color, {"b", "g"})) == q

    def test_degenerate_event(self):
        sp = Space("xy", ("x", "y"))
        st = point_mass(sp, "x")
        with pytest.raises(DegenerateEvent):
            atc_update(st, {"y"}, F(1, 2))  # event has prior mass 0
        with pytest.raises(DegenerateEvent):
            atc_update(st, {"x"}, F(1, 2))  # complement has prior mass 0
        with pytest.raises(DegenerateEvent):
            atc_update(st, set(), F(1, 2))

    def test_strength_must_lie_in_unit_interval(self, halpern):
        _, _, prior, _ = halpern
        with pytest.raises(ValueOutOfRange):
            atc_update(prior, {"b", "g"}, F(3, 2))


class TestNecUpdate:
    def test_unit_factor_is_noop(self, halpern):
        _, _, prior, _ = halpern
        assert nec_update(prior, {"b", "g"}, F(1)) == prior

    def test_barber_alarm_factor_four(self, barber):
        joint, ring, alarm = barber
        tau = state_transform(ring, joint)
        q = make_predicate(alarm, {"a": F(8, 10), "~a": F(2, 10)})
        # Bayes factor 4 = 0.8/0.2 against the identity channel
        assert nec_update(tau, {"a"}, F(4)) == pearl_update(
            tau, identity_channel(alarm), q
        )

    def test_equals_pearl_through_lifted_partition(self, disease):
        sp, _, _, prior, _, _ = disease
        blocks = Space("blocks", ("inside", "outside"))
        split = lift_function(sp, blocks, {"d": "inside", "~d": "outside"})
        for k in (F(4), F(1, 3), F(7, 2)):
            r = min(F(1), k)  # any scaling works; pick one keeping values in [0,1]
            pred = make_predicate(blocks, {"inside": r, "outside": r / k})
            assert nec_update(prior, {"d"}, k) == pearl_update(prior, split, pred)
            # scalar invariance: a different admissible scaling agrees
            pred2 = make_predicate(
                blocks, {"inside": r / 2, "outside": r / (2 * k)}
            )
            assert nec_update(prior, {"d"}, k) == pearl_update(prior, split, pred2)

    def test_factor_must_be_positive(self, disease):
        _, _, _, prior, _, _ = disease
        with pytest.raises(ValueOutOfRange):
            nec_update(prior, {"d"}, F(0))

    @pytest.mark.parametrize("event", [{"d"}, {"~d"}, {"d", "~d"}])
    def test_event_of_mass_zero_or_one_leaves_a_point_mass(self, disease, event):
        """The factor predicate is positive everywhere, so even a side of
        prior mass 0 normalises."""
        prior = point_mass(disease[0], "~d")
        for factor in (F(1, 1000), F(1), F(1000)):
            assert nec_update(prior, event, factor) == prior


@pytest.mark.parametrize("update", [atc_update, nec_update])
def test_event_forms_name_the_first_unknown_element_listed(update):
    sp = Space("xy", ("x", "y"))
    for listed in permutations(["zz", "yy", "xx", "ww"]):
        with pytest.raises(UnknownElement) as err:
            update(uniform_state(sp), ["x", *listed], F(1, 2))
        assert err.value.element == listed[0]
        assert str(err.value) == f"'{listed[0]}' is not an element of space 'xy'"


class TestBlendUpdate:
    def test_endpoints(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        jr = jeffrey_update(prior, sens, make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)}))
        pr = pearl_update(prior, sens, make_predicate(test_sp, {"t": F(8, 10), "~t": F(2, 10)}))
        assert blend_update(F(1), jr, pr) == jr
        assert blend_update(F(0), jr, pr) == pr

    def test_half_mix_of_the_disease_posteriors(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        jr = jeffrey_update(prior, sens, make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)}))
        pr = pearl_update(prior, sens, make_predicate(test_sp, {"t": F(8, 10), "~t": F(2, 10)}))
        mixed = blend_update(F(1, 2), jr, pr)
        assert mixed("d") == F(1, 2) * F(27162, 220311) + F(1, 2) * F(148, 4702)
        assert mixed("d") == F(4453382, 57550129)

    @pytest.mark.parametrize("s", ["3/2", "-1/2"])
    def test_weight_must_lie_in_unit_interval(self, disease, s):
        _, _, _, prior, _, _ = disease
        with pytest.raises(ValueOutOfRange, match=rf"^blend weight {s} lies outside"):
            blend_update(s, prior, prior)


class TestTotalVariation:
    def test_zero_on_equal(self, disease):
        _, _, _, prior, _, _ = disease
        assert total_variation(prior, prior) == 0

    def test_disjoint_point_masses(self):
        sp = Space("xy", ("x", "y"))
        assert total_variation(point_mass(sp, "x"), point_mass(sp, "y")) == 2

    def test_partition_posterior_minimises_distance_over_fiber(self, halpern):
        color, glimpse, prior, coarse = halpern
        rho = make_state(glimpse, {"gb": F(7, 10), "ry": F(3, 10)})
        posterior = partition_jeffrey(coarse, prior, rho)
        base = total_variation(posterior, prior)
        rng = random.Random(99)
        blocks = {"gb": ("b", "g"), "ry": ("r", "y")}
        for _ in range(200):
            weights = {}
            for i, members in blocks.items():
                # split the block's target mass rho(i) randomly inside the block
                cut = F(rng.randint(0, 100), 100)
                weights[members[0]] = rho(i) * cut
                weights[members[1]] = rho(i) * (1 - cut)
            other = make_state(color, weights)
            assert state_transform(coarse, other) == rho
            assert base <= total_variation(prior, other)


class TestForwardInference:
    def test_point_evidence_selects_row(self, disease):
        sp, _, _, prior, sens, _ = disease
        result = forward_inference(prior, sens, point(sp, "d"))
        assert result == sens.rows["d"]
        assert result("t") == F(9, 10)

    def test_truth_reduces_to_prediction(self, disease):
        sp, _, _, prior, sens, _ = disease
        assert forward_inference(prior, sens, truth(sp)) == state_transform(
            sens, prior
        )

    def test_duality_with_inverted_channel(self, disease):
        sp, _, _, prior, sens, _ = disease
        tau = state_transform(sens, prior)
        p = make_predicate(sp, {"d": F(2, 3), "~d": F(1, 5)})
        lhs = forward_inference(prior, sens, p)
        rhs = condition(tau, predicate_transform(dagger(sens, prior), p))
        assert lhs == rhs


class TestCommittedCounterexamples:
    """Fixed witness instances; the frozen values were computed by direct
    enumeration and pinned here."""

    def test_jeffrey_updates_do_not_commute(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        rho1 = make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
        rho2 = make_state(test_sp, {"t": F(3, 10), "~t": F(7, 10)})
        first_then_second = jeffrey_update(
            jeffrey_update(prior, sens, rho1), sens, rho2
        )
        second_then_first = jeffrey_update(
            jeffrey_update(prior, sens, rho2), sens, rho1
        )
        assert first_then_second != second_then_first
        assert first_then_second("d") == F(7063906656, 31359454075)
        assert second_then_first("d") == F(50246648, 133357225)

    def test_pearl_updates_do_commute_on_same_instance(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        q1 = make_predicate(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
        q2 = make_predicate(test_sp, {"t": F(3, 10), "~t": F(7, 10)})
        one = pearl_update(pearl_update(prior, sens, q1), sens, q2)
        other = pearl_update(pearl_update(prior, sens, q2), sens, q1)
        assert one == other

    def test_pushforward_fails_for_noisy_channel(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        rho = make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
        predicted = state_transform(sens, jeffrey_update(prior, sens, rho))
        assert predicted != rho
        assert predicted("t") == F(15157, 97916)

    def test_pushforward_holds_for_deterministic_channel(self, halpern):
        _, glimpse, prior, coarse = halpern
        rho = make_state(glimpse, {"gb": F(7, 10), "ry": F(3, 10)})
        assert state_transform(coarse, jeffrey_update(prior, coarse, rho)) == rho


class TestEvidenceAndReports:
    """Each report is the rule's working, from the rule's own arguments:
    (label, value) steps, the prior first."""

    def test_pearl_report_carries_working(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        q = make_predicate(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
        steps = pearl_report(prior, sens, q)
        assert [label for label, _ in steps] == [
            "prior", "transformed predicate", "validity"
        ]
        working = dict(steps)
        assert working["prior"] == prior
        assert working["transformed predicate"] == predicate_transform(sens, q)
        assert working["validity"] == F(2351, 10000)

    def test_jeffrey_report_carries_inversion(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        rho = make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
        steps = jeffrey_report(prior, sens, rho)
        assert [label for label, _ in steps] == [
            "prior", "prediction", "inverted row t", "inverted row ~t"
        ]
        working = dict(steps)
        assert working["prediction"] == state_transform(sens, prior)
        assert working["inverted row t"]("d") == F(18, 117)

    def test_event_reports(self, halpern):
        color, _, prior, _ = halpern
        assert atc_update(prior, {"b", "g"}, F(7, 10))("r") == F(1, 10)
        atc = dict(atc_report(prior, {"b", "g"}, F(7, 10)))
        assert atc == {"prior": prior, "event prior mass": F(2, 5)}
        nec = dict(nec_report(prior, {"b", "g"}, F(4)))
        assert nec["prior"] == prior
        assert nec["equivalent predicate"]("r") == F(1, 4)

    def test_nec_report_predicate_is_what_nec_conditions_on(self):
        rng = random.Random(20261020)
        for _ in range(200):
            sp = random_space(rng, "x")
            prior = random_state(rng, sp)
            event = rng.sample(sp.elements, rng.randint(1, len(sp)))
            factor = F(rng.randint(1, 30), rng.randint(1, 30))
            working = dict(nec_report(prior, event, factor))
            assert condition(prior, working["equivalent predicate"]) == nec_update(
                prior, event, factor
            )

    def test_blend_report(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        jr = jeffrey_update(prior, sens, make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)}))
        pr = pearl_update(prior, sens, make_predicate(test_sp, {"t": F(8, 10), "~t": F(2, 10)}))
        assert blend_report(F(1, 2), jr, pr) == (
            ("prior", pr), ("novelty s", F(1, 2)), ("jeffrey part", jr), ("pearl part", pr)
        )
