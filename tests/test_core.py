"""Core value types and the transformation calculus, against worked values."""

import copy
import pickle
import random
import sys
from fractions import Fraction as F

import pytest

from softbayes import (
    Channel,
    Predicate,
    Space,
    State,
    compose,
    condition,
    conjunction,
    identity_channel,
    indicator,
    lift_function,
    make_channel,
    make_predicate,
    make_state,
    marginal,
    point,
    point_mass,
    predicate_transform,
    product_space,
    product_state,
    render_decimal,
    render_fraction,
    render_state,
    scale,
    state_transform,
    truth,
    uniform_state,
    validity,
)
from softbayes import core, netspec, sampling, updates
from softbayes.cli import corpus_names, corpus_source
from softbayes.errors import (
    DuplicateElement,
    MissingRow,
    NotAProductSpace,
    NumberTooLarge,
    SpaceMismatch,
    UnknownElement,
    ValueOutOfRange,
    WeightSumNotOne,
    ZeroValidity,
)


class TestSpaces:
    def test_elements_keep_order(self):
        sp = Space("abc", ("c", "a", "b"))
        assert sp.elements == ("c", "a", "b")

    def test_duplicate_elements_rejected(self):
        with pytest.raises(DuplicateElement):
            Space("bad", ("x", "x"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Space("empty", ())

    def test_identity_is_name_plus_elements(self):
        assert Space("test", ("t", "~t")) == Space("test", ("t", "~t"))
        assert Space("test", ("t", "~t")) != Space("other", ("t", "~t"))
        assert Space("test", ("t", "~t")) != Space("test", ("~t", "t"))

    def test_product_space_left_major(self):
        ps = product_space(Space("l", ("1", "2")), Space("r", ("a", "b")))
        assert ps.elements == (("1", "a"), ("1", "b"), ("2", "a"), ("2", "b"))
        assert len(ps) == 4
        assert repr(ps) == "ProductSpace('l' * 'r')"


class TestMakeState:
    def test_disease_prior(self):
        sp = Space("disease", ("d", "~d"))
        prior = make_state(sp, {"d": F(1, 100), "~d": F(99, 100)})
        assert prior("d") == F(1, 100)
        assert sum(w for _, w in prior.items()) == 1

    def test_point_mass_fills_zeros(self):
        sp = Space("xyz", ("x", "y", "z"))
        st = make_state(sp, {"x": F(1)})
        assert st("x") == 1 and st("y") == 0 and st("z") == 0
        assert st == point_mass(sp, "x")

    def test_sum_violation(self):
        sp = Space("disease", ("d", "~d"))
        with pytest.raises(WeightSumNotOne, match="5/6"):
            make_state(sp, {"d": F(1, 2), "~d": F(1, 3)})

    def test_unknown_element(self):
        sp = Space("disease", ("d", "~d"))
        with pytest.raises(UnknownElement):
            make_state(sp, {"q": F(1)})

    # each builder: how it is called on a listing over S, the label of a
    # repeated key, a valid entry and a faulty one
    S, T = Space("s", ("a", "b")), Space("t", ("u",))
    UNKNOWN = "'zz' is not an element of space 's'"
    BUILDERS = {
        "state": (make_state, "state: element", F(1, 2), 0.5),
        "predicate": (make_predicate, "predicate: element", F(1, 2), 0.5),
        "channel": (
            lambda sp, rows: make_channel(sp, TestMakeState.T, rows),
            "channel: row for", {"u": F(1)}, {"w": F(1)},
        ),
        "function": (
            lambda sp, f: lift_function(sp, TestMakeState.T, f),
            "function: mapping for", "u", "w",
        ),
    }

    @pytest.mark.parametrize("builder", list(BUILDERS))
    @pytest.mark.parametrize(
        "keys, faulty, error, message",
        [
            (("a", "zz", "a"), None, UnknownElement, UNKNOWN),
            (("a", "a", "zz"), None, DuplicateElement, "{label} a listed twice"),
            (("a", "a"), 1, DuplicateElement, "{label} a listed twice"),
            (("zz",), 0, UnknownElement, UNKNOWN),
        ],
        ids=["unknown-then-repeat", "repeat-then-unknown", "repeat-faulty-entry",
             "unknown-faulty-entry"],
    )
    def test_duplicate_listing(self, builder, keys, faulty, error, message):
        """Every builder reads its listing in order, each key before its
        entry: the first faulty key decides the error, and a repeated key
        is rejected before its entry is read (for a function, a repeated
        source before an unknown target)."""
        build, label, good, bad = self.BUILDERS[builder]
        listing = [(key, bad if i == faulty else good) for i, key in enumerate(keys)]
        with pytest.raises(error) as err:
            build(self.S, listing)
        assert type(err.value) is error
        assert str(err.value) == message.format(label=label)

    def test_negative_weight(self):
        sp = Space("disease", ("d", "~d"))
        with pytest.raises(ValueOutOfRange):
            make_state(sp, {"d": F(3, 2), "~d": F(-1, 2)})

    def test_floats_rejected(self):
        sp = Space("disease", ("d", "~d"))
        with pytest.raises(TypeError):
            make_state(sp, {"d": 0.01, "~d": 0.99})

    def test_exact_decimal_strings(self):
        sp = Space("q", ("e", "~e"))
        st = make_state(sp, {"e": "0.000001", "~e": "0.999999"})
        assert st("e") == F(1, 10**6)


class TestIntegerForm:
    """The public constructors and the kernels' integer constructor share
    one validation; bad input fails the same way through either."""

    SP = Space("disease", ("d", "~d"))

    def test_non_fraction_weight(self):
        with pytest.raises(TypeError, match="weight at d is not a Fraction"):
            State(self.SP, {"d": 1, "~d": F(0)})
        with pytest.raises(TypeError):
            State._from_integers(self.SP, (0.5, 0.5), 1)
        with pytest.raises(TypeError, match="value at d is not a Fraction"):
            Predicate(self.SP, {"d": 1})

    def test_entries_are_checked_in_order_membership_first(self):
        """The first faulty entry decides the error; within one entry an
        unknown element wins over a non-Fraction value."""
        with pytest.raises(TypeError, match="weight at d is not a Fraction"):
            State(self.SP, {"d": 1, "zz": F(0)})
        with pytest.raises(UnknownElement, match="^'zz' is not an element of space"):
            State(self.SP, {"zz": 1, "d": F(1)})
        with pytest.raises(UnknownElement, match="^'zz' is not an element of space"):
            Predicate(self.SP, {"d": F(1), "zz": F(1)})
        with pytest.raises(TypeError, match="value at ~d is not a Fraction"):
            Predicate(self.SP, {"d": F(1), "~d": 1, "zz": 1})

    def test_weight_out_of_range(self):
        message = r"^weight 3/2 at d lies outside \[0, 1\]$"
        with pytest.raises(ValueOutOfRange, match=message):
            State(self.SP, {"d": F(3, 2), "~d": F(-1, 2)})
        with pytest.raises(ValueOutOfRange, match=message):
            State._from_integers(self.SP, (3, -1), 2)
        message = r"^value -1/4 at ~d lies outside \[0, 1\]$"
        with pytest.raises(ValueOutOfRange, match=message):
            Predicate(self.SP, {"d": F(1), "~d": F(-1, 4)})
        with pytest.raises(ValueOutOfRange, match=message):
            Predicate._from_integers(self.SP, (4, -1), 4)

    def test_weight_sum_not_one(self):
        message = r"^weights sum to 5/6, expected 1$"
        with pytest.raises(WeightSumNotOne, match=message):
            State(self.SP, {"d": F(1, 2), "~d": F(1, 3)})
        with pytest.raises(WeightSumNotOne, match=message):
            State._from_integers(self.SP, (3, 2), 6)

    def test_predicate_values_need_not_sum_to_one(self):
        with pytest.raises(WeightSumNotOne, match=r"^weights sum to 5/4, expected 1$"):
            State._from_integers(self.SP, (3, 2), 4)
        pred = Predicate._from_integers(self.SP, (3, 2), 4)
        assert pred == Predicate(self.SP, {"d": F(3, 4), "~d": F(1, 2)})

    @pytest.mark.parametrize(
        "cls, word", [(State, "weight"), (Predicate, "value")],
        ids=["state", "predicate"],
    )
    def test_lookup_and_entry_checks_on_both_types(self, cls, word):
        """The behaviour States and Predicates share, on each of them."""
        half = cls(self.SP, {"d": F(1, 2), "~d": F(1, 2)})
        assert half("~d") == F(1, 2)
        assert list(half.items()) == [("d", F(1, 2)), ("~d", F(1, 2))]
        with pytest.raises(UnknownElement, match="^'zz' is not an element of space"):
            half("zz")
        with pytest.raises(ValueOutOfRange, match=rf"^{word} 3/2 at d lies outside"):
            cls._from_integers(self.SP, (3, -1), 2)

    def test_integer_form_is_canonical_and_invisible(self):
        public = State(self.SP, {"d": F(1, 4), "~d": F(3, 4)})
        kernel = State._from_integers(self.SP, [6, 18], 24)
        assert (public._nums, public._den) == (kernel._nums, kernel._den) == ((1, 3), 4)
        assert public == kernel
        assert repr(public) == repr(kernel) == "<State 1/4|d> + 3/4|~d> on 'disease'>"
        assert list(kernel.weights.values()) == [F(1, 4), F(3, 4)]
        assert public != State(self.SP, {"d": F(3, 4), "~d": F(1, 4)})
        pred = Predicate._from_integers(self.SP, [2, 0], 4)
        assert pred == Predicate(self.SP, {"d": F(1, 2)})
        assert repr(pred) == "<Predicate {d: 1/2, ~d: 0} on 'disease'>"

    def test_public_construction_holds_its_map(self):
        """A value built from fractions keeps them; only a kernel result
        defers its map."""
        sigma = make_state(self.SP, {"d": F(1, 4), "~d": F(3, 4)})
        assert vars(sigma)["weights"] == {"d": F(1, 4), "~d": F(3, 4)}
        pred = make_predicate(self.SP, {"d": F(1, 2)})
        assert vars(pred)["values"] == {"d": F(1, 2), "~d": 0}
        kernel = State._from_integers(self.SP, [1, 3], 4)
        assert "weights" not in vars(kernel)
        assert kernel.weights is kernel.weights
        assert vars(kernel)["weights"] == sigma.weights

    def test_a_missing_attribute_stays_missing(self):
        kernel = State._from_integers(self.SP, [1, 3], 4)
        message = "'State' object has no attribute 'values'"
        with pytest.raises(AttributeError, match=message):
            kernel.values
        assert not hasattr(Predicate._from_integers(self.SP, [1, 3], 4), "weights")

    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda sp: State._from_integers(sp, [0, 5], 5),
            lambda sp: Predicate._from_integers(sp, [3, 0], 4),
            lambda sp: make_state(sp, {"d": F(1, 4), "~d": F(3, 4)}),
            lambda sp: make_predicate(sp, {"~d": F(2, 3)}),
        ],
        ids=["kernel-state", "kernel-predicate", "make_state", "make_predicate"],
    )
    def test_copy_and_pickle_whether_or_not_the_map_was_read(self, build, read):
        value = build(self.SP)
        entries = "weights" if isinstance(value, State) else "values"
        if read:
            getattr(value, entries)
        copies = [copy.copy(value), copy.deepcopy(value)] + [
            pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for copied in copies:
            assert type(copied) is type(value) and copied == value
            assert list(getattr(copied, entries).items()) == list(
                getattr(value, entries).items()
            )


def _fraction_map_equal(a, b) -> bool:
    """Equality as a comparison of class, space and the fraction map."""
    entries = "weights" if isinstance(a, State) else "values"
    return (
        type(a) is type(b)
        and a.space == b.space
        and dict(getattr(a, entries)) == dict(getattr(b, entries))
    )


class TestIntegerFormEquality:
    """States and predicates compare on their canonical integer form; the
    result is the one comparing their fraction maps gives."""

    def test_agrees_with_fraction_maps_on_seeded_pairs(self):
        rng = random.Random(1718)
        outcomes = set()
        for _ in range(300):
            elements = tuple(f"e{i}" for i in range(rng.randint(1, 3)))
            space = Space("s", elements)
            spaces = [space, Space("s", elements), Space("t", elements)]
            # tiny numerators make equal pairs common
            a = sampling.random_state(rng, space, max_den=2)
            b = sampling.random_state(rng, rng.choice(spaces), max_den=2)
            p = sampling.random_predicate(rng, space, max_den=2)
            q = sampling.random_predicate(rng, rng.choice(spaces), max_den=2)
            kernel = state_transform(identity_channel(space), a)
            public = State(rng.choice(spaces), dict(a.weights))
            pulled = predicate_transform(identity_channel(space), p)
            for x, y in [(a, b), (p, q), (kernel, public), (pulled, p), (a, p)]:
                expected = _fraction_map_equal(x, y)
                assert (x == y) is (y == x) is expected
                assert (x != y) is (not expected)
                outcomes.add((type(x), type(y), expected))
        assert len(outcomes) == 5  # equal and unequal pairs of each kind

    def test_state_never_equals_predicate_with_the_same_numbers(self):
        sp = Space("s", ("a", "b"))
        state = State(sp, {"a": F(1, 2), "b": F(1, 2)})
        pred = Predicate(sp, {"a": F(1, 2), "b": F(1, 2)})
        assert (state._nums, state._den) == (pred._nums, pred._den)
        assert state != pred and pred != state
        assert not (state == pred or pred == state)

    def test_unhashable(self):
        sp = Space("s", ("a", "b"))
        with pytest.raises(TypeError):
            hash(State(sp, {"a": F(1)}))
        with pytest.raises(TypeError):
            hash(Predicate(sp, {"a": F(1)}))


def _random_state_from_fractions(rng, space, max_den=20, full_support=False):
    """``sampling.random_state`` as a map of fractions over the drawn total."""
    lo = 1 if full_support else 0
    while True:
        numerators = [rng.randint(lo, max_den) for _ in space.elements]
        total = sum(numerators)
        if total > 0:
            break
    return State(space, {x: F(n, total) for x, n in zip(space.elements, numerators)})


class TestRandomStateConstruction:
    def test_same_states_as_the_fraction_map_construction(self):
        for seed in range(500):
            space = sampling.random_space(random.Random(seed), "x")
            options = dict(max_den=seed % 20 + 1, full_support=seed % 3 == 0)
            rng, old_rng = random.Random(seed), random.Random(seed)
            drawn = sampling.random_state(rng, space, **options)
            old = _random_state_from_fractions(old_rng, space, **options)
            assert drawn == old
            assert dict(drawn.weights) == dict(old.weights)
            assert (drawn._nums, drawn._den) == (old._nums, old._den)
            assert rng.getstate() == old_rng.getstate()


class TestStateTransform:
    def test_predicted_test_probability(self, disease):
        _, _, _, prior, sens, _ = disease
        tau = state_transform(sens, prior)
        assert tau("t") == F(117, 2000)
        assert tau("~t") == F(1883, 2000)

    def test_identity_is_neutral(self, disease):
        sp, _, _, prior, _, _ = disease
        assert state_transform(identity_channel(sp), prior) == prior

    def test_predicted_certainty_through_composite(self, disease):
        _, _, _, prior, sens, ev = disease
        predicted = state_transform(compose(ev, sens), prior)
        assert predicted("c") == F(4702, 20000)
        assert predicted("~c") == F(15298, 20000)

    def test_space_mismatch(self, disease):
        _, test_sp, _, _, sens, _ = disease
        wrong = uniform_state(test_sp)
        with pytest.raises(SpaceMismatch):
            state_transform(sens, wrong)


class TestPredicateTransform:
    def test_point_evidence_pullback(self, disease):
        _, test_sp, _, _, sens, _ = disease
        pulled = predicate_transform(sens, point(test_sp, "t"))
        assert pulled("d") == F(9, 10)
        assert pulled("~d") == F(1, 20)

    def test_truth_pulls_to_truth(self, disease):
        _, test_sp, _, _, sens, _ = disease
        assert predicate_transform(sens, truth(test_sp)) == truth(sens.domain)

    def test_certainty_node_becomes_soft_predicate(self, disease):
        _, _, certainty_sp, _, _, ev = disease
        virtual = predicate_transform(ev, point(certainty_sp, "c"))
        assert virtual("t") == F(8, 10)
        assert virtual("~t") == F(2, 10)


class TestValidity:
    def test_predicted_positive_probability(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        assert validity(prior, predicate_transform(sens, point(test_sp, "t"))) == F(
            117, 2000
        )

    def test_truth_has_validity_one(self, disease):
        sp, _, _, prior, _, _ = disease
        assert validity(prior, truth(sp)) == 1

    def test_point_mass_evaluates_predicate(self):
        sp = Space("xyz", ("x", "y", "z"))
        p = make_predicate(sp, {"x": F(1, 3), "y": F(1, 2)})
        assert validity(point_mass(sp, "x"), p) == F(1, 3)
        assert validity(point_mass(sp, "z"), p) == 0


class TestCondition:
    def test_bayes_on_positive_test(self, disease):
        _, test_sp, _, prior, sens, _ = disease
        posterior = condition(prior, predicate_transform(sens, point(test_sp, "t")))
        assert posterior("d") == F(18, 117)
        assert posterior("~d") == F(99, 117)

    def test_truth_is_neutral(self, disease):
        sp, _, _, prior, _, _ = disease
        assert condition(prior, truth(sp)) == prior

    def test_scalar_invariance(self, disease):
        sp, test_sp, _, prior, sens, _ = disease
        p = predicate_transform(sens, point(test_sp, "t"))
        assert condition(prior, scale(F(1, 2), p)) == condition(prior, p)

    def test_zero_validity(self):
        sp = Space("xy", ("x", "y"))
        st = point_mass(sp, "x")
        with pytest.raises(ZeroValidity):
            condition(st, point(sp, "y"))


class TestCompose:
    def test_disease_to_certainty_row(self, disease):
        _, _, _, _, sens, ev = disease
        through = compose(ev, sens)
        assert through.rows["d"]("c") == F(74, 100)

    def test_identity_neutral(self, disease):
        _, _, _, _, sens, _ = disease
        assert compose(identity_channel(sens.codomain), sens) == sens
        assert compose(sens, identity_channel(sens.domain)) == sens

    def test_transform_along_composite(self, disease):
        _, _, _, prior, sens, ev = disease
        assert state_transform(compose(ev, sens), prior) == state_transform(
            ev, state_transform(sens, prior)
        )

    def test_mismatch(self, disease):
        _, _, _, _, sens, _ = disease
        with pytest.raises(SpaceMismatch):
            compose(sens, sens)


class TestLiftFunction:
    def test_halpern_partition_channel(self, halpern):
        color, glimpse, _, coarse = halpern
        assert coarse.rows["r"] == point_mass(glimpse, "ry")
        assert coarse.rows["b"] == point_mass(glimpse, "gb")
        assert coarse.is_deterministic

    def test_lift_identity(self):
        sp = Space("xy", ("x", "y"))
        assert lift_function(sp, sp, {"x": "x", "y": "y"}) == identity_channel(sp)

    def test_lift_respects_composition(self):
        a = Space("a3", ("x", "y", "z"))
        b = Space("b2", ("u", "v"))
        c = Space("c2", ("p", "q"))
        f = {"x": "u", "y": "v", "z": "u"}
        g = {"u": "q", "v": "p"}
        composed = {k: g[v] for k, v in f.items()}
        assert compose(lift_function(b, c, g), lift_function(a, b, f)) == (
            lift_function(a, c, composed)
        )

    def test_partial_function_rejected(self):
        a = Space("a2", ("x", "y"))
        b = Space("b1", ("u",))
        with pytest.raises(UnknownElement):
            lift_function(a, b, {"x": "u"})

    def test_missing_row_rejected(self):
        a = Space("a2", ("x", "y"))
        b = Space("b1", ("u",))
        with pytest.raises(MissingRow):
            make_channel(a, b, {"x": {"u": F(1)}})

    @pytest.mark.parametrize(
        "mapping, error, message",
        [
            (
                {"x": "u", "y": "u", "zz": "u"},
                UnknownElement,
                "'zz' is not an element of space 'a2'",
            ),
            (
                [("x", "u"), ("y", "u"), ("x", "u")],
                DuplicateElement,
                "function: mapping for x listed twice",
            ),
            (
                [("x", "u"), ("y", "w")],
                UnknownElement,
                "'w' is not an element of space 'b1'",
            ),
            ([("x", "u")], UnknownElement, "function is not total: no value for y"),
        ],
        ids=["unknown-source", "repeated-source", "unknown-target", "not-total"],
    )
    def test_mapping_is_checked_pair_by_pair(self, mapping, error, message):
        """An unknown or repeated source is rejected, not dropped."""
        with pytest.raises(error) as err:
            lift_function(Space("a2", ("x", "y")), Space("b1", ("u",)), mapping)
        assert str(err.value) == message

    def test_pairs_may_come_in_any_order(self):
        a = Space("a2", ("x", "y"))
        b = Space("b1", ("u",))
        assert lift_function(a, b, [("y", "u"), ("x", "u")]) == lift_function(
            a, b, {"x": "u", "y": "u"}
        )


class TestNumberSizeLimit:
    """Every kernel that multiplies exact numbers refuses, before it does,
    operands whose denominators have more than core.MAX_BITS bits in all."""

    SP = Space("s", ("a", "b"))
    SIGMA = make_state(SP, {"a": F(1, 3), "b": F(2, 3)})  # a 2-bit denominator
    P = make_predicate(SP, {"a": F(1, 7), "b": F(6, 7)})
    C = make_channel(SP, SP, {"a": {"a": F(1, 4), "b": F(3, 4)}, "b": {"a": F(1)}})
    KERNELS = {
        "state_transform": lambda s, p, c: state_transform(c, s),
        "predicate_transform": lambda s, p, c: predicate_transform(c, p),
        "validity": lambda s, p, c: validity(s, p),
        "condition": lambda s, p, c: condition(s, p),
        "compose": lambda s, p, c: compose(c, c),
        "product_state": lambda s, p, c: product_state(s, s),
        "dagger": lambda s, p, c: updates.dagger(c, s),
        "pearl_update": lambda s, p, c: updates.pearl_update(s, c, p),
        "jeffrey_update": lambda s, p, c: updates.jeffrey_update(s, c, s),
        "atc_update": lambda s, p, c: updates.atc_update(s, {"a"}, F(1, 3)),
        "nec_update": lambda s, p, c: updates.nec_update(s, {"a"}, 3),
        "blend_update": lambda s, p, c: updates.blend_update(F(1, 2), s, s),
    }

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_refused_past_the_limit(self, monkeypatch, kernel):
        run = self.KERNELS[kernel]
        run(self.SIGMA, self.P, self.C)  # within the default limit
        monkeypatch.setattr(core, "MAX_BITS", 2)
        with pytest.raises(NumberTooLarge, match=r"up to \d+ bits, more than 2$"):
            run(self.SIGMA, self.P, self.C)

    def test_the_limit_itself_is_allowed(self, monkeypatch):
        # 3 and 7 have 2 and 3 bits
        monkeypatch.setattr(core, "MAX_BITS", 5)
        assert validity(self.SIGMA, self.P) == F(13, 21)
        monkeypatch.setattr(core, "MAX_BITS", 4)
        with pytest.raises(NumberTooLarge, match="up to 5 bits, more than 4"):
            validity(self.SIGMA, self.P)


class TestStructuredErrors:
    """Construction errors name the element they are about, and an unknown
    element also the space it was sought in; the messages are unchanged."""

    SP = Space("s", ("a", "b"))

    @pytest.mark.parametrize(
        "build, error, element",
        [
            (lambda sp: make_state(sp, {"c": F(1)}), UnknownElement, "c"),
            (
                lambda sp: make_state(sp, [("a", F(1)), ("a", F(0))]),
                DuplicateElement,
                "a",
            ),
            (lambda sp: make_predicate(sp, {"b": F(3, 2)}), ValueOutOfRange, "b"),
            (lambda sp: make_channel(sp, sp, {"a": {"a": F(1)}}), MissingRow, "b"),
            (
                lambda sp: make_channel(sp, sp, [("a", {"a": F(1)})] * 2),
                DuplicateElement,
                "a",
            ),
            (
                lambda sp: lift_function(sp, sp, {"a": "a", "b": "c"}),
                UnknownElement,
                "c",
            ),
        ],
        ids=["unknown", "repeated", "range", "missing-row", "repeated-row", "target"],
    )
    def test_errors_carry_their_element(self, build, error, element):
        with pytest.raises(error) as err:
            build(self.SP)
        assert err.value.element == element
        if error is UnknownElement:
            assert err.value.space is self.SP

    def test_channel_does_not_require_row_keys_again(self, monkeypatch):
        """make_channel and lift_function require each row key; the channel
        then tests its keys in one subset test and requires none again."""
        require, callers = Space.require, []

        def traced(space, element):
            callers.append(sys._getframe(1).f_code)
            return require(space, element)

        monkeypatch.setattr(Space, "require", traced)
        for name in corpus_names():
            netspec.load(corpus_source(name))
        assert callers
        assert Channel.__post_init__.__code__ not in callers

    def test_channel_names_an_unknown_row_key(self):
        sp = self.SP
        rows = {"a": point_mass(sp, "a"), "zz": point_mass(sp, "b"), "b": point_mass(sp, "b")}
        with pytest.raises(UnknownElement) as err:
            Channel(sp, sp, rows)
        assert err.value.element == "zz" and err.value.space is sp
        assert str(err.value) == "'zz' is not an element of space 's'"

    def test_channel_called_on_an_element_is_its_row(self, disease):
        disease_sp, test_sp, _, _, sens, _ = disease
        assert sens("d") is sens.rows["d"]
        assert sens("d") == make_state(test_sp, {"t": F(9, 10), "~t": F(1, 10)})
        with pytest.raises(UnknownElement) as err:
            sens("t")
        assert err.value.element == "t" and err.value.space is disease_sp
        assert repr(sens) == "<Channel 'disease' -> 'test'>"
        assert str(sens) == "d -> 9/10|t> + 1/10|~t>\n~d -> 1/20|t> + 19/20|~t>"

    def test_channel_rows_may_be_built_states(self):
        sp = self.SP
        rows = {"a": point_mass(sp, "a"), "b": {"b": F(1)}}
        assert make_channel(sp, sp, rows) == identity_channel(sp)
        with pytest.raises(SpaceMismatch):
            make_channel(sp, sp, {"a": point_mass(Space("t", ("a", "b")), "a")})


class TestProductAndMarginal:
    def test_barber_joint_weights(self, barber):
        joint, _, _ = barber
        assert joint(("b", "e")) == F(1, 10**8)
        assert joint(("b", "~e")) == F(999999, 10**8)
        assert joint(("~b", "e")) == F(99, 10**8)
        assert joint(("~b", "~e")) == F(98999901, 10**8)

    def test_product_with_point_mass_embeds(self):
        sp = Space("ab", ("a", "b"))
        one = Space("one", ("u",))
        st = make_state(sp, {"a": F(1, 3), "b": F(2, 3)})
        prod = product_state(st, point_mass(one, "u"))
        assert prod(("a", "u")) == F(1, 3)
        assert marginal(prod, "first") == st

    def test_marginals_invert_product(self, barber):
        joint, _, _ = barber
        first = marginal(joint, "first")
        second = marginal(joint, "second")
        assert first("b") == F(1, 100)
        assert second("e") == F(1, 10**6)
        assert product_state(first, second) == joint

    def test_dietrich_base_rate(self, dietrich):
        _, _, _, prior, _, _ = dietrich
        base = marginal(prior, "first")
        assert base("c") == F(1, 2) and base("~c") == F(1, 2)

    def test_dietrich_final_flow(self, dietrich):
        _, _, exp, prior, proj_comp, proj_exp = dietrich
        from softbayes import jeffrey_update

        adjusted = jeffrey_update(
            prior, proj_comp, make_state(proj_comp.codomain, {"c": F(1, 8), "~c": F(7, 8)})
        )
        final = condition(adjusted, predicate_transform(proj_exp, point(exp, "e")))
        assert marginal(final, "first") == make_state(
            proj_comp.codomain, {"c": F(4, 11), "~c": F(7, 11)}
        )

    def test_marginal_needs_product_space(self, disease):
        sp, _, _, prior, _, _ = disease
        with pytest.raises(NotAProductSpace):
            marginal(prior, "first")

    def test_marginal_names_first_or_second(self, disease):
        _, _, _, prior, _, _ = disease
        tau = product_state(prior, prior)
        message = "^which must be 'first' or 'second', got 'third'$"
        with pytest.raises(ValueError, match=message):
            marginal(tau, "third")

    def test_nary_products_nest_left_associatively(self):
        a = Space("a", ("a0", "a1"))
        b = Space("b", ("b0", "b1"))
        c = Space("c", ("c0", "c1"))
        sa = make_state(a, {"a0": F(1, 3), "a1": F(2, 3)})
        sb = make_state(b, {"b0": F(1, 4), "b1": F(3, 4)})
        sc = make_state(c, {"c0": F(1, 5), "c1": F(4, 5)})
        nested = product_state(product_state(sa, sb), sc)
        assert nested.space.elements[0] == (("a0", "b0"), "c0")
        assert nested((("a0", "b0"), "c0")) == F(1, 3) * F(1, 4) * F(1, 5)
        assert marginal(nested, "second") == sc
        assert marginal(marginal(nested, "first"), "first") == sa


class TestPredicateOps:
    def test_truth_is_conjunction_unit(self, disease):
        sp, test_sp, _, _, sens, _ = disease
        p = predicate_transform(sens, point(test_sp, "t"))
        assert conjunction(p, truth(sp)) == p
        assert conjunction(truth(sp), p) == p

    def test_point_equals_singleton_indicator(self):
        sp = Space("xyz", ("x", "y", "z"))
        assert point(sp, "y") == indicator(sp, {"y"})

    def test_scaled_truth_validity(self, disease):
        sp, _, _, prior, _, _ = disease
        assert validity(prior, scale(F(1, 2), truth(sp))) == F(1, 2)
        assert validity(uniform_state(sp), scale(F(1, 2), truth(sp))) == F(1, 2)

    def test_scale_range_checked(self, disease):
        sp, _, _, _, _, _ = disease
        with pytest.raises(ValueOutOfRange):
            scale(F(3, 2), truth(sp))


class TestRendering:
    def test_ket_sum_format(self, disease):
        _, _, _, prior, _, _ = disease
        assert render_state(prior) == "1/100|d> + 99/100|~d>"

    def test_zero_terms_omitted_by_default(self):
        sp = Space("xyz", ("x", "y", "z"))
        st = make_state(sp, {"x": F(1, 2), "z": F(1, 2)})
        assert render_state(st) == "1/2|x> + 1/2|z>"
        assert render_state(st, show_zeros=True) == "1/2|x> + 0|y> + 1/2|z>"

    def test_terms_follow_space_order(self):
        sp = Space("zy", ("z", "y"))
        st = make_state(sp, {"y": F(1, 3), "z": F(2, 3)})
        assert render_state(st) == "2/3|z> + 1/3|y>"

    def test_product_elements_render_with_comma(self, barber):
        joint, _, _ = barber
        assert render_state(joint).startswith("1/100000000|b,e> + ")

    def test_fraction_rendering(self):
        assert render_fraction(F(1, 2)) == "1/2"
        assert render_fraction(F(2)) == "2"
        assert render_fraction(F(0)) == "0"
        assert render_fraction(F(148, 4702)) == "74/2351"

    def test_rendering_beyond_the_int_str_digit_limit(self):
        q = F(10**5000 + 1, 3)
        text = render_fraction(q)
        assert text == "1" + "0" * 4999 + "1/3"
        assert render_fraction(-q) == "-" + text
        assert render_decimal(q, 2) == "3" * 5000 + ".67"
        set_limit = getattr(sys, "set_int_max_str_digits", None)  # Python >= 3.11
        if set_limit is None:
            assert F(text) == q
            return
        limit = sys.get_int_max_str_digits()
        set_limit(0)
        try:
            assert F(text) == q
        finally:
            set_limit(limit)

    @pytest.mark.parametrize(
        "n",
        [
            pytest.param(n, id=label)
            for label, n in [
                ("10^4000-1", 10**4000 - 1), ("10^4000", 10**4000),
                ("10^4000+1", 10**4000 + 1), ("2^13288-1", 2**13288 - 1),
                ("2^13288", 2**13288), ("10^20000-1", 10**20000 - 1),
                ("7^30001", 7**30001),
                *(
                    (f"random-{bits}-bits",
                     random.Random(bits).getrandbits(bits) | 1 << (bits - 1))
                    for bits in (13289, 16383, 16384, 16385, 16513, 32767, 65537)
                ),
            ]
        ],
    )
    def test_integer_text_equals_str_at_every_size(self, n):
        """Past the size str() prints directly, the divide-and-conquer
        conversion gives the same text, at sizes around each threshold:
        the direct bound 10**4000 and the bit-lengths where the halving
        meets its 128-bit base case."""
        set_limit = getattr(sys, "set_int_max_str_digits", None)  # Python >= 3.11
        limit = sys.get_int_max_str_digits() if set_limit else None
        if set_limit:
            set_limit(0)
        try:
            assert core._int_text(n) == str(n)
            assert core._int_text(-n) == str(-n)
        finally:
            if set_limit:
                set_limit(limit)

    def test_decimal_rendering_exact_rounding(self):
        assert render_decimal(F(117, 2000), 4) == "0.0585"
        assert render_decimal(F(2, 3), 3) == "0.667"
        assert render_decimal(F(1), 2) == "1.00"
        # ties round to even on the exact rational
        assert render_decimal(F(1, 8), 2) == "0.12"
        assert render_decimal(F(3, 8), 2) == "0.38"

    @pytest.mark.parametrize("digits", [0, -2])
    def test_decimal_rendering_needs_a_digit(self, digits):
        with pytest.raises(ValueError, match="^digits must be >= 1$"):
            render_decimal(F(1, 3), digits)
