"""The brute-force joint-table verifier, checked against the worked values."""

import copy
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from softbayes import (
    Space,
    State,
    atc_update,
    blend_update,
    identity_channel,
    lift_function,
    make_state,
    nec_update,
    partition_jeffrey,
    state_transform,
)
from softbayes import oracle, sampling
from softbayes.core import Channel
from softbayes.errors import (
    DegenerateEvent,
    EmptyBlockWithMass,
    UnknownElement,
    ZeroMass,
)
from softbayes.oracle import (
    JointTable,
    _exact_sum,
    conditioned_x_marginal,
    joint_of,
    oracle_dagger_row,
    oracle_jeffrey,
    oracle_pearl,
    x_marginal,
    y_marginal,
)


def oracle_condition(joint, weight):
    """Reweigh every cell and renormalise exactly: the whole conditioned
    table, of which ``conditioned_x_marginal`` computes the X-marginal."""
    return JointTable(
        joint.domain,
        joint.codomain,
        oracle._shares(joint.mass, oracle._weighed(joint, weight)),
    )


@pytest.fixture
def disease_joint(disease):
    _, _, _, prior, sens, _ = disease
    return joint_of(prior, sens)


class TestJointTable:
    def test_cells_multiply_prior_and_rows(self, disease_joint):
        assert disease_joint.mass[("d", "t")] == F(9, 1000)
        assert disease_joint.mass[("~d", "t")] == F(99, 2000)

    def test_total_mass_enforced(self, disease):
        disease_sp, test_sp, _, _, _, _ = disease
        with pytest.raises(ZeroMass):
            JointTable(disease_sp, test_sp, {("d", "t"): F(1, 2)})

    def test_first_faulty_cell_decides_the_error(self, disease):
        disease_sp, test_sp, _, _, _, _ = disease
        with pytest.raises(ZeroMass, match=r"^negative mass at \(d, t\)$"):
            JointTable(
                disease_sp, test_sp, {("d", "t"): F(-1), ("zz", "t"): F(2)}
            )
        with pytest.raises(UnknownElement, match="^'zz' is not an element"):
            JointTable(
                disease_sp, test_sp, {("zz", "t"): F(2), ("d", "t"): F(-1)}
            )
        with pytest.raises(UnknownElement, match="^'zz' is not an element"):
            JointTable(disease_sp, test_sp, {("d", "zz"): F(1)})

    @pytest.mark.parametrize("read_row", [False, True], ids=["fresh", "row-cached"])
    def test_copy_and_pickle(self, disease_joint, read_row):
        if read_row:
            oracle_dagger_row(disease_joint, "t")
        copies = [copy.copy(disease_joint), copy.deepcopy(disease_joint)] + [
            pickle.loads(pickle.dumps(disease_joint, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for copied in copies:
            assert type(copied) is JointTable and copied == disease_joint
            assert list(copied.mass.items()) == list(disease_joint.mass.items())
            assert oracle_dagger_row(copied, "t") == oracle_dagger_row(
                disease_joint, "t"
            )

    def test_marginals(self, disease, disease_joint):
        _, _, _, prior, sens, _ = disease
        assert x_marginal(disease_joint) == prior
        assert y_marginal(disease_joint) == state_transform(sens, prior)


class TestOracleCondition:
    def test_unit_weight_is_noop(self, disease_joint):
        weight = {xy: F(1) for xy in disease_joint.mass}
        assert oracle_condition(disease_joint, weight) == disease_joint

    def test_soft_positive_reaches_pearl_value(self, disease_joint):
        q = {"t": F(8, 10), "~t": F(2, 10)}
        posterior = oracle_pearl(disease_joint, q)
        assert posterior.weights["d"] == F(148, 4702)
        assert posterior.weights["~d"] == F(4554, 4702)

    def test_hard_positive_reaches_bayes_value(self, disease_joint):
        posterior = oracle_dagger_row(disease_joint, "t")
        assert posterior.weights["d"] == F(18, 117)

    def test_zero_mass_rejected(self, disease_joint):
        weight = {xy: F(0) for xy in disease_joint.mass}
        with pytest.raises(ZeroMass):
            oracle_condition(disease_joint, weight)


class TestOnePassConditioning:
    """``conditioned_x_marginal`` is ``x_marginal`` of ``oracle_condition``,
    computed in one pass with no second table."""

    def test_equals_conditioning_then_marginalising(self):
        rng = random.Random(20180513)
        agreed = zero = 0
        for i in range(300):
            dom = sampling.random_space(rng, "x")
            cod = sampling.random_space(rng, "y")
            # small numerators make zero weights, and so empty columns, common
            max_den = 2 if i % 2 else 20
            sigma = sampling.random_state(rng, dom, max_den)
            joint = joint_of(sigma, sampling.random_channel(rng, dom, cod, max_den))
            weight = {
                xy: F(rng.randint(0, max_den), max_den) if rng.random() < 0.5 else F(0)
                for xy in joint.mass
            }
            try:
                expected = x_marginal(oracle_condition(joint, weight))
            except ZeroMass as exc:
                with pytest.raises(ZeroMass) as raised:
                    conditioned_x_marginal(joint, weight)
                assert str(raised.value) == str(exc)
                zero += 1
            else:
                assert conditioned_x_marginal(joint, weight) == expected
                agreed += 1
        assert agreed > 100 and zero > 20

    def test_negative_weight_named_at_its_cell(self, disease_joint):
        weight = {xy: F(1) for xy in disease_joint.mass}
        weight["~d", "t"] = F(-1, 2)
        weight["~d", "~t"] = F(-1)
        for route in (oracle_condition, conditioned_x_marginal):
            with pytest.raises(ZeroMass, match=r"^negative mass at \(~d, t\)$"):
                route(disease_joint, weight)

    def test_zero_total_named(self, disease_joint):
        weight = {xy: F(0) for xy in disease_joint.mass}
        with pytest.raises(ZeroMass, match="^weighted joint table has total mass 0$"):
            conditioned_x_marginal(disease_joint, weight)

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_sum_is_the_fraction_sum(self, seed):
        rng = random.Random(seed)
        values = [
            F(rng.randint(-50, 50), rng.randint(1, 60))
            for _ in range(rng.randint(0, 8))
        ]
        total = _exact_sum(values)
        assert total == sum(values, F(0))
        assert type(total) is F
        assert _exact_sum(iter(values)) == total
        assert _exact_sum(values[:0]) == sum([], F(0))


class TestOracleJeffrey:
    def test_marginal_evidence_is_noop(self, disease_joint):
        rho = y_marginal(disease_joint)
        assert oracle_jeffrey(disease_joint, rho) == x_marginal(disease_joint)

    def test_disease_value(self, disease, disease_joint):
        _, test_sp, _, _, _, _ = disease
        rho = make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
        assert oracle_jeffrey(disease_joint, rho).weights["d"] == F(27162, 220311)

    def test_equals_convex_form(self, disease, disease_joint):
        _, test_sp, _, _, _, _ = disease
        rho = make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
        by_rule = oracle_jeffrey(disease_joint, rho)
        pr_d_t = oracle_dagger_row(disease_joint, "t").weights["d"]
        pr_d_nt = oracle_dagger_row(disease_joint, "~t").weights["d"]
        assert by_rule.weights["d"] == F(8, 10) * pr_d_t + F(2, 10) * pr_d_nt

    def test_needed_mass_missing(self, disease):
        disease_sp, test_sp, _, prior, _, _ = disease
        from softbayes import make_channel

        broken = make_channel(
            disease_sp,
            test_sp,
            {"d": {"t": F(1)}, "~d": {"t": F(1)}},
        )
        joint = joint_of(prior, broken)
        rho = make_state(test_sp, {"t": F(1, 2), "~t": F(1, 2)})
        with pytest.raises(ZeroMass):
            oracle_jeffrey(joint, rho)


class TestDaggerRowSharing:
    def test_row_is_conditioned_once_per_table(self, disease, monkeypatch):
        from softbayes import oracle

        _, test_sp, _, prior, sens, _ = disease
        joint = joint_of(prior, sens)
        built = []  # every state the oracle builds: each row, each mixture
        real = oracle.State
        monkeypatch.setattr(
            oracle, "State", lambda *a: built.append(1) or real(*a)
        )
        rho = make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
        oracle_jeffrey(joint, rho)
        assert len(built) == 3  # the rows at t and ~t, then their mixture
        rows = [oracle_dagger_row(joint, y) for y in ("t", "~t", "t")]
        assert len(built) == 3  # no row is computed again
        assert rows[0] is rows[2]
        assert joint == joint_of(prior, sens)  # the kept rows are not compared
        assert "_rows" not in repr(joint)

    def test_row_without_mass_fails_every_time(self, disease):
        disease_sp, test_sp, _, prior, _, _ = disease
        from softbayes import make_channel

        broken = make_channel(
            disease_sp, test_sp, {"d": {"t": F(1)}, "~d": {"t": F(1)}}
        )
        joint = joint_of(prior, broken)
        for _ in range(2):
            with pytest.raises(ZeroMass):
                oracle_dagger_row(joint, "~t")
        assert oracle_dagger_row(joint, "t") == prior


class TestDaggerRowIsItsColumn:
    """A row of the inverted channel is its column of the joint,
    renormalised: the same state as conditioning the whole table on the
    point evidence 1_y and taking the X-marginal."""

    def test_equals_conditioning_on_the_point_evidence(self):
        rng = random.Random(20180512)
        rows = gaps = empty = 0
        for i in range(200):
            dom = sampling.random_space(rng, "x")
            cod = sampling.random_space(rng, "y")
            # small numerators make zero weights, and so empty columns, common
            max_den = 2 if i % 2 else 20
            sigma = sampling.random_state(rng, dom, max_den, full_support=i % 4 == 0)
            chan = sampling.random_channel(rng, dom, cod, max_den)
            joint = joint_of(sigma, chan)
            gaps += len(sigma.support()) < len(dom)
            for y in cod.elements:
                point_evidence = {(x, y2): F(int(y2 == y)) for (x, y2) in joint.mass}
                try:
                    expected = x_marginal(oracle_condition(joint, point_evidence))
                except ZeroMass as exc:
                    with pytest.raises(ZeroMass) as raised:
                        oracle_dagger_row(joint, y)
                    assert str(raised.value) == str(exc)
                    empty += 1
                else:
                    assert oracle_dagger_row(joint, y) == expected
                    rows += 1
        assert rows > 200 and gaps > 50 and empty > 20

    def test_rows_and_jeffrey_build_no_joint_table(self, disease, monkeypatch):
        _, test_sp, _, prior, sens, _ = disease
        joint = joint_of(prior, sens)
        built = []
        real = JointTable.__post_init__
        monkeypatch.setattr(
            JointTable, "__post_init__", lambda t: built.append(1) or real(t)
        )
        rho = make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
        oracle_jeffrey(joint, rho)
        oracle_dagger_row(joint, "t")
        oracle_dagger_row(joint, "~t")
        assert built == []
        oracle_pearl(joint, {"t": F(1), "~t": F(1, 2)})  # conditions in one pass
        assert built == []


# -- the update forms the oracle has no rule for, reduced to ones it has ------

NUMERATOR = st.one_of(st.just(0), st.integers(1, 20))  # about half are 0


def _space(data, name: str, low: int = 1) -> Space:
    size = data.draw(st.integers(low, 4))
    return Space(name, tuple(f"{name}{i}" for i in range(size)))


def _state(data, space: Space, numerator=NUMERATOR) -> State:
    nums = data.draw(
        st.lists(numerator, min_size=len(space), max_size=len(space)).filter(any)
    )
    return State(space, {x: F(n, sum(nums)) for x, n in zip(space, nums)})


def _fraction(data) -> F:
    den = data.draw(st.integers(1, 20))
    return F(data.draw(st.integers(0, den)), den)


def _event(data, space: Space) -> set:
    return data.draw(st.sets(st.sampled_from(space.elements), min_size=1))


LAWS = settings(max_examples=100, deadline=None)


class TestUpdateFormsAgainstOracle:
    """``atc``, ``nec``, ``partition_jeffrey`` and ``blend`` equal what the
    oracle enumerates, exactly, on priors with zero weights; where the
    kernel rejects an instance, the oracle finds no mass."""

    @LAWS
    @given(data=st.data())
    def test_atc_is_jeffrey_on_the_two_block_function(self, data):
        space = _space(data, "x")
        omega, event, q = _state(data, space), _event(data, space), _fraction(data)
        blocks = Space("blocks", ("in", "out"))
        split = lift_function(
            space, blocks, {x: "in" if x in event else "out" for x in space}
        )
        rho = make_state(blocks, {"in": q, "out": 1 - q})
        try:
            expected = oracle_jeffrey(joint_of(omega, split), rho)
        except ZeroMass:
            with pytest.raises(DegenerateEvent):
                atc_update(omega, event, q)
        else:
            assert atc_update(omega, event, q) == expected

    @LAWS
    @given(data=st.data())
    def test_nec_is_pearl_with_the_factor_predicate(self, data):
        space = _space(data, "x")
        omega, event = _state(data, space), _event(data, space)
        k = F(data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40)))
        inside, outside = (F(1), 1 / k) if k >= 1 else (k, F(1))
        q = {x: inside if x in event else outside for x in space}
        expected = oracle_pearl(joint_of(omega, identity_channel(space)), q)
        assert nec_update(omega, event, k) == expected

    @LAWS
    @given(data=st.data())
    def test_partition_jeffrey_is_jeffrey_on_the_lifted_function(self, data):
        space, blocks = _space(data, "x"), _space(data, "b")
        block = st.sampled_from(blocks.elements)
        f = lift_function(space, blocks, {x: data.draw(block) for x in space})
        omega, rho = _state(data, space), _state(data, blocks)
        try:
            expected = oracle_jeffrey(joint_of(omega, f), rho)
        except ZeroMass:
            with pytest.raises(EmptyBlockWithMass):
                partition_jeffrey(f, omega, rho)
        else:
            assert partition_jeffrey(f, omega, rho) == expected

    @LAWS
    @given(data=st.data())
    def test_blend_of_oracle_posteriors_is_their_mixture(self, data):
        """Rows of full support keep both posteriors defined."""
        dom, cod = _space(data, "x"), _space(data, "y", low=2)
        sigma = _state(data, dom)
        rows = {x: _state(data, cod, st.integers(1, 20)) for x in dom}
        joint = joint_of(sigma, Channel(dom, cod, rows))
        jeffrey = oracle_jeffrey(joint, _state(data, cod))
        q = {y: _fraction(data) for y in cod} | {cod.elements[0]: F(1)}
        pearl = oracle_pearl(joint, q)
        s = _fraction(data)
        mixture = {x: s * jeffrey(x) + (1 - s) * pearl(x) for x in dom}
        assert dict(blend_update(s, jeffrey, pearl).weights) == mixture
