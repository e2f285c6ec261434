"""The brute-force joint-table verifier, checked against the worked values."""

from fractions import Fraction as F

import pytest

from softbayes import make_state, state_transform
from softbayes.errors import ZeroMass
from softbayes.oracle import (
    JointTable,
    joint_of,
    oracle_condition,
    oracle_dagger_row,
    oracle_jeffrey,
    oracle_pearl,
    x_marginal,
    y_marginal,
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
        calls = []
        real = oracle.oracle_condition
        monkeypatch.setattr(
            oracle, "oracle_condition", lambda *a: calls.append(1) or real(*a)
        )
        rho = make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
        oracle_jeffrey(joint, rho)
        rows = [oracle_dagger_row(joint, y) for y in ("t", "~t", "t")]
        assert len(calls) == 2
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
