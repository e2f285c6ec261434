"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Every equality below is exact rational equality unless the
criterion itself states a decimal tolerance; stated runtime budgets are
asserted with a wall clock.
"""

import random
import time
from fractions import Fraction as F

import pytest

from softbayes import (
    Space,
    atc_update,
    compose,
    condition,
    conjunction,
    dagger,
    forward_inference,
    identity_channel,
    indicator,
    jeffrey_update,
    make_predicate,
    make_state,
    marginal,
    nec_update,
    pearl_update,
    point,
    point_mass,
    predicate_transform,
    scale,
    state_to_predicate_ratio,
    state_transform,
    total_variation,
    truth,
    validity,
)
from softbayes.cli import corpus_names, corpus_source, main, run_oracle_check
from softbayes.netspec import NetspecError, evaluate, load, parse, render
from softbayes.sampling import (
    random_channel,
    random_predicate,
    random_space,
    random_state,
)
from theorems import jeffrey_corrects, pearl_improves

SEED = 20250809
INSTANCES = 500


def report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


# ---------------------------------------------------------------------------
# criterion 1: the disease network, all five quantities, exact, < 1 s


def test_criterion_1_disease_network_exact(disease):
    start = time.perf_counter()
    _, test_sp, _, prior, sens, _ = disease
    predicted = state_transform(sens, prior)
    assert predicted("t") == F(117, 2000)
    post_t = condition(prior, predicate_transform(sens, point(test_sp, "t")))
    assert post_t("d") == F(18, 117)
    post_nt = condition(prior, predicate_transform(sens, point(test_sp, "~t")))
    assert post_nt("d") == F(2, 1883)
    pearl = pearl_update(
        prior, sens, make_predicate(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
    )
    assert pearl("d") == F(148, 4702)
    jeffrey = jeffrey_update(
        prior, sens, make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
    )
    assert jeffrey("d") == F(27162, 220311)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"disease network reproduced exactly in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 2: the color-glimpse example, exact


def test_criterion_2_color_glimpse_exact(halpern):
    color, glimpse, prior, coarse = halpern
    jeffrey = jeffrey_update(
        prior, coarse, make_state(glimpse, {"gb": F(7, 10), "ry": F(3, 10)})
    )
    assert [jeffrey(x) for x in color] == [F(1, 10), F(7, 20), F(7, 20), F(1, 5)]
    pearl = pearl_update(
        prior, coarse, make_predicate(glimpse, {"gb": F(7, 10), "ry": F(3, 10)})
    )
    assert [pearl(x) for x in color] == [F(3, 23), F(7, 23), F(7, 23), F(6, 23)]
    report(2, "color-glimpse posteriors exact for both rules")


# ---------------------------------------------------------------------------
# criterion 3: the alarm network, 3 decimal places of the exact rationals


def test_criterion_3_alarm_network_to_three_decimals(barber):
    joint, ring, alarm = barber
    tolerance = F(1, 2000)  # half of 10^-3
    jeffrey = marginal(
        jeffrey_update(
            joint, ring, make_state(alarm, {"a": F(7, 10), "~a": F(3, 10)})
        ),
        "first",
    )
    assert abs(jeffrey("b") - F("0.693")) < tolerance
    pearl = marginal(
        pearl_update(
            joint, ring, make_predicate(alarm, {"a": F(7, 10), "~a": F(3, 10)})
        ),
        "first",
    )
    assert abs(pearl("b") - F("0.0229")) < tolerance
    report(3, "alarm-network marginals match 0.693 and 0.0229 to 3 decimals")


# ---------------------------------------------------------------------------
# criterion 4: the hiring example, exact


def test_criterion_4_hiring_example_exact(dietrich):
    cand, comp, exp, prior, proj_comp, proj_exp = dietrich
    experience_only = marginal(
        condition(prior, predicate_transform(proj_exp, point(exp, "e"))), "first"
    )
    assert [experience_only(x) for x in comp] == [F(4, 5), F(1, 5)]
    adjusted = jeffrey_update(
        prior, proj_comp, make_state(comp, {"c": F(1, 8), "~c": F(7, 8)})
    )
    assert [adjusted(x) for x in cand] == [F(1, 10), F(1, 40), F(7, 40), F(7, 10)]
    final = marginal(
        condition(adjusted, predicate_transform(proj_exp, point(exp, "e"))), "first"
    )
    assert [final(x) for x in comp] == [F(4, 11), F(7, 11)]
    report(4, "hiring example: experience-only, adjusted joint, final marginal exact")


# ---------------------------------------------------------------------------
# criterion 5: the evidence-strength sweep, 101 points, both priors, < 1 s each


def _run_sweep(capsys, file: str) -> list[tuple[F, F, F]]:
    start = time.perf_counter()
    code = main(
        [
            "sweep", file,
            "--channel", "sens", "--prior", "prior", "--target", "d",
            "--steps", "100",
        ]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 1.0, f"sweep took {elapsed:.3f}s"
    lines = out.strip().splitlines()
    assert lines[0] == "r,jeffrey,pearl"
    rows = [tuple(F(part) for part in line.split(",")) for line in lines[1:]]
    assert len(rows) == 101
    return rows


def _check_sweep_shape(rows):
    assert rows[0][1] == rows[0][2]
    assert rows[-1][1] == rows[-1][2]
    jeffrey = [row[1] for row in rows]
    seconds = {
        jeffrey[i + 2] - 2 * jeffrey[i + 1] + jeffrey[i]
        for i in range(len(jeffrey) - 2)
    }
    assert seconds == {F(0)}, "Jeffrey column must be exactly affine in r"


def test_criterion_5_sweep_both_priors(capsys, tmp_path):
    corpus_dir = tmp_path / "sweep"
    corpus_dir.mkdir()
    one_percent = corpus_dir / "disease.netspec"
    one_percent.write_text(corpus_source("disease.netspec"), encoding="utf-8")
    ten_percent = corpus_dir / "disease10.netspec"
    ten_percent.write_text(
        corpus_source("disease.netspec").replace(
            "{ d: 1/100, ~d: 99/100 }", "{ d: 1/10, ~d: 9/10 }"
        ),
        encoding="utf-8",
    )

    rows1 = _run_sweep(capsys, str(one_percent))
    _check_sweep_shape(rows1)
    at_08 = dict((row[0], row) for row in rows1)[F(8, 10)]
    assert at_08[1] == F(27162, 220311)
    assert at_08[2] == F(148, 4702)

    rows10 = _run_sweep(capsys, str(ten_percent))
    _check_sweep_shape(rows10)
    at_08 = dict((row[0], row) for row in rows10)[F(8, 10)]
    # recomputed with the 10% prior: Pr(d|t) = 2/3, Pr(d|~t) = 2/173
    assert at_08[1] == F(8, 10) * F(2, 3) + F(2, 10) * F(2, 173) == F(278, 519)
    assert at_08[2] == F(74, 281)
    report(5, "101-point sweeps for both priors: endpoints, affinity, r=8/10 row")


# ---------------------------------------------------------------------------
# criterion 6: soft evidence equals hard evidence on the certainty node


def test_criterion_6_virtual_evidence_equivalence(disease):
    _, test_sp, certainty_sp, prior, sens, ev = disease
    soft = pearl_update(
        prior, sens, make_predicate(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
    )
    hard = condition(
        prior, predicate_transform(compose(ev, sens), point(certainty_sp, "c"))
    )
    assert soft == hard
    assert predicate_transform(ev, point(certainty_sp, "c")) == make_predicate(
        test_sp, {"t": F(8, 10), "~t": F(2, 10)}
    )
    report(6, "certainty-node conditioning equals the soft predicate exactly")


# ---------------------------------------------------------------------------
# criterion 7: randomized law suites, >= 500 exact instances each, < 60 s


def _rng(tag: int) -> random.Random:
    return random.Random(SEED + tag)


def _full_triple(rng):
    dom = random_space(rng, "x")
    cod = random_space(rng, "y")
    sigma = random_state(rng, dom, full_support=True)
    c = random_channel(rng, dom, cod, full_support_rows=True)
    return dom, cod, sigma, c


def _suite_adjointness_compositionality(n):
    rng = _rng(1)
    for _ in range(n):
        dom, cod, sigma, c = _full_triple(rng)
        far = random_space(rng, "z", 4)
        d = random_channel(rng, cod, far)
        q = random_predicate(rng, cod)
        qq = random_predicate(rng, far)
        assert validity(state_transform(c, sigma), q) == validity(
            sigma, predicate_transform(c, q)
        )
        dc = compose(d, c)
        assert state_transform(dc, sigma) == state_transform(
            d, state_transform(c, sigma)
        )
        assert predicate_transform(dc, qq) == predicate_transform(
            c, predicate_transform(d, qq)
        )


def _suite_conditioning_laws(n):
    rng = _rng(2)
    for _ in range(n):
        space = random_space(rng, "x")
        sigma = random_state(rng, space, full_support=True)
        p = random_predicate(rng, space, nonzero=True)
        q = random_predicate(rng, space, nonzero=True)
        s = F(rng.randint(1, 20), 20)
        vp = validity(sigma, p)
        assert validity(condition(sigma, p), q) == (
            validity(sigma, conjunction(p, q)) / vp
        )
        if validity(sigma, conjunction(p, q)) != 0:
            both = condition(sigma, conjunction(p, q))
            assert condition(condition(sigma, p), q) == both
            assert condition(condition(sigma, q), p) == both
        assert condition(sigma, scale(s, p)) == condition(sigma, p)
        assert condition(sigma, truth(space)) == sigma


def _suite_pearl_update_laws(n):
    rng = _rng(3)
    for _ in range(n):
        dom, cod, sigma, c = _full_triple(rng)
        far = random_space(rng, "z", 4)
        d = random_channel(rng, dom, far, full_support_rows=True)
        p = random_predicate(rng, cod, nonzero=True)
        q = random_predicate(rng, far, nonzero=True)
        s = F(rng.randint(1, 20), 20)
        assert pearl_update(sigma, c, scale(s, p)) == pearl_update(sigma, c, p)
        assert pearl_update(sigma, c, scale(s, truth(cod))) == sigma
        cp = predicate_transform(c, p)
        dq = predicate_transform(d, q)
        if validity(sigma, conjunction(cp, dq)) != 0:
            joint = condition(sigma, conjunction(cp, dq))
            assert condition(condition(sigma, cp), dq) == joint
            assert condition(condition(sigma, dq), cp) == joint


def _suite_inversion_dualities(n):
    rng = _rng(4)
    for _ in range(n):
        dom, cod, sigma, c = _full_triple(rng)
        q = random_predicate(rng, cod, nonzero=True)
        p = random_predicate(rng, dom, nonzero=True)
        tau = state_transform(c, sigma)
        inverse = dagger(c, sigma)
        assert pearl_update(sigma, c, q) == state_transform(
            inverse, condition(tau, q)
        )
        if validity(sigma, p) != 0:
            assert forward_inference(sigma, c, p) == condition(
                tau, predicate_transform(inverse, p)
            )


def _suite_jeffrey_update_laws(n):
    rng = _rng(5)
    for _ in range(n):
        dom, cod, sigma, c = _full_triple(rng)
        rho = random_state(rng, cod)
        tau = state_transform(c, sigma)
        assert jeffrey_update(sigma, c, tau) == sigma
        y = rng.choice(cod.elements)
        assert jeffrey_update(sigma, c, point_mass(cod, y)) == pearl_update(
            sigma, c, point(cod, y)
        )
        assert jeffrey_update(sigma, c, rho) == pearl_update(
            sigma, c, state_to_predicate_ratio(rho, tau)
        )


def _suite_dagger_double_inversion(n):
    rng = _rng(6)
    for _ in range(n):
        dom, cod, sigma, c = _full_triple(rng)
        back = dagger(c, sigma)
        forth = dagger(back, state_transform(c, sigma))
        for x in dom.elements:
            if sigma(x) > 0:
                assert forth.rows[x] == c.rows[x]


def _suite_dagger_of_composite(n):
    rng = _rng(7)
    for _ in range(n):
        dom, cod, sigma, c = _full_triple(rng)
        far = random_space(rng, "z", 4)
        d = random_channel(rng, cod, far, full_support_rows=True)
        assert dagger(compose(d, c), sigma) == compose(
            dagger(c, sigma), dagger(d, state_transform(c, sigma))
        )


def _suite_improvement(n):
    rng = _rng(8)
    for _ in range(n):
        space = random_space(rng, "x")
        sigma = random_state(rng, space)
        p = random_predicate(rng, space, nonzero=True)
        if validity(sigma, p) == 0:
            continue
        assert validity(condition(sigma, p), p) >= validity(sigma, p)


def _suite_atc_postcondition(n):
    rng = _rng(9)
    for _ in range(n):
        space = random_space(rng, "x")
        omega = random_state(rng, space, full_support=True)
        cut = rng.randint(1, len(space) - 1)
        event = set(space.elements[:cut])
        q = F(rng.randint(0, 20), 20)
        assert validity(
            atc_update(omega, event, q), indicator(space, event)
        ) == q


def _suite_nec_pearl_agreement(n):
    rng = _rng(10)
    for _ in range(n):
        space = random_space(rng, "x")
        omega = random_state(rng, space, full_support=True)
        cut = rng.randint(1, len(space) - 1)
        event = set(space.elements[:cut])
        k = F(rng.randint(1, 40), rng.randint(1, 40))
        r = min(F(1), k)
        pred = make_predicate(
            space, {x: (r if x in event else r / k) for x in space.elements}
        )
        assert nec_update(omega, event, k) == pearl_update(
            omega, identity_channel(space), pred
        )


def _suite_distance_bound(n):
    rng = _rng(11)
    for _ in range(n):
        dom, cod, sigma, c = _full_triple(rng)
        rho = random_state(rng, cod)
        other = random_state(rng, dom)
        posterior = jeffrey_update(sigma, c, rho)
        assert total_variation(posterior, sigma) <= total_variation(
            sigma, other
        ) + total_variation(state_transform(c, other), rho)


def _suite_pearl_improvement(n):
    rng = _rng(12)
    for _ in range(n):
        dom, cod = random_space(rng, "x"), random_space(rng, "y")
        sigma = random_state(rng, dom)
        c = random_channel(rng, dom, cod)
        q = random_predicate(rng, cod, nonzero=True)
        if validity(sigma, predicate_transform(c, q)) == 0:
            continue
        assert pearl_improves(sigma, c, q)


def _suite_jeffrey_correction(n):
    rng = _rng(13)
    for _ in range(n):
        dom, cod, sigma, c = _full_triple(rng)
        assert jeffrey_corrects(sigma, c, random_state(rng, cod))


def _suite_oracle_equivalence(n):
    mismatches = run_oracle_check(seed=SEED, instances=n)
    assert mismatches == []


def test_criterion_7_randomized_law_suites():
    suites = [
        ("adjointness + compositionality", _suite_adjointness_compositionality),
        ("conditioning laws", _suite_conditioning_laws),
        ("Pearl update laws", _suite_pearl_update_laws),
        ("inversion dualities", _suite_inversion_dualities),
        ("Jeffrey update laws", _suite_jeffrey_update_laws),
        ("dagger double inversion", _suite_dagger_double_inversion),
        ("dagger of composite", _suite_dagger_of_composite),
        ("improvement inequality", _suite_improvement),
        ("ATC postcondition", _suite_atc_postcondition),
        ("NEC/Pearl agreement", _suite_nec_pearl_agreement),
        ("distance bound", _suite_distance_bound),
        ("Pearl improvement through a channel", _suite_pearl_improvement),
        ("Jeffrey correction", _suite_jeffrey_correction),
        ("oracle equivalence", _suite_oracle_equivalence),
    ]
    start = time.perf_counter()
    for name, suite in suites:
        suite(INSTANCES)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"property suites took {elapsed:.1f}s"
    report(
        7,
        f"{len(suites)} law suites x {INSTANCES} exact instances in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: committed counterexamples


def test_criterion_8_committed_counterexamples(disease, halpern):
    _, test_sp, _, prior, sens, _ = disease
    rho1 = make_state(test_sp, {"t": F(8, 10), "~t": F(2, 10)})
    rho2 = make_state(test_sp, {"t": F(3, 10), "~t": F(7, 10)})
    one_way = jeffrey_update(jeffrey_update(prior, sens, rho1), sens, rho2)
    other_way = jeffrey_update(jeffrey_update(prior, sens, rho2), sens, rho1)
    assert one_way != other_way

    noisy_pushforward = state_transform(sens, jeffrey_update(prior, sens, rho1))
    assert noisy_pushforward != rho1

    _, glimpse, hprior, coarse = halpern
    hrho = make_state(glimpse, {"gb": F(7, 10), "ry": F(3, 10)})
    assert state_transform(coarse, jeffrey_update(hprior, coarse, hrho)) == hrho
    report(8, "non-commutation witness and push-forward (counter)examples hold")


# ---------------------------------------------------------------------------
# criterion 9: the parser corpus


def test_criterion_9_parser_corpus():
    for name in corpus_names():
        source = corpus_source(name)
        decls = parse(source)
        env = load(source)
        for query in env.queries:
            evaluate(env, query)
        assert parse(render(decls)) == decls

    with pytest.raises(NetspecError) as err:
        parse(corpus_source("malformed_weights.netspec"))
    diag = err.value.diagnostics[0]
    assert diag.line == 3 and "weights sum to 5/6, expected 1" in diag.message
    report(
        9,
        f"{len(corpus_names())} networks parse/compile/evaluate; "
        "malformed file diagnosed with position; round-trips equal",
    )
