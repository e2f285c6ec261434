"""Self-test of the benchmark.

Run from the repository root:

    python3 -m pytest -q bench/tests

It checks the benchmark's own references against ``softbayes.oracle``, that a
tiny run of each workload emits every metric named in BENCHMARK.json with its
unit, and that a wrong reference value or a raising op is counted as a failed
op instead of passing or aborting the run.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from softbayes import core, oracle, updates  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture
def workloads():
    import workloads

    return workloads


def test_spec_lists_the_metrics_the_benchmark_emits(workloads):
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.layer_metrics()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_kernel_reference_agrees_with_oracle(workloads, monkeypatch, n):
    monkeypatch.setitem(workloads.KERNEL_N, "tiny", n)
    kd = workloads.KernelDense(seed=n, scale="tiny")
    for _ in range(5):
        inst = kd.instance()
        sigma = kd._state(kd.xs, inst.a)
        channel = core.make_channel(kd.xs, kd.ys, {
            x: {y: Fraction(k, sum(row)) for y, k in zip(kd.ys.elements, row)}
            for x, row in zip(kd.xs.elements, inst.b)
        })
        rho = kd._state(kd.ys, inst.r)
        q = {y: Fraction(u, v) for y, (u, v) in zip(kd.ys.elements, inst.pred)}
        joint = oracle.joint_of(sigma, channel)
        values = lambda state: list(state.weights.values())
        assert reference.state_transform(inst) == values(oracle.y_marginal(joint))
        assert reference.pearl_update(inst) == values(oracle.oracle_pearl(joint, q))
        assert reference.jeffrey_update(inst) == values(oracle.oracle_jeffrey(joint, rho))
        assert reference.dagger(inst) == [
            values(oracle.oracle_dagger_row(joint, y)) for y in kd.ys.elements
        ]


def test_dag_reference_matches_hand_computation():
    third = Fraction(1, 3)
    net = reference.DagNetwork(
        s0=(1, 0), s1=(0, 1), channel=((third, 1 - third), (0, 1)),
        blend=(Fraction(1, 2),),
    )
    # q0 = c >> s0 = (1/3, 2/3), q1 = c >> s1 = (0, 1),
    # q2 = 1/2 (c >> q1) + 1/2 q0 = 1/2 (0, 1) + 1/2 (1/3, 2/3)
    assert reference.dag_value(net) == [Fraction(1, 6), Fraction(5, 6)]


def test_shared_subexpr_share(workloads):
    dag = workloads.NetspecDag(seed=0, scale="tiny")  # depth 4
    # q4 expands to 13 calls, 8 of them distinct
    assert workloads.shared_subexpr_share(dag.queries()[:1]) == pytest.approx(1 - 8 / 13)
    # no corpus query references another or repeats a call
    assert workloads.shared_subexpr_share(workloads.CorpusCli(0, "tiny").queries()) == 0


def test_tracer_wraps_reimports_and_restores():
    original = core.state_transform
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert updates.state_transform is core.state_transform is not original
        space = core.Space("s", ("a", "b"))
        sigma = core.make_state(space, {"a": "1/2", "b": "1/2"})
        channel = core.identity_channel(space)
        tracer.op_id = 0
        updates.pearl_update(sigma, channel, core.truth(space))
        tracer.op_id = -1
        layers = tracer.summary(loop_s=1.0)
    finally:
        tracer.uninstall()
    assert core.state_transform is original and updates.state_transform is original
    assert layers["updates.pearl_update.calls"] == 1
    assert layers["core.predicate_transform.calls"] == 1
    assert layers["core.condition.calls"] == 1
    assert layers["core.validity.calls"] == 1
    assert layers["core.State.calls"] == 1  # the posterior
    assert layers["core.make_state.calls"] == 0  # built outside the op
    assert layers["core.condition.result_bits"] == 6  # 1/2 twice: 1 + 2 bits each


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    out = run.measure(workload, seed=7, seconds=0.05, trace=trace, scale="tiny")
    result = out["result"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    for key in ("python", "nproc", "seed", "commit", "run_seconds"):
        assert key in out["meta"]
    if trace:
        assert result["metrics"]["trace.toplevel_share"]["value"] > 0.5
    else:
        assert result["metrics"]["ok_ops_share"]["value"] == 1


def _corrupt(workloads, monkeypatch, name):
    """Make one workload's reference wrong; returns the ops expected to fail."""
    if name == "kernel-dense":
        wrong = lambda inst: [Fraction(0)] * len(inst.a)
        monkeypatch.setattr(reference, "jeffrey_update", wrong)
        return lambda i: True
    if name == "netspec-dag":
        real = reference.dag_value
        monkeypatch.setattr(reference, "dag_value", lambda net: [w + 1 for w in real(net)])
        return lambda i: True
    golden = workloads.load_golden()
    for group in golden.values():
        for key in group:
            group[key] += "x"
    monkeypatch.setattr(workloads, "load_golden", lambda: golden)
    if name == "sweep-check":
        return lambda i: i % 2 == 0  # check ops compare to their own summary line
    return lambda i: True


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrong_reference_is_a_failed_op(workloads, monkeypatch, name):
    expect_fail = _corrupt(workloads, monkeypatch, name)
    workload = workloads.WORKLOADS[name](seed=3, scale="tiny")
    result = worker.run_loop(workload, workload.op(0), seconds=0, min_ops=6)
    assert len(result["durations"]) == 6
    assert len(result["failures"]) == sum(expect_fail(i) for i in range(6))


def test_raising_op_is_a_failed_op(workloads, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(updates, "jeffrey_update", broken)
    workload = workloads.KernelDense(seed=3, scale="tiny")
    result = worker.run_loop(workload, workload.op(0), seconds=0, min_ops=4)
    assert len(result["failures"]) == 4
    assert all("raised ZeroDivisionError" in f for f in result["failures"])


def test_seed_fixes_the_inputs(workloads):
    ops = lambda seed: [workloads.SweepCheck(seed, "tiny").op(i).label for i in range(8)]
    assert ops(5) == ops(5) != ops(6)
    first = lambda seed: workloads.KernelDense(seed, "tiny").instance()
    assert first(5) == first(5) != first(6)
