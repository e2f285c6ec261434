"""The four seeded workloads.

Each workload builds its inputs from the seed with the benchmark's own
generators and the package's public constructors, and hands out ops one at a
time: ``op(i)`` prepares op ``i`` (untimed), ``Op.run`` is the timed call into
the package, and ``Op.check`` compares its output with a reference that does
not come from the code under test.  Ops are drawn in a fixed order from the
seed, so two processes given the same seed run the same op sequence.

Why these four, and what each one stresses, is in ``bench/README.md``.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from softbayes import cli, core, netspec, updates

import reference

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_FILE = BENCH_DIR / "golden" / "golden.json"
CORPUS_DIR = "src/softbayes/corpus"  # relative to the repository root
OUT_DIR = ".bench_out"

# Input sizes: the measured size, and a tiny one for the self-test.
KERNEL_N = {"full": 40, "tiny": 3}
SWEEP_STEPS = {"full": 100, "tiny": 4}
CHECK_INSTANCES = {"full": 5, "tiny": 1}
DAG_DEPTH = {"full": 12, "tiny": 4}
DAG_SPACE = 3  # elements in the netspec-dag space
DAG_POOL = 16  # generated networks per seed, used in turn
MAX_NUM = 20  # weights are drawn as numerators 1..MAX_NUM, then normalised

# (file, channel, prior, target) with a binary channel codomain
SWEEP_CASES = [
    ("disease.netspec", "sens", "prior", "d"),
    ("disease.netspec", "sens", "prior", "~d"),
    ("disease_certainty.netspec", "sens", "prior", "d"),
    ("disease_certainty.netspec", "sens", "prior", "~d"),
    ("halpern.netspec", "coarse", "prior", "r"),
    ("halpern.netspec", "coarse", "prior", "b"),
    ("halpern.netspec", "coarse", "prior", "g"),
    ("halpern.netspec", "coarse", "prior", "y"),
]


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def run_cli(argv: list[str]) -> tuple[object, str]:
    """One in-process ``softbayes`` command: (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)  # looked up per call, so trace wrappers apply
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
    return code, out.getvalue()


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def sweep_argv(case: tuple[str, str, str, str], steps: int) -> list[str]:
    file, channel, prior, target = case
    return [
        "sweep", f"{CORPUS_DIR}/{file}", "--channel", channel,
        "--prior", prior, "--target", target, "--steps", str(steps),
    ]


def corpus_argvs() -> list[list[str]]:
    """Every corpus query, with and without --explain, plus ``examples``."""
    argvs = []
    for file in cli.corpus_names():
        text = (Path(CORPUS_DIR) / file).read_text(encoding="utf-8")
        for query in re.findall(r"^query\s+(\w+)", text, flags=re.MULTILINE):
            argvs.append(["eval", f"{CORPUS_DIR}/{file}", query])
            argvs.append(["eval", f"{CORPUS_DIR}/{file}", query, "--explain"])
    argvs.append(["examples"])
    return argvs


def _golden_check(expected: str) -> Callable[[object], bool]:
    return lambda got: got == (0, expected)


_KET = re.compile(r"(\d+(?:/\d+)?)\|([^>]*)>")


def parse_kets(text: str) -> dict[str, Fraction]:
    """Exact weights from one rendered ket sum, ``a/b|x> + ...``."""
    return {x: Fraction(w) for w, x in _KET.findall(text)}


def shared_subexpr_share(sources: list[tuple[str, str]]) -> float:
    """1 - distinct sub-expressions / expression-tree nodes, over queries.

    Each (netspec text, query name) is expanded through query references, as
    evaluation sees it; nodes are operation calls.  Counting is memoised per
    expression object and sub-expressions are hash-consed to small ints, so
    exponentially large expanded trees are counted without being built.
    """
    nodes = distinct = 0
    for text, name in sources:
        decls = netspec.parse(text)
        queries = {d.name: d.expr for d in decls if isinstance(d, netspec.QueryDecl)}
        count_memo: dict[int, int] = {}
        key_memo: dict[int, int] = {}
        interned: dict[tuple, int] = {}
        calls: set[int] = set()

        def expand(expr):
            if isinstance(expr, netspec.NameRef) and expr.name in queries:
                return queries[expr.name]
            return expr

        def visit(expr) -> tuple[int, int]:
            """(expanded node count, interned key) of one argument."""
            expr = expand(expr)
            if id(expr) in key_memo:
                return count_memo[id(expr)], key_memo[id(expr)]
            if isinstance(expr, netspec.Call):
                parts = [visit(arg) for arg in expr.args]
                count = 1 + sum(c for c, _ in parts)
                shape = (expr.op, tuple(k for _, k in parts))
            else:
                count, shape = 0, ("leaf", repr(expr))
            key = interned.setdefault(shape, len(interned))
            if isinstance(expr, netspec.Call):
                calls.add(key)
            count_memo[id(expr)], key_memo[id(expr)] = count, key
            return count, key

        total, _ = visit(queries[name])
        nodes += total
        distinct += len(calls)
    return 1 - distinct / nodes if nodes else 0.0


# ---------------------------------------------------------------------------


class KernelDense:
    """A full soft-evidence round on a fresh dense n x n instance per op."""

    name = "kernel-dense"

    def __init__(self, seed: int, scale: str):
        self.rng = random.Random(seed)
        self.size = KERNEL_N[scale]
        self.xs = core.Space("x", tuple(f"x{i}" for i in range(self.size)))
        self.ys = core.Space("y", tuple(f"y{i}" for i in range(self.size)))

    def queries(self) -> list[tuple[str, str]]:
        return []

    def instance(self) -> reference.KernelInstance:
        rng, n = self.rng, self.size
        numerators = lambda lo: tuple(rng.randint(lo, MAX_NUM) for _ in range(n))
        pred = []
        for _ in range(n):
            v = rng.randint(1, MAX_NUM)
            pred.append((rng.randint(0, v), v))
        if not any(u for u, _ in pred):
            pred[0] = (1, 1)
        evidence = numerators(0)
        if not any(evidence):
            evidence = (1,) + evidence[1:]
        return reference.KernelInstance(
            numerators(1), tuple(numerators(1) for _ in range(n)), tuple(pred), evidence
        )

    def _state(self, space, nums):
        total = sum(nums)
        return core.make_state(
            space, {x: Fraction(k, total) for x, k in zip(space.elements, nums)}
        )

    def op(self, i: int) -> Op:
        inst = self.instance()
        sigma = self._state(self.xs, inst.a)
        channel = core.make_channel(
            self.xs, self.ys,
            {x: {y: Fraction(k, sum(row)) for y, k in zip(self.ys.elements, row)}
             for x, row in zip(self.xs.elements, inst.b)},
        )
        q = core.make_predicate(
            self.ys, {y: Fraction(u, v) for y, (u, v) in zip(self.ys.elements, inst.pred)}
        )
        rho = self._state(self.ys, inst.r)

        def run():
            return (
                core.state_transform(channel, sigma),
                updates.pearl_update(sigma, channel, q),
                updates.dagger(channel, sigma),
                updates.jeffrey_update(sigma, channel, rho),
            )

        def check(out) -> bool:
            tau, pearl, inverse, jeffrey = out
            xs, ys = self.xs.elements, self.ys.elements
            return (
                [tau.weights[y] for y in ys] == reference.state_transform(inst)
                and [pearl.weights[x] for x in xs] == reference.pearl_update(inst)
                and [[inverse.rows[y].weights[x] for x in xs] for y in ys]
                == reference.dagger(inst)
                and [jeffrey.weights[x] for x in xs] == reference.jeffrey_update(inst)
            )

        return Op(f"round n={self.size}", run, check)


class CorpusCli:
    """``eval`` of every shipped query, with and without --explain, and
    ``examples``, in a seeded order; checked against committed stdout."""

    name = "corpus-cli"

    def __init__(self, seed: int, scale: str):
        self.golden = load_golden()["corpus-cli"]
        self.argvs = corpus_argvs()
        random.Random(seed).shuffle(self.argvs)
        self.size = 4  # largest space in the corpus (halpern colors, products)

    def queries(self) -> list[tuple[str, str]]:
        return [
            (Path(argv[1]).read_text(encoding="utf-8"), argv[2])
            for argv in self.argvs
            if argv[0] == "eval" and len(argv) == 3
        ]

    def op(self, i: int) -> Op:
        argv = self.argvs[i % len(self.argvs)]
        key = " ".join(argv)
        return Op(key, lambda: run_cli(argv), _golden_check(self.golden[key]))


class SweepCheck:
    """Alternating ``sweep`` on a corpus pair and ``check`` with a fresh seed."""

    name = "sweep-check"

    def __init__(self, seed: int, scale: str):
        self.rng = random.Random(seed)
        self.golden = load_golden()["sweep"]
        self.steps = SWEEP_STEPS[scale]
        self.instances = CHECK_INSTANCES[scale]
        self.cases = list(SWEEP_CASES)
        self.rng.shuffle(self.cases)
        self.size = 5  # check draws spaces of 2..5 elements

    def queries(self) -> list[tuple[str, str]]:
        return []

    def op(self, i: int) -> Op:
        if i % 2 == 0:
            argv = sweep_argv(self.cases[(i // 2) % len(self.cases)], self.steps)
            key = " ".join(argv)
            return Op(key, lambda: run_cli(argv), _golden_check(self.golden[key]))
        k = self.rng.randrange(2**31)
        argv = ["check", "--seed", str(k), "--instances", str(self.instances)]
        expected = f"oracle check: {self.instances} instances, seed {k}: ok\n"
        return Op(" ".join(argv), lambda: run_cli(argv), _golden_check(expected))


class NetspecDag:
    """``eval`` of the deepest query of a generated chain network, where each
    query uses the two before it."""

    name = "netspec-dag"

    def __init__(self, seed: int, scale: str):
        rng = random.Random(seed)
        self.depth = DAG_DEPTH[scale]
        self.size = DAG_SPACE
        out = Path(OUT_DIR) / self.name / scale
        out.mkdir(parents=True, exist_ok=True)
        self.nets = []
        for j in range(DAG_POOL):
            net = self._network(rng)
            path = out / f"seed{seed}-net{j}.netspec"
            path.write_text(self._render(net), encoding="utf-8")
            self.nets.append((str(path), net))
        self.expected: dict[int, dict[str, Fraction]] = {}

    def _network(self, rng: random.Random) -> reference.DagNetwork:
        def state():
            nums = [rng.randint(1, MAX_NUM) for _ in range(DAG_SPACE)]
            return tuple(Fraction(k, sum(nums)) for k in nums)

        return reference.DagNetwork(
            state(), state(), tuple(state() for _ in range(DAG_SPACE)),
            tuple(Fraction(rng.randint(1, 9), 10) for _ in range(2, self.depth + 1)),
        )

    def _render(self, net: reference.DagNetwork) -> str:
        xs = [f"x{i}" for i in range(DAG_SPACE)]
        weights = lambda ws: "{ " + ", ".join(f"{x}: {w}" for x, w in zip(xs, ws)) + " }"
        lines = [
            "# generated by bench/workloads.py",
            f"space x = {{ {', '.join(xs)} }}",
            f"state s0 : x = {weights(net.s0)}",
            f"state s1 : x = {weights(net.s1)}",
            "channel c : x -> x = {",
            ",\n".join(f"  {x}: {weights(row)}" for x, row in zip(xs, net.channel)),
            "}",
            "query q0 = transform(c, s0)",
            "query q1 = transform(c, s1)",
        ]
        for i, w in enumerate(net.blend, start=2):
            lines.append(f"query q{i} = blend({w}, transform(c, q{i - 1}), q{i - 2})")
        return "\n".join(lines) + "\n"

    def queries(self) -> list[tuple[str, str]]:
        return [(Path(path).read_text(encoding="utf-8"), f"q{self.depth}")
                for path, _ in self.nets]

    def op(self, i: int) -> Op:
        j = i % len(self.nets)
        path, net = self.nets[j]
        argv = ["eval", path, f"q{self.depth}"]

        def check(got) -> bool:
            code, text = got
            if j not in self.expected:
                value = reference.dag_value(net)
                self.expected[j] = {f"x{k}": w for k, w in enumerate(value) if w}
            return code == 0 and parse_kets(text) == self.expected[j]

        return Op(" ".join(argv), lambda: run_cli(argv), check)


WORKLOADS = {w.name: w for w in (KernelDense, CorpusCli, SweepCheck, NetspecDag)}
