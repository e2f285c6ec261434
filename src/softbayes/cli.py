"""Command-line front end.

Subcommands:

* ``eval FILE QUERY`` — evaluate a named query (or echo any declaration)
  from a netspec file, printing exact ket-sum fractions.
* ``sweep FILE --channel C --prior S --target X`` — CSV over the evidence
  strength r = 0..1: the Jeffrey and Pearl posteriors at a target element.
* ``examples`` — run the shipped networks against their embedded exact
  expected values.
* ``check`` — compare library results against the brute-force oracle on
  seeded random instances.

Exit codes: 0 success, 1 evaluation error or mismatch, 2 usage/parse error.
All output is deterministic; decimals only appear with ``--decimal N``.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import core, netspec, oracle, sampling, updates
from .core import render_decimal, render_fraction, render_state
from .errors import SoftbayesError, UnknownElement
from .netspec import NetspecError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# The most bytes of a netspec file that are read: about a thousand times the
# largest shipped network (barber.netspec, 1,054 bytes).  A generated file of
# this size, 24,838 declarations, loads in 1.5 s with about 80 MiB more peak
# memory (CPython 3.11); a larger file, /dev/zero included, is refused after
# reading one byte past the limit.
MAX_FILE_BYTES = 2**20


def _load_file(path: str) -> netspec.Environment:
    with Path(path).open("rb") as file:
        # read to the length the file reports, so that a small file does not
        # cost a buffer of the limit's size; read on only if there is more
        size = min(os.fstat(file.fileno()).st_size, MAX_FILE_BYTES)
        data = file.read(size + 1)
        if len(data) > size:  # a device, a pipe or a file still growing
            data += file.read(MAX_FILE_BYTES - size)
    if len(data) > MAX_FILE_BYTES:
        message = f"file is larger than {MAX_FILE_BYTES} bytes"
        raise NetspecError([netspec.ParseDiagnostic(1, 1, message)])
    try:
        source = _text(data)
    except UnicodeDecodeError as exc:  # positioned like any other bad character
        before = _text(data[: exc.start])
        line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
        message = f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        diagnostic = netspec.ParseDiagnostic(line, column, message)
        raise NetspecError([diagnostic]) from None
    return netspec.load(source)


def _text(data: bytes) -> str:
    """UTF-8 with universal newlines, as reading the file in text mode gives."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _render(value, show_zeros=False, decimal=None) -> str:
    """Exact text of a state, predicate, channel or scalar; with
    ``decimal``, its decimal rendering instead."""
    if isinstance(value, core.State):
        return render_state(value, show_zeros=show_zeros, decimal=decimal)
    if isinstance(value, core.Predicate):
        return core.render_predicate(value, decimal=decimal)
    if isinstance(value, core.Channel):
        return core.render_channel(value, decimal=decimal)
    return render_decimal(value, decimal) if decimal else render_fraction(value)


def _print_working(result: netspec.QueryResult) -> None:
    """Step-by-step working in exact fractions, one `#` line per step."""
    steps = result.working()
    if steps:
        print(f"# rule: {result.op}")
    for label, value in steps:
        print(f"# {label}: {_render(value)}")


def cmd_eval(args) -> int:
    env = _load_file(args.file)
    result = netspec.evaluate(env, args.query)
    if args.explain:
        _print_working(result)
    print(_render(result.value, args.show_zeros))
    if args.decimal:  # exact fractions stay primary; decimals are added
        print(_render(result.value, args.show_zeros, args.decimal))
    return EXIT_OK


def cmd_sweep(args) -> int:
    env = _load_file(args.file)
    if args.channel not in env.channels:
        raise UnknownElement(f"no channel named {args.channel!r}")
    channel = env.channels[args.channel]
    if args.prior not in env.states:
        raise UnknownElement(f"no state named {args.prior!r}")
    prior = env.states[args.prior]
    rows = updates.evidence_sweep(prior, channel, args.target, args.steps)
    fmt = (
        (lambda q: render_decimal(q, args.decimal))
        if args.decimal
        else render_fraction
    )
    print("r,jeffrey,pearl")
    for r, jeffrey, pearl in rows:
        print(f"{fmt(r)},{fmt(jeffrey)},{fmt(pearl)}")
    return EXIT_OK


# -- examples ---------------------------------------------------------------

# (file, query, expected exact weights in space order)
_EXAMPLE_EXPECTATIONS: list[tuple[str, str, list[str]]] = [
    ("disease.netspec", "predicted", ["117/2000", "1883/2000"]),
    ("disease.netspec", "post_positive", ["18/117", "99/117"]),
    ("disease.netspec", "post_negative", ["2/1883", "1881/1883"]),
    ("disease.netspec", "pearl_posterior", ["148/4702", "4554/4702"]),
    ("disease.netspec", "jeffrey_posterior", ["27162/220311", "193149/220311"]),
    ("disease.netspec", "half_blend", ["4453382/57550129", "53096747/57550129"]),
    ("disease_certainty.netspec", "predicted_certainty", ["4702/20000", "15298/20000"]),
    ("disease_certainty.netspec", "hard_on_certainty", ["148/4702", "4554/4702"]),
    ("disease_certainty.netspec", "pearl_equivalent", ["148/4702", "4554/4702"]),
    ("halpern.netspec", "jeffrey_posterior", ["1/10", "7/20", "7/20", "1/5"]),
    ("halpern.netspec", "pearl_posterior", ["3/23", "7/23", "7/23", "6/23"]),
    ("halpern.netspec", "atc_gb", ["1/10", "7/20", "7/20", "1/5"]),
    (
        "barber.netspec",
        "joint_prior",
        ["1/100000000", "999999/100000000", "99/100000000", "98999901/100000000"],
    ),
    (
        "barber.netspec",
        "jeffrey_burglar",
        ["693030323800000199/999998030100970100", "306967706300969901/999998030100970100"],
    ),
    (
        "barber.netspec",
        "pearl_burglar",
        ["5800000033/253333326700", "247533326667/253333326700"],
    ),
    ("dietrich.netspec", "base_rate", ["1/2", "1/2"]),
    ("dietrich.netspec", "experience_only", ["4/5", "1/5"]),
    ("dietrich.netspec", "adjusted", ["1/10", "1/40", "7/40", "7/10"]),
    ("dietrich.netspec", "final", ["4/11", "7/11"]),
]


def corpus_source(name: str) -> str:
    """Text of a shipped example network."""
    return resources.files("softbayes.corpus").joinpath(name).read_text("utf-8")


def corpus_names() -> list[str]:
    return [
        "disease.netspec",
        "disease_certainty.netspec",
        "halpern.netspec",
        "barber.netspec",
        "dietrich.netspec",
    ]


def cmd_examples(args) -> int:
    envs = {name: netspec.load(corpus_source(name)) for name in corpus_names()}
    failures = 0
    width = max(len(f"{f} {q}") for f, q, _ in _EXAMPLE_EXPECTATIONS)
    for file, query, expected_txt in _EXAMPLE_EXPECTATIONS:
        result = netspec.evaluate(envs[file], query)
        expected = [Fraction(t) for t in expected_txt]
        got = list(result.value.weights.values())
        ok = got == expected
        failures += 0 if ok else 1
        label = f"{file} {query}".ljust(width)
        shown = render_state(result.value)
        print(f"{label}  {'PASS' if ok else 'FAIL'}  {shown}")
    print(f"{len(_EXAMPLE_EXPECTATIONS) - failures}/{len(_EXAMPLE_EXPECTATIONS)} passed")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


# -- randomized oracle check -------------------------------------------------


def run_oracle_check(seed: int, instances: int) -> list[str]:
    """Compare library inference against the brute-force oracle.

    Returns a list of mismatch descriptions (empty when everything agrees).
    Each instance checks conditioning, Pearl, Jeffrey, every inverted-channel
    row, and both marginals, all as exact rational equality.
    """
    rng = random.Random(seed)
    mismatches: list[str] = []
    for i in range(instances):
        dom = sampling.random_space(rng, "x")
        cod = sampling.random_space(rng, "y")
        sigma = sampling.random_state(rng, dom, full_support=True)
        chan = sampling.random_channel(rng, dom, cod, full_support_rows=True)
        joint = oracle.joint_of(sigma, chan)

        p = sampling.random_predicate(rng, dom, nonzero=True)
        if not _conditioning_agrees(sigma, joint, p):
            mismatches.append(f"instance {i}: conditioning differs")

        # sigma and every row have full support and q is nonzero: validity > 0
        q = sampling.random_predicate(rng, cod, nonzero=True)
        if updates.pearl_update(sigma, chan, q) != oracle.oracle_pearl(joint, q.values):
            mismatches.append(f"instance {i}: Pearl update differs")

        rho = sampling.random_state(rng, cod)
        if updates.jeffrey_update(sigma, chan, rho) != oracle.oracle_jeffrey(
            joint, rho
        ):
            mismatches.append(f"instance {i}: Jeffrey update differs")

        inverse = updates.dagger(chan, sigma)
        for y in cod.elements:
            if inverse.rows[y] != oracle.oracle_dagger_row(joint, y):
                mismatches.append(f"instance {i}: inverted row {y} differs")

        tau = core.state_transform(chan, sigma)
        if tau != oracle.y_marginal(joint):
            mismatches.append(f"instance {i}: prediction/marginal differs")
        pair = core.product_state(sigma, tau)
        if core.marginal(pair, "first") != sigma or core.marginal(
            pair, "second"
        ) != tau:
            mismatches.append(f"instance {i}: product marginals differ")

        # priors with support gaps still agree along every defined route
        loose = sampling.random_state(rng, dom)
        loose_joint = oracle.joint_of(loose, chan)
        if core.state_transform(chan, loose) != oracle.y_marginal(loose_joint):
            mismatches.append(f"instance {i}: gap-prior prediction differs")
        p2 = sampling.random_predicate(rng, dom, nonzero=True)
        if not _conditioning_agrees(loose, loose_joint, p2):
            mismatches.append(f"instance {i}: gap-prior conditioning differs")
    return mismatches


def _conditioning_agrees(prior, joint, p) -> bool:
    """Whether ``prior`` conditioned on ``p`` is the x-marginal of its
    joint table conditioned on ``p``; True where ``p`` has validity 0."""
    if core.validity(prior, p) == 0:
        return True
    direct = core.condition(prior, p)
    weights = {(x, y): p.values[x] for (x, y) in joint.mass}
    return direct == oracle.conditioned_x_marginal(joint, weights)


def cmd_check(args) -> int:
    mismatches = run_oracle_check(args.seed, args.instances)
    for line in mismatches:
        print(line, file=sys.stderr)
    label = "ok" if not mismatches else "MISMATCH"
    print(
        f"oracle check: {args.instances} instances, seed {args.seed}: {label}"
    )
    return EXIT_OK if not mismatches else EXIT_MISMATCH


# -- argument parsing ---------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@functools.cache  # built on first use, then shared: parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softbayes",
        description="Exact-rational Bayesian updating with channels: "
        "Jeffrey's rule and Pearl's rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a query from a netspec file")
    p_eval.add_argument("file")
    p_eval.add_argument("query")
    p_eval.add_argument("--decimal", type=_positive_int, default=None, metavar="N")
    p_eval.add_argument("--explain", action="store_true")
    p_eval.add_argument("--show-zeros", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser(
        "sweep", help="CSV of both update rules over evidence strength r"
    )
    p_sweep.add_argument("file")
    p_sweep.add_argument("--channel", required=True)
    p_sweep.add_argument("--prior", required=True)
    p_sweep.add_argument("--target", required=True)
    p_sweep.add_argument("--steps", type=_positive_int, default=100)
    p_sweep.add_argument("--decimal", type=_positive_int, default=None, metavar="N")
    p_sweep.set_defaults(func=cmd_sweep)

    p_examples = sub.add_parser(
        "examples", help="run the shipped networks against expected values"
    )
    p_examples.set_defaults(func=cmd_examples)

    p_check = sub.add_parser(
        "check", help="randomized comparison against the brute-force oracle"
    )
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--instances", type=_positive_int, default=100)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NetspecError as exc:
        for diagnostic in exc.diagnostics:
            print(diagnostic, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # FILE missing, a directory, unreadable, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SoftbayesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    raise SystemExit(main())
