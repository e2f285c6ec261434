"""The netspec text format: lexing, parsing, diagnostics, compilation,
static space-checking, evaluation, and render round-trips."""

import copy
import gc
import pickle
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from softbayes import core, errors, oracle, updates
from softbayes.core import MAX_PRODUCT
from softbayes.cli import corpus_names, corpus_source
from softbayes.errors import NumberTooLarge, SpaceMismatch, ZeroMass
from softbayes.netspec import (
    MAX_NESTING,
    OPERATIONS,
    Call,
    NameRef,
    NetspecError,
    QueryDecl,
    ValueDecl,
    check_expr,
    compile_network,
    evaluate,
    load,
    _eval_expr,
    parse,
    render,
    render_expr,
    tokenize,
)

DISEASE_MINIMAL = """\
# the two-node disease network
space disease = { d, ~d }
space test = { t, ~t }
state prior : disease = { d: 1/100, ~d: 99/100 }
channel sens : disease -> test = {
  d:  { t: 9/10, ~t: 1/10 },
  ~d: { t: 1/20, ~t: 19/20 }
}
"""


RESULT_KINDS = {name: op.kind for name, op in OPERATIONS.items()}
NESTED = {"state", "predicate", "channel", "scalar"}  # the kinds a call may give


def recipes(ops) -> dict:
    """Result kind -> [(op, argument kinds)] for the operations ``ops``."""
    table: dict = {}
    for op in ops:
        table.setdefault(RESULT_KINDS[op], []).append((op, OPERATIONS[op].args))
    return table


ALL_RECIPES = recipes(OPERATIONS)
# the update rules and the operations they are built from
UPDATE_RECIPES = recipes(
    ["transform", "condition", "pearl", "jeffrey", "blend", "predtransform", "dagger"]
)


class RandomQueries:
    """Random query expressions over a network's names.  ``recipes`` maps a
    result kind to its (op, argument kinds); an argument of a kind in
    ``nested`` may be a call, any other is a leaf.  With ``steer``, a name
    leaf may name a query, one in twenty is a space (an unknown name) or a
    name of any kind, and a call is drawn again, up to three times, while
    the checker rejects it, so that deep well-spaced calls are common.
    A product of more than ``MAX_PRODUCT`` elements is drawn again too,
    and never returned: the checker builds a product's space, so products
    of products would soon grow past any time budget."""

    MAX_PRODUCT = 100

    def __init__(self, rng, env, recipes, nested, steer):
        self.rng, self.env, self.recipes, self.nested = rng, env, recipes, nested
        self.tries = 4 if steer else 1
        self.names = {
            "state": [*env.states], "predicate": [*env.predicates],
            "channel": [*env.channels],
        }
        self.strays = []
        if steer:
            for name, query in env.queries.items():
                self.names.setdefault(query.kind, []).append(name)
            self.strays = [*env.spaces, *env.states, *env.predicates, *env.channels]
        spaces = [*env.spaces.values()] + [v.space for v in env.states.values()]
        self.elements = sorted({x for sp in spaces for x in sp.elements}, key=repr)

    def expr(self, kind: str, depth: int):
        if depth <= 0 or self.rng.random() < 0.4:
            return self.leaf(kind)
        options = self.recipes[kind]
        for _ in range(self.tries):
            op, kinds = options[0] if len(options) == 1 else self.rng.choice(options)
            call = Call(op, tuple(
                self.expr(k, depth - 1 if k in self.nested else 0) for k in kinds
            ))
            if op == "product" and self.oversized(call):
                call = self.leaf(kind)
                continue
            try:
                check_expr(call, self.env, "t", "t")
                return call
            except SpaceMismatch:
                pass
        return call

    def oversized(self, call) -> bool:
        """Whether product ``call`` has more than ``MAX_PRODUCT`` elements."""
        size = 1
        for arg in call.args:
            try:
                size *= len(check_expr(arg, self.env, "t", "t", "state")[1])
            except SpaceMismatch:
                return False  # the checker rejects the call
        return size > self.MAX_PRODUCT

    def leaf(self, kind: str):
        rng = self.rng
        if kind == "scalar":
            return F(rng.randint(0, 4), 4)
        if kind == "factor":
            return F(rng.randint(1, 6), 2)
        if kind == "which":
            return rng.choice(("first", "second"))
        if kind == "event":
            return tuple(rng.sample(self.elements, rng.randint(1, 2)))
        if self.strays and rng.random() < 0.05:
            return NameRef(rng.choice(self.strays))
        return NameRef(rng.choice(self.names[kind]))

    @staticmethod
    def ops(expr) -> set:
        """Every operation in ``expr``."""
        if not isinstance(expr, Call):
            return set()
        return {expr.op}.union(*map(RandomQueries.ops, expr.args))


def sample_network(rng, max_den: int = 6) -> list:
    """A random network drawn in Python, as declarations: two or three
    spaces, some of pair elements; states, predicates, channels and
    functions on declared spaces and inline products, with entries k/den
    for den <= ``max_den`` (zeros common); then queries drawn by
    ``RandomQueries`` that the checker accepts, over all operations."""
    spaces = []
    for i in range(rng.randint(2, 3)):
        elements = [
            (f"e{i}{j}", f"v{j}") if rng.random() < 0.3
            else rng.choice(("", "~")) + f"e{i}{j}"
            for j in range(rng.randint(1, 3))
        ]
        spaces.append(core.Space(f"s{i}", elements))
    decls = [ValueDecl("space", sp.name, sp) for sp in spaces]
    # one inline product among them, so that values often share a space
    refs = [*spaces, core.product_space(rng.choice(spaces), rng.choice(spaces))]

    def state(sp):
        den = rng.randint(1, max_den)
        cuts = sorted(rng.randint(0, den) for _ in range(len(sp) - 1))
        nums = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
        return core.State(sp, {x: F(k, den) for x, k in zip(sp, nums)})

    def predicate(sp):
        dens = [rng.randint(1, max_den) for _ in sp]
        return core.Predicate(
            sp, {x: F(rng.randint(0, d), d) for x, d in zip(sp, dens)}
        )

    # channels leave the spaces of priors; evidence lies on their codomains
    priors = [state(rng.choice(refs)) for _ in range(rng.randint(1, 2))]
    channels = []
    for _ in range(rng.randint(1, 3)):
        dom, cod = rng.choice(priors).space, rng.choice(refs)
        channels.append(core.Channel(dom, cod, {x: state(cod) for x in dom}))
    evidence = [rng.choice(channels).codomain for _ in range(rng.randint(1, 2))]
    dom, cod = rng.choice(priors).space, rng.choice(refs)
    function = core.lift_function(dom, cod, {x: rng.choice(cod.elements) for x in dom})
    states = [*priors, state(evidence[0])]
    decls += [
        *(ValueDecl("state", f"p{i}", v) for i, v in enumerate(states)),
        *(
            ValueDecl("predicate", f"q{i}", predicate(sp))
            for i, sp in enumerate(evidence)
        ),
        *(ValueDecl("channel", f"c{i}", c) for i, c in enumerate(channels)),
        ValueDecl("function", "f0", function),
    ]
    for i in range(rng.randint(3, 6)):
        env = compile_network(decls)
        queries = RandomQueries(rng, env, ALL_RECIPES, NESTED, steer=True)
        for _ in range(20):  # until the checker accepts one
            expr = queries.expr(rng.choice(list(ALL_RECIPES)), depth=3)
            if not isinstance(expr, (Call, NameRef)):
                continue  # a bare scalar literal is no query
            try:
                checked = check_expr(expr, env, f"r{i}", f"r{i}")
            except SpaceMismatch:
                continue
            decls.append(QueryDecl(f"r{i}", expr, *checked))
            break
    return decls


def as_decimals(text: str, rng) -> str:
    """``text`` with some of its fractions written as the decimals they are."""

    def decimal(match):
        w = F(match.group())
        places = next((j for j in range(1, 7) if 10**j % w.denominator == 0), None)
        if places is None or rng.random() < 0.5:
            return match.group()
        digits = w.numerator * 10**places // w.denominator
        return f"{digits // 10**places}.{digits % 10**places:0{places}d}"

    return re.sub(r"\b\d+/\d+\b", decimal, text)


def value_or_error(compute):
    """``compute()``, or the type and text of the library error it raises."""
    try:
        return compute()
    except errors.SoftbayesError as exc:
        return type(exc), str(exc)


def reference_value(bound):
    """The value of a bound expression (see ``check_expr``) worked out
    independently of the kernels in ``core`` and ``updates``: by the
    ``oracle``'s enumeration of joint tables, and otherwise by plain sums
    of Fractions.  Where an operation is undefined it raises ``ZeroMass``,
    the oracle's error, rather than the kernel's."""
    while isinstance(bound, QueryDecl):
        bound = bound.bound
    if not isinstance(bound, Call):
        return bound  # a value or a literal
    return REFERENCE[bound.op](*map(reference_value, bound.args))


def _total(terms) -> F:
    return sum(terms, F(0))


def _shares(space, masses: dict):
    """The state proportional to ``masses``; ZeroMass when they are all 0."""
    total = _total(masses.values())
    if total == 0:
        raise ZeroMass("no mass to normalise")
    return core.State(space, {x: m / total for x, m in masses.items()})


def _reference_jeffrey(sigma, c, rho):
    """Jeffrey's rule needs the whole inverted channel, so every row of it
    must exist, not only those the evidence touches."""
    joint = oracle.joint_of(sigma, c)
    for y in c.codomain:
        oracle.oracle_dagger_row(joint, y)
    return oracle.oracle_jeffrey(joint, rho)


def _reference_atc(omega, event, q):
    """Jeffrey's rule along the function onto the two blocks {E, not-E}."""
    blocks = core.Space("blocks", ("in", "out"))
    f = core.lift_function(
        omega.space, blocks, {x: "in" if x in event else "out" for x in omega.space}
    )
    rho = core.State(blocks, {"in": q, "out": 1 - q})
    return oracle.oracle_jeffrey(oracle.joint_of(omega, f), rho)


def _reference_marginal(tau, which):
    side = 0 if which == "first" else 1
    space = tau.space.left if side == 0 else tau.space.right
    return core.State(space, {
        x: _total(w for pair, w in tau.weights.items() if pair[side] == x)
        for x in space
    })


REFERENCE = {
    "transform": lambda c, sigma: oracle.y_marginal(oracle.joint_of(sigma, c)),
    "predtransform": lambda c, q: core.Predicate(c.domain, {
        x: _total(c.rows[x].weights[y] * q.values[y] for y in c.codomain)
        for x in c.domain
    }),
    "validity": lambda sigma, p: _total(
        sigma.weights[x] * p.values[x] for x in sigma.space
    ),
    "condition": lambda sigma, p: _shares(
        sigma.space, {x: sigma.weights[x] * p.values[x] for x in sigma.space}
    ),
    "compose": lambda d, c: core.Channel(c.domain, d.codomain, {
        x: core.State(d.codomain, {
            z: _total(c.rows[x].weights[y] * d.rows[y].weights[z] for y in c.codomain)
            for z in d.codomain
        })
        for x in c.domain
    }),
    "dagger": lambda c, sigma: core.Channel(c.codomain, c.domain, {
        y: oracle.oracle_dagger_row(joint, y)
        for joint in [oracle.joint_of(sigma, c)] for y in c.codomain
    }),
    "pearl": lambda sigma, c, q: oracle.oracle_pearl(
        oracle.joint_of(sigma, c), q.values
    ),
    "jeffrey": _reference_jeffrey,
    "product": lambda s, t: core.State(core.product_space(s.space, t.space), {
        (x, y): s.weights[x] * t.weights[y] for x in s.space for y in t.space
    }),
    "marginal": _reference_marginal,
    "atc": _reference_atc,
    "nec": lambda omega, event, k: oracle.oracle_pearl(
        oracle.joint_of(omega, core.identity_channel(omega.space)),
        {x: k if x in event else F(1) for x in omega.space},
    ),
    "blend": lambda s, jr, pr: core.State(jr.space, {
        x: s * jr.weights[x] + (1 - s) * pr.weights[x] for x in jr.space
    }),
}


class TestTokenizer:
    def test_basic_stream(self):
        tokens, diags = tokenize("space s = { a, ~b }")
        assert not diags
        kinds = [t.kind for t in tokens]
        assert kinds == [
            "IDENT", "IDENT", "EQUALS", "LBRACE", "IDENT", "COMMA",
            "IDENT", "RBRACE", "EOF",
        ]
        assert tokens[6].text == "~b"

    def test_numbers_are_exact(self):
        tokens, _ = tokenize("1/3 0.8 0.000001 7")
        values = [t.value for t in tokens if t.kind == "NUMBER"]
        assert values == [F(1, 3), F(4, 5), F(1, 10**6), F(7)]

    def test_positions(self):
        tokens, _ = tokenize("a\n  b")
        a, b = tokens[0], tokens[1]
        assert (a.line, a.column) == (1, 1)
        assert (b.line, b.column) == (2, 3)

    def test_comments_skipped(self):
        tokens, _ = tokenize("a # rest is ignored { } :\nb")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_bad_character_diagnosed(self):
        _, diags = tokenize("space s = { a; b }")
        assert [(d.line, d.column, d.message) for d in diags] == [
            (1, 14, "unexpected character ';'")
        ]

    def test_overlong_number_literal_diagnosed_at_its_position(self):
        # past Python's int/str digit limit, which guards parsing
        source = "space s = { a, b }\nstate p : s = { a: 1, b: " + "0" * 5000 + " }\n"
        with pytest.raises(NetspecError) as err:
            load(source)
        assert [str(d) for d in err.value.diagnostics] == [
            "2:26: error: number literal too long (5000 characters)"
        ]

    def test_zero_denominator_is_the_declarations_only_fault(self):
        source = "space s = { a, b }\nstate p : s = { a: 1/0, b: 1/2 }\n"
        with pytest.raises(NetspecError) as err:
            load(source)
        assert [str(d) for d in err.value.diagnostics] == [
            "2:20: error: zero denominator"
        ]


class TestParse:
    def test_disease_network_parses_to_four_declarations(self):
        decls = parse(DISEASE_MINIMAL)
        assert len(decls) == 4
        assert [d.keyword for d in decls] == ["space", "space", "state", "channel"]
        assert dict(decls[2].value.weights) == {"d": F(1, 100), "~d": F(99, 100)}

    def test_empty_file(self):
        assert parse("") == []
        assert parse("# only a comment\n") == []

    def test_weight_sum_diagnostic_with_position(self):
        source = (
            "space disease = { d, ~d }\n"
            "state prior : disease = { d: 1/2, ~d: 1/3 }\n"
        )
        with pytest.raises(NetspecError) as err:
            parse(source)
        diag = err.value.diagnostics[0]
        assert (diag.line, diag.column, diag.message) == (
            2, 1, "weights sum to 5/6, expected 1"
        )

    @pytest.mark.parametrize(
        "source, diagnostics",
        [
            pytest.param(
                "space s = { a, b }\n"
                "state p : s = { a: 1/2, b: 1/3 }\n"
                "space t = { c, d } @\n",
                [
                    "2:1: error: weights sum to 5/6, expected 1",
                    "3:20: error: unexpected character '@'",
                ],
                id="parser-before-tokenizer",
            ),
            pytest.param(
                "space s = { a, b }\nspace t = { u, v }\n"
                "state p : s = { a: 1/2, b: 1/2 }\n"
                "predicate r : t = { u: 1 }\n"
                "query q1 = condition(p, r)\n"
                "state w : t = { u: 1/2, v: 1/3 }\n"
                "query q2 = blend(1/2, p,\n  marginal(p, first))\n",
                [
                    "5:12: error: query 'q1' at q1/condition: "
                    "state on 's' but predicate on 't'",
                    "6:1: error: weights sum to 5/6, expected 1",
                    "8:3: error: query 'q2' at q2/blend.arg2/marginal: "
                    "marginal needs a product-space state, got 's'",
                ],
                id="queries-among-values",
            ),
        ],
    )
    def test_diagnostics_are_listed_in_line_order(self, source, diagnostics):
        """A parser error on line 2 comes before a bad character on line 3;
        a query's faults are listed with the others, each at its line."""
        with pytest.raises(NetspecError) as err:
            parse(source)
        assert [str(d) for d in err.value.diagnostics] == diagnostics

    def test_unknown_reference(self):
        with pytest.raises(NetspecError) as err:
            parse("state prior : nowhere = { x: 1 }")
        assert "unknown space 'nowhere'" in err.value.diagnostics[0].message

    def test_duplicate_names_per_kind(self):
        source = (
            "space s = { a, b }\n"
            "state one : s = { a: 1 }\n"
            "state one : s = { b: 1 }\n"
        )
        with pytest.raises(NetspecError) as err:
            parse(source)
        assert "duplicate state name" in err.value.diagnostics[0].message

    def test_functions_and_channels_share_one_namespace(self):
        function = "function f : s -> s = { a -> a, b -> b }\n"
        channel = "channel f : s -> s = { a: { a: 1 }, b: { b: 1 } }\n"
        for first, second, kind in (
            (function, channel, "channel"), (channel, function, "function")
        ):
            with pytest.raises(NetspecError) as err:
                parse("space s = { a, b }\n" + first + second)
            diag = err.value.diagnostics[0]
            assert (diag.line, diag.column) == (3, len(kind) + 2)
            assert diag.message == f"duplicate {kind} name 'f'"

    def test_state_and_predicate_may_share_a_name(self):
        source = (
            "space s = { a, b }\n"
            "state soft : s = { a: 7/10, b: 3/10 }\n"
            "predicate soft : s = { a: 7/10, b: 3/10 }\n"
        )
        assert len(parse(source)) == 3

    def test_multiple_diagnostics_collected(self):
        source = (
            "space s = { a, b }\n"
            "state x : s = { a: 1/2, b: 1/3 }\n"
            "state y : s = { a: 1/2, b: 1/3 }\n"
        )
        with pytest.raises(NetspecError) as err:
            parse(source)
        assert len(err.value.diagnostics) == 2

    def test_decimal_exactness(self):
        decls = parse("space q = { e, ~e }\nstate p : q = { e: 0.000001, ~e: 0.999999 }")
        weights = decls[1].value.weights
        assert weights["e"] == F(1, 10**6)

    def test_channel_missing_row(self):
        source = (
            "space a = { x, y }\nspace b = { u }\n"
            "channel c : a -> b = { x: { u: 1 } }\n"
        )
        with pytest.raises(NetspecError) as err:
            parse(source)
        assert "missing row" in err.value.diagnostics[0].message

    def test_function_must_be_total(self):
        source = (
            "space a = { x, y }\nspace b = { u }\n"
            "function f : a -> b = { x -> u }\n"
        )
        with pytest.raises(NetspecError) as err:
            parse(source)
        assert "not total" in err.value.diagnostics[0].message

    def test_query_expression_shape(self):
        source = DISEASE_MINIMAL + (
            "predicate pos : test = { t: 8/10, ~t: 2/10 }\n"
            "query post = pearl(prior, sens, pos)\n"
            "query strength = atc(prior, {d}, 0.3)\n"
        )
        decls = parse(source)
        post = decls[-2]
        assert isinstance(post, QueryDecl)
        assert post.expr == Call(
            "pearl", (NameRef("prior"), NameRef("sens"), NameRef("pos"))
        )
        assert decls[-1].expr == Call(
            "atc", (NameRef("prior"), ("d",), F(3, 10))
        )

    def test_unknown_operation(self):
        with pytest.raises(NetspecError) as err:
            parse(DISEASE_MINIMAL + "query q = frobnicate(prior)\n")
        assert "unknown operation" in err.value.diagnostics[0].message

    @pytest.mark.parametrize(
        "declaration, diagnostic",
        [
            ("space r = { a, a }", "3:7: error: space 'r' lists an element twice"),
            ("space r = a", "3:11: error: expected '{', got 'a'"),
            ("space r = { a b }", "3:15: error: expected '}', got 'b'"),
            (
                "state p : s = { a: 1/2, c: 1/2 }",
                "3:25: error: 'c' is not an element here",
            ),
            ("state p : s = { a: 1/2, a: 1/2 }", "3:25: error: element a listed twice"),
            ("state p : s = { a: 3/2 }", "3:20: error: weight 3/2 lies outside [0, 1]"),
            ("state p : s = { a: 1/2 b: 1/2 }", "3:24: error: expected '}', got 'b'"),
            (
                "state p : s = { a: 1/2, b: 1/3 }",
                "3:1: error: weights sum to 5/6, expected 1",
            ),
            (
                "predicate q : s = { a: 1, b: 2 }",
                "3:30: error: value 2 lies outside [0, 1]",
            ),
            (
                "channel c : s -> t = { a: { u: 1 }, c: { u: 1 } }",
                "3:37: error: 'c' is not a domain element",
            ),
            (
                "channel c : s -> t = { a: { u: 1 }, a: { u: 1 } }",
                "3:37: error: row for a listed twice",
            ),
            (
                "channel c : s -> t = { a: { u: 1 }, b: { u: 1/2 } }",
                "3:37: error: row b: weights sum to 1/2, expected 1",
            ),
            ("channel c : s -> t = { a: { u: 1 } }", "3:1: error: missing row for b"),
            (
                "channel c : s -> t = { a: { w: 1 }, b: { u: 1 } }",
                "3:29: error: 'w' is not an element here",
            ),
            (
                "function f : s -> t = { a -> u, c -> v }",
                "3:33: error: 'c' is not a domain element",
            ),
            (
                "function f : s -> t = { a -> u, a -> v }",
                "3:33: error: mapping for a listed twice",
            ),
            (
                "function f : s -> t = { a -> u, b -> w }",
                "3:38: error: 'w' is not a codomain element",
            ),
            (
                "function f : s -> t = { a -> u }",
                "3:1: error: function is not total: no value for b",
            ),
            (
                "function f : s -> t = { a -> u b -> v }",
                "3:32: error: expected '}', got 'b'",
            ),
            (
                "state p : s = { a: 1 }\nquery q = atc(p, a, 1/2)",
                "4:18: error: expected '{' starting an event, got 'a'",
            ),
            (
                "state p : s = { a: 1 }\nquery q = atc(p, {a b}, 1/2)",
                "4:21: error: expected '}', got 'b'",
            ),
            (
                "state p : s = { a: 1 }\nquery q = nec(p, {a}, 0)",
                "4:23: error: Bayes factor must be positive, got 0",
            ),
            (
                "state p : s = { a: 1 }\nquery q = blend(3/2, p, p)",
                "4:17: error: scalar 3/2 lies outside [0, 1]",
            ),
            (
                "state p : s = { a: 1 }\nquery q = marginal(p, third)",
                "4:23: error: expected 'first' or 'second'",
            ),
            (
                "state p : s = { a: 1 }\nquery q = frob(p)",
                "4:11: error: unknown operation 'frob'",
            ),
            (
                "state p : s = { a: 1 }\nquery q = transform(p p)",
                "4:23: error: expected ',', got 'p'",
            ),
            (
                "function f : s -> t = { a -> a, b -> u }",
                "3:30: error: 'a' is not a codomain element",
            ),
            ("state p : s = { a: 1.5 }", "3:20: error: weight 1.5 lies outside [0, 1]"),
            (
                "channel c : s -> t = { a: { u: 1 }, b: { u: 3/2 } }",
                "3:45: error: weight 3/2 lies outside [0, 1]",
            ),
            (
                "channel c : s -> t = { a: { u: 1 }, b: { u: 1/2, u: 1/2 } }",
                "3:50: error: element u listed twice",
            ),
            (
                "state p : s * t = { (a,u): 1/2, (a,w): 1/2 }",
                "3:33: error: 'a,w' is not an element here",
            ),
            ("space r = { a, b, a }", "3:7: error: space 'r' lists an element twice"),
            (  # a keyword and a name start the next declaration
                "query q =\nspace r = { a }\nstate p : r = { a: 1 }",
                "4:1: error: expected a name or operation, got 'space'",
            ),
            (
                "query q = blend(1/2,\nstate p : s = { a: 1 }",
                "4:1: error: expected a name or operation, got 'state'",
            ),
            (  # a keyword with no name after it still reads as a name
                "channel c : s -> t = { a: { u: 1 }, b: { v: 1 } }\n"
                "query q = transform(c, state)",
                "4:24: error: query 'q' at q/transform.arg1: unknown name 'state'",
            ),
        ],
    )
    def test_list_and_argument_diagnostics(self, declaration, diagnostic):
        with pytest.raises(NetspecError) as err:
            parse(f"space s = {{ a, b }}\nspace t = {{ u, v }}\n{declaration}\n")
        assert [str(d) for d in err.value.diagnostics] == [diagnostic]

    @pytest.mark.parametrize(
        "declarations, diagnostics",
        [
            pytest.param(
                "state p : s = { a: 1/2, b: 1/3 }\nquery q = p\n",
                [
                    "3:1: error: weights sum to 5/6, expected 1",
                    "4:11: error: query 'q' at q: unknown name 'p'",
                ],
                id="value",
            ),
            pytest.param(
                "state p : s = { a: 1/2, b: 1/2 }\n"
                "query q = marginal(p, first)\nquery r = blend(1/2, p, q)\n",
                [
                    "4:11: error: query 'q' at q/marginal: "
                    "marginal needs a product-space state, got 's'",
                    "5:25: error: query 'r' at r/blend.arg2: unknown name 'q'",
                ],
                id="query",
            ),
        ],
    )
    def test_a_rejected_declaration_defines_no_name(self, declarations, diagnostics):
        with pytest.raises(NetspecError) as err:
            parse("space s = { a, b }\nspace t = { u, v }\n" + declarations)
        assert [str(d) for d in err.value.diagnostics] == diagnostics

    @pytest.mark.parametrize(
        "declaration, diagnostic",
        [
            # the first syntax fault wins over any value fault before it
            (
                "state p : s = { c: 1/2, a: 1/2 b: 1/2 }",
                "3:32: error: expected '}', got 'b'",
            ),
            (
                "channel c : s -> t = { a: { u: 3/2 }, b: { u: 1 } c: { u: 1 } }",
                "3:51: error: expected '}', got 'c'",
            ),
            # then unknown or repeated entries, in listing order
            (
                "state p : s = { a: 3/2, c: 1/2 }",
                "3:25: error: 'c' is not an element here",
            ),
            # then a value outside [0, 1], in space order
            (
                "state p : s = { b: 3/2, a: 5/4 }",
                "3:28: error: weight 5/4 lies outside [0, 1]",
            ),
            # then the sum, then a missing row
            (
                "channel c : s -> t = { a: { u: 1/2 } }",
                "3:24: error: row a: weights sum to 1/2, expected 1",
            ),
            # a channel's rows are checked as each closes, before the row keys
            (
                "channel c : s -> t = { c: { u: 1 }, b: { u: 1/2 } }",
                "3:37: error: row b: weights sum to 1/2, expected 1",
            ),
        ],
    )
    def test_a_declaration_with_several_faults_reports_one(
        self, declaration, diagnostic
    ):
        with pytest.raises(NetspecError) as err:
            parse(f"space s = {{ a, b }}\nspace t = {{ u, v }}\n{declaration}\n")
        assert [str(d) for d in err.value.diagnostics] == [diagnostic]

    def test_nesting_is_capped_with_a_positioned_diagnostic(self):
        head = DISEASE_MINIMAL + (
            "channel id : disease -> disease = { d: { d: 1 }, ~d: { ~d: 1 } }\n"
        )

        def nested(depth):
            calls = "transform(id, " * depth + "prior" + ")" * depth
            return f"{head}query q = {calls}\n"

        assert evaluate(load(nested(MAX_NESTING)), "q").value.weights["d"] == F(1, 100)
        for depth in (MAX_NESTING + 1, 600, 2000):
            with pytest.raises(NetspecError) as err:
                parse(nested(depth))
            column = 11 + MAX_NESTING * len("transform(id, ")
            assert [str(d) for d in err.value.diagnostics] == [
                f"10:{column}: error: nested more than {MAX_NESTING} levels deep"
            ]

    def test_element_nesting_is_capped(self):
        source = "space s = { " + "(" * 2000 + "a" + ", b)" * 2000 + " }\n"
        with pytest.raises(NetspecError) as err:
            parse(source)
        assert str(err.value) == (
            f"1:{13 + MAX_NESTING}: error: nested more than {MAX_NESTING} levels deep"
        )

    def test_product_spaces_are_capped_before_they_are_built(self, monkeypatch):
        """A product space of more than MAX_PRODUCT elements, a query's or
        an inline one, is a positioned diagnostic; parsing builds none.
        A product space is built once per pair of factor objects, while it
        is in use: evaluation reuses the one the checker built."""
        source = corpus_source("malformed_product.netspec")
        with pytest.raises(NetspecError) as err:
            parse(source)  # q4 would have 2**32 pairs
        assert str(err.value) == (
            "7:12: error: query 'q4' at q4/product: "
            "product space would have 4294967296 elements, more than 65536"
        )
        built = []
        monkeypatch.setattr(
            core.ProductSpace, "__post_init__",
            lambda space: built.append(space) or core.Space.__post_init__(space),
        )
        env = load(source.rsplit("query q4", 1)[0])  # q3 has MAX_PRODUCT pairs
        assert [len(space) for space in built] == [4, 16, 256, MAX_PRODUCT]
        assert len(env.queries["q3"].info) == MAX_PRODUCT
        assert str(evaluate(env, "other").value) == "1|a>"
        del built[:]
        assert evaluate(env, "q3").value.space is env.queries["q3"].info
        assert built == []
        monkeypatch.undo()

        barber = load(corpus_source("barber.netspec"))
        assert barber.channels["ring"].domain is barber.queries["joint_prior"].info
        left, right = (
            core.Space(name, [f"{name}{i}" for i in range(n)])
            for name, n in (("x", 257), ("y", 256))
        )
        with pytest.raises(SpaceMismatch) as err:  # a library call too
            core.product_state(core.uniform_state(left), core.uniform_state(right))
        assert str(err.value) == (
            "product space would have 65792 elements, more than 65536"
        )
        right = core.Space("y", ("y0",))
        key = id(left), id(right)
        pair = core.product_space(left, right)
        assert core._products[key] is pair is core.product_space(left, right)
        del pair
        gc.collect()
        assert key not in core._products

        def inline(n):  # a state on an inline product of n * 256 pairs
            xs = ", ".join(f"x{i}" for i in range(n))
            ys = ", ".join(f"y{i}" for i in range(256))
            return (
                f"space l = {{ {xs} }}\nspace r = {{ {ys} }}\n"
                "state p : l * r = { (x0,y0): 1 }\n"
            )

        assert len(load(inline(256)).states["p"].space) == MAX_PRODUCT
        with pytest.raises(NetspecError) as err:
            parse(inline(257))
        assert str(err.value) == (
            "3:11: error: product space would have 65792 elements, more than 65536"
        )

    def test_forward_reference_rejected(self):
        with pytest.raises(NetspecError) as err:
            parse("space s = { a, b }\nquery q = later\nstate later : s = { a: 1 }")
        assert "unknown name 'later'" in err.value.diagnostics[0].message


class TestRoundTrip:
    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_files_round_trip(self, name):
        decls = parse(corpus_source(name))
        assert parse(render(decls)) == decls

    def test_decimals_become_canonical_fractions(self):
        decls = parse("space q = { e, ~e }\nstate p : q = { e: 0.25, ~e: 0.75 }")
        text = render(decls)
        assert "1/4" in text and "3/4" in text
        assert parse(text) == decls

    def test_rendering_is_written_from_the_values(self):
        source = (
            "space s = { a, b, c }\nspace t = { u, ~u }\n"
            "state p : s * t = { (a,u): 0.5, (c,~u): 2/4 }\n"
            "function f : s -> t = { c -> u, a -> ~u, b -> u }\n"
        )
        assert render(parse(source)) == (
            "space s = { a, b, c }\nspace t = { u, ~u }\n"
            "state p : s * t = { (a,u): 1/2, (a,~u): 0, (b,u): 0, (b,~u): 0, "
            "(c,u): 0, (c,~u): 1/2 }\n"
            "function f : s -> t = { a -> ~u, b -> u, c -> u }\n"
        )

    def test_declarations_compare_their_values(self):
        [_, first] = parse("space s = { a, b }\nstate p : s = { a: 1/2, b: 1/2 }")
        [_, second] = parse("space s = { a, b }\nstate p : s = { a: 1/3, b: 2/3 }")
        assert first != second

    def test_sampled_networks_round_trip(self):
        """A network drawn in Python renders to text that parses back to
        equal declarations, also with some fractions written as decimals,
        and each query of the loaded text evaluates to the value, or the
        error, the drawn network gives.  The draws use every operation."""
        ops = set()

        @settings(max_examples=80, deadline=None, derandomize=True)
        @given(st.integers(0, 2**32 - 1))
        def round_trip(seed):
            rng = random.Random(seed)
            decls = sample_network(rng)
            text = render(decls)
            assert parse(text) == decls
            assert parse(as_decimals(text, rng)) == decls
            drawn, loaded = compile_network(decls), load(text)
            for decl in decls:
                if isinstance(decl, QueryDecl):
                    ops.update(RandomQueries.ops(decl.expr))
                    got = value_or_error(lambda: evaluate(loaded, decl.name).value)
                    want = value_or_error(lambda: evaluate(drawn, decl.name).value)
                    assert got == want, render([decl])

        round_trip()
        assert ops == set(OPERATIONS)


class TestCompileAndEvaluate:
    def test_disease_pearl_query(self):
        env = load(corpus_source("disease.netspec"))
        result = evaluate(env, "pearl_posterior")
        assert result.kind == "state"
        assert result.value.weights["d"] == F(148, 4702)

    def test_identity_transform_echoes_prior(self):
        source = DISEASE_MINIMAL + (
            "channel id_disease : disease -> disease = "
            "{ d: { d: 1 }, ~d: { ~d: 1 } }\n"
            "query echoed = transform(id_disease, prior)\n"
        )
        env = load(source)
        assert evaluate(env, "echoed").value == env.states["prior"]

    def test_barber_marginal_to_three_decimals(self):
        env = load(corpus_source("barber.netspec"))
        jeffrey = evaluate(env, "jeffrey_burglar").value
        assert abs(jeffrey.weights["b"] - F(693, 1000)) < F(1, 2000)
        pearl = evaluate(env, "pearl_burglar").value
        assert abs(pearl.weights["b"] - F(229, 10000)) < F(1, 2000)

    def test_bare_declaration_names_evaluate(self):
        env = load(corpus_source("disease.netspec"))
        assert evaluate(env, "prior").value == env.states["prior"]
        assert evaluate(env, "sens").kind == "channel"

    def test_queries_may_reference_queries(self):
        source = DISEASE_MINIMAL + (
            "query predicted = transform(sens, prior)\n"
            "query echo = predicted\n"
        )
        env = load(source)
        assert evaluate(env, "echo").value.weights["t"] == F(117, 2000)

    def test_scalar_query(self):
        source = DISEASE_MINIMAL + (
            "predicate pos : test = { t: 8/10, ~t: 2/10 }\n"
            "query v = validity(prior, predtransform(sens, pos))\n"
        )
        env = load(source)
        result = evaluate(env, "v")
        assert result.kind == "scalar" and result.value == F(2351, 10000)

    def test_whole_space_events_agree_everywhere(self):
        """atc/nec on the whole space: the same value at top level, nested,
        and from the kernels."""
        source = (
            "space s = { x, y }\n"
            "state p : s = { x: 1/3, y: 2/3 }\n"
            "query a = atc(p, {x, y}, 1)\n"
            "query n = nec(p, {x, y}, 2)\n"
            "query a_nested = blend(1/2, atc(p, {x, y}, 1), p)\n"
            "query n_nested = blend(1/2, nec(p, {x, y}, 2), p)\n"
        )
        env = load(source)
        prior = env.states["p"]
        expected = {
            "a": updates.atc_update(prior, {"x", "y"}, 1),
            "n": updates.nec_update(prior, {"x", "y"}, 2),
        }
        assert expected["a"] == expected["n"] == prior
        for name, value in expected.items():
            assert evaluate(env, name).value == value
            assert evaluate(env, f"{name}_nested").value == value
        assert dict(evaluate(env, "a").working())["event prior mass"] == 1

    # a network whose values have zero entries and no symmetry, so that a
    # map that drops zeros or pairs entries with the wrong elements differs
    LAZY_SOURCE = (
        "space s = { a, b, c }\nspace t = { u, v }\n"
        "state p : s = { a: 1/2, b: 1/3, c: 1/6 }\n"
        "state r : t = { u: 1/4, v: 3/4 }\n"
        "predicate e : s = { a: 1, b: 1/2, c: 0 }\n"
        "predicate k : t = { u: 1, v: 1/5 }\n"
        "channel c : s -> t = "
        "{ a: { u: 1 }, b: { u: 2/3, v: 1/3 }, c: { u: 1/7, v: 6/7 } }\n"
        "channel d : t -> s = { u: { a: 1/2, c: 1/2 }, v: { b: 1 } }\n"
    )
    # one query per operation whose value is a state, predicate or channel
    LAZY_QUERIES = {
        "transform": "transform(c, p)",
        "predtransform": "predtransform(c, k)",
        "condition": "condition(p, e)",
        "compose": "compose(d, c)",
        "dagger": "dagger(c, p)",
        "pearl": "pearl(p, c, k)",
        "jeffrey": "jeffrey(p, c, r)",
        "product": "product(p, r)",
        "marginal": "marginal(product(r, p), second)",
        "atc": "atc(p, {a, b}, 1)",
        "nec": "nec(p, {a}, 3)",
        "blend": "blend(1/3, condition(p, e), p)",
    }

    def test_every_valued_operation_is_covered(self):
        valued = {op for op, kind in RESULT_KINDS.items() if kind != "scalar"}
        assert set(self.LAZY_QUERIES) == valued

    @pytest.mark.parametrize("op", sorted(LAZY_QUERIES))
    def test_kernel_results_build_their_map_when_read(self, op):
        """A kernel result, and each row of a channel one, holds its integer
        form only; its map, once read, is the one the public constructor
        builds from the same values: exact fractions in space order, zeros
        included, and the same object at every later read.  The rows of
        ``dagger`` alone are built with their maps."""
        env = load(self.LAZY_SOURCE + f"query z = {self.LAZY_QUERIES[op]}\n")
        value = evaluate(env, "z").value
        parts = [*value.rows.values()] if isinstance(value, core.Channel) else [value]
        kinds = [
            ("weights", core.make_state) if isinstance(part, core.State)
            else ("values", core.make_predicate)
            for part in parts
        ]
        for part, (entries, _) in zip(parts, kinds):
            assert (entries in vars(part)) is (op == "dagger")
        for part, (entries, make) in zip(parts, kinds):
            read = getattr(part, entries)
            listing = [(x, F(k, part._den)) for x, k in zip(part.space, part._nums)]
            expected = getattr(make(part.space, listing), entries)
            assert list(read.items()) == list(expected.items())
            assert all(type(w) is F for w in read.values())
            assert getattr(part, entries) is read

    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    @pytest.mark.parametrize("op", ["compose", "dagger"])
    def test_channel_results_copy_and_pickle(self, op, read):
        """A channel result copies and pickles to an equal channel whose rows
        list the same fractions, whether or not a row's map was read."""
        env = load(self.LAZY_SOURCE + f"query z = {self.LAZY_QUERIES[op]}\n")
        value = evaluate(env, "z").value
        if read:
            next(iter(value.rows.values())).weights
            core.state_transform(value, core.uniform_state(value.domain))
        copies = [copy.copy(value), copy.deepcopy(value)] + [
            pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for copied in copies:
            assert type(copied) is core.Channel and copied == value
            assert [list(row.items()) for row in copied.rows.values()] == [
                list(row.items()) for row in value.rows.values()
            ]

    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_environments_copy_and_pickle(self, name):
        """A loaded environment copies and pickles to an equal one, whose
        every query evaluates to an equal result."""
        env = load(corpus_source(name))
        copies = [copy.deepcopy(env)] + [
            pickle.loads(pickle.dumps(env, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for copied in copies:
            assert copied == env and copied is not env
            for query in env.queries:
                assert evaluate(copied, query) == evaluate(env, query)

    def test_runaway_number_growth_is_refused_naming_the_query(self):
        """Each link of malformed_growth.netspec composes a channel with
        itself, doubling its numbers' bit length; evaluation stops at the
        first link past core.MAX_BITS and names the query it was asked for."""
        env = load(corpus_source("malformed_growth.netspec"))
        assert "malformed_growth.netspec" not in corpus_names()
        with pytest.raises(NumberTooLarge) as err:
            evaluate(env, "v")
        message = str(err.value)
        assert message.startswith("query 'v': a number would have up to ")
        assert message.endswith(f" bits, more than {core.MAX_BITS}")

    def test_rendering_a_chain_builds_only_the_rendered_map(self, monkeypatch):
        """Evaluation reads the integer form: of the 23 kernel results of
        q12, only the rendered one builds its map."""
        source = (
            "space s = { a, b }\nstate p : s = { a: 1/3, b: 2/3 }\n"
            "channel c : s -> s = { a: { a: 1/4, b: 3/4 }, b: { a: 1/2, b: 1/2 } }\n"
            "query q0 = p\nquery q1 = transform(c, p)\n"
        ) + "".join(
            f"query q{i} = blend(1/3, transform(c, q{i - 1}), q{i - 2})\n"
            for i in range(2, 13)
        )
        env = load(source)
        built = []
        build = core._UnitValued.__getattr__

        def counted(value, name):
            entries = build(value, name)
            built.append(value)
            return entries

        monkeypatch.setattr(core._UnitValued, "__getattr__", counted)
        value = evaluate(env, "q12").value
        assert len(built) == 0
        core.render_state(value)
        assert len(built) == 1 and built[0] is value

    def test_reference_chain_of_600_links_evaluates(self):
        source = DISEASE_MINIMAL + (
            "channel id : disease -> disease = { d: { d: 1 }, ~d: { ~d: 1 } }\n"
            "query q0 = transform(id, prior)\n"
        ) + "".join(f"query q{i} = transform(id, q{i - 1})\n" for i in range(1, 600))
        env = load(source)
        assert evaluate(env, "q10").value == env.states["prior"]
        assert evaluate(env, "q599").value == env.states["prior"]

    def test_reference_chain_of_5000_links_evaluates(self):
        source = DISEASE_MINIMAL + (
            "query q0 = transform(sens, prior)\n"
        ) + "".join(f"query q{i} = marginal(product(q{i - 1}, prior), first)\n"
                    for i in range(1, 5000))
        env = load(source)
        assert evaluate(env, "q4999").value == evaluate(env, "q0").value

    def test_first_failing_operation_left_to_right_is_reported(self):
        """A failing subexpression left of a failing query reference wins,
        as in a recursive evaluation, though the reference was declared
        first."""
        source = (
            "space s = { a, b }\n"
            "state p : s = { a: 1/2, b: 1/2 }\n"
            "state gap : s = { a: 1, b: 0 }\n"
            "predicate z : s = { a: 0, b: 0 }\n"
            "channel c : s -> s = { a: { a: 1 }, b: { b: 1 } }\n"
            "query inverted = transform(dagger(c, gap), p)\n"
            "query q = blend(1/2, condition(p, z), inverted)\n"
        )
        env = load(source)
        with pytest.raises(errors.NotFullSupport):
            evaluate(env, "inverted")
        with pytest.raises(errors.ZeroValidity):
            evaluate(env, "q")

    @staticmethod
    def count_calls(monkeypatch, module, name):
        """Wrap a kernel with a call counter; the op table looks kernels up
        by name at each call, so evaluation runs the wrapper."""
        calls = []
        kernel = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_each_referenced_query_is_evaluated_once(self, monkeypatch):
        """Each link uses the previous one twice: without sharing the chain
        would take 2^59 evaluations."""
        source = (
            "space s = { a, b }\nstate p : s = { a: 1/3, b: 2/3 }\nquery q0 = p\n"
        ) + "".join(
            f"query q{i} = blend(1/2, q{i - 1}, q{i - 1})\n" for i in range(1, 60)
        )
        env = load(source)
        blends = self.count_calls(monkeypatch, updates, "blend_update")
        assert evaluate(env, "q59").value == env.states["p"]
        # q1..q58 as references, and q59 through blend_report
        assert len(blends) == 59

    def test_shared_reference_value_and_counts_per_evaluation(self, monkeypatch):
        """q3 uses q1 twice, through q2 and directly."""
        source = (
            "space s = { a, b }\nstate p : s = { a: 1/3, b: 2/3 }\n"
            "channel c : s -> s = { a: { a: 1/4, b: 3/4 }, b: { a: 1/2, b: 1/2 } }\n"
            "query q1 = transform(c, p)\n"
            "query q2 = blend(1/3, q1, transform(c, q1))\n"
            "query q3 = blend(1/4, q2, q1)\n"
        )
        env = load(source)
        transforms = self.count_calls(monkeypatch, core, "state_transform")
        blends = self.count_calls(monkeypatch, updates, "blend_update")

        rows = [[F(1, 4), F(3, 4)], [F(1, 2), F(1, 2)]]

        def transform(weights):
            return [sum(w * row[y] for w, row in zip(weights, rows)) for y in (0, 1)]

        def blend(s, jr, pr):
            return [s * j + (1 - s) * p for j, p in zip(jr, pr)]

        q1 = transform([F(1, 3), F(2, 3)])
        q2 = blend(F(1, 3), q1, transform(q1))
        q3 = blend(F(1, 4), q2, q1)
        value = evaluate(env, "q3").value
        assert [value.weights[x] for x in ("a", "b")] == q3
        assert (len(transforms), len(blends)) == (2, 2)
        # nothing is kept between evaluations
        evaluate(env, "q3")
        assert (len(transforms), len(blends)) == (4, 4)

    def test_update_queries_carry_reports(self):
        env = load(corpus_source("disease.netspec"))
        assert evaluate(env, "pearl_posterior").op == "pearl"
        assert evaluate(env, "jeffrey_posterior").op == "jeffrey"
        assert evaluate(env, "predicted").working() == ()

    def test_top_level_jeffrey_runs_its_kernel_once(self, monkeypatch):
        """A top-level update goes through the kernel a nested one uses,
        once, and its working calls the kernel no more."""
        env = load(corpus_source("disease.netspec"))
        calls = self.count_calls(monkeypatch, updates, "jeffrey_update")
        result = evaluate(env, "jeffrey_posterior")
        assert len(calls) == 1
        assert result.value("d") == F(3018, 24479)
        assert dict(result.working())["inverted row t"]("d") == F(18, 117)
        assert len(calls) == 1


class TestStaticSpaceCheck:
    def test_mismatch_reported_with_query_and_path(self):
        source = DISEASE_MINIMAL + (
            "predicate wrong : disease = { d: 1/2 }\n"
            "query broken = pearl(prior, sens, wrong)\n"
        )
        with pytest.raises(NetspecError) as err:
            load(source)
        [diagnostic] = err.value.diagnostics
        assert (diagnostic.line, diagnostic.column) == (10, 16)
        assert "broken" in diagnostic.message and "pearl" in diagnostic.message

    @pytest.mark.parametrize(
        "expression, path, message, column",
        [
            (
                "transform(sens, seen)",
                "bad/transform",
                "state on 'test' cannot flow through channel from 'disease'",
                13,
            ),
            (
                "predtransform(sens, ill)",
                "bad/predtransform",
                "predicate on 'disease' does not match channel codomain 'test'",
                13,
            ),
            (
                "validity(prior, pos)",
                "bad/validity",
                "state on 'disease' but predicate on 'test'",
                13,
            ),
            (
                "condition(seen, ill)",
                "bad/condition",
                "state on 'test' but predicate on 'disease'",
                13,
            ),
            (
                "compose(sens, sens)",
                "bad/compose",
                "cannot compose: inner codomain 'test' is not outer domain 'disease'",
                13,
            ),
            (
                "dagger(sens, seen)",
                "bad/dagger",
                "prior on 'test' does not match channel domain 'disease'",
                13,
            ),
            (
                "pearl(seen, sens, pos)",
                "bad/pearl",
                "prior on 'test' vs channel domain 'disease'",
                13,
            ),
            (
                "jeffrey(prior, sens, prior)",
                "bad/jeffrey",
                "evidence on 'disease' vs channel codomain 'test'",
                13,
            ),
            (
                "marginal(prior, first)",
                "bad/marginal",
                "marginal needs a product-space state, got 'disease'",
                13,
            ),
            (
                "atc(prior, {t}, 1/2)",
                "bad/atc",
                "event element 't' is not in space 'disease'",
                13,
            ),
            (
                "nec(prior, {d, t}, 2)",
                "bad/nec",
                "event element 't' is not in space 'disease'",
                13,
            ),
            (
                "blend(1/2, prior, seen)",
                "bad/blend",
                "blend arms live on different spaces 'disease' and 'test'",
                13,
            ),
            (
                "blend(prior, prior, prior)",
                "bad/blend.arg0",
                "expected a scalar, got a state",
                19,
            ),
            (
                "pearl(transform(sens, seen), sens, pos)",
                "bad/pearl.arg0/transform",
                "state on 'test' cannot flow through channel from 'disease'",
                19,
            ),
            (
                "blend(validity(prior, ill), prior, transform(sens, prior))",
                "bad/blend",
                "blend arms live on different spaces 'disease' and 'test'",
                13,
            ),
            (
                "transform(pos, prior)",
                "bad/transform.arg0",
                "expected a channel, got a predicate",
                23,
            ),
            (
                "validity(prior, predtransform(sens, prior))",
                "bad/validity.arg1/predtransform.arg1",
                "expected a predicate, got a state",
                49,
            ),
        ],
    )
    def test_mismatch_texts(self, expression, path, message, column):
        source = DISEASE_MINIMAL + (
            "predicate pos : test = { t: 8/10, ~t: 2/10 }\n"
            "predicate ill : disease = { d: 1, ~d: 0 }\n"
            "state seen : test = { t: 1/2, ~t: 1/2 }\n"
            f"query bad = {expression}\n"
        )
        with pytest.raises(NetspecError) as err:
            load(source)
        assert [str(d) for d in err.value.diagnostics] == [
            f"12:{column}: error: query 'bad' at {path}: {message}"
        ]

    def test_unknown_name_reported_at_its_path(self):
        env = load(DISEASE_MINIMAL)
        with pytest.raises(SpaceMismatch) as err:
            expr = Call("transform", (NameRef("sens"), NameRef("gone")))
            check_expr(expr, env, "q", "q")
        assert str(err.value) == "query 'q' at q/transform.arg1: unknown name 'gone'"

    def test_compose_mismatch_caught_statically(self):
        source = DISEASE_MINIMAL + "query bad = compose(sens, sens)\n"
        with pytest.raises(NetspecError) as err:
            load(source)
        assert str(err.value) == (
            "9:13: error: query 'bad' at bad/compose: "
            "cannot compose: inner codomain 'test' is not outer domain 'disease'"
        )

    def test_marginal_needs_product_space(self):
        source = DISEASE_MINIMAL + "query bad = marginal(prior, first)\n"
        with pytest.raises(NetspecError) as err:
            load(source)
        assert str(err.value) == (
            "9:13: error: query 'bad' at bad/marginal: "
            "marginal needs a product-space state, got 'disease'"
        )

    def test_scalar_position_rejects_states(self):
        source = DISEASE_MINIMAL + (
            "query bad = blend(prior, prior, prior)\n"
        )
        with pytest.raises(NetspecError) as err:
            load(source)
        assert str(err.value) == (
            "9:19: error: query 'bad' at bad/blend.arg0: expected a scalar, got a state"
        )

    def test_checker_soundness_on_random_expressions(self):
        """Random query text, through ``load``.  A query the checker accepts
        evaluates without SpaceMismatch, to the value or error the checked
        expression gives, also through an alias and, for a state, nested in
        ``blend(1, x, x)``; that value equals the independent
        ``reference_value``, and where evaluation fails, so does the
        reference.  A query it rejects gives one diagnostic, the
        checker's text, at the Call or NameRef that text names.  Besides two
        corpus networks, the queries run on sampled networks with gaps:
        priors with zero weights and channels that predict zeros, on which
        the update rules' own faults are reached."""
        accepted, ops = 0, set()
        runs = [
            (corpus_source("disease.netspec"), 4242, 300, UPDATE_RECIPES, {"state"},
             False),
            (corpus_source("disease.netspec"), 5151, 500, ALL_RECIPES, NESTED, True),
            (corpus_source("dietrich.netspec"), 6262, 500, ALL_RECIPES, NESTED, True),
        ]
        gaps = [
            render(sample_network(random.Random(seed), max_den=2))
            for seed in range(7000, 7008)
        ]
        runs += [(network, 1, 100, ALL_RECIPES, NESTED, True) for network in gaps]
        raised = set()  # the error types evaluation gave on the sampled networks
        for network, seed, count, recipes, nested, steer in runs:
            env = load(network)
            queries = RandomQueries(random.Random(seed), env, recipes, nested, steer)
            for _ in range(count):
                expr = queries.expr(queries.rng.choice(list(recipes)), depth=3)
                if not isinstance(expr, (Call, NameRef)):
                    continue  # a bare scalar literal is no query
                result = self.check_as_text(network, env, expr)
                if result is not None:
                    accepted += 1
                    ops |= queries.ops(expr)
                    if isinstance(result, tuple) and network in gaps:
                        raised.add(result[0])
        assert accepted > 250  # the generators produce mostly well-spaced trees
        assert ops == set(OPERATIONS)
        assert {
            errors.NotFullSupport, errors.ZeroValidity, errors.DegenerateEvent
        } <= raised

    @staticmethod
    def check_as_text(network: str, env, expr):
        """Check ``expr`` as query text appended to ``network``: None if the
        checker rejects it, else the value or (error type, text) the checked
        expression gives."""
        text = render_expr(expr)
        source = f"{network}query t = {text}\n"
        try:
            kind, _, bound = check_expr(expr, env, "t", "t")
        except SpaceMismatch as exc:
            with pytest.raises(NetspecError) as err:
                load(source)
            [diagnostic] = err.value.diagnostics
            assert diagnostic.message == str(exc)
            assert diagnostic.line == source.count("\n")
            node = expr  # the node the path in the message names
            path = re.match(r"query 't' at (\S+): ", str(exc)).group(1)
            for step in path.split("/")[1:]:
                if ".arg" in step:
                    node = node.args[int(step.rsplit(".arg", 1)[1])]
            line = source.splitlines()[-1]
            word = re.match(r"~?\w+\(?", line[diagnostic.column - 1:]).group()
            assert word == (f"{node.op}(" if isinstance(node, Call) else node.name)
            return None

        def outcome(value):
            try:
                return value()
            except SpaceMismatch as exc:  # soundness violation
                pytest.fail(f"checker accepted {text} but evaluation mismatched: {exc}")
            except errors.SoftbayesError as exc:  # zero validity etc.
                return type(exc), str(exc)

        source += "query a = t\n"
        names = ["t", "a"]
        if kind == "state":
            source += f"query n = blend(1, {text}, {text})\n"
            names.append("n")
        loaded = load(source)
        expected = outcome(lambda: _eval_expr(bound)[0])
        reference = value_or_error(lambda: reference_value(bound))
        if isinstance(expected, tuple):  # evaluation failed: so must the reference
            assert isinstance(reference, tuple), (text, expected)
        else:
            assert reference == expected, text
        for name in names:
            assert outcome(lambda: evaluate(loaded, name).value) == expected, (name, text)
        return expected

    def test_corpus_queries_all_statically_checked_and_evaluable(self):
        for name in corpus_names():
            env = load(corpus_source(name))
            for query in env.queries:
                evaluate(env, query)  # must not raise


class TestOperationTable:
    def test_docs_table_lists_exactly_the_operations(self):
        """docs/netspec.md's "Query operations" table names every operation
        with its arity, and nothing else."""
        docs = Path(__file__).resolve().parents[1] / "docs" / "netspec.md"
        section = docs.read_text(encoding="utf-8").split("## Query operations")[1]
        section = section.split("\n## ")[0]
        rows = re.findall(r"^\| `(\w+)\((.*?)\)` \|", section, flags=re.MULTILINE)
        documented = {name: len(params.split(", ")) for name, params in rows}
        assert len(rows) == len(documented)
        assert documented == {name: len(op.args) for name, op in OPERATIONS.items()}
