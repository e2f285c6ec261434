"""Parser and compiler for the ``.netspec`` network-description format.

A netspec file declares spaces, states, channels, predicates, functions,
and named queries, one declaration per ``keyword name ... = ...`` form:

    # disease-test network
    space disease = { d, ~d }
    space test = { t, ~t }
    state prior : disease = { d: 1/100, ~d: 99/100 }
    channel sens : disease -> test = {
      d:  { t: 9/10, ~t: 1/10 },
      ~d: { t: 1/20, ~t: 19/20 }
    }
    predicate pos : test = { t: 8/10, ~t: 2/10 }
    query posterior = pearl(prior, sens, pos)

Numbers are exact rationals: ``a/b`` fractions or decimal literals
(``0.8`` means exactly 4/5 — no floating point anywhere).  ``~`` may
prefix identifiers, conventionally marking negation, with no semantics.
Space references are a declared name or an inline binary product
``left * right``, whose elements are written as pairs ``(b,e)``.  All
names must be declared before use; ``#`` starts a line comment.

Parsing reports positioned diagnostics (including exact weight-sum
checks); compilation builds the library values and statically
space-checks every query, binding each of its names, before anything is
evaluated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from types import ModuleType
from typing import Callable, Optional, Union

from . import core, updates
from .core import Channel, Element, Predicate, Space, State
from .errors import NestingTooDeep, SoftbayesError, SpaceMismatch

# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" (parsing never emits mere warnings today)
    line: int
    column: int
    message: str
    token: str = ""

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


class NetspecError(SoftbayesError):
    """Parse or compile failure, carrying all collected diagnostics."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


# ---------------------------------------------------------------------------
# declarations (the parse result)

SpaceRef = Union[str, tuple]  # declared name, or (left, right) inline product


@dataclass(frozen=True)
class SpaceDecl:
    name: str
    elements: tuple
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class StateDecl:
    name: str
    space: SpaceRef
    weights: tuple  # ((element, Fraction), ...)
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class PredicateDecl:
    name: str
    space: SpaceRef
    values: tuple
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class ChannelDecl:
    name: str
    domain: SpaceRef
    codomain: SpaceRef
    rows: tuple  # ((element, ((element, Fraction), ...)), ...)
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class FunctionDecl:
    name: str
    domain: SpaceRef
    codomain: SpaceRef
    mapping: tuple  # ((element, element), ...)
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class QueryDecl:
    name: str
    expr: "QueryExpr"
    line: int = field(compare=False, default=0)


Declaration = Union[
    SpaceDecl, StateDecl, PredicateDecl, ChannelDecl, FunctionDecl, QueryDecl
]


# ---------------------------------------------------------------------------
# query expressions


@dataclass(frozen=True)
class NameRef:
    name: str
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


@dataclass(frozen=True)
class EventLiteral:
    elements: tuple


@dataclass(frozen=True)
class Call:
    op: str
    args: tuple
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


QueryExpr = Union[NameRef, Call]

# argument/result kinds for the static checker
STATE, PRED, CHAN, SCALAR, EVENT, WHICH, FACTOR = (
    "state",
    "predicate",
    "channel",
    "scalar",
    "event",
    "which",
    "factor",
)

# -- space rules: argument space info -> (result kind, result space info) ----
# Space info is the Space of a state or predicate, the (domain, codomain)
# pair of a channel, None for a scalar expression, and the literal itself
# for literal arguments (an event as its tuple of elements).  A conflict
# raises SpaceMismatch with the bare message; check_expr places it in the
# query.


def _transform_space(chan, space):
    dom, cod = chan
    if space != dom:
        raise SpaceMismatch(
            f"state on {space.name!r} cannot flow through channel from {dom.name!r}"
        )
    return STATE, cod


def _predtransform_space(chan, space):
    dom, cod = chan
    if space != cod:
        raise SpaceMismatch(
            f"predicate on {space.name!r} does not match channel codomain "
            f"{cod.name!r}"
        )
    return PRED, dom


def _condition_space(state_space, pred_space):
    if state_space != pred_space:
        raise SpaceMismatch(
            f"state on {state_space.name!r} but predicate on {pred_space.name!r}"
        )
    return STATE, state_space


def _validity_space(state_space, pred_space):
    _condition_space(state_space, pred_space)
    return SCALAR, None


def _compose_space(outer, inner):
    (d_dom, d_cod), (c_dom, c_cod) = outer, inner
    if c_cod != d_dom:
        raise SpaceMismatch(
            f"cannot compose: inner codomain {c_cod.name!r} is not outer "
            f"domain {d_dom.name!r}"
        )
    return CHAN, (c_dom, d_cod)


def _dagger_space(chan, prior_space):
    dom, cod = chan
    if prior_space != dom:
        raise SpaceMismatch(
            f"prior on {prior_space.name!r} does not match channel domain "
            f"{dom.name!r}"
        )
    return CHAN, (cod, dom)


def _update_space(prior_space, chan, evidence_space):
    dom, cod = chan
    if prior_space != dom:
        raise SpaceMismatch(
            f"prior on {prior_space.name!r} vs channel domain {dom.name!r}"
        )
    if evidence_space != cod:
        raise SpaceMismatch(
            f"evidence on {evidence_space.name!r} vs channel codomain "
            f"{cod.name!r}"
        )
    return STATE, prior_space


def _product_space(left, right):
    return STATE, core.product_space(left, right)


def _marginal_space(space, which):
    if not isinstance(space, core.ProductSpace):
        raise SpaceMismatch(f"marginal needs a product-space state, got {space.name!r}")
    return STATE, space.left if which == "first" else space.right


def _event_space(space, event, _amount):
    for x in event:
        if x not in space:
            raise SpaceMismatch(
                f"event element {core.render_element(x)!r} is not in "
                f"space {space.name!r}"
            )
    return STATE, space


def _blend_space(_s, jeffrey_space, pearl_space):
    if jeffrey_space != pearl_space:
        raise SpaceMismatch(
            f"blend arms live on different spaces {jeffrey_space.name!r} and "
            f"{pearl_space.name!r}"
        )
    return STATE, jeffrey_space


@dataclass(frozen=True)
class Operation:
    """A query operation, defined once for the parser, checker and evaluator.

    ``args`` are the argument kinds the parser reads and ``space`` is the
    static space rule.  ``kernel`` computes the value and ``report``, for
    the update rules, the value with its working for ``--explain``.  Both
    name functions of ``module`` and are looked up at each call, so a
    module function replaced at run time (by a tracer, say) is the one used.
    """

    args: tuple[str, ...]
    space: Callable[..., tuple[str, object]]
    module: ModuleType
    kernel: str
    report: Optional[str] = None


OPERATIONS: dict[str, Operation] = {
    "transform": Operation((CHAN, STATE), _transform_space, core, "state_transform"),
    "predtransform": Operation(
        (CHAN, PRED), _predtransform_space, core, "predicate_transform"
    ),
    "validity": Operation((STATE, PRED), _validity_space, core, "validity"),
    "condition": Operation((STATE, PRED), _condition_space, core, "condition"),
    "compose": Operation((CHAN, CHAN), _compose_space, core, "compose"),
    "dagger": Operation((CHAN, STATE), _dagger_space, updates, "dagger"),
    "pearl": Operation(
        (STATE, CHAN, PRED), _update_space, updates, "pearl_update", "pearl_report"
    ),
    "jeffrey": Operation(
        (STATE, CHAN, STATE), _update_space, updates, "jeffrey_update",
        "jeffrey_report",
    ),
    "product": Operation((STATE, STATE), _product_space, core, "product_state"),
    "marginal": Operation((STATE, WHICH), _marginal_space, core, "marginal"),
    "atc": Operation(
        (STATE, EVENT, SCALAR), _event_space, updates, "atc_update", "atc_report"
    ),
    "nec": Operation(
        (STATE, EVENT, FACTOR), _event_space, updates, "nec_update", "nec_report"
    ),
    "blend": Operation(
        (SCALAR, STATE, STATE), _blend_space, updates, "blend_update",
        "blend_report",
    ),
}

DECL_KEYWORDS = ("space", "state", "channel", "predicate", "function", "query")

# Deepest nesting of calls and element pairs the parser accepts; it keeps
# every recursive pass over one declaration far inside the interpreter's
# recursion limit.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT NUMBER LBRACE RBRACE LPAREN RPAREN COLON COMMA ARROW STAR EQUALS EOF
    text: str
    line: int
    column: int
    value: Optional[Fraction] = None  # for NUMBER


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>\d+(?:/\d+|\.\d+)?)
  | (?P<ident>~?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<punct>[{}():,*=])
    """,
    re.VERBOSE,
)

_PUNCT_KINDS = {
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    ":": "COLON",
    ",": "COMMA",
    "*": "STAR",
    "=": "EQUALS",
}


def tokenize(source: str) -> tuple[list[Token], list[ParseDiagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[ParseDiagnostic] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            col = pos - line_start + 1
            diagnostics.append(
                ParseDiagnostic(
                    "error", line, col,
                    f"unexpected character {source[pos]!r}", source[pos],
                )
            )
            pos += 1
            continue
        col = m.start() - line_start + 1
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind == "number":
            try:
                value = Fraction(text)
            except ZeroDivisionError:
                diagnostics.append(
                    ParseDiagnostic("error", line, col, "zero denominator", text)
                )
                value = Fraction(0)
            except ValueError:  # past the interpreter's int/str digit limit
                diagnostics.append(
                    ParseDiagnostic(
                        "error", line, col,
                        f"number literal too long ({len(text)} characters)", text,
                    )
                )
                value = Fraction(0)
            tokens.append(Token("NUMBER", text, line, col, value))
        elif kind == "ident":
            tokens.append(Token("IDENT", text, line, col))
        elif kind == "arrow":
            tokens.append(Token("ARROW", text, line, col))
        elif kind == "punct":
            tokens.append(Token(_PUNCT_KINDS[text], text, line, col))
        pos = m.end()
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens, diagnostics


# ---------------------------------------------------------------------------
# parser


class _Recover(Exception):
    """Internal: abandon the current declaration and resynchronise."""


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # calls and element pairs open at the current token
        self.diagnostics: list[ParseDiagnostic] = []
        # symbol tables for single-pass reference checking; functions are
        # lifted to channels, so the two kinds share one table
        self.spaces: dict[str, tuple] = {}
        self.names: dict[str, set] = {
            kw: set() for kw in DECL_KEYWORDS if kw not in ("space", "function")
        }
        self.names["function"] = self.names["channel"]

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, token: Token, message: str) -> None:
        self.diagnostics.append(
            ParseDiagnostic("error", token.line, token.column, message, token.text)
        )

    def fail(self, token: Token, message: str) -> "_Recover":
        self.error(token, message)
        return _Recover()

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text if tok.kind != "EOF" else "end of file"
            raise self.fail(tok, f"expected {what}, got {shown!r}")
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        tok = self.expect("IDENT", what)
        if tok.text in DECL_KEYWORDS:
            raise self.fail(tok, f"{tok.text!r} is a reserved keyword")
        return tok

    def descend(self, tok: Token) -> None:
        """Open one more nesting level at tok; leave with ``depth -= 1``."""
        if self.depth == MAX_NESTING:
            raise self.fail(tok, f"nested more than {MAX_NESTING} levels deep")
        self.depth += 1

    def synchronise(self) -> None:
        while True:
            tok = self.peek()
            if tok.kind == "EOF" or (
                tok.kind == "IDENT" and tok.text in DECL_KEYWORDS
            ):
                return
            self.advance()

    # -- shapes shared by declarations -------------------------------------

    def parse_braced(self, parse_item, opening: str = "'{'") -> list:
        """``{ item (, item)* }``: one or more comma-separated items."""
        self.expect("LBRACE", opening)
        items = [parse_item()]
        while self.peek().kind == "COMMA":
            self.advance()
            items.append(parse_item())
        self.expect("RBRACE", "'}'")
        return items

    def parse_key(self, allowed: tuple, seen: set, outside: str, twice: str):
        """An element of ``allowed`` not yet in ``seen``, which it joins."""
        tok = self.peek()
        element = self.parse_element()
        if element not in allowed:
            raise self.fail(tok, f"{core.render_element(element)!r} {outside}")
        if element in seen:
            raise self.fail(tok, f"{twice} {core.render_element(element)} listed twice")
        seen.add(element)
        return element

    # -- declarations ------------------------------------------------------

    def parse_file(self) -> list[Declaration]:
        decls: list[Declaration] = []
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "IDENT" or tok.text not in DECL_KEYWORDS:
                self.error(tok, f"expected a declaration keyword, got {tok.text!r}")
                self.advance()
                self.synchronise()
                continue
            try:
                decl = getattr(self, f"parse_{tok.text}")()
            except _Recover:
                self.depth = 0
                self.synchronise()
                continue
            decls.append(decl)
        return decls

    def declare(self, kind: str, name_tok: Token) -> None:
        taken = (
            name_tok.text in self.spaces
            if kind == "space"
            else name_tok.text in self.names[kind]
        )
        if taken:
            raise self.fail(name_tok, f"duplicate {kind} name {name_tok.text!r}")

    def parse_space(self) -> SpaceDecl:
        kw = self.advance()
        name = self.expect_ident("space name")
        self.declare("space", name)
        self.expect("EQUALS", "'='")
        elements = self.parse_braced(self.parse_element)
        if len(set(elements)) != len(elements):
            raise self.fail(name, f"space {name.text!r} lists an element twice")
        self.spaces[name.text] = tuple(elements)
        return SpaceDecl(name.text, tuple(elements), line=kw.line)

    def parse_element(self) -> Element:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.descend(tok)
            self.advance()
            left = self.parse_element()
            self.expect("COMMA", "','")
            right = self.parse_element()
            self.expect("RPAREN", "')'")
            self.depth -= 1
            return (left, right)
        return self.expect_ident("an element name").text

    def parse_space_ref(self) -> tuple[SpaceRef, tuple]:
        """Returns (reference, element tuple) resolving inline products."""
        first = self.expect_ident("a space name")
        left = self.resolve_space(first)
        if self.peek().kind != "STAR":
            return first.text, left
        self.advance()
        second = self.expect_ident("a space name")
        right = self.resolve_space(second)
        elements = tuple((l, r) for l in left for r in right)
        return (first.text, second.text), elements

    def resolve_space(self, tok: Token) -> tuple:
        if tok.text not in self.spaces:
            raise self.fail(tok, f"unknown space {tok.text!r}")
        return self.spaces[tok.text]

    def parse_weights(self, elements: tuple, what: str) -> list[tuple]:
        """`elem: number` listing inside braces, validated against elements."""
        seen: set = set()

        def pair() -> tuple:
            element = self.parse_key(
                elements, seen, "is not an element here", "element"
            )
            self.expect("COLON", "':'")
            num = self.expect("NUMBER", "a rational number")
            if num.value < 0 or num.value > 1:
                raise self.fail(num, f"{what} {num.text} lies outside [0, 1]")
            return element, num.value

        return self.parse_braced(pair)

    def parse_state(self) -> StateDecl:
        kw = self.advance()
        name = self.expect_ident("state name")
        self.declare("state", name)
        self.expect("COLON", "':'")
        ref, elements = self.parse_space_ref()
        self.expect("EQUALS", "'='")
        pairs = self.parse_weights(elements, "weight")
        total = sum(w for _, w in pairs)
        if total != 1:
            raise self.fail(kw, f"weights sum to {total}, expected 1")
        self.names["state"].add(name.text)
        return StateDecl(name.text, ref, tuple(pairs), line=kw.line)

    def parse_predicate(self) -> PredicateDecl:
        kw = self.advance()
        name = self.expect_ident("predicate name")
        self.declare("predicate", name)
        self.expect("COLON", "':'")
        ref, elements = self.parse_space_ref()
        self.expect("EQUALS", "'='")
        pairs = self.parse_weights(elements, "value")
        self.names["predicate"].add(name.text)
        return PredicateDecl(name.text, ref, tuple(pairs), line=kw.line)

    def parse_channel(self) -> ChannelDecl:
        kw = self.advance()
        name = self.expect_ident("channel name")
        self.declare("channel", name)
        self.expect("COLON", "':'")
        dom_ref, dom_elements = self.parse_space_ref()
        self.expect("ARROW", "'->'")
        cod_ref, cod_elements = self.parse_space_ref()
        self.expect("EQUALS", "'='")
        seen: set = set()

        def row() -> tuple:
            tok = self.peek()
            element = self.parse_key(
                dom_elements, seen, "is not a domain element", "row for"
            )
            self.expect("COLON", "':'")
            pairs = self.parse_weights(cod_elements, "weight")
            total = sum(w for _, w in pairs)
            if total != 1:
                raise self.fail(
                    tok,
                    f"row {core.render_element(element)}: weights sum to "
                    f"{total}, expected 1",
                )
            return element, tuple(pairs)

        rows = self.parse_braced(row)
        missing = [x for x in dom_elements if x not in seen]
        if missing:
            raise self.fail(
                kw, f"missing row for {core.render_element(missing[0])}"
            )
        self.names["channel"].add(name.text)
        return ChannelDecl(name.text, dom_ref, cod_ref, tuple(rows), line=kw.line)

    def parse_function(self) -> FunctionDecl:
        kw = self.advance()
        name = self.expect_ident("function name")
        self.declare("function", name)
        self.expect("COLON", "':'")
        dom_ref, dom_elements = self.parse_space_ref()
        self.expect("ARROW", "'->'")
        cod_ref, cod_elements = self.parse_space_ref()
        self.expect("EQUALS", "'='")
        seen: set = set()

        def arrow() -> tuple:
            source = self.parse_key(
                dom_elements, seen, "is not a domain element", "mapping for"
            )
            self.expect("ARROW", "'->'")
            tok = self.peek()
            target = self.parse_element()
            if target not in cod_elements:
                raise self.fail(
                    tok, f"{core.render_element(target)!r} is not a codomain element"
                )
            return source, target

        mapping = self.parse_braced(arrow)
        missing = [x for x in dom_elements if x not in seen]
        if missing:
            raise self.fail(
                kw, f"function is not total: no value for "
                f"{core.render_element(missing[0])}"
            )
        self.names["function"].add(name.text)
        return FunctionDecl(
            name.text, dom_ref, cod_ref, tuple(mapping), line=kw.line
        )

    def parse_query(self) -> QueryDecl:
        kw = self.advance()
        name = self.expect_ident("query name")
        self.declare("query", name)
        self.expect("EQUALS", "'='")
        expr = self.parse_expr()
        self.names["query"].add(name.text)
        return QueryDecl(name.text, expr, line=kw.line)

    def parse_expr(self) -> QueryExpr:
        tok = self.expect("IDENT", "a name or operation")
        if self.peek().kind != "LPAREN":
            self.check_reference(tok)
            return NameRef(tok.text, line=tok.line, column=tok.column)
        if tok.text not in OPERATIONS:
            raise self.fail(tok, f"unknown operation {tok.text!r}")
        self.descend(tok)
        self.advance()  # LPAREN
        args: list = []
        for i, kind in enumerate(OPERATIONS[tok.text].args):
            if i > 0:
                self.expect("COMMA", "','")
            args.append(self.parse_arg(kind))
        self.expect("RPAREN", "')'")
        self.depth -= 1
        return Call(tok.text, tuple(args), line=tok.line, column=tok.column)

    def parse_arg(self, kind: str):
        tok = self.peek()
        if kind == EVENT:
            elements = self.parse_braced(self.parse_element, "'{' starting an event")
            return EventLiteral(tuple(elements))
        if kind == WHICH:
            which = self.expect("IDENT", "'first' or 'second'")
            if which.text not in ("first", "second"):
                raise self.fail(which, "expected 'first' or 'second'")
            return which.text
        if kind == SCALAR and tok.kind == "NUMBER":
            self.advance()
            if tok.value < 0 or tok.value > 1:
                raise self.fail(tok, f"scalar {tok.text} lies outside [0, 1]")
            return tok.value
        if kind == FACTOR:
            num = self.expect("NUMBER", "a positive rational")
            if num.value <= 0:
                raise self.fail(num, f"Bayes factor must be positive, got {num.text}")
            return num.value
        return self.parse_expr()

    def check_reference(self, tok: Token) -> None:
        """References must name something declared earlier (any kind)."""
        if tok.text in self.spaces:
            return
        if any(tok.text in table for table in self.names.values()):
            return
        raise self.fail(tok, f"unknown name {tok.text!r}")


def parse(source: str) -> list[Declaration]:
    """Parse netspec text into declarations.

    Raises NetspecError carrying every collected ParseDiagnostic if the
    text has any error; diagnostics point at source line/column.
    """
    tokens, diagnostics = tokenize(source)
    parser = _Parser(tokens)
    parser.diagnostics.extend(diagnostics)
    decls = parser.parse_file()
    if parser.diagnostics:
        raise NetspecError(parser.diagnostics)
    return decls


# ---------------------------------------------------------------------------
# rendering (canonical text; reparses to structurally equal declarations)


def _render_elem(x: Element) -> str:
    if isinstance(x, tuple):
        return "(" + ",".join(_render_elem(p) for p in x) + ")"
    return str(x)


def _render_weights(pairs) -> str:
    inner = ", ".join(
        f"{_render_elem(x)}: {core.render_fraction(w)}" for x, w in pairs
    )
    return "{ " + inner + " }"


def _render_ref(ref: SpaceRef) -> str:
    if isinstance(ref, tuple):
        return f"{ref[0]} * {ref[1]}"
    return ref


def render_expr(expr) -> str:
    if isinstance(expr, NameRef):
        return expr.name
    if isinstance(expr, EventLiteral):
        return "{" + ", ".join(_render_elem(x) for x in expr.elements) + "}"
    if isinstance(expr, Fraction):
        return core.render_fraction(expr)
    if isinstance(expr, str):
        return expr
    return f"{expr.op}(" + ", ".join(render_expr(a) for a in expr.args) + ")"


def render(decls: list[Declaration]) -> str:
    lines = []
    for decl in decls:
        if isinstance(decl, SpaceDecl):
            body = ", ".join(_render_elem(x) for x in decl.elements)
            lines.append(f"space {decl.name} = {{ {body} }}")
        elif isinstance(decl, StateDecl):
            lines.append(
                f"state {decl.name} : {_render_ref(decl.space)} = "
                f"{_render_weights(decl.weights)}"
            )
        elif isinstance(decl, PredicateDecl):
            lines.append(
                f"predicate {decl.name} : {_render_ref(decl.space)} = "
                f"{_render_weights(decl.values)}"
            )
        elif isinstance(decl, ChannelDecl):
            rows = ", ".join(
                f"{_render_elem(x)}: {_render_weights(pairs)}"
                for x, pairs in decl.rows
            )
            lines.append(
                f"channel {decl.name} : {_render_ref(decl.domain)} -> "
                f"{_render_ref(decl.codomain)} = {{ {rows} }}"
            )
        elif isinstance(decl, FunctionDecl):
            maps = ", ".join(
                f"{_render_elem(a)} -> {_render_elem(b)}" for a, b in decl.mapping
            )
            lines.append(
                f"function {decl.name} : {_render_ref(decl.domain)} -> "
                f"{_render_ref(decl.codomain)} = {{ {maps} }}"
            )
        elif isinstance(decl, QueryDecl):
            lines.append(f"query {decl.name} = {render_expr(decl.expr)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# compilation


@dataclass(frozen=True)
class CompiledQuery:
    """A compiled query: its declaration, its static kind and space info,
    and its expression with every name bound (see ``check_expr``)."""

    decl: QueryDecl
    kind: str
    info: object
    # shared with every query that uses this one: too costly to compare or print
    bound: object = field(compare=False, repr=False)


@dataclass
class Environment:
    """Compiled named values and queries; functions are lifted channels."""

    spaces: dict[str, Space]
    states: dict[str, State]
    predicates: dict[str, Predicate]
    channels: dict[str, Channel]
    queries: dict[str, CompiledQuery]

    @classmethod
    def empty(cls) -> "Environment":
        return cls({}, {}, {}, {}, {})


def _resolve_ref(env: Environment, ref: SpaceRef) -> Space:
    if isinstance(ref, tuple):
        return core.product_space(env.spaces[ref[0]], env.spaces[ref[1]])
    return env.spaces[ref]


def compile_network(decls: list[Declaration]) -> Environment:
    """Build library values from declarations, then check and bind each query.

    Parsing already validated references, duplicates, ranges, and sums,
    so value construction cannot fail here; query space-checking can, and
    raises SpaceMismatch naming the query and subexpression path.  Each
    query's names are bound to what was declared before it, so a later
    declaration never changes an earlier query.
    """
    env = Environment.empty()
    for decl in decls:
        if isinstance(decl, SpaceDecl):
            env.spaces[decl.name] = Space(decl.name, decl.elements)
        elif isinstance(decl, StateDecl):
            space = _resolve_ref(env, decl.space)
            env.states[decl.name] = core.make_state(space, decl.weights)
        elif isinstance(decl, PredicateDecl):
            space = _resolve_ref(env, decl.space)
            env.predicates[decl.name] = core.make_predicate(space, decl.values)
        elif isinstance(decl, ChannelDecl):
            domain = _resolve_ref(env, decl.domain)
            codomain = _resolve_ref(env, decl.codomain)
            env.channels[decl.name] = core.make_channel(
                domain, codomain, {x: dict(pairs) for x, pairs in decl.rows}
            )
        elif isinstance(decl, FunctionDecl):
            domain = _resolve_ref(env, decl.domain)
            codomain = _resolve_ref(env, decl.codomain)
            env.channels[decl.name] = core.lift_function(
                domain, codomain, dict(decl.mapping)
            )
        elif isinstance(decl, QueryDecl):
            checked = check_expr(decl.expr, env, decl.name, path=decl.name)
            env.queries[decl.name] = CompiledQuery(decl, *checked)
    return env


def _resolve(env: Environment, name: str, expected: Optional[str] = None):
    """What a bare name means: (kind, space info, value or CompiledQuery).

    The candidates are the query, state, channel and predicate of that
    name, in this order; the first of the expected kind wins, otherwise
    the first one.  None when nothing of that name is declared.
    """
    candidates = []
    if name in env.queries:
        query = env.queries[name]
        candidates.append((query.kind, query.info, query))
    for table, kind in (
        (env.states, STATE), (env.channels, CHAN), (env.predicates, PRED)
    ):
        if name in table:
            value = table[name]
            info = (value.domain, value.codomain) if kind == CHAN else value.space
            candidates.append((kind, info, value))
    for candidate in candidates:
        if candidate[0] == expected:
            return candidate
    return candidates[0] if candidates else None


# -- static space-checking and name binding ----------------------------------


def check_expr(
    expr: QueryExpr, env: Environment, query: str, path: str,
    expected: Optional[str] = None,
) -> tuple[str, object, object]:
    """Static space-check: returns (kind, space info, bound expression).

    Space info is the Space for states/predicates, a (domain, codomain)
    pair for channels, and None for scalars.  The bound expression is the
    expression with each name replaced by the value or CompiledQuery it
    resolves to in ``env`` and each event by its elements; evaluation
    looks no name up again.  Any conflict raises SpaceMismatch mentioning
    the query name and subexpression path, so an ill-spaced query never
    starts evaluating.
    """
    where = path
    if isinstance(expr, Call):
        op = OPERATIONS[expr.op]
        where = f"{path}/{expr.op}"
        infos, args = [], []
        for i, (kind, arg) in enumerate(zip(op.args, expr.args)):
            if isinstance(arg, EventLiteral):
                arg = arg.elements
            if isinstance(arg, (NameRef, Call)):
                _, info, arg = check_expr(arg, env, query, f"{where}.arg{i}", kind)
            else:
                info = arg
            infos.append(info)
            args.append(arg)
    try:
        if isinstance(expr, Call):
            kind, info = op.space(*infos)
            bound = Call(expr.op, tuple(args))
        else:
            found = _resolve(env, expr.name, expected)
            if found is None:
                raise SpaceMismatch(f"unknown name {expr.name!r}")
            kind, info, bound = found
    except SpaceMismatch as exc:
        problem = str(exc)
    else:
        if expected in (None, kind):
            return kind, info, bound
        where, problem = path, f"expected a {expected}, got a {kind}"
    raise SpaceMismatch(f"query {query!r} at {where}: {problem}")


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class QueryResult:
    """An evaluated query: the value, its kind, and how it was produced.

    ``expression`` is the provenance (the query's source expression, or
    the bare declaration name); ``report`` carries the rule and inputs
    when the top-level operation was one of the update rules.
    """

    name: str
    kind: str  # state | predicate | channel | scalar
    value: object
    expression: str = ""
    report: Optional[updates.UpdateReport] = None


def evaluate(env: Environment, name: str) -> QueryResult:
    """Evaluate a named query, or echo any other named declaration.

    The name means what it would mean inside a query declared last: the
    query of that name, else the state, channel (or function), or
    predicate.  The result carries an UpdateReport when the query's
    top-level operation is one of the update rules.  Each query it
    references is evaluated once, however often it is used; nothing is
    kept between calls.  A chain of query references too deep for the
    interpreter's stack raises NestingTooDeep.
    """
    found = _resolve(env, name)
    if found is None:
        raise SpaceMismatch(f"no query or declaration named {name!r}")
    kind, _info, target = found
    if not isinstance(target, CompiledQuery):
        return QueryResult(name, kind, target, name)
    try:
        value, report = _eval_expr(target.bound, top=True)
    except RecursionError:
        raise NestingTooDeep(
            f"query {name!r} references queries too deeply to evaluate"
        ) from None
    return QueryResult(name, kind, value, render_expr(target.decl.expr), report)


def _eval_expr(bound, top: bool = False, memo: Optional[dict] = None):
    """Returns (value, report or None) of a bound expression.

    A CompiledQuery evaluates its own bound expression, once per ``memo``:
    every later use returns the stored value.  The memo is keyed by
    ``id``, so it must not outlive the evaluation that creates it.  A
    call runs its operation's kernel on the evaluated arguments; at the
    top level an update rule runs its report instead, which carries the
    same posterior.  Anything else is already a value or a literal.
    """
    if memo is None:
        memo = {}
    if isinstance(bound, CompiledQuery):
        key = id(bound)
        if key not in memo:
            memo[key] = _eval_expr(bound.bound, memo=memo)[0]
        return memo[key], None
    if not isinstance(bound, Call):
        return bound, None
    op = OPERATIONS[bound.op]
    args = [_eval_expr(arg, memo=memo)[0] for arg in bound.args]
    if top and op.report:
        report = getattr(op.module, op.report)(*args)
        return report.posterior, report
    return getattr(op.module, op.kernel)(*args), None


def load(source: str) -> Environment:
    """Parse and compile in one step."""
    return compile_network(parse(source))
