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
space-checks every query before anything is evaluated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import core, updates
from .core import Channel, Element, Predicate, Space, State
from .errors import SoftbayesError, SpaceMismatch

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

OP_SIGNATURES: dict[str, tuple[tuple[str, ...], str]] = {
    "transform": ((CHAN, STATE), STATE),
    "predtransform": ((CHAN, PRED), PRED),
    "validity": ((STATE, PRED), SCALAR),
    "condition": ((STATE, PRED), STATE),
    "compose": ((CHAN, CHAN), CHAN),
    "dagger": ((CHAN, STATE), CHAN),
    "pearl": ((STATE, CHAN, PRED), STATE),
    "jeffrey": ((STATE, CHAN, STATE), STATE),
    "product": ((STATE, STATE), STATE),
    "marginal": ((STATE, WHICH), STATE),
    "atc": ((STATE, EVENT, SCALAR), STATE),
    "nec": ((STATE, EVENT, FACTOR), STATE),
    "blend": ((SCALAR, STATE, STATE), STATE),
}

DECL_KEYWORDS = ("space", "state", "channel", "predicate", "function", "query")


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
        self.diagnostics: list[ParseDiagnostic] = []
        # symbol tables for single-pass reference checking
        self.spaces: dict[str, tuple] = {}
        self.names: dict[str, set] = {
            kw: set() for kw in DECL_KEYWORDS if kw != "space"
        }

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

    def synchronise(self) -> None:
        while True:
            tok = self.peek()
            if tok.kind == "EOF" or (
                tok.kind == "IDENT" and tok.text in DECL_KEYWORDS
            ):
                return
            self.advance()

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
        self.expect("LBRACE", "'{'")
        elements: list[Element] = []
        while True:
            elements.append(self.parse_element())
            if self.peek().kind == "COMMA":
                self.advance()
                continue
            break
        self.expect("RBRACE", "'}'")
        if len(set(elements)) != len(elements):
            raise self.fail(name, f"space {name.text!r} lists an element twice")
        self.spaces[name.text] = tuple(elements)
        return SpaceDecl(name.text, tuple(elements), line=kw.line)

    def parse_element(self) -> Element:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.advance()
            left = self.parse_element()
            self.expect("COMMA", "','")
            right = self.parse_element()
            self.expect("RPAREN", "')'")
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
        self.expect("LBRACE", "'{'")
        seen: set = set()
        pairs: list[tuple] = []
        while True:
            tok = self.peek()
            element = self.parse_element()
            if element not in elements:
                raise self.fail(
                    tok, f"{core.render_element(element)!r} is not an element here"
                )
            if element in seen:
                raise self.fail(
                    tok, f"element {core.render_element(element)} listed twice"
                )
            seen.add(element)
            self.expect("COLON", "':'")
            num = self.expect("NUMBER", "a rational number")
            if num.value < 0 or num.value > 1:
                raise self.fail(num, f"{what} {num.text} lies outside [0, 1]")
            pairs.append((element, num.value))
            if self.peek().kind == "COMMA":
                self.advance()
                continue
            break
        self.expect("RBRACE", "'}'")
        return pairs

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
        self.expect("LBRACE", "'{'")
        rows: list[tuple] = []
        seen: set = set()
        while True:
            tok = self.peek()
            element = self.parse_element()
            if element not in dom_elements:
                raise self.fail(
                    tok,
                    f"{core.render_element(element)!r} is not a domain element",
                )
            if element in seen:
                raise self.fail(
                    tok, f"row for {core.render_element(element)} listed twice"
                )
            seen.add(element)
            self.expect("COLON", "':'")
            pairs = self.parse_weights(cod_elements, "weight")
            total = sum(w for _, w in pairs)
            if total != 1:
                raise self.fail(
                    tok,
                    f"row {core.render_element(element)}: weights sum to "
                    f"{total}, expected 1",
                )
            rows.append((element, tuple(pairs)))
            if self.peek().kind == "COMMA":
                self.advance()
                continue
            break
        self.expect("RBRACE", "'}'")
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
        self.expect("LBRACE", "'{'")
        mapping: list[tuple] = []
        seen: set = set()
        while True:
            tok = self.peek()
            source = self.parse_element()
            if source not in dom_elements:
                raise self.fail(
                    tok, f"{core.render_element(source)!r} is not a domain element"
                )
            if source in seen:
                raise self.fail(
                    tok, f"mapping for {core.render_element(source)} listed twice"
                )
            seen.add(source)
            self.expect("ARROW", "'->'")
            tok2 = self.peek()
            target = self.parse_element()
            if target not in cod_elements:
                raise self.fail(
                    tok2,
                    f"{core.render_element(target)!r} is not a codomain element",
                )
            mapping.append((source, target))
            if self.peek().kind == "COMMA":
                self.advance()
                continue
            break
        self.expect("RBRACE", "'}'")
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
        if tok.text not in OP_SIGNATURES:
            raise self.fail(tok, f"unknown operation {tok.text!r}")
        arg_kinds, _result = OP_SIGNATURES[tok.text]
        self.advance()  # LPAREN
        args: list = []
        for i, kind in enumerate(arg_kinds):
            if i > 0:
                self.expect("COMMA", "','")
            args.append(self.parse_arg(kind))
        self.expect("RPAREN", "')'")
        return Call(tok.text, tuple(args), line=tok.line, column=tok.column)

    def parse_arg(self, kind: str):
        tok = self.peek()
        if kind == EVENT:
            self.expect("LBRACE", "'{' starting an event")
            elements = [self.parse_element()]
            while self.peek().kind == "COMMA":
                self.advance()
                elements.append(self.parse_element())
            self.expect("RBRACE", "'}'")
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


@dataclass
class Environment:
    """Compiled named values, plus query declarations and their static kinds."""

    spaces: dict[str, Space]
    states: dict[str, State]
    predicates: dict[str, Predicate]
    channels: dict[str, Channel]
    functions: dict[str, Channel]  # lifted deterministic channels
    queries: dict[str, QueryDecl]
    query_info: dict[str, tuple]  # name -> (kind, space info)

    @classmethod
    def empty(cls) -> "Environment":
        return cls({}, {}, {}, {}, {}, {}, {})


def _resolve_ref(env: Environment, ref: SpaceRef) -> Space:
    if isinstance(ref, tuple):
        return core.product_space(env.spaces[ref[0]], env.spaces[ref[1]])
    return env.spaces[ref]


def compile_network(decls: list[Declaration]) -> Environment:
    """Build library values from declarations and space-check all queries.

    Parsing already validated references, duplicates, ranges, and sums,
    so value construction cannot fail here; query space-checking can, and
    raises SpaceMismatch naming the query and subexpression path.
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
            env.functions[decl.name] = core.lift_function(
                domain, codomain, dict(decl.mapping)
            )
        elif isinstance(decl, QueryDecl):
            info = check_expr(decl.expr, env, decl.name, path=decl.name)
            env.queries[decl.name] = decl
            env.query_info[decl.name] = info
    return env


def _search_order(expected: Optional[str]) -> tuple[str, ...]:
    if expected in (STATE, PRED, CHAN):
        return (expected,) + tuple(k for k in (STATE, PRED, CHAN) if k != expected)
    return (STATE, PRED, CHAN)


def _find(env: Environment, name: str, expected: Optional[str]):
    """Resolve a bare name to (kind, value-or-QueryDecl).

    Names are unique per declaration kind, so the expected kind's table
    is searched first; queries resolve by their statically checked kind.
    """
    for kind in _search_order(expected):
        if kind == STATE and name in env.states:
            return STATE, env.states[name]
        if kind == PRED and name in env.predicates:
            return PRED, env.predicates[name]
        if kind == CHAN:
            if name in env.channels:
                return CHAN, env.channels[name]
            if name in env.functions:
                return CHAN, env.functions[name]
        if name in env.query_info and env.query_info[name][0] == kind:
            return kind, env.queries[name]
    if name in env.query_info:  # scalar-valued query
        return env.query_info[name][0], env.queries[name]
    return None


# -- static space-checking --------------------------------------------------


def check_expr(
    expr: QueryExpr, env: Environment, query: str, path: str,
    expected: Optional[str] = None,
) -> tuple[str, object]:
    """Static space-check: returns (kind, space info) for the expression.

    Space info is the Space for states/predicates, a (domain, codomain)
    pair for channels, and None for scalars.  Any conflict raises
    SpaceMismatch mentioning the query name and subexpression path, so
    an ill-spaced query never starts evaluating.
    """
    if isinstance(expr, NameRef):
        found = _find(env, expr.name, expected)
        if found is None:
            raise SpaceMismatch(
                f"query {query!r} at {path}: unknown name {expr.name!r}"
            )
        kind, value = found
        if isinstance(value, QueryDecl):
            return env.query_info[value.name]
        if kind == STATE:
            return STATE, value.space
        if kind == PRED:
            return PRED, value.space
        return CHAN, (value.domain, value.codomain)

    path = f"{path}/{expr.op}"

    def err(msg: str) -> SpaceMismatch:
        return SpaceMismatch(f"query {query!r} at {path}: {msg}")

    arg_kinds, _result = OP_SIGNATURES[expr.op]
    infos = []
    for i, (kind, arg) in enumerate(zip(arg_kinds, expr.args)):
        sub = f"{path}.arg{i}"
        if kind in (STATE, PRED, CHAN) or (
            kind == SCALAR and isinstance(arg, (NameRef, Call))
        ):
            got, info = check_expr(arg, env, query, sub, expected=kind)
            if got != kind:
                raise SpaceMismatch(
                    f"query {query!r} at {sub}: expected a {kind}, got a {got}"
                )
            infos.append(info)
        else:
            infos.append(arg)

    op = expr.op
    if op == "transform":
        (dom, cod), sigma_space = infos
        if sigma_space != dom:
            raise err(
                f"state on {sigma_space.name!r} cannot flow through channel "
                f"from {dom.name!r}"
            )
        return STATE, cod
    if op == "predtransform":
        (dom, cod), pred_space = infos
        if pred_space != cod:
            raise err(
                f"predicate on {pred_space.name!r} does not match channel "
                f"codomain {cod.name!r}"
            )
        return PRED, dom
    if op in ("validity", "condition"):
        if infos[0] != infos[1]:
            raise err(
                f"state on {infos[0].name!r} but predicate on {infos[1].name!r}"
            )
        return (SCALAR, None) if op == "validity" else (STATE, infos[0])
    if op == "compose":
        (d_dom, d_cod), (c_dom, c_cod) = infos
        if c_cod != d_dom:
            raise err(
                f"cannot compose: inner codomain {c_cod.name!r} is not outer "
                f"domain {d_dom.name!r}"
            )
        return CHAN, (c_dom, d_cod)
    if op == "dagger":
        (dom, cod), sigma_space = infos
        if sigma_space != dom:
            raise err(
                f"prior on {sigma_space.name!r} does not match channel domain "
                f"{dom.name!r}"
            )
        return CHAN, (cod, dom)
    if op in ("pearl", "jeffrey"):
        sigma_space, (dom, cod), evidence_space = infos
        if sigma_space != dom:
            raise err(f"prior on {sigma_space.name!r} vs channel domain {dom.name!r}")
        if evidence_space != cod:
            raise err(
                f"evidence on {evidence_space.name!r} vs channel codomain "
                f"{cod.name!r}"
            )
        return STATE, sigma_space
    if op == "product":
        return STATE, core.product_space(infos[0], infos[1])
    if op == "marginal":
        space = infos[0]
        if not isinstance(space, core.ProductSpace):
            raise err(f"marginal needs a product-space state, got {space.name!r}")
        return STATE, space.left if infos[1] == "first" else space.right
    if op in ("atc", "nec"):
        space = infos[0]
        for x in infos[1].elements:
            if x not in space:
                raise err(
                    f"event element {core.render_element(x)!r} is not in "
                    f"space {space.name!r}"
                )
        return STATE, space
    if op == "blend":
        if infos[1] != infos[2]:
            raise err(
                f"blend arms live on different spaces {infos[1].name!r} and "
                f"{infos[2].name!r}"
            )
        return STATE, infos[1]
    raise err(f"unhandled operation {op!r}")  # pragma: no cover


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

    Queries take precedence; otherwise states, then channels, predicates,
    and functions.  The result carries an UpdateReport when the query's
    top-level operation is one of the update rules.
    """
    if name in env.queries:
        decl = env.queries[name]
        value, report = _eval_expr(decl.expr, env, top=True)
        return QueryResult(name, _kind_of(value), value, render_expr(decl.expr), report)
    for table, kind in (
        (env.states, STATE),
        (env.channels, CHAN),
        (env.predicates, PRED),
        (env.functions, CHAN),
    ):
        if name in table:
            return QueryResult(name, kind, table[name], name)
    raise SpaceMismatch(f"no query or declaration named {name!r}")


def _kind_of(value) -> str:
    if isinstance(value, State):
        return STATE
    if isinstance(value, Predicate):
        return PRED
    if isinstance(value, Channel):
        return CHAN
    return SCALAR


def _eval_expr(
    expr: QueryExpr, env: Environment, top: bool = False,
    expected: Optional[str] = None,
):
    """Returns (value, report or None), mirroring check_expr's resolution."""
    if isinstance(expr, NameRef):
        found = _find(env, expr.name, expected)
        if found is None:  # pragma: no cover - the checker rejects these
            raise SpaceMismatch(f"unknown name {expr.name!r}")
        _kind, value = found
        if isinstance(value, QueryDecl):
            return _eval_expr(value.expr, env)
        return value, None

    arg_kinds, _result = OP_SIGNATURES[expr.op]
    args = []
    for kind, arg in zip(arg_kinds, expr.args):
        if isinstance(arg, (NameRef, Call)):
            value, _ = _eval_expr(arg, env, expected=kind)
            args.append(value)
        elif isinstance(arg, EventLiteral):
            args.append(arg.elements)
        else:
            args.append(arg)

    op = expr.op
    report = None
    if op == "transform":
        value = core.state_transform(args[0], args[1])
    elif op == "predtransform":
        value = core.predicate_transform(args[0], args[1])
    elif op == "validity":
        value = core.validity(args[0], args[1])
    elif op == "condition":
        value = core.condition(args[0], args[1])
    elif op == "compose":
        value = core.compose(args[0], args[1])
    elif op == "dagger":
        value = updates.dagger(args[0], args[1])
    elif op == "pearl":
        if top:
            report = updates.pearl_report(args[0], args[1], args[2])
            value = report.posterior
        else:
            value = updates.pearl_update(args[0], args[1], args[2])
    elif op == "jeffrey":
        if top:
            report = updates.jeffrey_report(args[0], args[1], args[2])
            value = report.posterior
        else:
            value = updates.jeffrey_update(args[0], args[1], args[2])
    elif op == "product":
        value = core.product_state(args[0], args[1])
    elif op == "marginal":
        value = core.marginal(args[0], args[1])
    elif op == "atc":
        if top:
            report = updates.atc_report(args[0], args[1], args[2])
            value = report.posterior
        else:
            value = updates.atc_update(args[0], args[1], args[2])
    elif op == "nec":
        if top:
            report = updates.nec_report(args[0], args[1], args[2])
            value = report.posterior
        else:
            value = updates.nec_update(args[0], args[1], args[2])
    elif op == "blend":
        if top:
            report = updates.blend_report(args[0], args[1], args[2])
            value = report.posterior
        else:
            value = updates.blend_update(args[0], args[1], args[2])
    else:  # pragma: no cover - parser only admits known ops
        raise SpaceMismatch(f"unhandled operation {op!r}")
    return value, report


def load(source: str) -> Environment:
    """Parse and compile in one step."""
    return compile_network(parse(source))
