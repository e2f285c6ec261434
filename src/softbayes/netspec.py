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

Parsing builds each value through ``core``'s constructors, which alone
validate it, and space-checks and binds each query as it closes, against
what was declared before it.  Every fault is a positioned diagnostic, and
nothing is evaluated from a file with a fault.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from types import ModuleType
from typing import Callable, ClassVar, NamedTuple, Optional, Union

from . import core, errors, updates
from .core import Channel, Element, Predicate, Space, State
from .errors import NumberTooLarge, SoftbayesError, SpaceMismatch

# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class ParseDiagnostic:
    """An error at a source position; parsing emits no mere warnings."""

    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


class NetspecError(SoftbayesError):
    """Parse or compile failure, carrying all collected diagnostics."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


# ---------------------------------------------------------------------------
# declarations (the parse result)

# A declaration is the keyword it opens with, a name and the value parsing
# built for it (for a query, its expression and checked form).  Equality
# compares them, and ``render`` writes the text back from the value.


@dataclass(frozen=True)
class ValueDecl:
    """A space, state, predicate, channel or function and its name; a
    function's value is the lifted channel, a point mass per domain
    element."""

    keyword: str
    name: str
    value: Union[Space, State, Predicate, Channel]


@dataclass(frozen=True)
class QueryDecl:
    """A query, checked as it closes: its expression, its static kind and
    space info, and the expression with every name bound (see
    ``check_expr``).  It is its own entry in ``Environment.queries``."""

    keyword: ClassVar[str] = "query"
    name: str
    expr: "QueryExpr"
    kind: str
    info: object
    # shared with every query that uses this one: too costly to compare or print
    bound: object = field(compare=False, repr=False)


Declaration = Union[ValueDecl, QueryDecl]


# ---------------------------------------------------------------------------
# query expressions


@dataclass(frozen=True)
class NameRef:
    name: str
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


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

# -- space rules: argument space info -> result space info ------------------
# Space info is the Space of a state or predicate, the (domain, codomain)
# pair of a channel, None for a scalar expression, and the literal itself
# for literal arguments (an event as its tuple of elements).  A conflict
# raises SpaceMismatch with the bare message; check_expr places it in the
# query.


def _same(a: Space, b: Space, message: str) -> None:
    """SpaceMismatch unless ``a == b``; ``message`` is a format string over
    the two spaces, filled in only then."""
    if a != b:
        raise SpaceMismatch(message.format(a, b))


def _transform_space(chan, space):
    dom, cod = chan
    _same(space, dom, "state on {0.name!r} cannot flow through channel from {1.name!r}")
    return cod


def _predtransform_space(chan, space):
    dom, cod = chan
    _same(
        space, cod, "predicate on {0.name!r} does not match channel codomain {1.name!r}"
    )
    return dom


def _condition_space(state_space, pred_space):
    _same(state_space, pred_space, "state on {0.name!r} but predicate on {1.name!r}")
    return state_space


def _validity_space(state_space, pred_space):
    _condition_space(state_space, pred_space)
    return None  # a scalar has no space


def _compose_space(outer, inner):
    (d_dom, d_cod), (c_dom, c_cod) = outer, inner
    _same(
        c_cod, d_dom,
        "cannot compose: inner codomain {0.name!r} is not outer domain {1.name!r}",
    )
    return c_dom, d_cod


def _dagger_space(chan, prior_space):
    dom, cod = chan
    _same(
        prior_space, dom, "prior on {0.name!r} does not match channel domain {1.name!r}"
    )
    return cod, dom


def _update_space(prior_space, chan, evidence_space):
    dom, cod = chan
    _same(prior_space, dom, "prior on {0.name!r} vs channel domain {1.name!r}")
    _same(evidence_space, cod, "evidence on {0.name!r} vs channel codomain {1.name!r}")
    return prior_space


def _marginal_space(space, which):
    if not isinstance(space, core.ProductSpace):
        raise SpaceMismatch(f"marginal needs a product-space state, got {space.name!r}")
    return space.left if which == "first" else space.right


def _event_space(space, event, _amount):
    for x in event:
        if x not in space:
            raise SpaceMismatch(
                f"event element {core.render_element(x)!r} is not in "
                f"space {space.name!r}"
            )
    return space


def _blend_space(_s, jeffrey_space, pearl_space):
    _same(
        jeffrey_space, pearl_space,
        "blend arms live on different spaces {0.name!r} and {1.name!r}",
    )
    return jeffrey_space


@dataclass(frozen=True)
class Operation:
    """A query operation, defined once for the parser, checker and evaluator.

    ``args`` are the argument kinds the parser reads, ``kind`` is the kind
    of the result and ``space`` the static space rule, from the arguments'
    space info to the result's.  ``kernel`` computes the value from the
    arguments and ``report``, for the update rules, the working
    ``--explain`` prints from the same arguments: (label, value) steps.
    Both name functions of ``module`` and are looked up at each call, so a
    module function replaced at run time (by a tracer, say) is the one used.
    """

    args: tuple[str, ...]
    kind: str
    space: Callable[..., object]
    module: ModuleType
    kernel: str
    report: Optional[str] = None

    def run(self, args):
        """The operation's value: its kernel applied to the argument values."""
        return getattr(self.module, self.kernel)(*args)


OPERATIONS: dict[str, Operation] = {
    "transform": Operation(
        (CHAN, STATE), STATE, _transform_space, core, "state_transform"
    ),
    "predtransform": Operation(
        (CHAN, PRED), PRED, _predtransform_space, core, "predicate_transform"
    ),
    "validity": Operation((STATE, PRED), SCALAR, _validity_space, core, "validity"),
    "condition": Operation((STATE, PRED), STATE, _condition_space, core, "condition"),
    "compose": Operation((CHAN, CHAN), CHAN, _compose_space, core, "compose"),
    "dagger": Operation((CHAN, STATE), CHAN, _dagger_space, updates, "dagger"),
    "pearl": Operation(
        (STATE, CHAN, PRED), STATE, _update_space, updates, "pearl_update",
        "pearl_report",
    ),
    "jeffrey": Operation(
        (STATE, CHAN, STATE), STATE, _update_space, updates, "jeffrey_update",
        "jeffrey_report",
    ),
    "product": Operation(
        (STATE, STATE), STATE, core.product_space, core, "product_state"
    ),
    "marginal": Operation((STATE, WHICH), STATE, _marginal_space, core, "marginal"),
    "atc": Operation(
        (STATE, EVENT, SCALAR), STATE, _event_space, updates, "atc_update",
        "atc_report",
    ),
    "nec": Operation(
        (STATE, EVENT, FACTOR), STATE, _event_space, updates, "nec_update",
        "nec_report",
    ),
    "blend": Operation(
        (SCALAR, STATE, STATE), STATE, _blend_space, updates, "blend_update",
        "blend_report",
    ),
}

# The Environment table each declaration keyword enters its name in;
# functions are lifted to channels, so the two share one table.
_TABLES = {"space": "spaces", "state": "states", "predicate": "predicates",
           "channel": "channels", "function": "channels", "query": "queries"}
DECL_KEYWORDS = frozenset(_TABLES)

# Deepest nesting of calls and element pairs the parser accepts; it keeps
# every recursive pass over one declaration far inside the interpreter's
# recursion limit.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# tokenizer


class Token(NamedTuple):
    kind: str  # IDENT NUMBER LBRACE RBRACE LPAREN RPAREN COLON COMMA ARROW STAR EQUALS EOF
    text: str
    line: int
    column: int
    value: Optional[Fraction] = None  # for NUMBER; None where it was rejected


# One match per token: the layout before it (blanks, newlines, comments),
# then a number, a word (an identifier, ``->`` or a punctuation mark) or a
# character no token begins with.  At the end of the text the layout
# matches alone.
_TOKEN_RE = re.compile(
    r"""
    ( [ \t\r\n]* (?: \#[^\n]* [ \t\r\n]* )* )
    (?: ( [0-9]+ (?: /[0-9]+ | \.[0-9]+ )? )
      | ( ~?[A-Za-z_][A-Za-z0-9_]* | -> | [{}():,*=] )
      | ( . )
    )?
    """,
    re.VERBOSE,
)
_WORD_KINDS = {
    "->": "ARROW",
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    ":": "COLON",
    ",": "COMMA",
    "*": "STAR",
    "=": "EQUALS",
}  # any other word is an IDENT
_new_token = tuple.__new__  # Token(...) without its Python-level __new__


def _number(text: str) -> Fraction:
    """The exact value of a number literal, as ``Fraction(text)`` reads it
    (ZeroDivisionError for a zero denominator, ValueError for a digit
    string past the interpreter's int/str limit), from its digit strings."""
    whole, slash, den = text.partition("/")
    if slash:
        return Fraction(int(whole), int(den))
    whole, point, decimals = text.partition(".")
    if point:
        scale = 10 ** len(decimals)
        return Fraction(int(whole) * scale + int(decimals), scale)
    return Fraction(int(whole))


def tokenize(source: str) -> tuple[list[Token], list[ParseDiagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[ParseDiagnostic] = []
    line, line_start, pos = 1, 0, 0
    for layout, number, word, bad in _TOKEN_RE.findall(source):
        if layout:
            if "\n" in layout:
                line += layout.count("\n")
                line_start = pos + layout.rindex("\n") + 1
            pos += len(layout)
        col = pos - line_start + 1
        if word:
            kind = _WORD_KINDS.get(word, "IDENT")
            tokens.append(_new_token(Token, (kind, word, line, col, None)))
            pos += len(word)
        elif number:
            try:
                value = _number(number)
            except ZeroDivisionError:
                diagnostics.append(ParseDiagnostic(line, col, "zero denominator"))
                value = None
            except ValueError:
                diagnostics.append(
                    ParseDiagnostic(
                        line, col, f"number literal too long ({len(number)} characters)"
                    )
                )
                value = None
            tokens.append(_new_token(Token, ("NUMBER", number, line, col, value)))
            pos += len(number)
        elif bad:
            diagnostics.append(
                ParseDiagnostic(line, col, f"unexpected character {bad!r}")
            )
            pos += 1
        else:  # the end of the text
            break
    tokens.append(
        _new_token(Token, ("EOF", "", line, len(source) - line_start + 1, None))
    )
    return tokens, diagnostics


# ---------------------------------------------------------------------------
# parser


class _Recover(Exception):
    """Internal: abandon the current declaration and resynchronise."""


# How netspec words the faults core finds in a listing: what an unknown key
# is not, what a key listed twice is called, and what an entry's number is.
_WEIGHTS = ("an element here", "element", "weight")
_VALUES = ("an element here", "element", "value")
_ROWS = ("a domain element", "row for", "")
_ARROWS = ("a domain element", "mapping for", "")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # calls and element pairs open at the current token
        self.diagnostics: list[ParseDiagnostic] = []
        self.env = Environment()  # every declaration accepted so far
        # the current declaration's first fault: (token, message) for one
        # core raised, () for a number literal the tokenizer rejected
        self.fault = None

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of ``kind``."""
        if self.tokens[self.pos].kind == kind:
            self.pos += 1
            return True
        return False

    def error(self, token: Token, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(token.line, token.column, message))

    def fail(self, token: Token, message: str) -> "_Recover":
        self.error(token, message)
        return _Recover()

    def expect(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            shown = tok.text if tok.kind != "EOF" else "end of file"
            raise self.fail(tok, f"expected {what}, got {shown!r}")
        self.pos += 1  # no caller expects EOF, so this never passes it
        return tok

    def number(self, what: str) -> Token:
        """The next token, a number literal.  One the tokenizer rejected has
        no value and is already reported: it faults the declaration, so that
        nothing is built or checked from it."""
        tok = self.expect("NUMBER", what)
        if tok.value is None and self.fault is None:
            self.fault = ()
        return tok

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
        """Skip to the next declaration keyword (only an IDENT has its text)."""
        while self.peek().kind != "EOF" and self.peek().text not in DECL_KEYWORDS:
            self.advance()

    # -- shapes shared by declarations -------------------------------------

    def parse_braced(self, parse_item, opening: str = "'{'") -> list:
        """``{ item (, item)* }``: one or more comma-separated items."""
        self.expect("LBRACE", opening)
        items = [parse_item()]
        while self.accept("COMMA"):
            items.append(parse_item())
        self.expect("RBRACE", "'}'")
        return items

    def build(self, make, args: tuple, at: Token, entries: list, words: tuple,
              spaces: tuple, whole: str = ""):
        """``make(*args, listing)``, a value from a ``core`` constructor and
        the (key, value) pairs of ``entries``, unless the declaration already
        has a fault; a fault core raises becomes its fault, as ``reject``
        words it."""
        if self.fault is None:
            try:
                return make(*args, [entry[:2] for entry in entries])
            except SoftbayesError as exc:
                self.fault = self.reject(exc, at, entries, words, spaces, whole)
        return None

    @staticmethod
    def reject(exc: SoftbayesError, at: Token, entries: list, words: tuple,
               spaces: tuple, whole: str) -> tuple[Token, str]:
        """Where and how netspec reports a fault core raised in building a
        value from (key, value, key token, value token) ``entries``, whose
        keys and, for a function, values lie in ``spaces``: at the entry
        that core names, or else at ``at``, after ``whole``."""
        unknown, twice, number = words
        x, shown = exc.element, core.render_element(exc.element)
        if isinstance(exc, errors.UnknownElement):
            for key, value, key_tok, value_tok in entries:
                if key == x and exc.space is spaces[0]:
                    return key_tok, f"{shown!r} is not {unknown}"
                if value == x and exc.space is spaces[1]:
                    return value_tok, f"{shown!r} is not a codomain element"
        elif isinstance(exc, errors.DuplicateElement):
            tok = [key_tok for key, _, key_tok, _ in entries if key == x][1]
            return tok, f"{twice} {shown} listed twice"
        elif isinstance(exc, errors.ValueOutOfRange):
            num = next(num for key, _, _, num in entries if key == x)
            return num, f"{number} {num.text} lies outside [0, 1]"
        elif isinstance(exc, errors.MissingRow):
            return at, f"missing row for {shown}"
        return at, whole + str(exc)

    # -- declarations ------------------------------------------------------

    def parse_file(self) -> list[Declaration]:
        decls: list[Declaration] = []
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.text not in DECL_KEYWORDS:
                self.error(tok, f"expected a declaration keyword, got {tok.text!r}")
                self.advance()
                self.synchronise()
                continue
            self.fault = None
            try:
                decl = getattr(self, f"parse_{tok.text}")()
                if self.fault:  # reported only once the declaration parses
                    raise self.fail(*self.fault)
                if self.fault is not None:  # the tokenizer reported it
                    raise _Recover
            except _Recover:
                self.depth = 0
                self.synchronise()
                continue
            self.env.add(decl)
            decls.append(decl)
        return decls

    def parse_header(self, kind: str) -> tuple[Token, Token]:
        """``kind name``: the keyword token and a name not yet taken."""
        kw = self.advance()
        name = self.expect_ident(f"{kind} name")
        if name.text in getattr(self.env, _TABLES[kind]):
            raise self.fail(name, f"duplicate {kind} name {name.text!r}")
        return kw, name

    def parse_space(self) -> ValueDecl:
        _, name = self.parse_header("space")
        self.expect("EQUALS", "'='")
        elements = self.parse_braced(self.parse_element)
        try:
            return ValueDecl("space", name.text, core.Space(name.text, elements))
        except errors.DuplicateElement:
            raise self.fail(name, f"space {name.text!r} lists an element twice")

    def parse_element(self) -> Element:
        tok = self.tokens[self.pos]
        if tok.kind == "LPAREN":
            self.descend(tok)
            self.pos += 1
            left = self.parse_element()
            self.expect("COMMA", "','")
            right = self.parse_element()
            self.expect("RPAREN", "')'")
            self.depth -= 1
            return (left, right)
        return self.expect_ident("an element name").text

    def parse_space_ref(self) -> Space:
        """A declared space or an inline product of two."""
        tok = self.expect_ident("a space name")
        left = self.resolve_space(tok)
        if not self.accept("STAR"):
            return left
        right = self.resolve_space(self.expect_ident("a space name"))
        try:
            return core.product_space(left, right)
        except SpaceMismatch as exc:
            raise self.fail(tok, str(exc)) from None

    def resolve_space(self, tok: Token) -> Space:
        if tok.text not in self.env.spaces:
            raise self.fail(tok, f"unknown space {tok.text!r}")
        return self.env.spaces[tok.text]

    def parse_typed(self, kind: str) -> list:
        """``kind name : space =``, or ``... : space -> space =`` for a channel
        or function: the keyword and name tokens, then each Space."""
        head = [*self.parse_header(kind)]
        self.expect("COLON", "':'")
        head.append(self.parse_space_ref())
        if kind in ("channel", "function"):
            self.expect("ARROW", "'->'")
            head.append(self.parse_space_ref())
        self.expect("EQUALS", "'='")
        return head

    def parse_weights(self) -> list[tuple]:
        """``{ elem: number, ... }`` as (element, value, element token,
        number token) entries."""

        def entry() -> tuple:
            tok = self.tokens[self.pos]
            element = self.parse_element()
            self.expect("COLON", "':'")
            num = self.number("a rational number")
            return element, num.value, tok, num

        return self.parse_braced(entry)

    def parse_weighted(self, kind: str, make, words: tuple) -> ValueDecl:
        """``kind name : space = { elem: number, ... }``, a state or predicate."""
        kw, name, space = self.parse_typed(kind)
        entries = self.parse_weights()
        return ValueDecl(
            kind, name.text,
            self.build(make, (space,), kw, entries, words, (space, None)),
        )

    def parse_state(self) -> ValueDecl:
        return self.parse_weighted("state", core.make_state, _WEIGHTS)

    def parse_predicate(self) -> ValueDecl:
        return self.parse_weighted("predicate", core.make_predicate, _VALUES)

    def parse_channel(self) -> ValueDecl:
        kw, name, domain, codomain = self.parse_typed("channel")

        def row() -> tuple:  # core checks each row as it closes
            key = self.tokens[self.pos]
            element = self.parse_element()
            self.expect("COLON", "':'")
            entries = self.parse_weights()
            state = self.build(
                core.make_state, (codomain,), key, entries, _WEIGHTS,
                (codomain, None), f"row {core.render_element(element)}: ",
            )
            return element, state, key, None

        rows = self.parse_braced(row)
        value = self.build(
            core.make_channel, (domain, codomain), kw, rows, _ROWS, (domain, None)
        )
        return ValueDecl("channel", name.text, value)

    def parse_function(self) -> ValueDecl:
        kw, name, domain, codomain = self.parse_typed("function")

        def arrow() -> tuple:
            source = self.tokens[self.pos]
            x = self.parse_element()
            self.expect("ARROW", "'->'")
            target = self.tokens[self.pos]
            return x, self.parse_element(), source, target

        entries = self.parse_braced(arrow)
        value = self.build(
            core.lift_function, (domain, codomain), kw, entries, _ARROWS,
            (domain, codomain),
        )
        return ValueDecl("function", name.text, value)

    def parse_query(self) -> QueryDecl:
        _, name = self.parse_header("query")
        self.expect("EQUALS", "'='")
        expr = self.parse_expr()
        try:
            return QueryDecl(
                name.text, expr, *check_expr(expr, self.env, name.text, name.text)
            )
        except SpaceMismatch as exc:  # placed at the Call or NameRef it names
            self.diagnostics.append(
                ParseDiagnostic(exc.at.line, exc.at.column, str(exc))
            )
            raise _Recover from None

    def parse_expr(self) -> QueryExpr:
        tok = self.tokens[self.pos]
        if tok.text in DECL_KEYWORDS and self.tokens[self.pos + 1].kind == "IDENT":
            # a keyword and a name start the next declaration: resume there
            raise self.fail(tok, f"expected a name or operation, got {tok.text!r}")
        self.expect("IDENT", "a name or operation")
        if self.tokens[self.pos].kind != "LPAREN":
            return NameRef(tok.text, tok.line, tok.column)
        op = OPERATIONS.get(tok.text)
        if op is None:
            raise self.fail(tok, f"unknown operation {tok.text!r}")
        self.descend(tok)
        self.pos += 1  # LPAREN
        args = [self.parse_arg(op.args[0])]
        for kind in op.args[1:]:
            self.expect("COMMA", "','")
            args.append(self.parse_arg(kind))
        self.expect("RPAREN", "')'")
        self.depth -= 1
        return Call(tok.text, tuple(args), tok.line, tok.column)

    def parse_arg(self, kind: str):
        if kind == EVENT:  # the tuple of its elements
            elements = self.parse_braced(self.parse_element, "'{' starting an event")
            return tuple(elements)
        if kind == WHICH:
            which = self.expect("IDENT", "'first' or 'second'")
            if which.text not in ("first", "second"):
                raise self.fail(which, "expected 'first' or 'second'")
            return which.text
        if kind == SCALAR and self.tokens[self.pos].kind == "NUMBER":
            tok = self.number("a rational number")
            if tok.value is not None and tok.value > 1:  # never negative
                raise self.fail(tok, f"scalar {tok.text} lies outside [0, 1]")
            return tok.value
        if kind == FACTOR:
            num = self.number("a positive rational")
            if num.value == 0:  # a literal is never negative
                raise self.fail(num, f"Bayes factor must be positive, got {num.text}")
            return num.value
        return self.parse_expr()


def parse(source: str) -> list[Declaration]:
    """Parse netspec text into declarations.

    Raises NetspecError carrying every collected ParseDiagnostic if the
    text has any error; diagnostics point at source line/column.
    """
    tokens, diagnostics = tokenize(source)
    parser = _Parser(tokens)
    parser.diagnostics.extend(diagnostics)
    decls = parser.parse_file()
    if parser.diagnostics:  # in line order; within a line, tokenizer first
        raise NetspecError(sorted(parser.diagnostics, key=lambda d: d.line))
    return decls


# ---------------------------------------------------------------------------
# rendering (canonical text, written from the values; it parses back to
# equal declarations)


def _render_elem(x: Element) -> str:
    if isinstance(x, tuple):
        return "(" + ",".join(_render_elem(p) for p in x) + ")"
    return str(x)


def _braced(items) -> str:
    return "{ " + ", ".join(items) + " }"


def _render_entries(value) -> str:
    """A state's or predicate's listing: every element in space order, zero
    entries included, as reduced fractions."""
    return _braced(
        f"{_render_elem(x)}: {core.render_fraction(w)}" for x, w in value.items()
    )


def _render_space(space: Space) -> str:
    if isinstance(space, core.ProductSpace):  # an inline product
        return f"{space.left.name} * {space.right.name}"
    return space.name


def render_expr(expr) -> str:
    if isinstance(expr, NameRef):
        return expr.name
    if isinstance(expr, tuple):  # an event
        return "{" + ", ".join(map(_render_elem, expr)) + "}"
    if isinstance(expr, Fraction):
        return core.render_fraction(expr)
    if isinstance(expr, str):
        return expr
    return f"{expr.op}(" + ", ".join(render_expr(a) for a in expr.args) + ")"


def render(decls: list[Declaration]) -> str:
    """Canonical netspec text, one declaration a line, written from each
    declaration's value (a query's from its expression), so that
    ``parse(render(decls)) == decls``."""
    lines = []
    for decl in decls:
        head = f"{decl.keyword} {decl.name}"
        if decl.keyword == "query":
            body = render_expr(decl.expr)
        elif decl.keyword == "space":
            body = _braced(map(_render_elem, decl.value))
        elif decl.keyword in ("state", "predicate"):
            head += f" : {_render_space(decl.value.space)}"
            body = _render_entries(decl.value)
        else:  # a channel, or a function read from its point-mass rows
            c = decl.value
            head += f" : {_render_space(c.domain)} -> {_render_space(c.codomain)}"
            if decl.keyword == "function":
                body = _braced(
                    f"{_render_elem(x)} -> {_render_elem(row.support()[0])}"
                    for x, row in c.rows.items()
                )
            else:
                body = _braced(
                    f"{_render_elem(x)}: {_render_entries(row)}"
                    for x, row in c.rows.items()
                )
        lines.append(f"{head} = {body}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# compilation


@dataclass
class Environment:
    """Named values and checked queries; functions are lifted channels."""

    spaces: dict[str, Space] = field(default_factory=dict)
    states: dict[str, State] = field(default_factory=dict)
    predicates: dict[str, Predicate] = field(default_factory=dict)
    channels: dict[str, Channel] = field(default_factory=dict)
    queries: dict[str, QueryDecl] = field(default_factory=dict)

    def add(self, decl: Declaration) -> None:
        """Enter ``decl`` under its name: a query as its checked declaration,
        any other declaration as its value."""
        table = getattr(self, _TABLES[decl.keyword])
        table[decl.name] = decl if decl.keyword == "query" else decl.value


def compile_network(decls: list[Declaration]) -> Environment:
    """Collect the values parsing built, each query's checked and bound
    declaration included, under their names.

    Parsing bound each query's names to what was declared before it, so
    a later declaration never changes an earlier query.
    """
    env = Environment()
    for decl in decls:
        env.add(decl)
    return env


def _resolve(env: Environment, name: str, expected: Optional[str] = None):
    """What a bare name means: (kind, space info, value or QueryDecl).

    The candidates are the query, state, channel and predicate of that
    name, in this order; the first of the expected kind wins, otherwise
    the first one.  None when nothing of that name is declared.
    """
    first = None
    query = env.queries.get(name)
    if query is not None:
        first = (query.kind, query.info, query)
        if query.kind == expected:
            return first
    for table, kind in (
        (env.states, STATE), (env.channels, CHAN), (env.predicates, PRED)
    ):
        value = table.get(name)
        if value is not None:
            info = (value.domain, value.codomain) if kind == CHAN else value.space
            if kind == expected:
                return kind, info, value
            if first is None:
                first = (kind, info, value)
    return first


# -- static space-checking and name binding ----------------------------------


def check_expr(
    expr: QueryExpr, env: Environment, query: str, path: str,
    expected: Optional[str] = None,
) -> tuple[str, object, object]:
    """Static space-check: returns (kind, space info, bound expression).

    Space info is the Space for states/predicates, a (domain, codomain)
    pair for channels, and None for scalars.  The bound expression is the
    expression with each name replaced by the value or QueryDecl it
    resolves to in ``env``; evaluation looks no name up again.  Any
    conflict, an unknown name included, raises SpaceMismatch naming the
    query and subexpression path; its ``at`` is the Call or NameRef at that
    path, where the parser reports it.
    """
    if isinstance(expr, Call):
        op = OPERATIONS[expr.op]
        where = f"{path}/{expr.op}"
        infos, args = [], []
        for i, (kind, arg) in enumerate(zip(op.args, expr.args)):
            info = arg  # a literal is its own space info
            if isinstance(arg, (NameRef, Call)):
                _, info, arg = check_expr(arg, env, query, f"{where}.arg{i}", kind)
            infos.append(info)
            args.append(arg)
        try:
            info = op.space(*infos)
        except SpaceMismatch as exc:
            raise _fault(expr, query, where, exc) from None
        kind, bound = op.kind, Call(expr.op, tuple(args))
    else:
        found = _resolve(env, expr.name, expected)
        if found is None:
            raise _fault(expr, query, path, f"unknown name {expr.name!r}")
        kind, info, bound = found
    if expected is not None and kind != expected:
        raise _fault(expr, query, path, f"expected a {expected}, got a {kind}")
    return kind, info, bound


def _fault(at: QueryExpr, query: str, path: str, detail) -> SpaceMismatch:
    """The static fault ``detail`` of ``query`` at ``path``, about ``at``."""
    exc = SpaceMismatch(f"query {query!r} at {path}: {detail}")
    exc.at = at
    return exc


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class QueryResult:
    """An evaluated query: the value and its kind, and, when the query is
    a call, the operation's name and the argument values it ran on."""

    kind: str  # state | predicate | channel | scalar
    value: object
    op: Optional[str] = None
    args: tuple = ()

    def working(self) -> tuple:
        """The operation's working as (label, value) steps, computed now
        from the argument values; () when the operation reports none."""
        op = OPERATIONS.get(self.op)
        if op is None or op.report is None:
            return ()
        return getattr(op.module, op.report)(*self.args)


def evaluate(env: Environment, name: str) -> QueryResult:
    """Evaluate a named query, or echo any other named declaration.

    The name means what it would mean inside a query declared last: the
    query of that name, else the state, channel (or function), or
    predicate.  A query that only names another query (an alias, or a
    chain of them) is followed to the query at the chain's end, whose
    expression ``_eval_expr`` evaluates; when that is a call, the result
    keeps its operation and argument values, so ``QueryResult.working``
    can show the working.  Each query it references is evaluated once,
    however often it is used, and a chain of query references may be of
    any length; nothing is kept between calls.  A number that would grow
    past ``core.MAX_BITS`` bits raises NumberTooLarge naming ``name``.
    """
    found = _resolve(env, name)
    if found is None:
        if name in env.spaces:
            raise SpaceMismatch(f"{name!r} is a space, which has no value to evaluate")
        raise SpaceMismatch(f"no query or declaration named {name!r}")
    kind, _info, node = found
    while isinstance(node, QueryDecl):  # an alias: follow it to its value
        node = node.bound
    try:
        value, args = _eval_expr(node)
    except NumberTooLarge as exc:  # named like a static fault, by its query
        raise NumberTooLarge(f"query {name!r}: {exc}") from None
    return QueryResult(kind, value, node.op if isinstance(node, Call) else None, args)


def _eval_expr(bound) -> tuple[object, tuple]:
    """The value of a bound expression, worked out on an explicit stack,
    and, when the expression is a call, the argument values it ran on
    (else ``()``).

    The work goes in the order a recursive evaluation would take:
    arguments left to right, each before the call that uses it, so the
    first operation to fail is the same.  A call runs its operation's
    kernel; this is the one place any operation runs.  A QueryDecl
    evaluates its own bound expression the first time it is reached and
    keeps the value in a memo keyed by ``id``, which lives only as long as
    this evaluation; every later use reads it.  Anything else is already
    a value or a literal.  Neither nesting nor a chain of query
    references deepens the interpreter's stack.
    """
    memo: dict = {}
    values: list = []
    args: list = []  # those of the last call run: the root call's, at the end
    todo: list = [(bound, False)]  # (node, whether its inputs are on values)
    while todo:
        node, ready = todo.pop()
        if isinstance(node, QueryDecl):
            if ready:
                memo[id(node)] = values[-1]
            elif id(node) in memo:
                values.append(memo[id(node)])
            else:
                todo += ((node, True), (node.bound, False))
        elif not isinstance(node, Call):
            values.append(node)
        elif ready:
            start = len(values) - len(node.args)
            args = values[start:]
            del values[start:]
            values.append(OPERATIONS[node.op].run(args))
        else:
            todo.append((node, True))
            todo += ((arg, False) for arg in reversed(node.args))
    return values.pop(), tuple(args)


def load(source: str) -> Environment:
    """Parse, which checks and binds every query, and collect the values."""
    return compile_network(parse(source))
