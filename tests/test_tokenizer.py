"""Differential test of ``netspec.tokenize`` against a reference scanner.

The reference below reads the text one character at a time and shares no
code with ``netspec``: no regular expression, no token table.  On arbitrary
text, on every shipped corpus file and on generated networks shaped like the
benchmark's ``netspec-dag`` chains, ``tokenize`` must return the same
``(kind, text, line, column, value)`` sequence and the same diagnostics.
The runs are derandomized, so the suite explores the same inputs every time.
"""

import sys
from fractions import Fraction
from importlib import resources

from hypothesis import given, settings, strategies as st

from softbayes import netspec

PUNCTUATION = {
    "{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN",
    ":": "COLON", ",": "COMMA", "*": "STAR", "=": "EQUALS",
}
LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
DIGITS = "0123456789"


def _number_value(text: str):
    """(value, problem) of a number literal, decided digit string by digit
    string: any part past the interpreter's int/str limit is too long,
    otherwise an all-zero denominator is a zero denominator.  A rejected
    literal has no value."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    sep = "/" if "/" in text else "." if "." in text else None
    parts = text.split(sep) if sep else [text]
    if limit and any(len(part) > limit for part in parts):
        return None, f"number literal too long ({len(text)} characters)"
    if sep == "/":
        if int(parts[1]) == 0:
            return None, "zero denominator"
        return Fraction(int(parts[0]), int(parts[1])), None
    if sep == ".":
        return Fraction(int(parts[0] + parts[1]), 10 ** len(parts[1])), None
    return Fraction(int(text)), None


def reference_tokenize(source: str):
    """(tokens, diagnostics) as plain tuples:
    tokens ``(kind, text, line, column, value)``, diagnostics
    ``(line, column, message)``."""
    tokens, diagnostics = [], []
    line, column, i, n = 1, 1, 0, len(source)

    def digits_from(j):
        while j < n and source[j] in DIGITS:
            j += 1
        return j

    while i < n:
        ch = source[i]
        if ch == "\n":
            line, column, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            j = i + 1
        elif ch == "#":
            j = i + 1
            while j < n and source[j] != "\n":
                j += 1
        elif ch in DIGITS:
            j = digits_from(i)
            if j + 1 < n and source[j] in "/." and source[j + 1] in DIGITS:
                j = digits_from(j + 1)
            text = source[i:j]
            value, problem = _number_value(text)
            if problem:
                diagnostics.append((line, column, problem))
            tokens.append(("NUMBER", text, line, column, value))
        elif ch in LETTERS or (ch == "~" and i + 1 < n and source[i + 1] in LETTERS):
            j = i + 2 if ch == "~" else i + 1
            while j < n and (source[j] in LETTERS or source[j] in DIGITS):
                j += 1
            tokens.append(("IDENT", source[i:j], line, column, None))
        elif ch == "-" and i + 1 < n and source[i + 1] == ">":
            j = i + 2
            tokens.append(("ARROW", "->", line, column, None))
        elif ch in PUNCTUATION:
            j = i + 1
            tokens.append((PUNCTUATION[ch], ch, line, column, None))
        else:
            j = i + 1
            diagnostics.append((line, column, f"unexpected character {ch!r}"))
        column += j - i
        i = j
    tokens.append(("EOF", "", line, column, None))
    return tokens, diagnostics


def assert_same_as_reference(source: str) -> None:
    tokens, diagnostics = netspec.tokenize(source)
    got_tokens = [(t.kind, t.text, t.line, t.column, t.value) for t in tokens]
    got_diagnostics = [(d.line, d.column, d.message) for d in diagnostics]
    assert (got_tokens, got_diagnostics) == reference_tokenize(source)


CORPUS = resources.files("softbayes.corpus")
CORPUS_FILES = sorted(
    p.name for p in CORPUS.iterdir() if p.name.endswith(".netspec")
)

# Characters the tokenizer treats specially, plus some it rejects.
NETSPEC_CHARS = (
    "{}():,*=->~#/. \t\r\n\n\n" + DIGITS + "abxyz_QZ" + "٢é\x00 "
)


def test_reference_scans_every_corpus_file_alike():
    assert CORPUS_FILES  # the package ships its corpus
    for name in CORPUS_FILES:
        assert_same_as_reference(CORPUS.joinpath(name).read_text("utf-8"))


def test_reference_agrees_on_edge_cases():
    for source in [
        "", "\n", "1/", "1.", "1/0", "0/000", "1.5.3", "1/2/3", "12abc",
        "~", "~~a", "~1", "-", "->>", "- >", "a#b\nc", "#", "\r\n", "a\rb",
        "٢", "1٢", "9" * 5000, "1/" + "0" * 5000, "1." + "5" * 5000,
        "0" * 4300 + "/" + "0",
    ]:
        assert_same_as_reference(source)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(max_size=200))
def test_reference_agrees_on_arbitrary_text(text):
    assert_same_as_reference(text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(alphabet=st.sampled_from(NETSPEC_CHARS), max_size=200))
def test_reference_agrees_on_netspec_characters(text):
    assert_same_as_reference(text)


@st.composite
def dag_network(draw):
    """A network shaped like the benchmark's ``netspec-dag`` chains: a
    k-element space, two states, a channel and blended transform queries."""
    size = draw(st.integers(2, 4))
    depth = draw(st.integers(2, 12))
    xs = [f"x{i}" for i in range(size)]

    def weights():
        nums = draw(st.lists(st.integers(1, 20), min_size=size, max_size=size))
        return "{ " + ", ".join(
            f"{x}: {Fraction(k, sum(nums))}" for x, k in zip(xs, nums)
        ) + " }"

    lines = [
        "# generated chain",
        f"space x = {{ {', '.join(xs)} }}",
        f"state s0 : x = {weights()}",
        f"state s1 : x = {weights()}",
        "channel c : x -> x = {",
        ",\n".join(f"  {x}: {weights()}" for x in xs),
        "}",
        "query q0 = transform(c, s0)",
        "query q1 = transform(c, s1)",
    ]
    for i in range(2, depth + 1):
        w = draw(st.integers(1, 9))
        lines.append(f"query q{i} = blend({w}/10, transform(c, q{i - 1}), q{i - 2})")
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None, derandomize=True)
@given(dag_network())
def test_reference_agrees_on_generated_chains(text):
    assert_same_as_reference(text)
    netspec.load(text)  # the generator writes valid networks
