"""Fuzzing the netspec front end and the CLI: every input ends in a
documented exit.

Arbitrary text and mutated corpus files go through ``netspec.load``, which
may only raise ``NetspecError`` or ``SoftbayesError``.  For every file that
loads, ``softbayes eval FILE NAME`` on each declared name must return 0, 1
or 2 and raise nothing.  The runs are derandomized, so the suite explores
the same inputs every time.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from softbayes import cli, netspec
from softbayes.errors import SoftbayesError

CORPUS_TEXTS = [cli.corpus_source(name) for name in cli.corpus_names()]
IDENT = re.compile(r"~?[A-Za-z_][A-Za-z0-9_]*")
DECLARED = re.compile(r"^(state|predicate|channel|function|query)\s+(~?\w+)", re.M)
SPACES = re.compile(r"^space\s+(\w+)\s*=\s*\{([^}]*)\}", re.M)
SNIPPETS = [
    "{", "}", "(", ")", ",", ":", "->", "*", "=", "#", "\n", "1/0", "0.5",
    "2", "~", "query", "state", "space s = { a }\n", "transform(", "blend(1/2, ",
]
KINDS = ("state", "predicate", "channel", "function")


def _load(text: str):
    """The environment, or None when loading fails in a documented way."""
    try:
        return netspec.load(text)
    except SoftbayesError:  # NetspecError included
        return None


def _eval_every_name(text: str, path) -> None:
    path.write_text(text, encoding="utf-8")
    for name in dict.fromkeys(decl.name for decl in netspec.parse(text)):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(["eval", str(path), name])
        assert code in (0, 1, 2), (name, code)


# -- mutations: each takes hypothesis' draw and the text ----------------------


def _delete(draw, text):
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, min(len(text), start + 40)))
    return text[:start] + text[end:]


def _insert(draw, text):
    at = draw(st.integers(0, len(text)))
    piece = draw(st.sampled_from(SNIPPETS) | st.text(max_size=4))
    return text[:at] + piece + text[at:]


def _copy_line(draw, text):
    lines = text.splitlines(keepends=True) or [""]
    line = draw(st.sampled_from(lines))
    lines.insert(draw(st.integers(0, len(lines))), line)
    return "".join(lines)


def _rename(draw, text):
    """Every occurrence of one identifier becomes another of the file's."""
    names = sorted(set(IDENT.findall(text)))
    if not names:
        return text
    old, new = draw(st.sampled_from(names)), draw(st.sampled_from(names))
    return IDENT.sub(lambda m: new if m.group() == old else m.group(), text)


def _redeclare(draw, text):
    """Append a query that is a bare declared name, then redeclare that name
    under another kind, on one of the file's spaces."""
    declared, spaces = DECLARED.findall(text), SPACES.findall(text)
    if not declared or not spaces:
        return text
    old_kind, name = draw(st.sampled_from(declared))
    kind = draw(st.sampled_from([k for k in KINDS if k != old_kind]))
    space, body = draw(st.sampled_from(spaces))
    elements = [x.strip() for x in body.split(",")]
    first = elements[0]
    if kind in ("state", "predicate"):
        decl = f"{kind} {name} : {space} = {{ {first}: 1 }}"
    elif kind == "channel":
        rows = ", ".join(f"{x}: {{ {first}: 1 }}" for x in elements)
        decl = f"channel {name} : {space} -> {space} = {{ {rows} }}"
    else:
        arrows = ", ".join(f"{x} -> {first}" for x in elements)
        decl = f"function {name} : {space} -> {space} = {{ {arrows} }}"
    return text + f"\nquery fuzz_ref = {name}\n{decl}\n"


MUTATIONS = [_delete, _insert, _copy_line, _rename, _redeclare]


@st.composite
def mutated_corpus(draw):
    text = draw(st.sampled_from(CORPUS_TEXTS))
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3))
    for mutation in mutations:
        text = mutation(draw, text)
    return text


# -- the properties ---------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(max_size=200))
def test_arbitrary_text_fails_only_with_documented_errors(text):
    _load(text)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.netspec"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=mutated_corpus())
def test_mutated_corpus_loads_or_fails_cleanly_and_evaluates(text, scratch_file):
    if _load(text) is not None:
        _eval_every_name(text, scratch_file)

