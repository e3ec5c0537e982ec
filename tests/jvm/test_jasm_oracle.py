"""Differential tests: the flat-stream jasm parser against the
``Token``-object oracle (``tests/jvm/jasm_oracle.py``).

For every input both must agree: the same classes (compared through
``jasm.dump_class``) or the same error (message, line, column), and
``jasm.Lexer`` must report the oracle's tokens.  The one intended
difference is that the oracle lexes a bare ``<`` as a name, so it
rejects ``a < b`` and ``a <= b``; those sources are kept out of the
shared sets and pinned separately below.

Tier-1 covers the lang base, the 26 Table IX components, a malformed
input set, single-token mutants of a sample class and a token-soup
property; the ``slow`` sweep adds ``corpus.generator`` corpora and
their truncations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import COMPONENT_NAMES, build_component, build_lang_base, generate_corpus
from repro.errors import JasmSyntaxError
from repro.jvm import jasm
from tests.jvm import jasm_oracle


def _outcome(loads, source):
    try:
        return "ok", [jasm.dump_class(cls) for cls in loads(source)]
    except JasmSyntaxError as exc:
        return "error", (str(exc.args[0]), exc.line, exc.column)


def _tokens(lexer, source):
    try:
        return [(t.kind, t.text, t.offset) for t in lexer(source).tokens()]
    except JasmSyntaxError as exc:
        return (str(exc.args[0]), exc.line, exc.column)


def assert_same(source):
    expected = _outcome(jasm_oracle.loads, source)
    assert _outcome(jasm.loads, source) == expected, source
    assert _tokens(jasm.Lexer, source) == _tokens(jasm_oracle.Lexer, source), source
    return expected


# ---------------------------------------------------------------------------
# well-formed corpora
# ---------------------------------------------------------------------------


def test_lang_base_matches_oracle():
    text = jasm.dumps(build_lang_base())
    assert assert_same(text)[0] == "ok"


@pytest.mark.parametrize("name", COMPONENT_NAMES)
def test_component_matches_oracle(name):
    assert assert_same(jasm.dumps(build_component(name).classes))[0] == "ok"


def test_components_carry_pragmas():
    """The lint pragmas take the slow scan path; the components must
    exercise it for the comparison above to cover it."""
    texts = [
        jasm.dump_class(cls)
        for name in COMPONENT_NAMES
        for cls in build_component(name).classes
    ]
    assert any("# lint: ignore[" in text for text in texts)


# ---------------------------------------------------------------------------
# malformed input
# ---------------------------------------------------------------------------

_BODY = "class a.B {{ method void m(java.lang.Object p) {{ {} }} }}"

MALFORMED = [
    # lexer errors
    'class a.B { method void m() { a = "open; } }',
    'class a.B {\n  method void m() {\n    a = "x\\"',
    "class a.B { field int ~x; }",
    "class a.B {\r\n\t? }",
    "class a.B { method void m() { a = @that; } }",
    "class a.B { method void m() { a = b ! c; } }",
    "\x0c",
    # missing ';' and other expectations
    "class a.B { field int x }",
    _BODY.format("a = b"),
    _BODY.format("a = b c;"),
    _BODY.format("return"),
    _BODY.format("if a end;"),
    _BODY.format("p := @param-x;"),
    _BODY.format("p := this;"),
    _BODY.format("a = ;"),
    _BODY.format("a = new ;"),
    _BODY.format("a = newarray int 3];"),
    _BODY.format("a = (int b;"),
    _BODY.format("a = b.c.d;"),
    _BODY.format("a = b[c.d];"),
    _BODY.format("a = b[\"s\"];"),
    _BODY.format("1 = a;"),
    _BODY.format("virtual x.Y.m();"),
    _BODY.format("static r x.Y.m();"),
    _BODY.format("virtual r x.Y.m(a b);"),
    _BODY.format("a = virtual r x.Y.m(a,);"),
    _BODY.format("virtual r;"),
    # switch arms
    _BODY.format("switch p { case 1: goto a };"),
    _BODY.format("switch p { };"),
    _BODY.format("switch p { case x: goto a, default: goto b };"),
    _BODY.format("switch p { case 1 goto a, default: goto b };"),
    _BODY.format("switch p { other: goto a };"),
    _BODY.format("switch p { default: a };"),
    # bad static paths
    _BODY.format("a = static x;"),
    _BODY.format("static x = a;"),
    _BODY.format("a = static 1;"),
    _BODY.format("static = a;"),
    # class and member structure
    "klass a.B { }",
    "class { }",
    "class a.B extends { }",
    "class a.B implements x.I, { }",
    "class a.B",
    "class a.B { method }",
    "class a.B { static field int x; }",
    "class a.B { method void m(int) { } }",
    "class a.B { method void m(int x y) { } }",
    "class a.B { field int[ x; }",
    "class a.B { method void m() { return; }",
    # pragmas in and out of place, and at the end of the file
    "class a.B { method void m() { a = # lint: ignore[x]\n b; } }",
    "class a.B { method void m() { # lint: ignore[x, y]\n return; } }",
    "class a.B { # lint: ignore[r]\n field # lint: ignore[s]\n int x; }",
    "class a.B { }\n# lint: ignore[x]",
    "class a.B { }\n// lint: ignore[x]",
    "# lint: ignore[x]",
    "class a.B { } // trailing comment",
    # eof at every depth
    "class a.B { method void m() { a = b",
    "class a.B { method void m() { switch p {",
    "class a.B { method void m() { virtual r x.Y.m(",
    "interface",
]


@pytest.mark.parametrize("source", MALFORMED)
def test_malformed_input_matches_oracle(source):
    assert_same(source)


def test_malformed_set_reaches_errors():
    assert sum(assert_same(s)[0] == "error" for s in MALFORMED) >= len(MALFORMED) - 4


_SAMPLE = """class demo.Chain extends demo.Base implements java.io.Serializable {
  # lint: ignore[unused-local]
  field transient java.lang.Object next;
  field static int[] counts;
  method private void readObject(java.io.ObjectInputStream in) {
    this := @this;
    in := @param-1;
    v = this.next;
    if v goto skip;
    s = virtual v java.lang.Object.toString();
    a = newarray int[3];
    a[0] = 1;
    static demo.Chain.counts = a;
    g = static demo.Chain.counts;
    switch g { case 1: goto skip, default: goto skip };
    c = (java.lang.String) v;
    t = v instanceof demo.Base;
    n = 1 + -2;
    k = class java.lang.Runtime;
    special this demo.Base.<init>(v, "q\\"s", null);
    skip: return;
  }
  method abstract java.lang.Object get();
}
"""


def _sample_mutants():
    """Each token of ``_SAMPLE`` deleted, the source cut before it, and
    it replaced by a stray token.  Spaces keep a stray from gluing onto
    a ``<init>`` segment, which the oracle would lex as one name."""
    tokens = jasm_oracle.Lexer(_SAMPLE).tokens()[:-1]
    for tok in tokens:
        start, end = tok.offset, tok.offset + len(tok.text)
        if tok.kind == "pragma":
            end = _SAMPLE.index("\n", start)
        yield _SAMPLE[:start] + " " + _SAMPLE[end:]
        yield _SAMPLE[:start]
        for stray in ("~", ";", "}", "x.y.z", "static", "# lint: ignore[q]\n"):
            yield _SAMPLE[:start] + " " + stray + " " + _SAMPLE[end:]


def test_sample_parses():
    assert assert_same(_SAMPLE)[0] == "ok"


def test_sample_mutants_match_oracle():
    errors = 0
    for source in _sample_mutants():
        errors += assert_same(source)[0] == "error"
    assert errors > 500


# ---------------------------------------------------------------------------
# token soup
# ---------------------------------------------------------------------------

_VOCABULARY = [
    "class", "interface", "extends", "implements", "field", "method",
    "return", "if", "goto", "switch", "case", "default", "throw", "nop",
    "new", "newarray", "instanceof", "null", "static", "public", "private",
    "final", "transient", "virtual", "special", "dynamic", "a", "b", "p",
    "int", "void", "java.lang.Object", "x.Y.m", "x.Y.<init>", "<init>",
    "@this", "@param-1", ":=", "=", ";", ":", ",", ".", "(", ")", "{", "}",
    "[", "]", "[]", "+", "-", "==", ">", ">=", "1", "-7", '"s"', '"',
    "~", "# lint: ignore[r]\n", "// note\n", "\n",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_VOCABULARY), max_size=40))
def test_token_soup_matches_oracle(words):
    assert_same(" ".join(words))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_VOCABULARY), max_size=25))
def test_token_soup_in_a_body_matches_oracle(words):
    assert_same(_BODY.format(" ".join(words)))


# ---------------------------------------------------------------------------
# the intended difference: '<' and '<=' are operators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", ["<", "<="])
def test_less_than_parses_where_the_oracle_fails(op):
    source = _BODY.format(f"a = p {op} 1; return;")
    assert _outcome(jasm_oracle.loads, source) == (
        "error", ("expected ';', got '<'", 1, source.index("<") + 1)
    )
    assert _outcome(jasm.loads, source)[0] == "ok"


# ---------------------------------------------------------------------------
# slow sweep: generated corpora
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_generated_corpus_matches_oracle(seed):
    for archive in generate_corpus(120, seed=seed):
        texts = [jasm.dump_class(cls) for cls in archive.classes]
        assert assert_same("\n".join(texts))[0] == "ok"
        for text in texts:
            assert assert_same(text)[0] == "ok"
            # the class cut at every tenth line: eof errors at every depth
            lines = text.splitlines(keepends=True)
            for cut in range(1, len(lines), 10):
                assert_same("".join(lines[:cut]))
