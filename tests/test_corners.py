"""tests/corners.lang: lexer and parser paths that no grammar under
grammars/ reaches, each checked against the oracle or a pinned output."""

import itertools
import pathlib

import pytest

from langcc import (
    compile_lang, derive_ast_schema, expand_instances, lex, parse, pretty_print,
    run_compile_tests,
)
from langcc.artifact import P_LIST_PAIR
from langcc.cli import run_test_stanza
from langcc.datacc import TRef
from langcc.lexer import OP_STEPS, S_EMIT, LexError
from langcc.runtime import TokenLeaf
from langcc.spec_ast import PassString, Seq

from oracle import earley_accepts, reference_lex

CORNERS = pathlib.Path(__file__).resolve().parent / "corners.lang"


@pytest.fixture(scope="module")
def corners():
    return compile_lang(CORNERS.read_text(encoding="utf-8"))


def test_embedded_stanzas_hold(corners):
    assert corners.ok and corners.k_used == 1
    assert all(ok for _decl, ok in run_compile_tests(corners))
    report = run_test_stanza(corners.compiled, corners.spec.parse_tests)
    assert report.failures == 0, report.render()
    assert len(report.lines) == 5


def _tokens(out):
    return [(t.terminal, t.text, t.start, t.end) for t in out.tokens]


def test_emit_then_push_or_pop_in_one_action_list(corners):
    # `<` emits and pushes, `>` emits and pops: both run S_EMIT as a step
    lexer = corners.lexer
    emit_steps = {(mode, a[1]) for mode, program in lexer.programs.items()
                  for a in program[1] if a is not None and a[0] == OP_STEPS
                  and a[2][0][0] == S_EMIT}
    assert emit_steps == {("body", "`<`"), ("angle", "`>`")}
    text = "<a, b>  =c"
    out = lex(lexer, text)
    assert _tokens(out) == [("`<`", "<", 0, 1), ("id", "a", 1, 2), ("`,`", ",", 2, 3),
                            ("id", "b", 4, 5), ("`>`", ">", 5, 6), ("`=`", "=", 8, 9),
                            ("id", "c", 9, 10)]
    ref = reference_lex(lexer, text)
    assert (_tokens(out), out.extracts) == (_tokens(ref), ref.extracts)


def test_mode_stack_emptied_before_end_of_input(corners):
    # `.` pops the main mode's frame: lexing stops there, and text after it
    # is an error
    text = "<a, b>  =c.d"
    for lex_fn in (lex, reference_lex):
        with pytest.raises(LexError) as e:
            lex_fn(corners.lexer, text)
        assert (e.value.kind, e.value.offset) == ("premature_empty", 11)
    res = parse(corners.compiled, text)
    assert res.err.message == "Lexing error: mode stack emptied before end of input"
    assert res.err.bounds == (11, 11)
    assert parse(corners.compiled, "<a, b>  =c.").is_success()


# each terminal of corners.lang as source text; spaces separate them
_TEXT = {"`<`": "<", "id": "a", "`,`": ",", "`>`": ">", "`=`": "="}


def _candidates():
    """Every terminal string up to length 6, and `<` mid `> = id` for every
    mid of ids and commas up to length 9."""
    for n in range(7):
        yield from itertools.product(sorted(_TEXT), repeat=n)
    for n in range(10):
        for mid in itertools.product(("id", "`,`"), repeat=n):
            yield ("`<`",) + mid + ("`>`", "`=`", "id")


def test_list_of_at_least_two_agrees_with_earley(corners):
    assert any(p[0] == P_LIST_PAIR for p in corners.compiled.prods)
    ig = expand_instances(corners.cfg)
    checked = accepted = 0
    for terms in _candidates():
        text = " ".join(_TEXT[t] for t in terms)
        try:
            if [t.terminal for t in lex(corners.lexer, text).tokens] != list(terms):
                continue
        except LexError:
            continue
        want = earley_accepts(ig, "S", list(terms))
        assert parse(corners.compiled, text).is_success() == want, text
        checked += 1
        accepted += want
    assert accepted == 4 and checked > 1000
    node = parse(corners.compiled, "<a, bc, d>  =e").result
    assert [t.text for t in node.field("xs").items] == ["a", "bc", "d"]


def test_pass_string_prints_verbatim(corners):
    rhs = corners.spec.parser.rules[0].rhs
    assert isinstance(rhs, Seq) and PassString("  ") in rhs.items
    res = parse(corners.compiled, "<a,b>=c")
    assert pretty_print(corners.compiled, res.result) == "<a, b>  =c"


def test_named_bare_literal_is_a_token_field(corners):
    node = parse(corners.compiled, "<a, b>  =c").result
    kw = node.field("kw")
    assert isinstance(kw, TokenLeaf) and (kw.terminal, kw.text) == ("`=`", "=")
    (_name, main), = [t for t in derive_ast_schema(corners.cfg).types if t[0] == "S"]
    (case, product), = main.cases
    assert case == "Main" and dict(product.fields)["kw"] == TRef("string")
