import pytest

from langcc import parse_lang_spec, render_spec, validate_spec
from langcc.meta_frontend import decode_backtick, make_parse_test, scan_meta
from langcc.spec_ast import (
    RAlt, RConcat, RLit, RRange, RRef, RStar, SpecError, TokenRef,
)

from conftest import load_grammar

MINIMAL_TAIL = """
lexer {
    main { body }
    mode body {
        top => { emit; }
        eof => { pop; }
    }
}

parser {
    main { S }
    S.One <- x:int_lit;
}
"""


def test_tokens_stanza_int_lit_digit():
    src = "tokens { digit <= `0`..`9`; int_lit <- `0` | (`1`..`9`) digit*; top <= int_lit; }"
    spec = parse_lang_spec(src + MINIMAL_TAIL)
    digit = spec.token_decl("digit")
    assert digit.kind == "alias"
    assert digit.pattern == RRange("0", "9")
    int_lit = spec.token_decl("int_lit")
    assert int_lit.kind == "opaque"
    assert int_lit.pattern == RAlt((RLit("0"), RConcat((RRange("1", "9"), RStar(RRef("digit"))))))


def test_cyclic_alias_is_an_error():
    src = "tokens { a <= b; b <= a; top <= `x`; }" + MINIMAL_TAIL
    with pytest.raises(SpecError, match="cyclic"):
        parse_lang_spec(src)


def test_marker_stripping_records_byte_offset():
    t = make_parse_test("7 + (5 + ##/ 3)", None, False)
    assert t.input == "7 + (5 + / 3)"
    assert t.expected_fail_offset == 9
    assert len("7 + (5 + ##/ 3)") == len(t.input) + 2


def test_marker_stripping_multibyte():
    # offsets are byte offsets into the utf-8 encoding
    t = make_parse_test("é##x", None, False)
    assert t.input == "éx"
    assert t.expected_fail_offset == 2


def test_double_marker_rejected():
    with pytest.raises(SpecError, match="more than one"):
        make_parse_test("a##b##c", None, False)


def test_escape_decoding():
    assert decode_backtick("`a\\nb`") == "a\nb"
    assert decode_backtick("`\\\\`") == "\\"
    assert decode_backtick("`\\``") == "`"
    assert decode_backtick("`'\"`") == "'\""  # quotes need no escape
    with pytest.raises(SpecError, match="unknown escape"):
        decode_backtick("`\\q`")


@pytest.mark.parametrize("raw", ["abc", "`", "`abc", "abc`", ""])
def test_decode_backtick_rejects_non_literal(raw):
    # an explicit check, kept under python -O
    with pytest.raises(SpecError, match="is not a backtick literal"):
        decode_backtick(raw)


def test_validate_calc_is_clean():
    spec = parse_lang_spec(load_grammar("calc.lang"))
    assert validate_spec(spec) == []


def test_validate_undeclared_main_mode():
    src = """
tokens { top <= `x`; }
lexer { main { nosuch } mode body { top => { emit; } eof => { pop; } } }
parser { main { S } S.One <- `x`; }
"""
    with pytest.raises(SpecError, match="undeclared mode"):
        parse_lang_spec(src)


def test_validate_duplicate_variant():
    src = """
tokens { top <= `x`; }
lexer { main { body } mode body { top => { emit; } eof => { pop; } } }
parser { main { S } S.One <- `x`; S.One <- `x` `x`; }
"""
    with pytest.raises(SpecError, match="duplicate rule"):
        parse_lang_spec(src)


def test_opaque_inside_token_definition_rejected():
    src = """
tokens { a <- `a`; b <- a a; top <= b; }
lexer { main { body } mode body { top => { emit; } eof => { pop; } } }
parser { main { S } S.One <- b; }
"""
    with pytest.raises(SpecError, match="opaque token 'a' cannot be used"):
        parse_lang_spec(src)


def test_alias_may_list_opaque_constituents():
    # `top <= id | int_lit` style aliases are the emit vocabulary
    spec = parse_lang_spec(load_grammar("calc.lang"))
    top = spec.token_decl("top")
    assert top.kind == "alias"


def test_opaque_refs_resolve_to_token_refs():
    spec = parse_lang_spec(load_grammar("calc.lang"))
    rule = {r.dotted: r for r in spec.parser.rules}["Expr.Id"]
    from langcc.spec_ast import Named
    assert isinstance(rule.rhs, Named)
    assert rule.rhs.inner == TokenRef("id")


def test_prec_line_mixing_nonterminals_rejected():
    src = """
tokens { top <= `x` | `y`; }
lexer { main { body } mode body { top => { emit; } eof => { pop; } } }
parser {
    main { S }
    prec { S.One T.Two; }
    S.One <- `x`;
    T.Two <- `y`;
}
"""
    with pytest.raises(SpecError, match="mixes distinct nonterminals"):
        parse_lang_spec(src)


def test_reserved_synthesized_names_rejected():
    src = """
tokens { top <= `x`; }
lexer { main { body } mode body { top => { emit; } eof => { pop; } } }
parser { main { X0 } X0.One <- `x`; }
"""
    with pytest.raises(SpecError, match="reserved"):
        parse_lang_spec(src)


@pytest.mark.parametrize("name", [
    "calc.lang", "calc_noprec.lang", "ab_eps.lang", "parens.lang",
    "sum_list.lang", "calc_prog.lang", "meta.lang", "rd_tiny.lang",
])
def test_render_reparse_fixpoint(name):
    spec = parse_lang_spec(load_grammar(name))
    rendered = render_spec(spec)
    assert parse_lang_spec(rendered) == spec


def test_meta_lang_parses_without_diagnostics():
    spec = parse_lang_spec(load_grammar("meta.lang"))
    assert validate_spec(spec) == []


def test_scanner_tracks_line_and_column():
    toks = scan_meta("tokens {\n  a <- `x`;\n}")
    a_tok = [t for t in toks if t.text == "a"][0]
    assert (a_tok.loc.line, a_tok.loc.col) == (2, 3)


def test_syntax_error_carries_location():
    try:
        parse_lang_spec("tokens { a <- ; }")
    except SpecError as e:
        assert e.loc is not None
        assert e.loc.line == 1
    else:
        pytest.fail("expected a syntax error")


def test_attr_stanza_render_roundtrip():
    src = """
tokens { top <= `a` | `b`; }
lexer { main { body } mode body { top => { emit; } eof => { pop; } } }
parser {
    main { S }
    attr {
        A.Good[F];
        S.Main -> A[F];
    }
    S.Main <- x:A;
    A.Good <- `a`;
    A.Bad <- `b`;
}
"""
    spec = parse_lang_spec(src)
    assert len(spec.parser.attr_lines) == 2
    assert parse_lang_spec(render_spec(spec)) == spec
