import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from langcc import compile_lang, parse_lang_spec, render_spec, validate_spec
from langcc.meta_frontend import make_parse_test
from langcc.spec_ast import (
    AltBranches, Eps, LangSpec, LexerSpec, ListExpr, Loc, Named, NontermRef, Optional_,
    ParserSpec, PassString, Plus, RAlt, RConcat, REof, RLit, RRange, RRef, RStar, RuleDecl,
    RWildcard, Seq, SingletonAlt, SpaceShorthand, SpecError, Star, TermLiteral, TokenDecl,
    TokenRef, Tree, Unfold, decode_backtick, render_parse_expr, render_regex,
)

from conftest import GRAMMARS, load_grammar
from oracle import (
    reference_parse_lang_spec, reference_render_parse_expr, reference_render_regex,
    reference_token_diags,
)

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


def test_render_places_the_failure_marker_at_its_byte_offset():
    # non-ASCII text before the ## marker: a byte offset is not a
    # character index
    src = load_grammar("calc.lang").replace("\ntest {", "\ntest {\n    `é + ##/ 3`;")
    spec = parse_lang_spec(src)
    assert spec.parse_tests[0].expected_fail_offset == 5
    rendered = render_spec(spec)
    assert "`é + ##/ 3`;" in rendered
    assert parse_lang_spec(rendered) == spec


@pytest.mark.parametrize("name", [
    "calc.lang", "calc_noprec.lang", "ab_eps.lang", "parens.lang",
    "sum_list.lang", "calc_prog.lang", "meta.lang", "rd_tiny.lang",
])
def test_render_reparse_fixpoint(name):
    spec = parse_lang_spec(load_grammar(name))
    rendered = render_spec(spec)
    assert parse_lang_spec(rendered) == spec


_RENDER_LEAVES = st.one_of(
    st.builds(RLit, st.text("a`\\\n\t\r→", max_size=3)),
    st.sampled_from([RRange("a", "z"), RRange("`", "\\"), RWildcard(), REof(), RRef("x")]))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_RENDER_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3).map(lambda parts: RConcat(tuple(parts))),
    st.lists(inner, max_size=3).map(lambda parts: RAlt(tuple(parts))),
    inner.map(RStar)), max_leaves=12), st.integers(0, 2))
def test_render_regex_matches_the_recursive_reference(e, prec):
    assert render_regex(e, prec) == reference_render_regex(e, prec)


@pytest.mark.parametrize("name", sorted(p.name for p in GRAMMARS.glob("*.lang")))
def test_render_parse_expr_matches_the_recursive_reference_on_every_fixture(name):
    rules = parse_lang_spec(load_grammar(name)).parser.rules
    assert rules
    for r in rules:
        for prec in range(5):
            assert render_parse_expr(r.rhs, prec) == reference_render_parse_expr(r.rhs, prec)


# the fixtures hold no Star, Plus or PassString
_PE_LEAVES = st.one_of(
    st.builds(TermLiteral, st.text("a`\\\n\t\r→", max_size=3)),
    st.builds(PassString, st.text("a `\\", max_size=2)),
    st.sampled_from([TokenRef("t"), NontermRef("N"), NontermRef("N", ("x", "y")),
                     NontermRef("N", (), True), SpaceShorthand(), Eps()]))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_PE_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3).map(lambda items: Seq(tuple(items))),
    st.lists(st.tuples(st.sampled_from("AB"), inner), max_size=3).map(
        lambda branches: AltBranches(tuple(branches))),
    st.builds(Named, st.sampled_from("xy"), inner), st.builds(SingletonAlt, st.just("L"), inner),
    inner.map(Unfold), inner.map(Star), inner.map(Plus), inner.map(Optional_),
    st.builds(ListExpr, st.sampled_from(["L", "B2"]), inner, st.integers(0, 2), inner,
              st.sampled_from(["none", "optional", "required"]))), max_leaves=12),
    st.integers(0, 4))
def test_render_parse_expr_matches_the_recursive_reference(e, prec):
    assert render_parse_expr(e, prec) == reference_render_parse_expr(e, prec)


def test_meta_lang_parses_without_diagnostics():
    spec = parse_lang_spec(load_grammar("meta.lang"))
    assert validate_spec(spec) == []


def test_scanner_tracks_line_and_column():
    spec = parse_lang_spec("tokens {\n  a <= `x`;\n  int_lit <- a;\n  top <= int_lit;\n}"
                           + MINIMAL_TAIL)
    loc = spec.token_decl("a").loc
    assert (loc.line, loc.col) == (2, 3)


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


# -- agreement with the hand-written frontend (tests/oracle.py) ---------------

TOKENS = "tokens {\n    top <= `x` | `y`;\n}\n"
LEXER = ("lexer {\n    main { body }\n    mode body {\n        top => { emit; }\n"
         "        eof => { pop; }\n    }\n}\n")
PARSER = "parser {\n    main { S }\n    S.One <- `x`;\n}\n"
GOOD = TOKENS + LEXER + PARSER

BAD_SPECS = {
    "duplicate tokens stanza": TOKENS + GOOD,
    "duplicate lexer stanza": TOKENS + LEXER + LEXER + PARSER,
    "duplicate parser stanza": GOOD + PARSER,
    "duplicate compile_test stanza": GOOD + "compile_test { LR(1); }\ncompile_test { LR(1); }",
    "duplicate test stanza": GOOD + "test { `x`; }\ntest {\n  `y`; }",
    "duplicate lexer main": GOOD.replace("main { body }", "main { body }\n    main { body }"),
    "duplicate parser main": GOOD.replace("main { S }", "main { S }\n    main { S }"),
    "lexer without main": GOOD.replace("    main { body }\n", ""),
    "parser without main": GOOD.replace("    main { S }\n", ""),
    "empty action list": GOOD.replace("{ pop; }", "{ }"),
    # neither consumes nor leaves the stack as it found it: parse looped forever
    "push then pop": GOOD.replace(
        "eof => { pop; }", "eof => { pop; }\n        `#` => { push body; pop; }"),
    "pop then push of the rule's own mode": GOOD.replace(
        "eof => { pop; }", "eof => { pop; }\n        `#` => { pop; push body; }"),
    "eof rule that consumes and leaves the stack": GOOD.replace(
        "eof => { pop; }", "eof => { push body; pop; pass; }"),
    "eof alias rule that does not pop": GOOD.replace("`y`;", "`y`;\n    end <= eof;").replace(
        "eof => { pop; }", "end => { pass; }"),
    "multi-character range": GOOD.replace("`y`;", "`y` | `ab`..`c`;"),
    "multi-character range end": GOOD.replace("`y`;", "`y` | `a`..``;"),
    "empty range": GOOD.replace("`y`;", "\n        `y` | `z`..`a`;"),
    "missing lexer stanza": TOKENS + PARSER,
    "missing parser stanza": TOKENS + LEXER,
    "missing both stanzas": TOKENS,
    "unlabeled #Alt": GOOD.replace("S.One <- `x`;", "S.One <- #Alt[`x`];"),
    "attribute requirements on a token": ("tokens {\n    t <- `x`;\n    top <= t;\n}\n"
                                          + LEXER + PARSER.replace("`x`;", "t[A];")),
    # reported after every stanza has converted, so a later error comes first
    "attribute requirements on a token before a later error": (
        "tokens {\n    t <- `x`;\n    top <= t;\n}\n" + LEXER + PARSER.replace("`x`;", "t[A];")
        + "test {\n    `x##y##`;\n}\n"),
    "attribute requirements on a literal": GOOD.replace("`x`;", "x:`x`[A];"),
    "attribute requirements after a comment": GOOD.replace(
        "`x`;", "`x` // [not here]\n      [A, pr=*];"),
    "attribute requirements after blanks": GOOD.replace(
        "`x`;", "x:`x`\t// [not here]\r\n \t[A];"),
    "unterminated literal": GOOD + "test {\n    `x;\n}\n",
    "unexpected character": GOOD.replace("S.One", "S.\u20acOne"),
    "unknown escape": GOOD.replace("`y`;", "`y` | `\\q`;"),
    "two failure markers": GOOD + "test {\n    `x`;\n    `x##y##`;\n}",
    "duplicate rule": GOOD.replace("S.One <- `x`;", "S.One <- `x`;\n    S.One <- `y`;"),
    "undeclared reference": GOOD.replace("`x`;", "`x` T;"),
    "duplicate lexer mode": GOOD.replace(
        "    mode body {", "    mode body {\n        eof => { pop; }\n    }\n    mode body {"),
    "push to an undeclared mode": GOOD.replace(
        "eof => { pop; }", "eof => { pop; }\n        `#` => { pass; push nowhere; }"),
    "pop_emit of an alias": GOOD.replace(
        "eof => { pop; }", "eof => { pop; }\n        `#` => { pass; pop_emit top; }"),
    "lexer rule naming an undeclared token": GOOD.replace(
        "eof => { pop; }", "eof => { pop; }\n        nope => { emit; }"),
    "main nonterminal with no rule": GOOD.replace("main { S }", "main { S, T }"),
    "lexer main naming an undeclared mode": GOOD.replace("main { body }", "main { nowhere }"),
    "prec line naming an undeclared rule": GOOD.replace(
        "main { S }", "main { S }\n    prec { S.Two; }"),
    "rule in two prec lines": GOOD.replace(
        "main { S }", "main { S }\n    prec {\n        S.One;\n        S.One;\n    }"),
    "attr line naming an undeclared rule": GOOD.replace(
        "main { S }", "main { S }\n    attr { S.Two[F]; }"),
    "attr line naming an undeclared nonterminal": GOOD.replace(
        "main { S }", "main { S }\n    attr {\n        S.One -> T[F];\n    }"),
    "rule that is a parent of another": GOOD.replace(
        "S.One <- `x`;", "S.One <- `x`;\n    S.One.Two <- `y`;"),
    "unfold of a literal": GOOD.replace("S.One <- `x`;", "S.One <- ~`x`;"),
}


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_diagnostics_match_the_hand_written_frontend(name):
    src = BAD_SPECS[name]
    with pytest.raises(SpecError) as want:
        reference_parse_lang_spec(src)
    with pytest.raises(SpecError) as got:
        parse_lang_spec(src)
    assert (got.value.message, got.value.loc) == (want.value.message, want.value.loc)


# diagnostics validate_spec gives once the spec is built, at the position of
# what they name: the second `mode`, the main's mode name, the main
# nonterminal, the attr line, the rule
PINNED_LOCS = {
    "duplicate lexer mode": ("duplicate lexer mode name", Loc(9, 5)),
    "lexer main naming an undeclared mode": (
        "lexer main names undeclared mode 'nowhere'", Loc(5, 12)),
    "main nonterminal with no rule": (
        "parser main names undeclared nonterminal 'T'", Loc(12, 15)),
    "attr line naming an undeclared nonterminal": (
        "attr line names undeclared nonterminal 'T'", Loc(14, 9)),
    "rule that is a parent of another": (
        "variant S.One is both a rule and a parent of other variants", Loc(13, 5)),
}


@pytest.mark.parametrize("name", sorted(PINNED_LOCS))
def test_spec_diagnostics_point_at_what_they_name(name):
    with pytest.raises(SpecError) as got:
        parse_lang_spec(BAD_SPECS[name])
    assert (got.value.message, got.value.loc) == PINNED_LOCS[name]


def test_terminal_the_lexer_never_emits_is_rejected():
    src = GOOD.replace("S.One <- `x`;", "S.One <- `x` `z`;")
    parse_lang_spec(src)  # the spec alone is valid
    with pytest.raises(SpecError) as e:
        compile_lang(src)
    assert e.value.message == "parser uses terminal(s) the lexer never emits: `z`"


def test_syntax_errors_are_located_and_name_the_expected_terminals():
    for src, message, loc in [
            ("tokens { a <- ; }",
             "Unexpected token: `;` (expected `(`, `_`, `eof`, id or str_lit)", Loc(1, 15)),
            ("tokens {\n  a x }", "Unexpected token: `x` (expected `<-` or `<=`)", Loc(2, 5)),
            ("tokens { \u00e9 \u00e9\u0663; }",
             "Unexpected token: `\u00e9\u0663` (expected `<-` or `<=`)", Loc(1, 12)),
            (GOOD + "test { `x`",
             "Unexpected end of input (expected `;` or `<<>>`)", Loc(15, 11))]:
        with pytest.raises(SpecError) as got:
            parse_lang_spec(src)
        assert (got.value.message, got.value.loc) == (message, loc), src


def _decl_locs(spec):
    return {
        "tokens": [d.loc for d in spec.token_decls],
        "lexer rules": [r.loc for _m, rules in spec.lexer.modes for r in rules],
        "prec lines": [line.loc for line in spec.parser.prec_lines],
        "attr lines": [line.loc for line in spec.parser.attr_lines],
        "rules": [r.loc for r in spec.parser.rules],
    }


ATTRS = """
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


def _crlf(name):
    return load_grammar(name).replace("\n", "\r\n")


NON_ASCII = GOOD.replace("top", "t\u00f4p\u0663").replace("S.One", "\u00c9xpr.\u00dcne") \
    .replace("main { S }", "main { \u00c9xpr }").replace("`y`", "`\u00ff\u20ac`") \
    + "compile_test { LR(\u0661); }\n"


@pytest.mark.parametrize("name", sorted(p.name for p in GRAMMARS.glob("*.lang")))
def test_crlf_sources_match_the_hand_written_frontend(name):
    # a carriage return is a blank, also inside the multi-line test strings
    # of calc_prog.lang and meta.lang, which keep it
    src = _crlf(name)
    want = reference_parse_lang_spec(src)
    got = parse_lang_spec(src)
    assert got == want
    assert _decl_locs(got) == _decl_locs(want)


def test_non_ascii_names_and_digits_match_the_hand_written_frontend():
    want = reference_parse_lang_spec(NON_ASCII)
    got = parse_lang_spec(NON_ASCII)
    assert got == want and got.compile_tests[0].k == 1
    assert [d.name for d in got.token_decls] == ["t\u00f4p\u0663"]
    assert _decl_locs(got) == _decl_locs(want)


def test_prop_takes_exactly_one_flag():
    # The one spelling meta.lang's grammar has.  The hand-written parser also
    # took `prop { }` and a flag repeated in one block; the same specs are
    # written without the block, or with one block per flag.
    for narrow, wide in [("", "    prop { }\n"),
                         ("    prop { name_strict; }\n    prop { name_strict; }\n",
                          "    prop { name_strict; name_strict; }\n")]:
        src = GOOD.replace("main { S }\n", "main { S }\n" + narrow)
        assert parse_lang_spec(src) == reference_parse_lang_spec(
            GOOD.replace("main { S }\n", "main { S }\n" + wide))
        with pytest.raises(SpecError) as got:
            parse_lang_spec(GOOD.replace("main { S }\n", "main { S }\n" + wide))
        assert got.value.message.startswith("Unexpected token: `")
        assert got.value.loc is not None


@pytest.mark.parametrize("name", sorted(p.name for p in GRAMMARS.glob("*.lang")) + ["attrs"])
def test_declaration_locations_match_the_hand_written_frontend(name):
    src = ATTRS if name == "attrs" else load_grammar(name)
    for text in (src, render_spec(parse_lang_spec(src))):
        want = _decl_locs(reference_parse_lang_spec(text))
        got = _decl_locs(parse_lang_spec(text))
        assert got == want
        assert all(loc is not None for locs in got.values() for loc in locs)


# -- the token checks against the recursive reference ------------------------

_NAMES = ["a", "b", "c", "d", "zz"]


def _token_regexes():
    leaves = st.one_of(st.sampled_from([RLit("a"), RRange("a", "b"), REof()]),
                       st.sampled_from(_NAMES).map(RRef))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda parts: RConcat(tuple(parts))),
        st.lists(inner, max_size=3).map(lambda parts: RAlt(tuple(parts))),
        inner.map(RStar)), max_leaves=5)


@st.composite
def _token_sets(draw):
    # names repeat (a duplicate is a diagnostic, and the searches read a
    # name's first or last declaration); "zz" is never declared
    n = draw(st.integers(0, 7))
    return tuple(TokenDecl(draw(st.sampled_from(_NAMES[:-1])),
                           draw(st.sampled_from(["opaque", "alias"])),
                           draw(_token_regexes()), Loc(i + 1, 1)) for i in range(n))


@settings(max_examples=200, deadline=None)
@given(_token_sets())
def test_token_diagnostics_agree_with_the_recursive_reference(decls):
    # a lexer and parser with nothing to report, so every diagnostic is the
    # tokens'
    spec = LangSpec(decls, LexerSpec("m", (("m", ()),)), ParserSpec((), (), (), (), ()), (), ())
    assert validate_spec(spec) == reference_token_diags(decls)


def _nested_options(depth):
    body = "`a`"
    for _ in range(depth):
        body = "(`a` %s)?" % body
    return GOOD.replace("S.One <- `x`;", "S.S <- x:%s;" % body).replace("`x` | `y`", "`a`")


def test_an_empty_attribute_list_on_a_token_is_a_token_field():
    src = ("tokens {\n    t <- `x`;\n    top <= t;\n}\n" + LEXER
           + PARSER.replace("`x`;", "x:t[] y:S[];"))
    x, y = parse_lang_spec(src).parser.rules[0].rhs.items
    assert (x.inner, y.inner) == (TokenRef("t"), NontermRef("S"))


def test_deeply_nested_options_parse_at_the_default_recursion_limit():
    # a valid spec: conflict-free, and it compiles at a shallow depth
    assert compile_lang(_nested_options(3)).ok
    src = _nested_options(1500)
    assert sys.getrecursionlimit() <= 1000
    try:
        spec = parse_lang_spec(src)
    except RecursionError:
        # failed outside the handler: pytest takes minutes to report a
        # traceback this deep
        spec = None
    assert spec is not None, "RecursionError at the default recursion limit"
    depth, e = 0, spec.parser.rules[0].rhs.inner
    while isinstance(e, Optional_):
        depth, e = depth + 1, e.inner.items[1]
    assert depth == 1500 and e == TermLiteral("a")


def test_deeply_nested_options_render_and_reparse_at_the_default_recursion_limit():
    spec = parse_lang_spec(_nested_options(1500))
    assert sys.getrecursionlimit() <= 1000
    try:
        text = render_spec(spec)
        again = parse_lang_spec(text)
        same = (again == spec, again != spec, hash(again) == hash(spec))
        printed = repr(again)
    except RecursionError:
        text = None
    assert text is not None, "RecursionError at the default recursion limit"
    assert same == (True, False, True)
    assert printed.startswith("LangSpec(") and printed.count("Optional_(inner=") == 1500
    assert render_spec(again) == text
    assert "x:(`a` (`a` (`a` " in text and text.count(")?") == 1500


PARSE_EXPR_KINDS = {AltBranches, Eps, ListExpr, Named, NontermRef, Optional_, PassString, Plus,
                    Seq, SingletonAlt, SpaceShorthand, Star, TermLiteral, TokenRef, Unfold}


def _deep_rule_spec(loc=None):
    """GOOD with one rule, whose body wraps an expression of every parse
    expression kind in 100 levels of (`a` ...)?; and that expression."""
    leaf = Seq((Named("f", TokenRef("t")), AltBranches((("A", TermLiteral("x")), ("B", Eps()))),
                SingletonAlt("L", NontermRef("S", ("a",), True)), Star(PassString("p")),
                Plus(SpaceShorthand()), Unfold(NontermRef("S")), Optional_(TermLiteral("o")),
                ListExpr("B", TermLiteral("e"), 1, TermLiteral(","), "optional")))
    body = leaf
    for _ in range(100):
        body = Optional_(Seq((TermLiteral("a"), body)))
    spec = parse_lang_spec(GOOD)
    rule = RuleDecl(("S", "S"), (), Named("x", body), loc)
    return replace(spec, parser=replace(spec.parser, rules=(rule,))), leaf


def _parse_exprs(e):
    """e and the parse expressions inside it, in a fixed order."""
    out, todo = [], [e]
    while todo:
        x = todo.pop()
        if isinstance(x, tuple):
            todo.extend(x)
        elif isinstance(x, Tree):
            out.append(x)
            todo.extend(getattr(x, name) for name in x.__slots__)
    return out


def _changed(v):
    """A value of v's kind that differs from v."""
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    if isinstance(v, str):
        return v + "z"
    if isinstance(v, tuple):
        return v[:-1] if v else ("z",)
    return SpaceShorthand() if isinstance(v, Eps) else Eps()


def test_spec_equality_and_hash_follow_every_field_of_a_deep_expression():
    a, leaf = _deep_rule_spec()
    assert {type(e) for e in _parse_exprs(leaf)} == PARSE_EXPR_KINDS
    b, _ = _deep_rule_spec(Loc(7, 7))  # locations are not compared
    assert a == b and hash(a) == hash(b) and not a != b
    changes = 0
    for i, e in enumerate(_parse_exprs(leaf)):
        for name in e.__slots__:
            c, c_leaf = _deep_rule_spec()
            target = _parse_exprs(c_leaf)[i]
            setattr(target, name, _changed(getattr(target, name)))
            assert a != c and c != a and not a == c, (type(e).__name__, name)
            changes += 1
    assert changes == 27


def test_trees_take_their_parts_in_slot_order_with_trailing_defaults():
    assert NontermRef("E") == NontermRef("E", (), False)
    assert NontermRef("E", ("I",)).pr_star is False
    assert ListExpr("L", Eps(), 0, Eps(), "none").trailing == "none"
    assert not hasattr(RLit("a"), "__dict__")
    for make in (RLit, lambda: RLit("a", "b"), NontermRef,
                 lambda: NontermRef("E", (), False, True), lambda: RLit(text="a")):
        with pytest.raises(TypeError):
            make()


def test_spec_trees_print_and_hash_in_the_dataclass_form():
    e = Named("x", Optional_(Seq((TermLiteral("a"), AltBranches((("A", TokenRef("t")),
                                                                  ("B", Seq(())))),
                                  NontermRef("S", ("a",), True),
                                  ListExpr("B", Star(Eps()), 1, PassString(", "), "optional")))))
    assert repr(e) == (
        "Named(field_name='x', inner=Optional_(inner=Seq(items=(TermLiteral(text='a'), "
        "AltBranches(branches=(('A', TokenRef(name='t')), ('B', Seq(items=())))), "
        "NontermRef(name='S', attr_reqs=('a',), pr_star=True), ListExpr(flavor='B', "
        "elem=Star(inner=Eps()), min_count=1, delim=PassString(text=', '), "
        "trailing='optional')))))")
    r = RAlt((RLit("a"), RConcat((RRange("0", "9"), RStar(RRef("d"))))))
    assert repr(r) == ("RAlt(parts=(RLit(text='a'), RConcat(parts=(RRange(lo='0', hi='9'), "
                       "RStar(inner=RRef(name='d'))))))")
    # and hash as frozen dataclasses do: the tuple hash of their fields
    assert hash(r) == hash(((("a",), ((("0", "9"), (("d",),)),)),))
