import random

import pytest
from hypothesis import given, settings, strategies as st

from langcc import compile_lexer, lex, parse_lang_spec, token_bounds_to_linecol
from langcc.lexer import Extract, LexAmbiguity, LexCompileError, LexError, Nfa, Tag
from langcc.spec_ast import RAlt, RConcat, RLit, RRange, RStar

from conftest import load_grammar
from oracle import nfa_simulate, reference_lex


def _lexer_for(src):
    return compile_lexer(parse_lang_spec(src))


def test_calc_lexer_two_modes_no_ambiguity():
    lx = _lexer_for(load_grammar("calc.lang"))
    assert sorted(lx.dfas) == ["body", "comment_single"]


def test_overlapping_rules_ambiguity_witness():
    src = """
tokens { top <= `z`; }
lexer {
    main { body }
    mode body {
        `a` => { emit; }
        `a`..`b` => { pass; }
        eof => { pop; }
    }
}
parser { main { S } S.One <- `z`; }
"""
    with pytest.raises(LexAmbiguity) as exc:
        _lexer_for(src)
    assert exc.value.witness == "a"
    assert exc.value.mode == "body"
    assert len(exc.value.tags) == 2


def test_eof_only_mode():
    src = """
tokens { top <= `z`; }
lexer { main { body } mode body { top => { emit; } eof => { pop; } } }
parser { main { S } S.One <- `z`; }
"""
    lx = _lexer_for(src)
    out = lex(lx, "")
    assert out.tokens == []
    assert out.extracts == []


def test_comment_mode_machine():
    lx = _lexer_for(load_grammar("calc.lang"))
    out = lex(lx, "x = 1 // hi\n")
    assert [(t.terminal, t.text) for t in out.tokens] == [
        ("id", "x"), ("`=`", "="), ("int_lit", "1")]
    assert [(e.mode, e.text) for e in out.extracts] == [("comment_single", "// hi")]
    # the newline after the comment is reprocessed by the body mode
    assert out.extracts[0].end == len("x = 1 // hi")


def test_maximal_munch_stops_at_zero():
    lx = _lexer_for(load_grammar("calc.lang"))
    out = lex(lx, "01")
    assert [(t.terminal, t.text) for t in out.tokens] == [
        ("int_lit", "0"), ("int_lit", "1")]


def test_comment_at_eof_extracts():
    lx = _lexer_for(load_grammar("calc.lang"))
    out = lex(lx, "1 // tail")
    assert [(e.mode, e.text) for e in out.extracts] == [("comment_single", "// tail")]


def test_no_match_error_offset():
    lx = _lexer_for(load_grammar("calc.lang"))
    with pytest.raises(LexError) as exc:
        lex(lx, "1 ? 2")
    assert exc.value.kind == "no_match"
    assert exc.value.offset == 2


def test_unterminated_string_mode_fails():
    lx = _lexer_for(load_grammar("meta.lang"))
    with pytest.raises(LexError) as exc:
        lex(lx, "tokens { a <- `oops")
    assert exc.value.kind == "stack_nonempty_at_eof"


def test_keyword_literals_beat_identifier_pattern():
    lx = _lexer_for(load_grammar("meta.lang"))
    toks = [(t.terminal, t.text) for t in lex(lx, "mode modex pr prq _ _x").tokens]
    assert toks == [("`mode`", "mode"), ("id", "modex"), ("`pr`", "pr"),
                    ("id", "prq"), ("`_`", "_"), ("id", "_x")]


def test_string_mode_pop_emit_spans_and_escapes():
    lx = _lexer_for(load_grammar("meta.lang"))
    out = lex(lx, "a <- `x\\`y`;")
    strs = [t for t in out.tokens if t.terminal == "str_lit"]
    assert len(strs) == 1
    assert strs[0].text == "`x\\`y`"
    assert (strs[0].start, strs[0].end) == (5, 11)


def test_emit_without_token_identity_rejected():
    src = """
tokens { top <= `a` `b`; }
lexer { main { body } mode body { top => { emit; } eof => { pop; } } }
parser { main { S } S.One <- `z`; }
"""
    with pytest.raises(LexCompileError, match="token identity"):
        _lexer_for(src)


def test_nullable_rule_pattern_rejected():
    src = """
tokens { top <= `a`; }
lexer { main { body } mode body { top => { emit; } `x`* => { pass; } eof => { pop; } } }
parser { main { S } S.One <- `a`; }
"""
    with pytest.raises(LexCompileError, match="empty string"):
        _lexer_for(src)


def test_linecol_examples():
    assert token_bounds_to_linecol("7 + (5 + / 3)", 9) == (1, 10)
    assert token_bounds_to_linecol("4 / (3 - (15 / 5))", 2) == (1, 3)
    assert token_bounds_to_linecol("anything", 0) == (1, 1)
    assert token_bounds_to_linecol("a\nbc", 3) == (2, 2)
    # columns count codepoints, offsets count bytes
    assert token_bounds_to_linecol("éx", 2) == (1, 2)
    assert token_bounds_to_linecol("é\ud800\nx", 6) == (2, 1)


def test_lone_surrogate_is_a_lex_error_at_the_bytes_before_it(calc):
    with pytest.raises(LexError) as info:
        lex(calc.lexer, "1 + é\udc80 + 2")
    assert (info.value.kind, info.value.offset) == ("unencodable", 6)
    assert "U+DC80" in str(info.value)


def test_lex_deterministic(calc):
    lx = calc.lexer
    a = lex(lx, "x = 1 + 2 // c\n")
    b = lex(lx, "x = 1 + 2 // c\n")
    assert a.tokens == b.tokens and a.extracts == b.extracts


def test_coverage_partition(calc):
    text = "x = (1 + 2) // note\n"
    out = lex(calc.lexer, text)
    # token spans are ordered and disjoint
    spans = [(t.start, t.end) for t in out.tokens]
    assert spans == sorted(spans)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2


# -- randomized NFA vs DFA equivalence ---------------------------------------

def _random_regex(rng, depth):
    if depth == 0:
        return rng.choice([RLit("a"), RLit("b"), RLit("ab"), RRange("a", "b")])
    kind = rng.randrange(4)
    if kind == 0:
        return RConcat(tuple(_random_regex(rng, depth - 1)
                             for _ in range(rng.randrange(1, 3))))
    if kind == 1:
        return RAlt(tuple(_random_regex(rng, depth - 1)
                          for _ in range(rng.randrange(1, 3))))
    if kind == 2:
        return RStar(_random_regex(rng, depth - 1))
    return _random_regex(rng, depth - 1)


def _all_strings(alphabet, max_len):
    out = [""]
    layer = [""]
    for _ in range(max_len):
        layer = [s + c for s in layer for c in alphabet]
        out.extend(layer)
    return out


def test_subset_construction_matches_nfa_simulation():
    from langcc.lexer import _subset_construct

    rng = random.Random(42)
    strings = _all_strings("ab", 6)
    cases = 0
    for i in range(500):
        regex = _random_regex(rng, rng.randrange(1, 5))
        nfa = Nfa()
        end = nfa.add_regex(regex, nfa.start)
        nfa.accepts[end] = Tag(0, None, False, False)
        dfa = _subset_construct("m", nfa)

        def dfa_accepts(s):
            state = dfa.start
            for ch in s:
                state = dfa.step(state, ord(ch))
                if state < 0:
                    return False
            return dfa.accept(state) is not None

        for s in strings:
            assert dfa_accepts(s) == (nfa_simulate(nfa, s) is not None), (regex, s)
        cases += 1
    assert cases == 500


def test_ascii_rows_agree_with_intervals(calc):
    # the matching loop reads ascii_rows below ASCII_ROW and step past it
    from langcc.lexer import ASCII_ROW

    for dfa in calc.lexer.dfas.values():
        for state, row in enumerate(dfa.ascii_rows):
            assert len(row) == ASCII_ROW
            assert row == [dfa.step(state, cp) for cp in range(ASCII_ROW)]


def test_compile_time_safety_unique_accept_tags(calc):
    for dfa in calc.lexer.dfas.values():
        for transitions, eof_target, accept in dfa.states:
            if accept is not None:
                rule, token = accept
                assert isinstance(rule, int)


def test_dump_is_deterministic(calc):
    assert calc.lexer.dump() == calc.lexer.dump()
    assert "mode body" in calc.lexer.dump()


# -- the compiled lexer against the reference loop ---------------------------

def _lex_outcome(lex_fn, lexer, text):
    try:
        out = lex_fn(lexer, text)
    except LexError as e:
        return ("error", e.kind, e.offset)
    return (out.tokens, out.extracts)


# fragments that drive meta.lang's modes (comments, backtick strings and
# their escapes, keywords) and calc_prog.lang's tokens, with non-ASCII text
_FRAGMENTS = ["`", "\\", "//", "\n", " ", "\t", "{", "}", ";", "=>", "<-", "mode",
              "lexer", "main", "pass", "x1", "_", "0", "42", "+", "-", "*", "(", ")",
              "=", "^", "é", "∀", "𝔸", "@"]


@pytest.mark.parametrize("name", ["meta", "calc_prog"])
def test_lex_agrees_with_reference_on_random_text(name, request):
    lexer = request.getfixturevalue(name).lexer

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_FRAGMENTS), st.characters()), max_size=40))
    def agrees(parts):
        text = "".join(parts)
        assert _lex_outcome(lex, lexer, text) == _lex_outcome(reference_lex, lexer, text)

    agrees()


def test_main_mode_popped_by_pop_extract_keeps_its_text():
    src = """
tokens { letter <= `a`..`z`; word <- letter letter*; ws <= ` ` | `\\n`; }
lexer {
    main { body }
    mode body {
        word => { emit; }
        ws => { pass; }
        `#` => { push note; pass; }
        eof => { pop_extract; }
    }
    mode note {
        `\\n` => { pop_extract; }
        _ => { pass; }
    }
}
parser { main { S } S.One <- `z`; }
"""
    lx = _lexer_for(src)
    text = "ab #x\ncd"
    out = lex(lx, text)
    assert [(t.terminal, t.text, t.start, t.end) for t in out.tokens] == [
        ("word", "ab", 0, 2), ("word", "cd", 6, 8)]
    # the note's text is credited to the note frame, the rest to the main one
    assert out.extracts == [Extract("note", "#x", 3, 5), Extract("body", "ab \ncd", 0, 8)]
    assert _lex_outcome(lex, lx, text) == _lex_outcome(reference_lex, lx, text)


def test_frames_keep_text_only_where_a_pop_extract_or_pop_emit_can_pop_them(meta):
    keeps = {mode: program[5] for mode, program in meta.lexer.programs.items()}
    assert keeps == {"body": False, "comment_single": True, "string_lit": True}
    # a pop_extract under the rule's own frame could pop any mode's frame
    src = """
tokens { letter <= `a`..`z`; word <- letter letter*; }
lexer {
    main { body }
    mode body {
        word => { emit; }
        `(` => { push inner; pass; }
    }
    mode inner {
        `)` => { pass; pop; pop_extract; }
        _ => { pass; }
    }
}
parser { main { S } S.One <- `z`; }
"""
    lx = _lexer_for(src)
    assert all(program[5] for program in lx.programs.values())
    out = lex(lx, "ab(cd)")
    assert out.extracts == [Extract("body", "ab", 0, 6)]
    assert _lex_outcome(lex, lx, "ab(cd)") == _lex_outcome(reference_lex, lx, "ab(cd)")
