import contextlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from langcc import (
    compile_lang, compile_lexer, lex, parse, parse_lang_spec, render_spec,
    token_bounds_to_linecol,
)
from langcc import lexer as lexer_mod
from langcc.lexer import (
    ASCII_ROW, OP_EMIT, S_EMIT, S_PASS, S_POP, S_POP_EMIT, S_POP_EXTRACT, S_PUSH, STEP_CODES,
    Extract, LexAmbiguity, LexCompileError, LexError, Nfa, Tag, _subset_construct, _wire,
    action_list_fault,
)
from langcc.meta_frontend import _LEXER_ACTION_OPS, meta_artifact
from langcc.spec_ast import (
    LEXER_OPS, LangSpec, LexerAction, LexerRule, LexerSpec, ParserSpec, RAlt, RConcat, REof,
    RLit, RRange, RRef, RStar, RWildcard, TokenDecl,
)

from conftest import GRAMMARS, load_grammar, recursion_limit
from oracle import nfa_simulate, reference_compile_lexer, reference_lex, reference_subset_construct

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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


@pytest.mark.parametrize("text, offset", [("ab\ncd", -1), ("ab\ncd", 6), ("é", 1),
                                          ("x\ud800", 2), ("€", 2)])
def test_linecol_rejects_offsets_off_a_codepoint(text, offset):
    # before the start, past the end, or inside a codepoint's UTF-8 bytes
    with pytest.raises(ValueError, match="offset %d" % offset):
        token_bounds_to_linecol(text, offset)


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
    rng = random.Random(42)
    strings = _all_strings("ab", 6)
    cases = 0
    for i in range(500):
        regex = _random_regex(rng, rng.randrange(1, 5))
        nfa = Nfa()
        end = nfa.add_regex(regex, nfa.start, {})
        nfa.accepts[end] = Tag(0, None, False, False)
        dfa = _subset_construct("m", nfa)

        def dfa_accepts(s):
            state = dfa.start
            for ch in s:
                state = dfa.step(state, ord(ch))
                if state < 0:
                    return False
            return dfa.accepts[state] is not None

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
# their escapes, keywords, runs of passed characters), calc_prog.lang's
# tokens and MUNCH's runs of `a`, with non-ASCII text
_FRAGMENTS = ["`", "\\", "//", "\n", " ", "\t", "{", "}", ";", "=>", "<-", "mode",
              "lexer", "main", "pass", "x1", "_", "0", "42", "+", "-", "*", "(", ")",
              "=", "^", "é", "∀", "𝔸", "@", "    ", "\t\t", "// a b c\n",
              "`a\\\\b\\`c\\\\`", "a", "aaaa", "b"]

# Two tokens where the longer one can run over many shorter ones without
# completing: at every `a` of `a`*n, maximal munch reads on to the end of
# the input looking for a `b`
MUNCH = """
tokens { a <- `a`; ab <- `a`+ `b`; }
lexer { main { body } mode body { a => { emit; } ab => { emit; } eof => { pop; } } }
parser { main { S } S.S <- xs:#L[T::eps]; T.A <- x:a; T.B <- y:ab; }
"""


@pytest.fixture(scope="module")
def munch():
    return compile_lang(MUNCH).compiled


@pytest.mark.parametrize("name", ["meta", "calc_prog", "munch"])
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


def test_characters_that_match_alone_and_runs_of_passes_are_tabled(meta):
    # a character that leads from the start state to an accepting state
    # with no transitions and no eof transition matches alone; the plain
    # passes among those are taken in runs
    programs = meta.lexer.programs
    assert {mode: program[7] for mode, program in programs.items()} == {
        "body": {ord(" "), ord("\t"), ord("\n")},
        "comment_single": set(range(ASCII_ROW)) - {ord("\n")},
        "string_lit": set(range(ASCII_ROW)) - {ord("`"), ord("\\")}}
    singles = programs["body"][6]
    assert len(singles) == ASCII_ROW + 1 and singles[ASCII_ROW] is None
    assert singles[ord(";")][:2] == (OP_EMIT, "`;`")
    # `_` and `.` begin longer tokens (identifiers, `..`)
    assert singles[ord("_")] is None and singles[ord(".")] is None
    text = "a; // b c\n`x y`"
    out = lex(meta.lexer, text)
    assert out.extracts == [Extract("comment_single", "// b c", 3, 9)]
    assert _lex_outcome(lex, meta.lexer, text) == _lex_outcome(reference_lex, meta.lexer, text)


# -- compile_lexer against the recursive reference ---------------------------

_LEAVES = [RLit("a"), RLit("b"), RLit("ab"), RLit("ba"), RRange("a", "b"), RWildcard(),
           RLit(""), REof()]


def _regexes(names):
    leaves = st.one_of(st.sampled_from(_LEAVES), st.sampled_from(names).map(RRef))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda parts: RConcat(tuple(parts))),
        st.lists(inner, max_size=3).map(lambda parts: RAlt(tuple(parts))),
        inner.map(RStar)), max_leaves=6)


_TOKEN_NAMES = ["a", "b", "c", "d"]
_ACTIONS = [(LexerAction("pass"),), (LexerAction("pop"),),
            (LexerAction("push", "m"), LexerAction("pass")), (LexerAction("emit"),)]


@st.composite
def _mode_specs(draw, actions=_ACTIONS):
    # each token names only the ones declared before it, so no alias is
    # cyclic; "zz" is never declared
    decls = []
    for i in range(draw(st.integers(0, len(_TOKEN_NAMES)))):
        pattern = draw(_regexes(_TOKEN_NAMES[:i] + ["zz"]))
        decls.append(TokenDecl(_TOKEN_NAMES[i], draw(st.sampled_from(["opaque", "alias"])),
                               pattern))
    names = [d.name for d in decls] or ["zz"]
    # emit rules mostly over literals and token names, which give each
    # string a token identity
    identities = st.one_of(st.sampled_from(_LEAVES[:4]), st.sampled_from(names).map(RRef))
    emits = st.one_of(identities, st.lists(identities, min_size=1, max_size=3).map(
        lambda parts: RAlt(tuple(parts))))
    rules = draw(st.lists(st.one_of(
        st.builds(LexerRule, _regexes(names + ["zz"]), st.sampled_from(actions)),
        st.builds(LexerRule, emits, st.just((LexerAction("emit"),)))), min_size=1, max_size=3))
    return LangSpec(tuple(decls), LexerSpec("m", (("m", tuple(rules)),)),
                    ParserSpec((), (), (), (), ()), (), ())


def _compile_outcome(compile_fn, spec):
    try:
        lx = compile_fn(spec)
    except LexCompileError as e:
        return type(e).__name__, str(e)
    return lx.dump(), lx.emittable


def _acts(*ops):
    return tuple(LexerAction(*op.split()) for op in ops)


def _one_rule_spec(pattern, *ops):
    rule = LexerRule(pattern, _acts(*ops))
    return LangSpec((), LexerSpec("m", (("m", (rule,)),)), ParserSpec((), (), (), (), ()), (), ())


@settings(max_examples=200, deadline=None)
@given(_mode_specs())
@example(_one_rule_spec(REof(), "pass"))
@example(_one_rule_spec(REof(), "push m", "pass"))
def test_compile_lexer_agrees_with_the_recursive_reference(spec):
    # same DFAs, emittable set, and error (class and text) as the pipeline
    # that expanded aliases into a new tree and walked it three more times
    assert _compile_outcome(compile_lexer, spec) == _compile_outcome(reference_compile_lexer, spec)


# -- random lexers against the reference loop -------------------------------

def _pieces(spec):
    """The text of every nonempty literal and every range end in spec's
    token and rule patterns."""
    out = set()
    work = [d.pattern for d in spec.token_decls]
    work += [rule.pattern for _mode, rules in spec.lexer.modes for rule in rules]
    while work:
        e = work.pop()
        if isinstance(e, RLit):
            out.add(e.text)
        elif isinstance(e, RRange):
            out.update((e.lo, e.hi))
        elif isinstance(e, (RConcat, RAlt)):
            work.extend(e.parts)
        elif isinstance(e, RStar):
            work.append(e.inner)
    out.discard("")
    return sorted(out)


@st.composite
def _specs_and_texts(draw, actions=_ACTIONS):
    """A random one-mode spec and texts built from its literals, a
    character no rule names, non-ASCII characters and, now and then, a lone
    surrogate."""
    spec = draw(_mode_specs(actions))
    pieces = st.sampled_from(_pieces(spec) + ["c", "é", "∀", "𝔸"])
    texts = []
    for _ in range(draw(st.integers(1, 4))):
        parts = draw(st.lists(pieces, max_size=30))
        if draw(st.integers(0, 9)) == 0:
            parts.insert(draw(st.integers(0, len(parts))), "\ud800")
        texts.append("".join(parts))
    return spec, texts


def _lexes_as_the_reference(spec, texts):
    try:
        lexer = compile_lexer(spec)
    except LexCompileError:
        return
    for text in texts:
        assert _lex_outcome(lex, lexer, text) == _lex_outcome(reference_lex, lexer, text)


def _spec(tokens, modes):
    """A spec with no parser: tokens maps names to opaque patterns, and
    modes lists (mode, ((pattern, ops), ...)), the first mode the main one."""
    return LangSpec(
        tuple(TokenDecl(name, "opaque", pattern) for name, pattern in tokens.items()),
        LexerSpec(modes[0][0], tuple((mode, tuple(LexerRule(p, _acts(*ops)) for p, ops in rules))
                                     for mode, rules in modes)),
        ParserSpec((), (), (), (), ()), (), ())


def _then(*parts):
    return RConcat(tuple(RLit(p) if isinstance(p, str) else p for p in parts))


_EMIT, _POP = ("emit",), ("pop",)
# odd runs of `c` before an `e`: that a walk fails from a state at one
# offset says nothing of the same state one offset earlier
_ODD_SPEC = _spec({"c": RLit("c"), "odd": _then("c", RStar(RLit("cc")), "e")},
                  [("m", [(RRef("c"), _EMIT), (RRef("odd"), _EMIT), (REof(), _POP)])])
# two modes whose DFAs number their states alike: that a walk fails in one
# says nothing of the other
_TWO_MODES_SPEC = _spec(
    {"a": RLit("a"), "ab": _then("a", RStar(RLit("a")), "b"),
     "ac": _then("a", RStar(RLit("a")), "c")},
    [("m", [(RRef("a"), ("emit", "push n")), (RRef("ab"), _EMIT), (REof(), _POP)]),
     ("n", [(RRef("a"), _EMIT), (RRef("ac"), _EMIT), (REof(), _POP)])])


@settings(max_examples=300, deadline=None)
@given(_specs_and_texts())
@example((parse_lang_spec(MUNCH), ["a" * 30, "a" * 30 + "b" + "a" * 5, "aab" * 5 + "a" * 20 + "c"]))
@example((_ODD_SPEC, ["cccce", "cc" * 10 + "e" + "c" * 7 + "e"]))
@example((_TWO_MODES_SPEC, ["aaac", "aaaab"]))
def test_random_lexers_agree_with_the_reference(spec_and_texts):
    # tokens, extracts, and the kind and offset of a LexError
    _lexes_as_the_reference(*spec_and_texts)


_KEEPING_ACTIONS = _ACTIONS + [(LexerAction("pop_extract"),)]


@settings(max_examples=200, deadline=None)
@given(_specs_and_texts(_KEEPING_ACTIONS))
def test_random_lexers_with_a_mode_left_by_pop_extract_agree_with_the_reference(
        spec_and_texts):
    # a pop_extract pops the mode, so its frames keep their text
    _lexes_as_the_reference(*spec_and_texts)


# prints the 8N/N per-character lex time ratio of MUNCH on `a`*N, and the
# token counts at N, 8N and 64N
_MUNCH_TIMES = r"""
import sys, time
import langcc
lexer = langcc.compile_lang(sys.argv[1]).compiled.lexer
sizes = (1000, 8000)
best, counts = [float("inf")] * len(sizes), []
for _ in range(5):
    for k, n in enumerate(sizes):  # interleaved, so host speed swings hit both
        t0 = time.perf_counter()
        out = langcc.lex(lexer, "a" * n)
        best[k] = min(best[k], time.perf_counter() - t0)
        counts.append(len(out.tokens))
counts.append(len(langcc.lex(lexer, "a" * 64000).tokens))
print(best[1] / sizes[1] / (best[0] / sizes[0]), *sorted(set(counts)))
"""


def test_maximal_munch_is_linear_where_a_token_runs_over_shorter_ones():
    # Reps' failure memo: a walk stops at a (state, position) from which an
    # earlier walk found no accept, so `a`*n lexes in time linear in n.  In
    # a subprocess with a timeout, so that quadratic lexing fails the test
    # instead of holding the suite.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _MUNCH_TIMES, MUNCH], env=env,
                         capture_output=True, text=True, timeout=60, check=True).stdout.split()
    assert out[1:] == ["1000", "8000", "64000"]
    ratio = float(out[0])
    assert ratio < 1.8, "8N/N per-character lex time ratio %.2f at N=1000" % ratio


# -- the subset construction against the one that rescans every edge --------

def _subset_outcome(construct, mode, nfa):
    """The DFA states, or the ambiguity's mode, witness and message."""
    try:
        return construct(mode, nfa).states
    except LexAmbiguity as e:
        return "LexAmbiguity", e.mode, e.witness, str(e)


def _subset_outcomes_agree(mode, nfa) -> bool:
    """Assert both constructions agree on nfa; whether it was ambiguous."""
    got = _subset_outcome(_subset_construct, mode, nfa)
    assert got == _subset_outcome(reference_subset_construct, mode, nfa), mode
    return type(got) is tuple


@contextlib.contextmanager
def _compared_subset_constructions():
    """compile_lexer with each mode's NFA also given to the reference
    subset construction and the outcomes compared; yields the list of the
    modes compared.  (No monkeypatch: hypothesis tests run this too.)"""
    compared = []

    def spy(mode, nfa):
        _subset_outcomes_agree(mode, nfa)
        compared.append(mode)
        return _subset_construct(mode, nfa)

    lexer_mod._subset_construct = spy
    try:
        yield compared
    finally:
        lexer_mod._subset_construct = _subset_construct


@pytest.mark.parametrize("name", sorted(p.name for p in GRAMMARS.glob("*.lang")))
def test_subset_construction_matches_reference_on_fixtures(name):
    spec = parse_lang_spec(load_grammar(name))
    with _compared_subset_constructions() as compared:
        compile_lexer(spec)
    assert compared == [mode for mode, _rules in spec.lexer.modes]


@settings(max_examples=200, deadline=None)
@given(_mode_specs())
def test_subset_construction_matches_reference_on_random_modes(spec):
    with _compared_subset_constructions():
        try:
            compile_lexer(spec)
        except LexCompileError:
            pass


def test_subset_construction_matches_reference_on_random_regexes():
    # up to three rules a mode, so that some modes are ambiguous
    rng = random.Random(7)
    ambiguous = 0
    for _ in range(300):
        nfa = Nfa()
        for idx in range(rng.randrange(1, 4)):
            end, _eof, _empty = _wire(nfa, _random_regex(rng, rng.randrange(1, 5)), {})
            nfa.accepts[end] = Tag(idx, "t%d" % rng.randrange(2), rng.random() < 0.3, False)
        ambiguous += _subset_outcomes_agree("m", nfa)
    assert 0 < ambiguous < 300


def test_cyclic_alias_is_a_compile_error():
    # validate_spec rejects the cycle first; compile_lexer on its own stops too
    loop = TokenDecl("a", "alias", RConcat((RLit("x"), RRef("a"))))
    rule = LexerRule(RRef("a"), (LexerAction("pass"),))
    spec = LangSpec((loop,), LexerSpec("m", (("m", (rule,)),)),
                    ParserSpec((), (), (), (), ()), (), ())
    with pytest.raises(LexCompileError, match="cyclic alias 'a'"):
        compile_lexer(spec)


# Token patterns 1,500 levels deep: each goes through the frontend, the
# validator and the lexer on explicit stacks, at the default recursion limit.

def _nested_alt(leaf, depth):
    out = leaf
    for _ in range(depth):
        out = "%s | (%s)" % (leaf, out)
    return out


def _calc_with(old, new):
    src = load_grammar("calc.lang")
    assert old in src
    return src.replace(old, new)


WS = "ws_inline <= ` ` | `\\t`;"
DEEP_TOKENS = {
    "ws_inline as a nested alternation": lambda: _calc_with(
        WS, "ws_inline <= %s;" % _nested_alt("` `", 1500)),
    "ws_inline with nested stars": lambda: _calc_with(
        WS, "ws_inline <= ` ` %s` `%s;" % ("(" * 1500, ")*" * 1500)),
    "a nested alternation in the emitted top": lambda: _calc_with(
        "top <= id | int_lit | op;", "top <= id | int_lit | %s;" % _nested_alt("op", 1500)),
    # declared head first, so the cycle search follows the whole chain
    "ws_inline through a chain of aliases": lambda: _calc_with(
        WS, "ws_inline <= w0;\n" + "".join("    w%d <= w%d;\n" % (i, i + 1) for i in range(1500))
        + "    w1500 <= ` ` | `\\t`;"),
}


@pytest.mark.parametrize("name", sorted(DEEP_TOKENS))
def test_deep_token_patterns_compile_and_parse_at_the_default_recursion_limit(name):
    src = DEEP_TOKENS[name]()
    assert sys.getrecursionlimit() <= 1000
    try:
        result = compile_lang(src)
    except RecursionError:
        # failed outside the handler: pytest takes minutes to report a
        # traceback this deep
        result = None
    assert result is not None, "RecursionError at the default recursion limit"
    assert result.ok
    assert parse(result.compiled, "x = 1 +  2 * (3) - y").is_success()


@pytest.mark.parametrize("name", sorted(DEEP_TOKENS))
def test_deep_token_patterns_render_and_reparse_at_the_default_recursion_limit(name):
    spec = parse_lang_spec(DEEP_TOKENS[name]())
    assert sys.getrecursionlimit() <= 1000
    try:
        reparsed = parse_lang_spec(render_spec(spec))
    except RecursionError:
        reparsed = None
    assert reparsed is not None, "RecursionError at the default recursion limit"
    with recursion_limit(50000):  # dataclass equality recurses per level
        assert reparsed == spec


# ---------------------------------------------------------------------------
# The lexer-action vocabulary

def test_meta_lang_action_variants_map_one_to_one_onto_the_vocabulary():
    ast = json.loads(meta_artifact().to_json())["ast"]
    variants = {vk.split("::")[1]: fields for vk, fields in ast.items()
                if vk.startswith("LexerAction::")}
    assert set(variants) == set(_LEXER_ACTION_OPS)
    assert sorted(_LEXER_ACTION_OPS.values()) == sorted(LEXER_OPS)
    # a variant has a field exactly when its op takes an argument
    assert all(len(variants[v]) == LEXER_OPS[op].takes_arg for v, op in _LEXER_ACTION_OPS.items())


def test_every_op_has_one_lexer_step():
    # the executor's step constants follow the order of LEXER_OPS
    assert STEP_CODES == {"emit": S_EMIT, "pass": S_PASS, "push": S_PUSH, "pop": S_POP,
                          "pop_extract": S_POP_EXTRACT, "pop_emit": S_POP_EMIT}


@pytest.mark.parametrize("actions,eof,fault", [
    (_acts("emit"), False, None),
    (_acts("push m", "pass"), False, None),
    (_acts("pop"), True, None),
    (_acts("pop", "push n"), False, None),
    # not decided here: on a stack [.., n, m] this leaves it as it found it
    # and loops, on [.., m, m] it does not (see docs/metalang.md)
    (_acts("pop", "pop", "push n", "push m"), False, None),
    (_acts("push n", "pop", "pop"), False, None),
    (_acts("emit", "pass"), False, "has more than one emit/pass action"),
    (_acts("push n"), False, "neither consumes its match nor pops"),
    (_acts("pass"), True, "eof rule in mode 'm' must pop"),
    (_acts("push n", "pop"), False, "leaves the mode stack as it found it"),
    (_acts("pop", "push m"), False, "leaves the mode stack as it found it"),
    (_acts("push m", "pop", "pass"), True, "leaves the mode stack as it found it"),
])
def test_action_list_fault(actions, eof, fault):
    got = action_list_fault("m", actions, eof)
    assert got == fault if fault is None else fault in got
