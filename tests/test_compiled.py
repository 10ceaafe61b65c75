"""The artifact's canonical JSON text: the writer against json.dumps and
the old encoder, one write per artifact with no decode on the build path,
pre-rendered pieces, non-canonical input, and text that is no artifact.
The action and goto lists flatten writes as text against the per-cell
lists it once built, and its parser rows against those its text loads
to.  A built artifact's runtime parts: taken from the builder, equal to
its loaded text's.  Artifacts that do not depend on the hash seed, and a
compile and a write that leave the cyclic collector as they found it."""

import contextlib
import enum
import gc
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from langcc import artifact, compile_lang, parse, parse_lang_spec
from langcc import compiled as compiled_mod
from langcc.artifact import P_USER, CompiledLang, RawJson, _canonical_json
from langcc.compiled import flatten
from langcc.grammar import lower_grammar, lower_precedence
from langcc.lexer import LexCompileError, compile_lexer
from langcc.lr import build_lr
from langcc.meta_frontend import meta_artifact
from langcc.spec_ast import SpecError

from conftest import GRAMMARS, load_grammar
from oracle import reference_action_goto_lists, reference_to_json
from test_lr import _small_grammars, _small_source


def _dumps(v):
    return json.dumps(v, sort_keys=True, indent=1, separators=(",", ": "), ensure_ascii=False)


_TEXT = st.text(st.one_of(
    st.characters(),
    # control characters, separators JavaScript takes for line ends, lone
    # surrogates, and what JSON escapes
    st.sampled_from("\x00\x08\x1f\x7f\x85\u2028\u2029\ud800\udbff\udfff\"\\/\u00e9\u2192\U0001f600"),
), max_size=8)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, -1]), st.integers(),
    st.integers(min_value=2 ** 64), st.integers(max_value=-2 ** 64),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300]),
    _TEXT,
)
_TREES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.dictionaries(_TEXT, inner, max_size=5)), max_leaves=40)


@settings(max_examples=500, deadline=None)
@given(_TREES)
@example({"b": [True, 1, False, 0, None], "a": {"x": 0, "y": False}, "e": [[], {}]})
def test_canonical_json_is_json_dumps(tree):
    assert _canonical_json(tree) == _dumps(tree)


class _Str(str):
    pass


class _Int(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("tree", [
    {"a": [1, (1, "a")]}, [{"x": {1, 2}}], {"b": [b"x"]}, {"k": frozenset()},
    ["a", _Str("b")], {"k": _Str("v")}, [0, _Int.ONE], {"k": _Int.ONE},
], ids=["tuple", "set", "bytes", "frozenset", "str-subclass-item", "str-subclass-member",
        "intenum-item", "intenum-member"])
def test_canonical_json_rejects_what_is_no_json_value(tree):
    # an item is encoded where it stands only if it is exactly a str or an int
    with pytest.raises(TypeError, match="is not a JSON value"):
        _canonical_json(tree)


def test_canonical_json_takes_one_frame_per_level_of_nesting():
    tree = []
    for i in range(500):
        tree = [i, "a", tree, None]
    assert sys.getrecursionlimit() <= 1000
    try:
        text = _canonical_json(tree)
    except RecursionError:
        # failed outside the handler: a traceback this deep is slow to report
        text = None
    assert text is not None, "RecursionError at the default recursion limit"
    assert text == _dumps(tree)


def test_canonical_json_writes_pre_rendered_text_only_at_its_indent():
    piece = RawJson("[\n  1\n ]", "\n ")  # [1] as the value of a top-level key
    assert _canonical_json({"a": piece, "b": None}) == _dumps({"a": [1], "b": None})
    assert _canonical_json([piece, 2]) == _dumps([[1], 2])
    for tree, at in [(piece, 0), ({"a": {"b": piece}}, 2), ([[piece]], 2),
                     ([{"a": piece}], 2)]:
        with pytest.raises(ValueError, match="rendered at indent 1 placed at indent %d" % at):
            _canonical_json(tree)


SRC = GRAMMARS.parent / "src"

WITH_ARTIFACTS = ["ab_eps", "calc", "calc_prog", "meta", "parens", "rd_tiny", "sum_list"]


@pytest.mark.parametrize("grammar", WITH_ARTIFACTS)
def test_to_json_matches_the_indenting_encoder(request, grammar):
    compiled = request.getfixturevalue(grammar).compiled
    text = compiled.to_json()
    assert text == reference_to_json(compiled)
    assert text == _dumps(json.loads(text)) + "\n"
    assert CompiledLang.from_json(text).to_json() == text


def _refuse(text, *args, **kwargs):
    raise AssertionError("json.loads called on the build path")


@pytest.mark.parametrize("grammar", ["calc.lang", "meta.lang"])
def test_build_path_decodes_no_json(monkeypatch, grammar):
    meta_artifact()  # its first load decodes meta.clang
    monkeypatch.setattr(json, "loads", _refuse)
    compiled = compile_lang(load_grammar(grammar)).compiled
    text = compiled.to_json()
    assert compiled.to_json() is text
    monkeypatch.undo()
    assert text == reference_to_json(compiled)


def _refuse_load(*args, **kwargs):
    raise AssertionError("an artifact loader called on the build path")


@pytest.mark.parametrize("grammar", ["calc.lang", "ab_eps.lang", "meta.lang"])
def test_build_path_checks_no_tables_or_lexer(monkeypatch, grammar):
    # a freshly compiled language takes its rows and lexer from the builder
    meta_artifact()  # its first load checks meta.clang
    monkeypatch.setattr(artifact, "_load_tables", _refuse_load)
    monkeypatch.setattr(artifact, "_lexer_from_json", _refuse_load)
    compiled = compile_lang(load_grammar(grammar)).compiled
    monkeypatch.undo()
    assert compiled.lexer is not None
    assert CompiledLang.from_json(compiled.to_json()) == compiled


def _comparable_prod(p):
    """A user production's field getter (index 2 of its data) may be a
    function of its own, so the slots it reads off a stack of the slot
    indexes stand in for it."""
    if p[0] != P_USER:
        return p
    variant, names, get, enums = p[3]
    stack = list(range(p[1]))
    read = (stack[get],) if type(get) is int else get(stack)
    return p[:3] + ((variant, names, read, enums),)


def _runtime_parts(compiled):
    """What a CompiledLang serves the parser, the lexer and the tree walks.
    A lexer program's `step` (index 3) is a method of its own ModeDfa, so
    the DFA states stand in for it."""
    lexer = compiled.lexer
    return {
        "prods": [_comparable_prod(p) for p in compiled.prods],
        "action_rows": compiled.action_rows,
        "goto_rows": compiled.goto_rows, "plans": compiled.plans,
        "variant_prefixes": compiled.variant_prefixes, "starts": compiled.starts,
        "mains": compiled.mains, "k": compiled.k,
        "programs": {m: p[:3] + p[4:] for m, p in lexer.programs.items()},
        "dfa_states": {m: dfa.states for m, dfa in lexer.dfas.items()},
        "main_mode": lexer.main_mode, "emittable": lexer.emittable,
    }


def _assert_built_equals_loaded(compiled):
    built = _runtime_parts(compiled)
    loaded = _runtime_parts(CompiledLang.from_json(compiled.to_json()))
    for name in built:
        assert built[name] == loaded[name], name


@pytest.mark.parametrize("grammar", WITH_ARTIFACTS)
def test_built_artifact_serves_what_its_loaded_text_does(request, grammar):
    _assert_built_equals_loaded(request.getfixturevalue(grammar).compiled)


@settings(max_examples=50, deadline=None)
@given(_small_grammars())
def test_built_small_grammar_serves_what_its_loaded_text_does(source):
    result = compile_lang(source)
    if result.ok:
        _assert_built_equals_loaded(result.compiled)


def _assert_lists_match_reference(tables, compiled):
    # flatten reads the tables' masks: the per-cell view stays unexpanded
    assert "action" not in vars(tables)
    text = compiled.to_json()
    tree = json.loads(text)
    assert [tree["action"], tree["goto"]] == list(reference_action_goto_lists(tables))
    loaded = CompiledLang.from_json(text)
    assert compiled.action_rows == loaded.action_rows
    assert compiled.goto_rows == loaded.goto_rows


@pytest.mark.parametrize("grammar", WITH_ARTIFACTS)
def test_action_and_goto_text_matches_the_per_cell_lists(grammar):
    result = compile_lang(load_grammar(grammar + ".lang"))
    _assert_lists_match_reference(result.tables, result.compiled)


# LR(3): after `c`, only the third terminal tells A from B
_LR3 = _small_source(["    S.P0 <- A `a` `a` `a`;", "    S.P1 <- B `a` `a` `b`;",
                      "    A.P2 <- `c`;", "    B.P3 <- `c`;"])


@settings(max_examples=50, deadline=None)
@given(_small_grammars())
@example(_LR3)
def test_small_grammar_action_and_goto_text_matches_the_per_cell_lists(source):
    # flattened at each k of 1, 2 and 3 without conflicts, also above the
    # first such k, where compile_lang would stop
    spec = parse_lang_spec(source)
    lexer = compile_lexer(spec)
    cfg = lower_precedence(spec, lower_grammar(spec))
    for k in (1, 2, 3):
        tables = build_lr(cfg, k)
        if not tables.conflicts:
            _assert_lists_match_reference(tables, flatten(lexer, tables, "0" * 64))


def test_flatten_refuses_tables_with_conflicts(calc_noprec):
    assert calc_noprec.tables.k == 1 and calc_noprec.tables.conflicts
    with pytest.raises(SpecError, match="^cannot flatten tables with conflicts$"):
        flatten(calc_noprec.lexer, calc_noprec.tables, "0" * 64)


def _non_ascii_parens():
    """parens.lang with a non-ASCII literal, variant, field and test."""
    src = load_grammar("parens.lang")
    for old, new in [("top <= `(` | `)`;", "top <= `(` | `)` | `→`;"),
                     ("    P.Pair <- `(` x:P `)` y:P;\n",
                      "    P.Pair <- `(` x:P `)` y:P;\n    P.Ünd <- `→` ő:P;\n"),
                     ("    `()`;\n", "    `()`;\n    `→()`;\n")]:
        assert old in src
        src = src.replace(old, new)
    return src


@pytest.mark.parametrize("source", [_non_ascii_parens, lambda: load_grammar("calc.lang")],
                         ids=["non-ascii parens", "calc"])
def test_non_canonical_artifact_loads_to_the_canonical_one(monkeypatch, source):
    built = compile_lang(source()).compiled
    canonical = built.to_json()
    tree = json.loads(canonical)
    keys = sorted(tree)
    random.Random(1).shuffle(keys)
    assert keys != sorted(keys)
    compact = json.dumps({key: tree[key] for key in keys}, separators=(",", ":"))
    assert compact != canonical
    assert compact.isascii()
    loaded = CompiledLang.from_json(compact)
    decodes = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: decodes.append(text) or loads(text))
    assert loaded.to_json() == canonical
    assert loaded.to_json() is loaded.to_json()
    assert decodes == [compact]  # once, for the first write
    assert loaded == built
    if not canonical.isascii():
        assert "\\u2192" in compact
        assert parse(loaded, "→()").is_success()


@pytest.mark.parametrize("text, where, message", [
    ("", "1:1", "Expecting value"),
    ("{", "1:2", "Expecting property name enclosed in double quotes"),
    ('{"version": 1,\n "k": x}', "2:7", "Expecting value"),
    ('{"version": 1} {}', "1:16", "Extra data"),
])
def test_undecodable_artifact_is_a_spec_error_at_its_line_and_column(text, where, message):
    with pytest.raises(SpecError) as info:
        CompiledLang.from_json(text)
    e = info.value
    assert str(e) == "%s: malformed artifact: %s" % (where, message)
    assert "%d:%d" % (e.loc.line, e.loc.col) == where
    assert isinstance(e.__cause__, json.JSONDecodeError)


@pytest.mark.parametrize("text", ["[]", '"x"', "null", "1", "true"])
def test_artifact_that_is_not_an_object_is_a_spec_error(text):
    with pytest.raises(SpecError, match="^malformed artifact: not a JSON object$"):
        CompiledLang.from_json(text)


@pytest.mark.parametrize("text, message", [
    ('{"version": %s}' % ("1" * 5000), "Exceeds the limit"),
    ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded while decoding"),
])
def test_artifact_the_decoder_cannot_convert_is_a_spec_error(text, message):
    with pytest.raises(SpecError, match="^malformed artifact: " + message):
        CompiledLang.from_json(text)


# ---------------------------------------------------------------------------
# The same bytes under any hash seed

_COMPILE_EACH = r"""
import json, sys
from langcc import compile_lang
texts = []
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        texts.append(compile_lang(f.read()).compiled.to_json())
print(json.dumps(texts))
"""


def test_artifacts_do_not_depend_on_the_hash_seed():
    # set and dict orders over strings change with the seed; the artifact's
    # bytes must not
    paths = [str(GRAMMARS / name) for name in ("meta.lang", "calc_prog.lang", "ab_eps.lang")]
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        runs.append(json.loads(subprocess.run(
            [sys.executable, "-c", _COMPILE_EACH, *paths], env=env,
            capture_output=True, text=True, check=True).stdout))
    assert runs[0] == runs[1]
    assert runs[0][0] == (SRC / "langcc" / "meta.clang").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# compile_lang and to_json pause the cyclic collector and leave it as they found it

_LEX_FAULT = """
tokens { top <= `a`; }
lexer { main { body } mode body { top => { emit; } `x`* => { pass; } eof => { pop; } } }
parser { main { S } S.One <- `a`; }
"""


@pytest.mark.parametrize("before", ["on", "off", "paused"])
@pytest.mark.parametrize("source, error", [
    (load_grammar("calc.lang"), None),
    (load_grammar("calc.lang").replace("main { Stmt, Expr }", "main { Nope }"), SpecError),
    (_LEX_FAULT, LexCompileError),
], ids=["success", "spec error", "lexer error"])
def test_compile_lang_leaves_the_collector_as_it_found_it(monkeypatch, source, error, before):
    seen = []

    def build_lr_seen(cfg, k):
        seen.append(gc.isenabled())
        return build_lr(cfg, k)

    monkeypatch.setattr(compiled_mod, "build_lr", build_lr_seen)
    gc.enable() if before == "on" else gc.disable()
    if before == "paused":
        gc.enable()
    try:
        with _outer_pause(before):
            if error is None:
                assert compile_lang(source).ok
                assert seen == [False]
            else:
                with pytest.raises(error):
                    compile_lang(source)
            assert gc.isenabled() == (before == "on")
        if before == "paused":
            assert gc.isenabled()
    finally:
        gc.enable()


def _outer_pause(before):
    return artifact.collector_paused if before == "paused" else contextlib.nullcontext()


@pytest.mark.parametrize("before", ["on", "off", "paused"])
@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
def test_to_json_leaves_the_collector_as_it_found_it(monkeypatch, calc, loaded, before):
    # a fresh artifact each time: to_json writes its text once and keeps it
    text = calc.compiled.to_json()
    compiled = (CompiledLang.from_json(text) if loaded
                else compile_lang(load_grammar("calc.lang")).compiled)
    seen = []

    def canonical_json_seen(*args):
        seen.append(gc.isenabled())
        return _canonical_json(*args)

    monkeypatch.setattr(artifact, "_canonical_json", canonical_json_seen)
    gc.disable() if before == "off" else gc.enable()
    try:
        with _outer_pause(before):
            assert compiled.to_json() == text
            assert seen and not any(seen)
            assert gc.isenabled() == (before == "on")
        if before == "paused":
            assert gc.isenabled()
    finally:
        gc.enable()
