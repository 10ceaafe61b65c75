import sys
from importlib import resources

import pytest

from langcc import (
    bootstrap_check, compile_lang, langspec_from_node, parse, parse_lang_spec, render_spec,
)
from langcc.meta_frontend import _Lines, _dotted
from langcc.runtime import Node
from langcc.spec_ast import SpecError

from conftest import GRAMMARS, load_grammar, recursion_limit
from oracle import reference_parse_lang_spec, reference_to_json

FIXTURES = sorted(p.name for p in GRAMMARS.glob("*.lang"))


def test_meta_fixpoint(meta):
    ok, detail = bootstrap_check(load_grammar("meta.lang"))
    assert ok, detail


def test_committed_meta_artifact_is_regenerated():
    committed = resources.files("langcc").joinpath("meta.clang").read_text(encoding="utf-8")
    assert committed == compile_lang(load_grammar("meta.lang")).compiled.to_json(), (
        "src/langcc/meta.clang is not what langcc makes of grammars/meta.lang; "
        "regenerate it with `langcc grammars/meta.lang <dir>` and copy <dir>/meta.clang "
        "to src/langcc/ (see docs/metalang.md)")


def test_generated_parser_agrees_on_other_fixtures(meta):
    # the committed and a freshly generated metalanguage parser read every
    # fixture grammar, and its canonical rendering, to the same LangSpec as
    # the hand-written frontend did
    for name in FIXTURES:
        src = load_grammar(name)
        for text in (src, render_spec(reference_parse_lang_spec(src))):
            hand = reference_parse_lang_spec(text)
            assert parse_lang_spec(text) == hand, name
            res = parse(meta.compiled, text)
            assert res.is_success(), (name, res.err and res.err.message)
            assert langspec_from_node(res.result, text) == hand, name


def test_fixpoint_survives_rule_deletion():
    # equality is between the two parses, not conformance to the original
    src = load_grammar("meta.lang")
    mutated = src.replace("    AttrLine.Decl <- rule:DottedName `[` a:id `]` `;`;\n", "")
    assert mutated != src
    ok, detail = bootstrap_check(mutated)
    assert ok, detail


def test_corrupted_meta_fails_with_diagnostic():
    src = load_grammar("meta.lang").replace("main { Lang }", "main { Lang ")
    try:
        ok, detail = bootstrap_check(src)
    except Exception:
        return  # frontend diagnostic is an acceptable failure mode
    assert not ok


def test_converters_reject_wrong_node_variants(meta):
    # explicit checks, kept under python -O
    tree = parse(meta.compiled, load_grammar("parens.lang")).result
    with pytest.raises(SpecError, match="expected a Lang::File node, got DottedName::Name"):
        langspec_from_node(Node(("DottedName", "Name"), (), (), tree.start, tree.end))
    with pytest.raises(SpecError, match="expected a DottedName::Name node, got Lang::File"):
        _dotted(tree, _Lines(None))
    with pytest.raises(SpecError, match="expected a Lang::File node"):
        langspec_from_node(Node(("Lang",), (), (), 0, 0))


# Long and deep declarations: the converters run on explicit stacks, so each
# compiles at the default recursion limit (the hand-written frontend, whose
# spec they must equal, is run with a raised one).

CHARS = [chr(c) for c in range(ord("a"), ord("z") + 1)] + [chr(c) for c in range(ord("A"), ord("N") + 1)]


def _lang(tokens, rule):
    return ("tokens {\n%s\n}\n\nlexer {\n    main { body }\n    mode body {\n"
            "        top => { emit; }\n        ` ` => { pass; }\n        eof => { pop; }\n"
            "    }\n}\n\nparser {\n    main { S }\n    %s\n}\n" % (tokens, rule))


TOP = "    top <= %s;" % " | ".join("`%s`" % c for c in CHARS)


def _wrapped_regex():
    src = load_grammar("calc.lang")
    old = "letter <= `a`..`z` | `A`..`Z`;"
    assert old in src
    return src.replace(old, "letter <= %s`a`..`z` | `A`..`Z`%s;" % ("(" * 1500, ")" * 1500))


LONG_SPECS = {
    "regex in 1500 brackets": _wrapped_regex,
    "token of 5000 alternatives": lambda: _lang(
        "    x <- %s;\n    top <= x;" % " | ".join("`%s`" % CHARS[i % 40] for i in range(5000)),
        "S.One <- v:x;"),
    "rule of 1500 alternatives": lambda: _lang(TOP, "S.One <- %s;" % " | ".join(
        "`%s` `%s`" % (CHARS[i // 40], CHARS[i % 40]) for i in range(1500))),
    "rule of a 1500-item sequence": lambda: _lang(TOP, "S.One <- %s;" % " ".join(
        "`%s`" % CHARS[i % 40] for i in range(1500))),
}


@pytest.mark.parametrize("name", sorted(LONG_SPECS))
def test_long_declarations_compile_at_the_default_recursion_limit(name):
    src = LONG_SPECS[name]()
    assert sys.getrecursionlimit() <= 1000
    try:
        result = compile_lang(src)
        # the writer calls itself once per level of the artifact's nesting
        text = result.compiled.to_json()
    except RecursionError:
        # failed outside the handler: pytest takes minutes to report a
        # traceback this deep
        result = None
    assert result is not None, "RecursionError at the default recursion limit"
    assert result.ok
    with recursion_limit(50000):
        assert result.spec == reference_parse_lang_spec(src)
    assert text == reference_to_json(result.compiled)
