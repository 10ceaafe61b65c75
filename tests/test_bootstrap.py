import pytest

from langcc import bootstrap_check, langspec_from_node, parse, parse_lang_spec
from langcc.bootstrap import _dotted
from langcc.runtime import Bounds, Node
from langcc.spec_ast import SpecError

from conftest import load_grammar


def test_meta_fixpoint(meta):
    ok, detail = bootstrap_check(load_grammar("meta.lang"))
    assert ok, detail


def test_generated_parser_agrees_on_other_fixtures(meta):
    # the generated metalanguage parser parses every fixture grammar to the
    # same LangSpec as the hand frontend
    for name in ["calc.lang", "calc_noprec.lang", "ab_eps.lang", "parens.lang",
                 "sum_list.lang", "calc_prog.lang", "rd_tiny.lang"]:
        src = load_grammar(name)
        hand = parse_lang_spec(src)
        res = parse(meta.compiled, src)
        assert res.is_success(), (name, res.err and res.err.message)
        assert langspec_from_node(res.result) == hand, name


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
        langspec_from_node(Node(("DottedName", "Name"), (), tree.bounds))
    with pytest.raises(SpecError, match="expected a DottedName::Name node, got Lang::File"):
        _dotted(tree)
    with pytest.raises(SpecError, match="expected a Lang::File node"):
        langspec_from_node(Node(("Lang",), (), Bounds(0, 0)))
