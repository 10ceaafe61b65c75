import json

import pytest

from langcc import compile_lang, parse, pretty_print, roundtrip_check
from langcc.spec_ast import SpecError

BLOCK_SRC = """
tokens {
    letter <= `a`..`z`;
    w <- letter+;
    ws_inline <= ` ` | `\\t`;
    top <= w | `{` | `}` | `;` | `,`;
}

lexer {
    main { body }
    mode body {
        top => { emit; }
        ws_inline => { pass; }
        `\\n` => { pass; }
        eof => { pop; }
    }
}

parser {
    main { Block }
    Block.B <- `{` items:#B[W::`;`::] `}`;
    W.W <- x:w;
}
"""


def test_calc_roundtrip_examples(calc):
    for s in ["x = 1 + 2", "1 + 2 * 3", "(1 + 2) * 3", "-4^2", "x = (y)"]:
        ok, off = roundtrip_check(calc.compiled, s)
        assert ok, (s, off)


def test_print_normalizes_spacing(calc):
    res = parse(calc.compiled, "x=1+2")
    assert pretty_print(calc.compiled, res.result) == "x = 1 + 2"
    ok, off = roundtrip_check(calc.compiled, "x  =  1")
    assert not ok and off == 2  # first divergence: the second space


def test_empty_list_prints_nothing(sum_list):
    res = parse(sum_list.compiled, "")
    assert pretty_print(sum_list.compiled, res.result) == ""
    res2 = parse(sum_list.compiled, "a+a")
    assert pretty_print(sum_list.compiled, res2.result) == "a+a"


def test_indented_block_flavor():
    result = compile_lang(BLOCK_SRC)
    assert result.ok
    text = "{\n    ab;\n    cd;\n}"
    res = parse(result.compiled, text)
    assert res.is_success()
    assert pretty_print(result.compiled, res.result) == text
    # three elements, one per line, indented one unit of four spaces
    res3 = parse(result.compiled, "{ ab; cd; ef; }")
    assert pretty_print(result.compiled, res3.result) == "{\n    ab;\n    cd;\n    ef;\n}"
    # empty block collapses
    res0 = parse(result.compiled, "{}")
    assert pretty_print(result.compiled, res0.result) == "{}"


def test_trailing_delimiter_modes_roundtrip():
    src = BLOCK_SRC.replace("#B[W::`;`::]", "#L[W::`,`:?]").replace(
        "`{` items", "`{` _ items").replace("] `}`", "] _ `}`")
    result = compile_lang(src)
    assert result.ok
    for s in ["{ ab,cd }", "{ ab,cd, }", "{ ab }", "{ ab, }"]:
        ok, off = roundtrip_check(result.compiled, s)
        assert ok, (s, off)


def test_top_level_flavor(calc_prog):
    text = "x = 1;\ny = x + 2;\nz = y * y"
    ok, off = roundtrip_check(calc_prog.compiled, text)
    assert ok, off


def test_roundtrip_failure_offset(calc):
    ok, off = roundtrip_check(calc.compiled, "x =  1")
    assert not ok and off == 4


def test_roundtrip_on_unparseable_input_raises(calc):
    with pytest.raises(SpecError, match="unparseable"):
        roundtrip_check(calc.compiled, "x = ")


def test_fixture_test_stanzas_roundtrip(calc, parens, sum_list, calc_prog, meta):
    for result in (calc, parens, sum_list, calc_prog, meta):
        for t in result.spec.parse_tests:
            if t.expected_fail_offset is not None or t.skip_roundtrip:
                continue
            ok, off = roundtrip_check(result.compiled, t.input)
            assert ok, (t.input, off)


def test_idempotence(calc, meta):
    inputs = {
        "calc": (calc, ["x=1+2", "1 +  2 * ( 3 )", "-4 ^ 2"]),
        "meta": (meta, ["parser { main { S } S.One <- x:a; }"]),
    }
    for _name, (result, texts) in inputs.items():
        for s in texts:
            first = pretty_print(result.compiled, parse(result.compiled, s).result)
            second = pretty_print(result.compiled,
                                  parse(result.compiled, first).result)
            assert first == second


def test_reparseability_up_to_bounds(calc):
    from langcc import render_node

    for s in ["x=1+2", "( 1 + 2 ) * 3"]:
        node = parse(calc.compiled, s).result
        printed = pretty_print(calc.compiled, node)
        node2 = parse(calc.compiled, printed).result
        assert render_node(node) == render_node(node2)


def test_enum_label_prints_its_literal(calc):
    res = parse(calc.compiled, "1-2")
    assert pretty_print(calc.compiled, res.result) == "1 - 2"
    res2 = parse(calc.compiled, "-1")
    assert pretty_print(calc.compiled, res2.result) == "-1"


def test_mistyped_field_raises_spec_error(calc):
    from langcc.runtime import Node, TokenLeaf

    node = parse(calc.compiled, "1").result
    expr, = node.values
    bad = Node(node.variant, node.names, (TokenLeaf("int_lit", "1", expr.start, expr.end),),
               node.start, node.end)
    with pytest.raises(SpecError, match="a node field holds a TokenLeaf, expected a Node"):
        pretty_print(calc.compiled, bad)


# a literal holding each escape and a non-ASCII character, in a user template,
# a #Alt, an alternation branch, an optional bool and a list delimiter
ESCAPES_SRC = r"""
tokens {
    top <= `{λ\n` | `\t=` | `\\` | `\`` | `é!` | `a` | `,\n`;
}

lexer {
    main { body }
    mode body {
        top => { emit; }
        eof => { pop; }
    }
}

parser {
    main { S }
    S.Main <- `{λ\n` op:#Alt[Set:`\t=`] k:(Bs:`\\` | Bq:`\``) f:(`é!`)? xs:#L[A::`,\n`];
    A.A <- `a`;
}
"""


def test_escaped_literals_print_as_their_text():
    result = compile_lang(ESCAPES_SRC)
    assert result.ok
    for text in ["{λ\n\t=\\é!a,\na", "{λ\n\t=`", "{λ\n\t=`é!a"]:
        res = parse(result.compiled, text)
        assert res.is_success(), text
        assert pretty_print(result.compiled, res.result) == text
    data = json.loads(result.compiled.to_json())
    assert data["templates"]["S::Main"] == [
        ["lit", "{λ\n"], ["field", "op"], ["field", "k"], ["field", "f"], ["field", "xs"]]
    assert dict(data["ast"]["S::Main"]) == {
        "op": ["enum", [["Set", [["lit", "\t="]]]]],
        "k": ["enum", [["Bs", [["lit", "\\"]]], ["Bq", [["lit", "`"]]]]],
        "f": ["bool", [["lit", "é!"]]],
        "xs": ["seq", ["node", "A"], "L", [["lit", ",\n"]], "none", 0],
    }
