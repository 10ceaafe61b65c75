import itertools
import pathlib

import pytest

from langcc import (
    compile_lang, derive_ast_schema, expand_instances, lower_grammar, lower_precedence, parse,
    parse_lang_spec,
)
from langcc import datacc as D
from langcc.cli import run_test_stanza
from langcc.grammar import LowerError, NameStrictViolation, dump_grammar
from langcc.runtime import Node

from conftest import load_grammar
from oracle import admissible_tree, earley_accepts, enumerate_trees, recognizer

PREC_TAGS = pathlib.Path(__file__).resolve().parent / "prec_tags.lang"


def _cfg_for(rules, extra_tokens=""):
    src = """
tokens { top <= `a` | `b` | `,` | `=`; x_tok <- `x`; ws <= ` `; %s }
lexer { main { body } mode body { top => { emit; } x_tok => { emit; } ws => { pass; } eof => { pop; } } }
parser {
    main { S }
%s
}
""" % (extra_tokens, rules)
    spec = parse_lang_spec(src)
    cfg = lower_grammar(spec)
    return spec, lower_precedence(spec, cfg), cfg.ast_shape


def _calc_cfg():
    spec = parse_lang_spec(load_grammar("calc.lang"))
    cfg = lower_grammar(spec)
    return spec, lower_precedence(spec, cfg), cfg.ast_shape


def test_assign_rule_slots_and_template():
    spec, cfg, _ = _calc_cfg()
    assign = [p for p in cfg.productions if p.rule_path == ("Stmt", "Assign")][0]
    assert [s.symbol for s in assign.slots] == ["Expr", "`=`", "Expr"]
    assert assign.slots[0].attr_reqs == frozenset({"I"})
    assert assign.slots[2].attr_reqs == frozenset()
    assert assign.fields == (("x", ("slot", 0)), ("y", ("slot", 2)))
    assert assign.template == (
        ("field", "x"), ("verbatim", " "), ("lit", "="), ("verbatim", " "), ("field", "y"))


def test_productions_hash():
    # templates stay tuples, so a Production (and the IProd holding it) hashes
    spec = parse_lang_spec(load_grammar("meta.lang"))
    cfg = lower_precedence(spec, lower_grammar(spec))
    assert len(set(cfg.productions)) == len(cfg.productions)


def test_singleton_alt_adds_no_nonterminal():
    spec, cfg, _ = _calc_cfg()
    unary = [p for p in cfg.productions if p.rule_path == ("Expr", "UnaryPre")][0]
    assert [s.symbol for s in unary.slots] == ["`-`", "Expr"]
    # the first synthesized alternation is BinOp1's op, named X0
    binop1 = [p for p in cfg.productions if p.rule_path == ("Expr", "BinOp1")][0]
    assert [s.symbol for s in binop1.slots] == ["Expr", "X0", "Expr"]
    assert cfg.synth_display["X0"] == "(`+` | `-`)"


def test_list_desugar_language():
    spec, cfg, _ = _cfg_for("    S.Main <- xs:#L[A::`,`];\n    A.A <- `a`;")
    accepts = recognizer(cfg, "S")
    comma, a = "`,`", "`a`"
    cases = {
        (): True, (a,): True, (a, comma, a): True,
        (a, comma, a, comma, a): True,
        (comma,): False, (a, comma): False, (comma, a): False,
        (a, a): False, (a, comma, comma, a): False,
    }
    for toks, want in cases.items():
        assert accepts(list(toks)) == want, toks


def test_list_min_counts():
    _, cfg1, _ = _cfg_for("    S.Main <- xs:#L[A::+`,`];\n    A.A <- `a`;")
    _, cfg2, _ = _cfg_for("    S.Main <- xs:#L[A::++`,`];\n    A.A <- `a`;")
    r1 = recognizer(cfg1, "S")
    r2 = recognizer(cfg2, "S")
    comma, a = "`,`", "`a`"
    assert not r1([]) and r1([a]) and r1([a, comma, a])
    assert not r2([]) and not r2([a]) and r2([a, comma, a]) and r2([a, comma, a, comma, a])


def test_list_trailing_modes():
    _, cfg_req, _ = _cfg_for("    S.Main <- xs:#L[A::`,`::];\n    A.A <- `a`;")
    _, cfg_opt, _ = _cfg_for("    S.Main <- xs:#L[A::`,`:?];\n    A.A <- `a`;")
    comma, a = "`,`", "`a`"
    req = recognizer(cfg_req, "S")
    opt = recognizer(cfg_opt, "S")
    assert req([]) and req([a, comma]) and not req([a]) and req([a, comma, a, comma])
    assert opt([]) and opt([a]) and opt([a, comma]) and opt([a, comma, a])


def test_star_and_plus_desugar():
    _, cfg, _ = _cfg_for("    S.Main <- xs:A* ys:B+;\n    A.A <- `a`;\n    B.B <- `b`;")
    r = recognizer(cfg, "S")
    a, b = "`a`", "`b`"
    assert r([b]) and r([a, b]) and r([a, a, b, b])
    assert not r([]) and not r([a]) and not r([b, a])


def test_optional_literal_is_boolean_field():
    _, cfg, shape = _cfg_for("    S.Main <- x:(`a`)?;")
    fields = dict(shape["S"][("Main",)])
    assert fields["x"][0] == "bool"


def test_optional_content_is_option_field():
    _, cfg, shape = _cfg_for("    S.Main <- x:(`=` A)?;\n    A.A <- `a`;")
    fields = dict(shape["S"][("Main",)])
    assert fields["x"] == ["opt", ["node", "A"], [["lit", "="], ["content"]], 1]


def test_name_strict_violation():
    src = """
tokens { top <= `a`; }
lexer { main { body } mode body { top => { emit; } eof => { pop; } } }
parser {
    main { S }
    prop { name_strict; }
    S.Main <- A;
    A.A <- `a`;
}
"""
    spec = parse_lang_spec(src)
    with pytest.raises(NameStrictViolation):
        lower_grammar(spec)


def test_auto_field_names_without_strict():
    _, cfg, shape = _cfg_for("    S.Main <- A `=` x_tok;\n    A.A <- `a`;")
    fields = shape["S"][("Main",)]
    assert [f for f, _ in fields] == ["_f0", "_f2"]


def test_duplicate_field_name_rejected():
    with pytest.raises(LowerError, match="duplicate field"):
        _cfg_for("    S.Main <- x:A x:A;\n    A.A <- `a`;")


def test_alt_branch_with_content_rejected():
    with pytest.raises(LowerError, match="content-free"):
        _cfg_for("    S.Main <- y:(P:x_tok | Q:`b`);")


def test_undeclared_attribute_requirement_rejected():
    with pytest.raises(LowerError, match="never declared"):
        _cfg_for("    S.Main <- x:A[Z];\n    A.A <- `a`;")


def test_attr_stanza_lines_apply():
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
    cfg = lower_precedence(spec, lower_grammar(spec))
    r = recognizer(cfg, "S")
    assert r(["`a`"]) and not r(["`b`"])


# -- precedence ----------------------------------------------------------------

def _expr_tokens(text):
    out = []
    for ch in text:
        if ch.isdigit():
            out.append("int_lit")
        elif ch.isalpha():
            out.append("id")
        else:
            out.append("`%s`" % ch)
    return out


def test_precedence_unique_parse_mul_binds_tighter():
    spec, cfg, _ = _calc_cfg()
    toks = _expr_tokens("1+2*3")
    trees = enumerate_trees(cfg, "Expr", toks)
    assert len(trees) == 2  # two associations in the unconstrained grammar
    admissible = [t for t in trees if admissible_tree(cfg, t)]
    assert len(admissible) == 1
    by_pid = {p.pid: p for p in cfg.productions}
    root = by_pid[admissible[0][0]]
    assert root.rule_path == ("Expr", "BinOp1")
    right = [c for c in admissible[0][1:] if c[0] != "t"][-1]
    assert by_pid[right[0]].rule_path == ("Expr", "BinOp2")


def test_precedence_left_nesting():
    spec, cfg, _ = _calc_cfg()
    toks = _expr_tokens("1+2+3")
    trees = enumerate_trees(cfg, "Expr", toks)
    admissible = [t for t in trees if admissible_tree(cfg, t)]
    assert len(admissible) == 1
    by_pid = {p.pid: p for p in cfg.productions}
    root = admissible[0]
    left = [c for c in root[1:] if c[0] != "t"][0]
    assert by_pid[left[0]].rule_path == ("Expr", "BinOp1")  # (1+2)+3


def test_paren_inner_slot_admits_every_level():
    spec, cfg, _ = _calc_cfg()
    paren = [p for p in cfg.productions if p.rule_path == ("Expr", "Paren")][0]
    inner = [s for s in paren.slots if not s.is_terminal][0]
    assert inner.pr_star and inner.prec_bound == 0
    # without pr=* the slot would default to the production's own level
    unary = [p for p in cfg.productions if p.rule_path == ("Expr", "UnaryPre")][0]
    x = [s for s in unary.slots if not s.is_terminal][0]
    assert x.prec_bound == unary.prec_level == 2


def test_erasing_bounds_recovers_unconstrained_grammar():
    spec, cfg, _ = _calc_cfg()
    cfg_plain = lower_grammar(spec)
    toks = _expr_tokens("1+2*3")
    all_trees = enumerate_trees(cfg_plain, "Expr", toks)
    filtered = enumerate_trees(cfg, "Expr", toks)
    assert {t for t in all_trees} == {t for t in filtered}  # bounds don't change trees
    assert all(admissible_tree(cfg_plain, t) for t in all_trees)


@pytest.fixture(scope="module")
def prec_tags():
    return compile_lang(PREC_TAGS.read_text(encoding="utf-8"))


# each terminal of prec_tags.lang as source text; spaces separate them
_PREC_TEXT = {"id": "a", "`+`": "+", "`-`": "-", "`^`": "^", "`!`": "!", "`?`": "?",
              "`:`": ":", "`[`": "[", "`]`": "]", "`(`": "(", "`)`": ")"}


def _oracle_shape(cfg, tree) -> str:
    """A tree of enumerate_trees as its variants, e.g. Pow(Id, Id)."""
    p = cfg.productions[tree[0]]
    kids = [_oracle_shape(cfg, c) for c in tree[1:] if c[0] != "t"]
    return p.rule_path[-1] + ("(%s)" % ", ".join(kids) if kids else "")


def _node_shape(node) -> str:
    kids = [_node_shape(v) for v in node.values if isinstance(v, Node)]
    return node.variant[-1] + ("(%s)" % ", ".join(kids) if kids else "")


@pytest.mark.parametrize("text,shape", [
    ("a^b^c", "Pow(Id, Pow(Id, Id))"),  # assoc_right
    ("-a^b", "Neg(Pow(Id, Id))"),
    ("a^b!", "Pow(Id, Fact(Id))"),
    ("?a:b+c", "Add(Cond(Id, Id), Id)"),  # prefix, two operands
    ("?a:?b:c", "Cond(Id, Cond(Id, Id))"),
    ("?-a:b", "Cond(Neg(Id), Id)"),
    ("a[b][c]", "Index(Index(Id, Id), Id)"),  # postfix, two operands
    ("a[b]!", "Fact(Index(Id, Id))"),
    ("a[(b+c)]", "Index(Id, Paren(Add(Id, Id)))"),
    ("-a^-b", None),
    ("?a+b:c", None),
    ("a[b^c]", None),
    ("a[-b]", None),
])
def test_precedence_tags_give_one_admissible_tree(prec_tags, text, shape):
    cfg = prec_tags.cfg
    admissible = [t for t in enumerate_trees(cfg, "E", _expr_tokens(text))
                  if admissible_tree(cfg, t)]
    assert [_oracle_shape(cfg, t) for t in admissible] == ([shape] if shape else [])
    res = parse(prec_tags.compiled, text)
    assert (_node_shape(res.result) if res.is_success() else None) == shape


def test_precedence_tag_bounds(prec_tags):
    bounds = {p.rule_path[-1]: (p.prec_level, [s.prec_bound for s in p.slots
                                               if not s.is_terminal])
              for p in prec_tags.cfg.productions if p.kind == "user"}
    assert bounds["Pow"] == (3, [4, 3])  # assoc_right: the last operand at the level
    assert bounds["Cond"] == (1, [2, 1])  # prefix: the last operand at the level
    assert bounds["Index"] == (4, [4, 5])  # postfix: the first operand at the level


def _prec_candidates():
    """Every terminal string up to length 4, and up to length 6 over the
    operators of each half of the precedence stanza."""
    for n in range(5):
        yield from itertools.product(sorted(_PREC_TEXT), repeat=n)
    for alphabet in (("id", "`+`", "`-`", "`^`", "`!`"), ("id", "`?`", "`:`", "`[`", "`]`")):
        for n in range(5, 7):
            yield from itertools.product(alphabet, repeat=n)


def test_precedence_tags_agree_with_earley(prec_tags):
    assert prec_tags.ok and prec_tags.k_used == 1
    report = run_test_stanza(prec_tags.compiled, prec_tags.spec.parse_tests)
    assert report.failures == 0 and len(report.lines) == 6, report.render()
    ig = expand_instances(prec_tags.cfg)
    accepted = 0
    for terms in _prec_candidates():
        want = earley_accepts(ig, "E", list(terms))
        text = " ".join(_PREC_TEXT[t] for t in terms)
        assert parse(prec_tags.compiled, text).is_success() == want, text
        accepted += want
    assert accepted == 107


# -- AST shape -------------------------------------------------------------------

def test_calc_expr_variants():
    spec, cfg, _ = _calc_cfg()
    schema = derive_ast_schema(cfg)
    expr = schema.type_map()["Expr"]
    assert isinstance(expr, D.Sum)
    names = [n for n, _ in expr.cases]
    assert sorted(names) == sorted(["Id", "Lit", "UnaryPre", "BinOp1", "BinOp2",
                                    "BinOp3", "Paren"])
    lit = dict(expr.cases)["Lit"]
    assert isinstance(lit, D.Sum) and [n for n, _ in lit.cases] == ["Int_"]


def test_op_enum_field():
    spec, cfg, shape = _calc_cfg()
    fields = dict(shape["Expr"][("BinOp1",)])
    assert fields["op"][0] == "enum"
    assert [label for label, _ in fields["op"][1]] == ["Add", "Sub"]


def test_synthesized_names_deterministic():
    a = dump_grammar(_calc_cfg()[1])
    b = dump_grammar(_calc_cfg()[1])
    assert a == b


def test_unfold_prefix_is_a_no_op():
    import json

    src = load_grammar("rd_tiny.lang")
    assert "x:B" in src
    plain = json.loads(compile_lang(src).compiled.to_json())
    unfolded = json.loads(compile_lang(src.replace("x:B", "x:~B")).compiled.to_json())
    assert plain.pop("digest") != unfolded.pop("digest")
    assert plain == unfolded
