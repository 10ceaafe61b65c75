import itertools

import pytest

from langcc import (
    build_lr, dump_lr, expand_instances, first_k, lower_grammar,
    lower_precedence, parse_lang_spec, run_compile_tests,
)

from conftest import GOLDEN, load_grammar
from oracle import earley_accepts


def _cfg(name):
    spec = parse_lang_spec(load_grammar(name))
    cfg, _ = lower_grammar(spec)
    return spec, lower_precedence(spec, cfg)


def test_first_1_terminal():
    _, cfg = _cfg("calc.lang")
    assert first_k(cfg, ["id"], 1) == {("id",)}


def test_first_1_calc_expr():
    _, cfg = _cfg("calc.lang")
    got = first_k(cfg, ["Expr"], 1)
    assert got == {("id",), ("int_lit",), ("`-`",), ("`(`",)}


def test_first_2_with_nullable_prefix():
    _, cfg = _cfg("ab_eps.lang")
    got = first_k(cfg, ["A", "`a`"], 2)
    assert got == {("`a`",), ("`a`", "`a`")}


def test_calc_compiles_conflict_free_at_k1():
    _, cfg = _cfg("calc.lang")
    tables = build_lr(cfg, 1)
    assert tables.conflicts == []


def test_noprec_reduce_shift_conflict_on_plus():
    _, cfg = _cfg("calc_noprec.lang")
    tables = build_lr(cfg, 1)
    assert tables.conflicts
    wanted = [c for c in tables.conflicts
              if c.lookahead == ("`+`",)
              and {a[0] for a in c.actions} == {"reduce", "shift"}
              and any(a[0] == "reduce"
                      and tables.display_production(a[1]) == "Expr -> Expr X0 Expr"
                      for a in c.actions)]
    assert wanted, "expected Reduce(Expr -> Expr X0 Expr) vs Shift on `+`"


def test_ambiguous_grammar_conflicts_at_k2_too():
    spec, cfg = _cfg("calc_noprec.lang")
    assert build_lr(cfg, 2).conflicts
    results = dict()
    for decl, ok in run_compile_tests(spec, cfg):
        results[(decl.k, decl.expect_success)] = ok
    assert results[(1, False)] and results[(2, False)]


def test_ab_eps_k_discrimination():
    spec, cfg = _cfg("ab_eps.lang")
    t1 = build_lr(cfg, 1)
    t2 = build_lr(cfg, 2)
    assert len(t1.conflicts) == 1 and t2.conflicts == []
    for decl, ok in run_compile_tests(spec, cfg):
        assert ok


def test_ab_eps_hand_constructed_item_sets():
    """The k=2 start state, built by hand:

        S' -> . S        , $ $
        S  -> . A `a`    , $ $
        A  -> .          , `a` $
        A  -> . `a`      , `a` $

    with Reduce(A -> empty) on (`a`, $) and Shift on (`a`, `a`).
    """
    _, cfg = _cfg("ab_eps.lang")
    tables = build_lr(cfg, 2)
    ig = tables.ig
    disp = {}
    for ip in ig.iprods:
        rhs = " ".join(s[1] if s[0] == "t" else s[1].base for s in ip.rhs)
        disp[ip.ipid] = "%s -> %s" % (ip.lhs.base, rhs)
    start = tables.states[tables.starts["S"]]
    rendered = set()
    for pi, dot, la in start:
        p = tables.prods[pi]
        if p["kind"] == "start":
            head = "S' -> S"
        else:
            head = disp[pi]
        rendered.add((head, dot, la))
    assert rendered == {
        ("S' -> S", 0, ("$", "$")),
        ("S -> A `a`", 0, ("$", "$")),
        ("A -> ", 0, ("`a`", "$")),
        ("A -> `a`", 0, ("`a`", "$")),
    }
    s0 = tables.starts["S"]
    acts = {la: tables.action[(s0, la)] for (st, la) in tables.action if st == s0}
    assert [a[0] for a in acts[("`a`", "$")]] == ["reduce"]
    assert [a[0] for a in acts[("`a`", "`a`")]] == ["shift"]


def test_ab_eps_lr2_dump_matches_golden():
    _, cfg = _cfg("ab_eps.lang")
    tables = build_lr(cfg, 2)
    golden = (GOLDEN / "ab_eps_lr2.txt").read_text(encoding="utf-8")
    assert dump_lr(tables) == golden


def test_full_lr_lookaheads_part_of_state_identity():
    # canonical LR(1) on parens: states whose item cores match but whose
    # lookaheads differ must stay distinct
    _, cfg = _cfg("parens.lang")
    tables = build_lr(cfg, 1)
    cores = {}
    split = 0
    for idx, items in enumerate(tables.states):
        core = frozenset((pi, dot) for pi, dot, _la in items)
        if core in cores:
            split += 1
        cores.setdefault(core, idx)
    assert split > 0, "expected at least one core split by lookaheads"


def test_tables_deterministic():
    _, cfg = _cfg("calc.lang")
    assert dump_lr(build_lr(cfg, 1)) == dump_lr(build_lr(cfg, 1))


def _table_accepts(compiled, tokens):
    from langcc.lexer import EOF_TERMINAL

    k = compiled.k
    terms = list(tokens) + [EOF_TERMINAL] * k
    states = [compiled.starts[compiled.default_start]]
    pos = 0
    depth = 0
    while True:
        depth += 1
        if depth > 10000:
            return False
        la = tuple(terms[pos: pos + k])
        act = compiled.action.get((states[-1], la))
        if act is None:
            return False
        if act[0] == "shift":
            states.append(act[1])
            pos += 1
        elif act[0] == "accept":
            return True
        elif act[0] == "reduce":
            prod = compiled.prods[act[1]]
            n = prod[1]
            if n:
                del states[len(states) - n:]
            target = compiled.goto.get((states[-1], ("n", prod[2])))
            if target is None:
                return False
            states.append(target)
        else:
            return False
    return False


@pytest.mark.parametrize("name,terminals", [
    ("parens.lang", ["`(`", "`)`"]),
    ("sum_list.lang", ["`a`", "`+`"]),
    ("ab_eps.lang", ["`a`"]),
])
def test_oracle_equivalence_short_strings(name, terminals, request):
    spec, cfg = _cfg(name)
    ig = expand_instances(cfg)
    compiled = request.getfixturevalue(name.split(".")[0]).compiled
    start = cfg.mains[0]
    max_len = 6
    for n in range(max_len + 1):
        for toks in itertools.product(terminals, repeat=n):
            want = earley_accepts(ig, start, list(toks))
            got = _table_accepts(compiled, list(toks))
            assert got == want, (name, toks)


def test_conflict_monotonicity_k2_projects_into_k1():
    # raising k never conflicts at a lookahead whose prefix was clean at k-1
    _, cfg = _cfg("calc_noprec.lang")
    t1 = build_lr(cfg, 1)
    t2 = build_lr(cfg, 2)
    k1_keys = {(tuple(t1.display_action(a) for a in c.actions), c.lookahead[:1])
               for c in t1.conflicts}
    for c in t2.conflicts:
        key = (tuple(t2.display_action(a) for a in c.actions), c.lookahead[:1])
        assert key in k1_keys, key
