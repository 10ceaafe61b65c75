import hashlib
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from langcc import (
    build_lr, compile_lang, dump_lr, expand_instances, first_k, lower_grammar,
    lower_precedence, parse_lang_spec, run_compile_tests,
)
from langcc import lr
from langcc.cli import cmd_langcc
from langcc.conflicts import _min_sentences
from langcc.lr import _act_sort_key

from conftest import GOLDEN, GRAMMARS, load_grammar
from oracle import FirstK, earley_accepts, reference_lr


def _cfg(name):
    spec = parse_lang_spec(load_grammar(name))
    cfg = lower_grammar(spec)
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


UNREACHABLE = """
tokens { a <- `a`; b <- `b`; c <- `c`; top <= a | b | c | `;`; ws <= ` `; }
lexer { main { body } mode body { top => { emit; } ws => { pass; } eof => { pop; } } }
parser {
    main { S }
    S.One <- x:a;
    U.Pair <- x:V y:W;
    V.B <- x:b;
    V.Skip <- `;`?;
    W.C <- x:c x2:V;
}
"""


def test_first_of_nonterminals_not_reachable_from_the_mains():
    spec = parse_lang_spec(UNREACHABLE)
    cfg = lower_precedence(spec, lower_grammar(spec))
    assert cfg.mains == ("S",)
    assert first_k(cfg, ["U"], 1) == {("`;`",), ("b",), ("c",)}
    assert first_k(cfg, ["U"], 2) == {
        ("`;`", "c"), ("b", "c"), ("c",), ("c", "`;`"), ("c", "b")}
    assert first_k(cfg, ["V", "S", "W"], 2) == {("`;`", "a"), ("a", "c"), ("b", "a")}
    assert first_k(cfg, ["V", "S", "W"], 3) == {
        ("`;`", "a", "c"), ("a", "c"), ("a", "c", "`;`"), ("a", "c", "b"), ("b", "a", "c")}


@pytest.mark.parametrize("k", [0, -1])
def test_first_k_rejects_k_below_1(k):
    _, cfg = _cfg("calc.lang")
    with pytest.raises(ValueError, match="k must be >= 1"):
        first_k(cfg, ["Expr"], k)


def test_first_k_rejects_unknown_symbols():
    _, cfg = _cfg("calc.lang")
    with pytest.raises(ValueError, match="'Nope'"):
        first_k(cfg, ["Nope"], 1)
    with pytest.raises(ValueError, match="'Nope'"):
        first_k(cfg, ["Expr", "Nope"], 2)
    assert first_k(cfg, ["$"], 1) == {("$",)}
    assert first_k(cfg, ["`(`", "$"], 2) == {("`(`", "$")}


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
    _, cfg = _cfg("calc_noprec.lang")
    assert build_lr(cfg, 2).conflicts
    results = dict()
    for decl, ok in run_compile_tests(compile_lang(load_grammar("calc_noprec.lang"))):
        results[(decl.k, decl.expect_success)] = ok
    assert results[(1, False)] and results[(2, False)]


def test_ab_eps_k_discrimination():
    _, cfg = _cfg("ab_eps.lang")
    t1 = build_lr(cfg, 1)
    t2 = build_lr(cfg, 2)
    assert len(t1.conflicts) == 1 and t2.conflicts == []
    for decl, ok in run_compile_tests(compile_lang(load_grammar("ab_eps.lang"))):
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
        head = "S' -> S" if tables.prods[pi].lhs is None else disp[pi]
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


# the whole automaton (states, items, actions, conflicts) of the largest
# fixtures, as built by the per-item closure keyed by closed sets
@pytest.mark.parametrize("name,k,sha256", [
    ("meta.lang", 1, "b9b690c4f21190f96c6a847544ae88b5f2863441f46e7324ca911be66f089a0d"),
    ("calc_noprec.lang", 1, "45b411ada424a916e0222e9add65f4d1ae852cb3e75e274315ffda5a948c74e2"),
    ("calc_noprec.lang", 2, "6df040f67e4d0c08bec790fe162f92024dd0ae174b2ad4cd47d97288711b74c4"),
])
def test_dump_lr_pinned(name, k, sha256):
    _, cfg = _cfg(name)
    tables = build_lr(cfg, k)
    assert hashlib.sha256(dump_lr(tables).encode("utf-8")).hexdigest() == sha256
    # flatten writes the action cells in the order the builder inserted them
    assert list(tables.action) == sorted(tables.action)


def test_conflicts_found_without_expanding_action_cells():
    # conflicts come from the masks; the cells wait for their first reader
    _, cfg = _cfg("calc_noprec.lang")
    tables = build_lr(cfg, 2)
    assert tables.conflicts
    assert "action" not in vars(tables)
    assert hashlib.sha256(dump_lr(tables).encode("utf-8")).hexdigest() == (
        "6df040f67e4d0c08bec790fe162f92024dd0ae174b2ad4cd47d97288711b74c4")


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


class _Expanded(Exception):
    pass


def _no_item_sets(monkeypatch):
    """Make expanding a state's closed item set raise."""
    def expand(self, kernel):
        raise _Expanded()
    monkeypatch.setattr(lr._Builder, "_items", expand)


def test_state_count_builds_no_item_sets(monkeypatch):
    _, cfg = _cfg("calc_prog.lang")
    want = len(list(build_lr(cfg, 2).states))
    _no_item_sets(monkeypatch)
    tables = build_lr(cfg, 2)
    assert len(tables.states) == want
    with pytest.raises(_Expanded):
        tables.states[0]


_CONFLICT_FREE = ["ab_eps.lang", "calc.lang", "calc_prog.lang", "meta.lang",
                  "parens.lang", "rd_tiny.lang", "sum_list.lang"]


def _langcc_outputs(out_dir, capsys):
    """Exit code and output of `langcc --conflicts-out` on each conflict-free
    fixture and on calc_noprec.lang, and every file the runs wrote; GEN
    stands for the output directory in messages."""
    out_dir.mkdir()
    got = {}
    for name in _CONFLICT_FREE + ["calc_noprec.lang"]:
        report = out_dir / (name + ".report")
        rc = cmd_langcc(str(GRAMMARS / name), str(out_dir), conflicts_out=str(report))
        out, err = capsys.readouterr()
        got[name] = (rc, out, err.replace(str(out_dir), "GEN"))
    got.update({p.name: p.read_bytes() for p in out_dir.iterdir()})
    return got


def test_compile_path_builds_no_item_sets(tmp_path, monkeypatch, capsys):
    # artifacts, schemas, conflict reports and messages come from the
    # kernels, gotos and actions alone
    want = _langcc_outputs(tmp_path / "normal", capsys)
    _no_item_sets(monkeypatch)
    assert _langcc_outputs(tmp_path / "no_items", capsys) == want
    assert want["calc_noprec.lang"][0] == 1 and "calc_noprec.lang.report" in want


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
        la = terms[pos] if k == 1 else tuple(terms[pos: pos + k])
        act = compiled.action_rows[states[-1]].get(la)
        if act is None:
            return False
        if act >= 0:  # shift
            states.append(act)
            pos += 1
        elif act == -1:  # accept
            return True
        elif act < -1:  # reduce
            prod = compiled.prods[-2 - act]
            n = prod[1]
            if n:
                del states[len(states) - n:]
            target = compiled.goto_rows[states[-1]].get(prod[2])
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


_ORACLE_GRAMMARS = {
    "parens": ["`(`", "`)`"],
    "sum_list": ["`a`", "`+`"],
    "ab_eps": ["`a`"],  # LR(2): its action rows are keyed by 2-tuples
}


@pytest.mark.parametrize("name", sorted(_ORACLE_GRAMMARS))
def test_parse_agrees_with_earley_on_random_strings(name, request):
    # runtime.parse itself, lexer included, on strings longer than the
    # exhaustive enumeration above reaches
    from langcc.spec_ast import decode_backtick
    from langcc.runtime import parse

    _spec, cfg = _cfg(name + ".lang")
    ig = expand_instances(cfg)
    compiled = request.getfixturevalue(name).compiled
    terminals = _ORACLE_GRAMMARS[name]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(terminals), max_size=30))
    def agrees(toks):
        text = "".join(decode_backtick(t) for t in toks)
        res = parse(compiled, text)
        assert res.is_success() == earley_accepts(ig, cfg.mains[0], toks), (name, text)

    agrees()


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


# ---------------------------------------------------------------------------
# The construction against a per-item reference

_NTS = ["S", "A", "B", "C"]
_TERMS = ["`a`", "`b`", "`c`"]


@st.composite
def _small_grammars(draw):
    """A .lang source over terminals a, b, c and up to four nonterminals,
    each with one to three productions of up to three symbols."""
    nts = _NTS[:draw(st.integers(1, len(_NTS)))]
    lines = []
    for nt in nts:
        for _ in range(draw(st.integers(1, 3))):
            rhs = draw(st.lists(st.sampled_from(_TERMS + nts), max_size=3))
            lines.append("    %s.P%d <- %s;" % (nt, len(lines), " ".join(rhs) or "eps"))
    return _small_source(lines)


def _small_source(lines):
    return ("tokens {\n    top <= `a` | `b` | `c`;\n}\n\n"
            "lexer {\n    main { body }\n\n    mode body {\n"
            "        top => { emit; }\n        eof => { pop; }\n    }\n}\n\n"
            "parser {\n    main { S }\n\n%s\n}\n" % "\n".join(lines))


# B derives no terminal string, so a prefix that reaches it dies there
# unless it is complete: FIRST_2 of `a` `a` B is {(a, a)}, of `a` B empty
_UNPRODUCTIVE = _small_source(["    S.P0 <- A `a` `a` B;", "    S.P1 <- `a` B `c`;",
                               "    A.P2 <- eps;", "    A.P3 <- `b`;", "    B.P4 <- B;"])


@settings(max_examples=50, deadline=None)
@given(_small_grammars())
@example(_UNPRODUCTIVE)
def test_construction_matches_per_item_reference(source):
    spec = parse_lang_spec(source)
    cfg = lower_precedence(spec, lower_grammar(spec))
    for k in (1, 2):
        tables = build_lr(cfg, k)
        states, goto, action = reference_lr(cfg, k)
        assert list(tables.states) == states
        assert tables.goto == goto
        assert {key: set(acts) for key, acts in tables.action.items()} == action
        assert list(tables.action) == sorted(tables.action)
        want = [(st, la, tuple(sorted(action[(st, la)], key=_act_sort_key)))
                for st, la in sorted(action) if len(action[(st, la)]) > 1]
        assert [(c.state, c.lookahead, c.actions) for c in tables.conflicts] == want


# ---------------------------------------------------------------------------
# FIRST_k on masks against FirstK

def _assert_first_matches_first_k(cfg, k):
    b = lr._Builder(cfg, k)
    if k == 1:
        # terminal bits are assigned up front, in sorted order
        assert b.lookaheads == sorted(b.lookaheads)
    assert all(len(w) == k for w in b.lookaheads)
    fk = FirstK(b.ig, k)

    def as_set(first):
        mask, grows, rest = first
        assert all(0 < len(w) < k for w in rest)
        return {b.lookaheads[bit] for bit in lr._bits(mask)} | rest | ({()} if grows else set())

    assert {inst: as_set(first) for inst, first in zip(b.ig.insts, b.first)} == fk.first
    # and each step's FIRST: of what follows a nonterminal, or of a
    # terminal and what follows it
    for pi, row in enumerate(b.steps):
        rhs = b.prods[pi].rhs
        for dot, step in enumerate(row[:-1]):
            tail = rhs[dot:] if rhs[dot][0] == "t" else rhs[dot + 1:]
            full, partial = fk.beta_first(tail)
            assert as_set(step[3]) == full | partial, (pi, dot)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(p.name for p in GRAMMARS.glob("*.lang")))
def test_first_masks_match_first_k_on_fixtures(name, k):
    _assert_first_matches_first_k(_cfg(name)[1], k)


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=50, deadline=None)
@given(_small_grammars())
@example(_UNPRODUCTIVE)
def test_first_masks_match_first_k_on_small_grammars(k, source):
    spec = parse_lang_spec(source)
    _assert_first_matches_first_k(lower_precedence(spec, lower_grammar(spec)), k)


# ---------------------------------------------------------------------------
# Nonterminals that derive no terminal string

@pytest.mark.parametrize("source, want", [
    (_UNPRODUCTIVE, {"B", "S"}),
    # B begins with a complete 1-tuple before C, but with no 2-tuple
    (_small_source(["    S.P0 <- `b`;", "    S.P1 <- `a` B;", "    B.P2 <- `a` C;",
                    "    C.P3 <- C `a`;"]), {"B", "C"}),
], ids=["main_through_unproductive", "complete_prefix_before_unproductive"])
def test_unproductive_is_the_same_at_every_k(source, want):
    spec = parse_lang_spec(source)
    cfg = lower_precedence(spec, lower_grammar(spec))
    for k in (1, 2, 3):
        assert {inst.base for inst in build_lr(cfg, k).unproductive} == want, k


@settings(max_examples=50, deadline=None)
@given(_small_grammars())
def test_unproductive_are_the_instances_with_no_shortest_sentence(source):
    spec = parse_lang_spec(source)
    tables = build_lr(lower_precedence(spec, lower_grammar(spec)), 1)
    sentences = _min_sentences(tables)
    assert tables.unproductive == {inst for inst in tables.ig.insts
                                   if ("n", inst) not in sentences}
