import gc
import hashlib
import heapq
import re
import tracemalloc
import types
from unittest import mock

from hypothesis import given, settings

import oracle
from langcc import (
    build_lr, lower_grammar, lower_precedence, parse_lang_spec,
    render_conflict_report, trace_all, trace_conflict,
)
from langcc import conflicts
from langcc.conflicts import dedup_sites
from langcc.lexer import EOF_TERMINAL
from langcc.lr import dump_lr

from conftest import load_grammar
from test_lr import _small_grammars, _small_source


def _tables(name, k=1):
    spec = parse_lang_spec(load_grammar(name))
    return build_lr(lower_precedence(spec, lower_grammar(spec)), k)


def meta_noprec_source():
    """meta.lang without its prec stanza: a grammar whose tables conflict."""
    source, n = re.subn(r"\n    prec \{.*?\n    \}\n", "\n", load_grammar("meta.lang"),
                        count=1, flags=re.S)
    assert n == 1
    return source


def _meta_noprec_tables(k):
    spec = parse_lang_spec(meta_noprec_source())
    return build_lr(lower_precedence(spec, lower_grammar(spec)), k)


def test_calc_noprec_exemplar_matches_worked_example():
    tables = _tables("calc_noprec.lang")
    exemplars = trace_all(tables)
    ex = [e for e in exemplars if e.action_left == "Reduce(Expr -> Expr X0 Expr)"][0]
    assert ex.prefix_symbols == ["Expr", "X0=(`+` | `-`)", "Expr"]
    assert ex.prefix_terminals == ["id", "`+`", "id"]
    assert ex.action_right == "Shift"
    assert ex.lookahead == ("`+`",)
    # both completions extend id + id into id + id + id
    assert ex.completion_left == ["`+`", "id"]
    assert ex.completion_right == ["`+`", "id"]


def test_ab_eps_exemplar():
    tables = _tables("ab_eps.lang")
    exemplars = trace_all(tables)
    assert len(exemplars) == 1
    ex = exemplars[0]
    assert ex.prefix_symbols == []
    assert ex.lookahead == ("`a`",)
    assert ex.action_left == "Reduce(A -> %empty)"
    assert ex.action_right == "Shift"
    assert ex.completion_left == ["`a`"]
    assert ex.completion_right == ["`a`", "`a`"]


def _reduce_closure(tables, stacks, la_choices):
    seen = set(stacks)
    work = list(stacks)
    while work:
        stack = work.pop()
        for la in la_choices:
            for act in tables.action.get((stack[-1], la), ()):
                if act[0] != "reduce":
                    continue
                prod = tables.prods[act[1]]
                n = len(prod.rhs)
                if n >= len(stack):
                    continue
                rest = stack[: len(stack) - n]
                target = tables.goto.get((rest[-1], ("n", prod.lhs)))
                if target is None:
                    continue
                ns = rest + (target,)
                if ns not in seen:
                    seen.add(ns)
                    work.append(ns)
    return seen


def _consume(tables, stacks, tok):
    """Nondeterministic single-token step: reduce closure, then shift."""
    out = set()
    for stack in _reduce_closure(tables, stacks, [(tok,)]):
        for act in tables.action.get((stack[-1], (tok,)), ()):
            if act[0] == "shift":
                out.add(stack + (act[1],))
    return out


def test_prefix_replay_reaches_conflict_state():
    tables = _tables("calc_noprec.lang")
    for site in dedup_sites(tables):
        ex = trace_conflict(tables, site)
        toks = []
        for cell in ex.prefix_terminals:
            toks.extend(t for t in cell.split(" ") if t)
        stacks = {(tables.starts[m],) for m in tables.starts}
        for tok in toks:
            stacks = _consume(tables, stacks, tok)
            assert stacks, (site.state, toks)
        closed = _reduce_closure(tables, stacks, [site.lookahead])
        assert site.state in {s[-1] for s in closed}, (site.state, toks)


def test_minimality_no_shorter_prefix():
    """Exhaustive BFS over shorter terminal strings: none reaches the site."""
    import itertools

    tables = _tables("calc_noprec.lang")
    terminals = sorted(tables.ig.cfg.terminals)
    la_all = [(t,) for t in terminals] + [(EOF_TERMINAL,)]
    for site in dedup_sites(tables):
        ex = trace_conflict(tables, site)
        total = sum(len([t for t in cell.split(" ") if t])
                    for cell in ex.prefix_terminals)
        if total == 0:
            continue
        for n in range(total):
            for toks in itertools.product(terminals, repeat=n):
                stacks = {(tables.starts[m],) for m in tables.starts}
                for tok in toks:
                    stacks = _consume(tables, stacks, tok)
                    if not stacks:
                        break
                closed = _reduce_closure(tables, stacks, la_all)
                assert site.state not in {s[-1] for s in closed}, (site.state, toks)


def test_render_zero_exemplars_empty():
    assert render_conflict_report([]) == ""


def test_render_headers_and_action_row():
    tables = _tables("calc_noprec.lang")
    exemplars = trace_all(tables)
    report = render_conflict_report(exemplars[:2])
    assert "===== LR conflict 1 of 2" in report
    assert "===== LR conflict 2 of 2" in report
    t1 = _tables("calc_noprec.lang")
    single = render_conflict_report(trace_all(t1)[:1])
    assert "===== LR conflict 1 of 1" in single


def test_reduce_and_shift_share_a_row():
    tables = _tables("calc_noprec.lang")
    report = render_conflict_report(trace_all(tables))
    line = [l for l in report.split("\n") if "Reduce(Expr -> Expr X0 Expr)" in l][0]
    assert "Shift" in line


def test_no_conflicts_no_sites():
    tables = _tables("calc.lang")
    assert dedup_sites(tables) == []


def test_budget_exceeded_reported_not_dropped():
    tables = _tables("calc_noprec.lang")
    site = dedup_sites(tables)[0]
    ex = trace_conflict(tables, site, budget=1)
    assert ex.budget_exceeded
    assert "<budget exceeded>" in ex.completion_left + ex.completion_right
    report = render_conflict_report([ex])
    assert "budget exceeded" in report


# each A -> A A `b` step deepens the stack, and no completion is short
_DEEP_STACKS = _small_source(["    S.P0 <- A `c` `b`;", "    S.P1 <- S `a`;",
                              "    A.P2 <- A A `b`;", "    A.P3 <- eps;", "    A.P4 <- eps;"])


def test_completion_search_memory_grows_linearly_with_budget():
    spec = parse_lang_spec(_DEEP_STACKS)
    tables = build_lr(lower_precedence(spec, lower_grammar(spec)), 1)
    trace_all(tables, 10)  # what is built once, outside the measurement
    peaks = []
    for budget in (1000, 2000):
        # a full collection empties the free lists, which would otherwise
        # serve more of one run's allocations than of the other's
        gc.collect()
        tracemalloc.start()
        try:
            exemplars = trace_all(tables, budget)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert exemplars and all(ex.budget_exceeded for ex in exemplars)
    assert peaks[1] < 2.5 * peaks[0], peaks


def test_terminal_rows_derive_from_symbol_rows():
    # reference derivation check: each concrete cell is a sentence of its
    # symbol cell under the instance grammar
    from langcc.conflicts import _TraceContext
    from oracle import earley_accepts

    tables = _tables("calc_noprec.lang")
    ctx = _TraceContext(tables)
    for site in dedup_sites(tables):
        ex = trace_conflict(tables, site, ctx=ctx)
        _root, keys = ctx.path_keys(site.state)
        assert len(keys) == len(ex.prefix_terminals)
        for key, cell in zip(keys, ex.prefix_terminals):
            toks = [t for t in cell.split(" ") if t]
            if key[0] == "t":
                assert toks == [key[1]]
            else:
                assert earley_accepts(tables.ig, key[1], toks), (key, toks)


def test_trace_all_builds_one_context(monkeypatch):
    built = []

    class Counted(conflicts._TraceContext):
        def __init__(self, tables):
            built.append(tables)
            super().__init__(tables)

    monkeypatch.setattr(conflicts, "_TraceContext", Counted)
    for name, k in (("calc_noprec.lang", 1), ("calc_noprec.lang", 2), ("ab_eps.lang", 1)):
        tables = _tables(name, k)
        built.clear()
        assert trace_all(tables)
        assert built == [tables]


def test_dedup_sites_with_or_without_context():
    tables = _tables("calc_noprec.lang")
    ctx = conflicts._TraceContext(tables)
    assert dedup_sites(tables) == dedup_sites(tables, ctx)


def test_tracer_and_dump_read_the_masks_not_the_cell_view():
    # LrTables.action is built on its first read; neither reads it
    for tables in (_tables("calc_noprec.lang", 1), _tables("calc_noprec.lang", 2),
                   _tables("ab_eps.lang", 2), _meta_noprec_tables(1)):
        assert dump_lr(tables)
        assert "action" not in vars(tables)
        assert render_conflict_report(trace_all(tables)) or not tables.conflicts
        assert "action" not in vars(tables)


def test_prec_less_meta_lr2_report_matches_pin():
    report = render_conflict_report(trace_all(_meta_noprec_tables(2)))
    assert report.count("===== LR conflict ") == 6
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == (
        "95228556389c59a133b51d35008cf79c0ac1f8f5a59ab69b254f4f042cf726de")


def test_next_terminals_are_the_lookahead_continuations():
    for name, k in (("calc_noprec.lang", 1), ("calc_noprec.lang", 2), ("ab_eps.lang", 2)):
        tables = _tables(name, k)
        nexts = conflicts._TraceContext(tables).next_terminals
        assert not nexts  # each state's are made when first asked for
        las = {}
        for state, la in tables.action:
            las.setdefault(state, []).append(la)
            assert all(la[:i] in nexts[state] for i in range(k))
        for state in range(len(tables.acts)):
            for q, ts in nexts[state].items():
                assert set(ts) == {la[len(q)] for la in las[state] if la[:len(q)] == q}
                # sorted with $ last, and nothing but $ after a $
                assert list(ts) == (sorted(set(ts) - {EOF_TERMINAL})
                                    + [EOF_TERMINAL] * (EOF_TERMINAL in ts))
                if q and q[-1] == EOF_TERMINAL:
                    assert ts == (EOF_TERMINAL,)


# B derives no terminal string, so no input gets past it into C and D: both
# conflicts, between reducing a D and shifting `a`, are in unreachable states
UNREACHABLE_CONFLICTS = """
tokens { top <= `a` | `b`; }
lexer { main { body } mode body { top => { emit; } eof => { pop; } } }
parser {
    main { S }
    S.One <- `a`;
    S.Two <- x:B y:C;
    B.Loop <- `b` z:B;
    C.X <- `a`;
    C.Y <- `a` `a`;
    C.Z <- w:D `a`;
    D.E <- eps;
    D.F <- `a`;
}
"""


def test_conflict_no_input_reaches_is_reported_unreachable():
    spec = parse_lang_spec(UNREACHABLE_CONFLICTS)
    tables = build_lr(lower_precedence(spec, lower_grammar(spec)), 1)
    exemplars = trace_all(tables)
    assert exemplars and all(ex.unreachable for ex in exemplars)
    ex = exemplars[0]
    assert (ex.prefix_symbols, ex.action_left, ex.action_right) == (
        [], "Reduce(D -> %empty)", "Shift")
    assert ex.completion_left == ex.completion_right == ["<unreachable>"]
    assert "(no input reaches state %d:" % ex.state in render_conflict_report(exemplars)


# -- the completion search against the one that expanded every terminal -------

_complete = conflicts._complete  # kept before _trace_with patches the module


def _counting_pops(config_of, pops):
    """heappop that adds each popped configuration to `pops`; the set's size
    is then what the search counted against its budget."""
    def pop(heap):
        entry = heapq.heappop(heap)
        pops.add(config_of(entry))
        return entry
    return pop


def _new_search(ctx, stack, queue, budget, pops):
    with mock.patch.object(conflicts, "heappop", _counting_pops(lambda e: e[3:], pops)):
        return _complete(ctx, stack, queue, budget)


def _reference_search(ctx, stack, queue, budget, pops):
    counting = types.SimpleNamespace(heappush=heapq.heappush,
                                     heappop=_counting_pops(lambda e: e[3], pops))
    with mock.patch.object(oracle, "heapq", counting):
        return oracle.reference_complete(ctx.tables, stack, queue, budget,
                                         sorted(ctx.tables.ig.cfg.terminals))


def _trace_with(search, tables, budget):
    """The report of trace_all with `search` as its completion search, and
    per search (suffix, distinct configurations popped)."""
    searches = []

    def complete(ctx, stack, queue, budget):
        pops = set()
        suffix = search(ctx, stack, queue, budget, pops)
        searches.append((suffix, len(pops)))
        return suffix

    with mock.patch.object(conflicts, "_complete", complete):
        report = render_conflict_report(trace_all(tables, budget))
    return report, searches


@settings(max_examples=100, deadline=None)
@given(_small_grammars())
def test_completion_search_matches_reference(source):
    spec = parse_lang_spec(source)
    cfg = lower_precedence(spec, lower_grammar(spec))
    for k in (1, 2):
        tables = build_lr(cfg, k)
        if not tables.conflicts:
            continue
        for budget in (5, 50, 2000):
            report, searches = _trace_with(_new_search, tables, budget)
            want, ref_searches = _trace_with(_reference_search, tables, budget)
            assert len(searches) == len(ref_searches)
            for (suffix, pops), (ref_suffix, ref_pops) in zip(searches, ref_searches):
                assert pops <= ref_pops
                if ref_suffix is not None:
                    assert suffix == ref_suffix
            if all(ref_suffix is not None for ref_suffix, _pops in ref_searches):
                assert report == want
