"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see them)."""

import itertools
import random
import time

import langcc
from langcc import datacc as D
from langcc.cli import cmd_langcc
from langcc.lexer import LexAmbiguity, Nfa, Tag, _subset_construct

from conftest import load_grammar
from oracle import earley_accepts, nfa_simulate
from test_lexer import _all_strings, _random_regex

RESULTS = []


def _record(name, ok):
    line = "%s: %s" % ("PASS" if ok else "FAIL", name)
    RESULTS.append(line)
    print(line)
    assert ok, name


def test_criterion_1_calc_pipeline(calc):
    t0 = time.time()
    result = langcc.compile_lang(load_grammar("calc.lang"))
    assert result.ok and result.k_used == 1 and not result.tables.conflicts
    res = langcc.parse(result.compiled, "7 + (5 + / 3)")
    elapsed = time.time() - t0
    block_ok = (res.err.message == "Unexpected token: `/`"
                and res.err.location_block == (
                    "Line 1, column 10:\n\n  7 + (5 + / 3)\n           ^    \n"))
    _record("1 calc pipeline (conflict-free k=1, byte-exact error block, <1s)",
            block_ok and elapsed < 1.0)


def test_criterion_2_conflict_exemplar(calc_noprec):
    assert not calc_noprec.ok
    exemplars = langcc.trace_all(calc_noprec.tables)
    report = langcc.render_conflict_report(exemplars)
    target = [e for e in exemplars
              if e.action_left == "Reduce(Expr -> Expr X0 Expr)"
              and e.action_right == "Shift"]
    ok = (len(target) == 1
          and target[0].lookahead == ("`+`",)
          and target[0].prefix_terminals == ["id", "`+`", "id"]
          and "Reduce(Expr -> Expr X0 Expr)" in report
          and "Shift" in report)
    _record("2 conflict exemplar (Reduce(Expr -> Expr X0 Expr) vs Shift on `+`)", ok)


def test_criterion_3_lrk_discrimination(ab_eps):
    results = dict()
    for decl, passed in langcc.run_compile_tests(ab_eps):
        results[(decl.k, decl.expect_success)] = passed
    ok = results.get((1, False)) and results.get((2, True))
    from conftest import GOLDEN
    from langcc import build_lr, dump_lr
    golden = (GOLDEN / "ab_eps_lr2.txt").read_text(encoding="utf-8")
    ok = ok and dump_lr(build_lr(ab_eps.cfg, 2)) == golden
    _record("3 LR(k) discrimination (!LR(1); LR(2); golden item sets)", bool(ok))


def test_criterion_4_roundtrip_suite(calc, parens, sum_list, calc_prog, meta,
                                     ab_eps, rd_tiny):
    ok = True
    for result in (calc, parens, sum_list, calc_prog, meta, ab_eps, rd_tiny):
        for t in result.spec.parse_tests:
            if t.expected_fail_offset is not None:
                res = langcc.parse(result.compiled, t.input)
                ok = ok and not res.is_success() \
                    and res.err.bounds[0] == t.expected_fail_offset
            elif not t.skip_roundtrip:
                good, _off = langcc.roundtrip_check(result.compiled, t.input)
                ok = ok and good
    _record("4 round-trip suite (all fixture test strings; ## offsets exact)", ok)


def test_criterion_5_oracle_equivalence(parens, sum_list, ab_eps):
    t0 = time.time()
    ok = True
    cases = [(parens, ["`(`", "`)`"]), (sum_list, ["`a`", "`+`"]),
             (ab_eps, ["`a`"])]
    for result, terminals in cases:
        ig = langcc.expand_instances(result.cfg)
        start = result.cfg.mains[0]
        k = result.compiled.k
        for n in range(9):
            for toks in itertools.product(terminals, repeat=n):
                want = earley_accepts(ig, start, list(toks))
                got = _drive_tables(result.compiled, list(toks))
                if got != want:
                    ok = False
    elapsed = time.time() - t0
    _record("5 oracle equivalence (3 grammars, strings len<=8, %.1fs < 60s)"
            % elapsed, ok and elapsed < 60)


def _drive_tables(compiled, tokens):
    from langcc.lexer import EOF_TERMINAL

    k = compiled.k
    terms = list(tokens) + [EOF_TERMINAL] * k
    states = [compiled.starts[compiled.default_start]]
    pos = 0
    for _guard in range(100000):
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
            if prod[1]:
                del states[len(states) - prod[1]:]
            target = compiled.goto_rows[states[-1]].get(prod[2])
            if target is None:
                return False
            states.append(target)
        else:
            return False
    return False


def test_criterion_6_lexer_properties(calc):
    out = langcc.lex(calc.lexer, "01")
    two_ints = [(t.terminal, t.text) for t in out.tokens] == [
        ("int_lit", "0"), ("int_lit", "1")]

    ambiguous_src = """
tokens { top <= `z`; }
lexer { main { body } mode body { `a` => { emit; } `a`..`b` => { pass; } eof => { pop; } } }
parser { main { S } S.One <- `z`; }
"""
    try:
        langcc.compile_lexer(langcc.parse_lang_spec(ambiguous_src))
        witness_ok = False
    except LexAmbiguity as e:
        witness_ok = e.witness == "a"

    rng = random.Random(20260810)
    strings = _all_strings("ab", 6)
    equiv = True
    for _ in range(500):
        regex = _random_regex(rng, rng.randrange(1, 5))
        nfa = Nfa()
        end = nfa.add_regex(regex, nfa.start, {})
        nfa.accepts[end] = Tag(0, None, False, False)
        dfa = _subset_construct("m", nfa)
        for s in strings:
            state = dfa.start
            alive = True
            for ch in s:
                state = dfa.step(state, ord(ch))
                if state < 0:
                    alive = False
                    break
            got = alive and dfa.accepts[state] is not None
            if got != (nfa_simulate(nfa, s) is not None):
                equiv = False
    _record("6 lexer properties (maximal munch, ambiguity witness, 500-case "
            "NFA/DFA equivalence)", two_ints and witness_ok and equiv)


def test_criterion_7_bootstrap_fixpoint():
    src = load_grammar("meta.lang")
    line_count = len(src.rstrip("\n").split("\n"))
    ok, detail = langcc.bootstrap_check(src)
    result = langcc.compile_lang(src)
    _record("7 bootstrap fixpoint (meta.lang %d lines <= 250, conflict-free, "
            "fixpoint)" % line_count,
            ok and result.ok and line_count <= 250)


def test_criterion_8_determinism(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    d1.mkdir()
    d2.mkdir()
    from conftest import GRAMMARS
    import io
    import contextlib

    def run(gen):
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf):
            rc = cmd_langcc(str(GRAMMARS / "calc.lang"), str(gen))
        return rc, buf.getvalue().replace(str(gen), "<gen>")

    rc1, rep1 = run(d1)
    rc2, rep2 = run(d2)
    ok = (rc1 == rc2 == 0
          and (d1 / "calc.clang").read_bytes() == (d2 / "calc.clang").read_bytes()
          and rep1 == rep2)
    _record("8 determinism (byte-identical artifacts and reports)", ok)


def test_criterion_9_datacc_properties():
    schema = D.parse_data_spec("""
data Expr {
    Id { name: string; }
    Num { val: integer; }
    Bin { xs: [Expr]; note: string?; flag: boolean; }
}
""")
    rng = random.Random(99)

    def rand_value(depth=0):
        kind = rng.randrange(4 if depth < 3 else 2)
        if kind == 0:
            return D.make_value(schema, "Expr::Id", {"name": rng.choice("ab") * rng.randrange(1, 3)})
        if kind == 1:
            return D.make_value(schema, "Expr::Num", {"val": rng.randrange(50)})
        xs = tuple(rand_value(depth + 1) for _ in range(rng.randrange(3)))
        return D.make_value(schema, "Expr::Bin",
                            {"xs": xs, "note": rng.choice([None, "n"]),
                             "flag": rng.random() < 0.5})

    corpus = [rand_value() for _ in range(1000)]
    ok = True
    for v in corpus:
        w = D.DataValue(v.type_path, v.names, v.values)  # structural copy
        if not (v == w and D.value_hash(v) == D.value_hash(w)):
            ok = False
    num = D.make_value(schema, "Expr::Num", {"val": 1})
    ok = ok and D.downcast(schema, num, "Expr") is num
    ok = ok and D.downcast(schema, num, "Expr::Id") is None
    fresh = D.make_value(schema, "Expr::Num", {"val": 123456})
    n0 = D.hash_computation_count()
    D.value_hash(fresh)
    n1 = D.hash_computation_count()
    D.value_hash(fresh)
    n2 = D.hash_computation_count()
    ok = ok and (n1 > n0) and (n2 == n1)
    _record("9 datacc properties (1000-value hash corpus, downcast, cached "
            "hashing observable)", ok)


def test_criterion_10_scaling_smoke(calc_prog):
    def program(n):
        return "\n".join("x%d = %d + %d * 2;" % (i, i, i) for i in range(n))[:-1]

    def time_parse(n):
        text = program(n)
        best = None
        for _ in range(3):
            t0 = time.time()
            res = langcc.parse(calc_prog.compiled, text)
            elapsed = time.time() - t0
            assert res.is_success()
            best = elapsed if best is None else min(best, elapsed)
        return best

    time_parse(1000)  # warm caches
    t_n = time_parse(5000)
    t_2n = time_parse(10000)
    ratio = t_2n / t_n if t_n > 0 else 0.0
    _record("10 scaling smoke (2N/N parse-time ratio %.2f < 3 at N=5000)" % ratio,
            ratio < 3.0)


def test_criterion_10_single_line_linear(calc_prog):
    # every statement on one line: per-token parse time must not grow with the
    # line's length (positions stay byte offsets; no per-token line decoding)
    def program(n):
        return " ".join("x%d = %d + %d * 2;" % (i, i, i) for i in range(n))[:-1]

    n = 800
    texts = [program(n), program(8 * n)]
    tokens = [len(langcc.lex(calc_prog.lexer, text).tokens) for text in texts]
    best = [float("inf"), float("inf")]
    for _ in range(3):
        for i, text in enumerate(texts):  # interleaved, so host speed swings hit both
            t0 = time.perf_counter()
            res = langcc.parse(calc_prog.compiled, text)
            best[i] = min(best[i], time.perf_counter() - t0)
            assert res.is_success()
    ratio = (best[1] / tokens[1]) / (best[0] / tokens[0])
    _record("10b single-line scaling (8N/N per-token parse-time ratio %.2f < 1.8 "
            "at N=%d)" % (ratio, n), ratio < 1.8)


def test_zzz_summary():
    print()
    print("=" * 64)
    for line in RESULTS:
        print(line)
    print("=" * 64)
