import hashlib
import runpy

import pytest

from langcc import compile_lang
from langcc.cli import cmd_datacc, cmd_langcc, main_datacc, main_langcc, run_test_stanza
from langcc.spec_ast import Loc, SpecError

from conftest import GRAMMARS, load_grammar
from test_conflicts import UNREACHABLE_CONFLICTS, meta_noprec_source
from test_datacc import nested_cases
from test_lr import _UNPRODUCTIVE, _small_source


def _lang(tmp_path, name="calc.lang"):
    return str(GRAMMARS / name)


def test_langcc_success_writes_artifacts(tmp_path, capsys):
    rc = cmd_langcc(_lang(tmp_path), str(tmp_path))
    captured = capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "calc.clang").exists()
    assert (tmp_path / "calc.ast.schema").exists()
    assert "pass: compile_test LR(1)" in captured.err


def test_langcc_conflicts_exit_1_no_artifacts(tmp_path, capsys):
    rc = cmd_langcc(_lang(tmp_path, "calc_noprec.lang"), str(tmp_path))
    captured = capsys.readouterr()
    assert rc == 1
    assert "===== LR conflict" in captured.err
    assert "Reduce(Expr -> Expr X0 Expr)" in captured.err
    assert not (tmp_path / "calc_noprec.clang").exists()


def test_langcc_conflicts_out_file(tmp_path):
    out = tmp_path / "conflicts.txt"
    rc = cmd_langcc(_lang(tmp_path, "calc_noprec.lang"), str(tmp_path),
                    conflicts_out=str(out))
    assert rc == 1
    assert "===== LR conflict 1 of" in out.read_text()


def test_langcc_missing_gen_dir_is_usage_error(tmp_path, capsys):
    rc = cmd_langcc(_lang(tmp_path), str(tmp_path / "nope"))
    assert rc == 2


def test_langcc_missing_input(tmp_path):
    rc = cmd_langcc(str(tmp_path / "missing.lang"), str(tmp_path))
    assert rc == 2


NOT_UTF8 = b"data A { x: \xff; }\n"


def test_langcc_spec_not_utf8_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.lang"
    bad.write_bytes(NOT_UTF8)
    assert cmd_langcc(str(bad), str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("langcc: cannot read %s: " % bad)


@pytest.mark.parametrize("mode", ["--parse", "--format"])
def test_langcc_input_not_utf8_is_usage_error(tmp_path, capsys, mode):
    bad = tmp_path / "in.txt"
    bad.write_bytes(b"1 + \xe9")
    rc = main_langcc([_lang(tmp_path), str(tmp_path), "--no-test", mode, str(bad)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "langcc: cannot read %s: " % bad)


def test_datacc_spec_not_utf8_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.data"
    bad.write_bytes(NOT_UTF8)
    assert cmd_datacc(str(bad), str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("datacc: cannot read %s: " % bad)


def test_langcc_diagnostic_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.lang"
    bad.write_text("""
tokens { a <= b; b <= a; top <= `x`; }
lexer { main { body } mode body { top => { emit; } eof => { pop; } } }
parser { main { S } S.One <- `x`; }
""")
    rc = cmd_langcc(str(bad), str(tmp_path))
    captured = capsys.readouterr()
    assert rc == 1
    assert "bad.lang:" in captured.err and "cyclic" in captured.err


@pytest.mark.parametrize("body, where", [
    ("parser { main { S }\n  S.One <- `x`;\n  S.One <- `x` `x`; }",
     ":5:3: duplicate rule S.One"),
    ("parser { main { S }\n  S.One <- `x` ; ; }",
     ":4:18: Unexpected token: `;` (expected `attr`, `main`, `prec`, `prop`, `}` or id)"),
])
def test_langcc_diagnostic_names_path_line_and_column(tmp_path, capsys, body, where):
    bad = tmp_path / "bad.lang"
    bad.write_text("tokens { top <= `x`; }\n"
                   "lexer { main { body } mode body { top => { emit; } eof => { pop; } } }\n"
                   + body)
    rc = cmd_langcc(str(bad), str(tmp_path))
    assert rc == 1
    assert capsys.readouterr().err == str(bad) + where + "\n"


def test_langcc_rule_that_is_a_parent_of_others_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.lang"
    bad.write_text("tokens { top <= `a` | `b`; }\n"
                   "lexer { main { body } mode body { top => { emit; } eof => { pop; } } }\n"
                   "parser { main { S }\n  S.A <- `a`;\n  S.A.B <- `b`; }\n")
    gen = tmp_path / "gen"
    gen.mkdir()
    assert cmd_langcc(str(bad), str(gen)) == 1
    assert capsys.readouterr().err == (
        "%s:4:3: variant S.A is both a rule and a parent of other variants\n" % bad)
    assert list(gen.iterdir()) == []


@pytest.mark.parametrize("body, message", [
    ("x:#Alt[A:`a`]? `b`", "an #Alt cannot be optional"),
    ("x:#Alt[A:`a`]* `b`", "list element must not be an #Alt"),
    ("x:#Alt[A:`a`]+ `b`", "list element must not be an #Alt"),
    ("x:#L[#Alt[A:`a`]::`b`]", "list element must not be an #Alt"),
])
def test_alt_inside_an_option_or_a_list_is_a_diagnostic(tmp_path, capsys, body, message):
    src = ("tokens { top <= `a` | `b`; }\n"
           "lexer { main { body } mode body { top => { emit; } eof => { pop; } } }\n"
           "parser { main { S }\n  S.S <- %s; }\n" % body)
    with pytest.raises(SpecError) as e:
        compile_lang(src)
    assert (e.value.message, e.value.loc) == ("rule S.S: " + message, Loc(4, 3))
    bad = tmp_path / "bad.lang"
    bad.write_text(src)
    assert cmd_langcc(str(bad), str(tmp_path)) == 1
    assert capsys.readouterr().err == "%s:4:3: rule S.S: %s\n" % (bad, message)


def test_langcc_artifact_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    assert cmd_langcc(_lang(tmp_path), str(d1), no_test=True) == 0
    assert cmd_langcc(_lang(tmp_path), str(d2), no_test=True) == 0
    assert (d1 / "calc.clang").read_bytes() == (d2 / "calc.clang").read_bytes()


def test_langcc_reports_deterministic(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    assert cmd_langcc(_lang(tmp_path), str(out)) == 0
    first = capsys.readouterr().err
    assert cmd_langcc(_lang(tmp_path), str(out)) == 0
    second = capsys.readouterr().err
    assert first == second


def test_langcc_parse_and_format(tmp_path, capsys):
    src = tmp_path / "input.calc"
    src.write_text("x=1+2")
    rc = cmd_langcc(_lang(tmp_path), str(tmp_path), no_test=True,
                    format_file=str(src))
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "x = 1 + 2"
    rc = cmd_langcc(_lang(tmp_path), str(tmp_path), no_test=True,
                    parse_file=str(src))
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("Stmt::Assign{")


def test_langcc_parse_failure_prints_block(tmp_path, capsys):
    src = tmp_path / "input.calc"
    src.write_text("7 + (5 + / 3)")
    rc = cmd_langcc(_lang(tmp_path), str(tmp_path), no_test=True,
                    parse_file=str(src))
    captured = capsys.readouterr()
    assert rc == 1
    assert "Parse error: Unexpected token: `/`" in captured.err
    assert "Line 1, column 10:" in captured.err


def test_langcc_dumps(tmp_path, capsys):
    rc = cmd_langcc(_lang(tmp_path), str(tmp_path), no_test=True,
                    dump_grammar_flag=True, dump_lexer_flag=True, dump_lr_flag=True)
    captured = capsys.readouterr()
    assert rc == 0
    assert "Stmt.Assign -> Expr" in captured.out
    assert "mode body" in captured.out
    assert "state 0:" in captured.out


def test_langcc_embedded_test_failure_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.lang"
    bad.write_text("""
tokens { top <= `a`; }
lexer { main { body } mode body { top => { emit; } eof => { pop; } } }
parser { main { S } S.One <- `a`; }
test { `aa`; }
""")
    rc = cmd_langcc(str(bad), str(tmp_path))
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL" in captured.err
    # artifacts were still emitted before the tests ran
    assert (tmp_path / "bad.clang").exists()


def test_run_test_stanza_reports(calc):
    report = run_test_stanza(calc.compiled, calc.spec.parse_tests)
    assert report.failures == 0
    assert any("fails at the marked offset" in line for line in report.lines)
    assert any("round-trip skipped" in line for line in report.lines)


def test_datacc_roundtrip(tmp_path, capsys):
    data = tmp_path / "shapes.data"
    data.write_text("data Color { Red; Green; Blue; }\ndata P { x: integer; c: Color; }\n")
    rc = cmd_datacc(str(data), str(tmp_path))
    captured = capsys.readouterr()
    assert rc == 0
    out = (tmp_path / "shapes.schema").read_text()
    assert "data Color {" in out
    assert "3 case(s)" in captured.err
    from langcc import parse_data_spec
    assert parse_data_spec(out) == parse_data_spec(data.read_text())


def test_datacc_case_bodies_of_any_depth(tmp_path, capsys):
    data = tmp_path / "deep.data"
    data.write_text(nested_cases(1200))
    assert cmd_datacc(str(data), str(tmp_path)) == 0
    assert "(1 type(s), 2400 case(s))" in capsys.readouterr().err


def test_datacc_unresolved_exit_1(tmp_path, capsys):
    data = tmp_path / "bad.data"
    data.write_text("data A { x: Foo; }")
    assert cmd_datacc(str(data), str(tmp_path)) == 1
    assert "unresolved" in capsys.readouterr().err


def test_datacc_error_names_its_line_and_column(tmp_path, capsys):
    data = tmp_path / "bad.data"
    data.write_text("data A { x: B; }")
    assert cmd_datacc(str(data), str(tmp_path)) == 1
    assert capsys.readouterr().err == "%s:1:13: unresolved type reference 'B' (A.x)\n" % data
    assert not (tmp_path / "bad.schema").exists()


def test_datacc_missing_dir_exit_2(tmp_path):
    data = tmp_path / "ok.data"
    data.write_text("data A { x: integer; }")
    assert cmd_datacc(str(data), str(tmp_path / "nope")) == 2


def test_main_entry_points(tmp_path, capsys):
    rc = main_langcc([str(GRAMMARS / "sum_list.lang"), str(tmp_path), "--no-test"])
    assert rc == 0
    data = tmp_path / "t.data"
    data.write_text("data A { x: integer; }")
    assert main_datacc([str(data), str(tmp_path)]) == 0
    capsys.readouterr()


def test_ast_schema_artifact_parses(tmp_path):
    from langcc import parse_data_spec

    assert cmd_langcc(_lang(tmp_path), str(tmp_path), no_test=True) == 0
    schema_text = (tmp_path / "calc.ast.schema").read_text()
    schema = parse_data_spec(schema_text)
    assert "Expr" in schema.type_map()


def test_artifact_loads_and_parses(tmp_path):
    from langcc import parse
    from langcc.artifact import CompiledLang

    assert cmd_langcc(_lang(tmp_path), str(tmp_path), no_test=True) == 0
    loaded = CompiledLang.from_json((tmp_path / "calc.clang").read_text())
    assert loaded.to_json() == (tmp_path / "calc.clang").read_text()
    res = parse(loaded, "x = 1 + 2")
    assert res.is_success()
    # digest ties the artifact to its source
    import hashlib
    src = load_grammar("calc.lang")
    assert loaded.digest == hashlib.sha256(src.encode()).hexdigest()


def _count_cli_build_lr(monkeypatch):
    import langcc.cli

    calls = []
    real = langcc.cli.build_lr

    def counting(cfg, k):
        calls.append(k)
        return real(cfg, k)

    monkeypatch.setattr(langcc.cli, "build_lr", counting)
    return calls


def test_compile_test_reuses_tables_at_k_used(tmp_path, capsys, monkeypatch):
    calls = _count_cli_build_lr(monkeypatch)
    assert cmd_langcc(_lang(tmp_path), str(tmp_path)) == 0
    assert calls == []
    assert "pass: compile_test LR(1)" in capsys.readouterr().err


def test_compile_test_builds_other_k(tmp_path, capsys, monkeypatch):
    calls = _count_cli_build_lr(monkeypatch)
    assert cmd_langcc(_lang(tmp_path, "ab_eps.lang"), str(tmp_path)) == 0
    assert calls == []  # LR(1) is below k_used, so compile_lang saw it conflict
    err = capsys.readouterr().err
    assert "pass: compile_test !LR(1)" in err
    assert "pass: compile_test LR(2)" in err


def test_compile_test_builds_k_above_k_used(tmp_path, capsys, monkeypatch):
    lang = tmp_path / "one.lang"
    lang.write_text("""
tokens { top <= `a`; }
lexer { main { body } mode body { top => { emit; } eof => { pop; } } }
parser { main { S } S.One <- `a`; }
compile_test { LR(0); !LR(0); LR(1); LR(2); }
""")
    calls = _count_cli_build_lr(monkeypatch)
    assert cmd_langcc(str(lang), str(tmp_path)) == 1
    assert calls == [2]  # no k below 1 is built: it is never conflict-free
    err = capsys.readouterr().err
    assert "FAIL: compile_test LR(0)" in err
    assert "pass: compile_test !LR(0)" in err
    assert "pass: compile_test LR(1)" in err
    assert "pass: compile_test LR(2)" in err
    assert "langcc: 1 embedded test(s) failed" in err


# the SHA-256 of each conflict report, as pinned by the benchmark
# (perfbench/pins.py); prec-less meta.lang stops at LR(1) there too
@pytest.mark.parametrize("name, max_k, sha256", [
    ("calc_noprec.lang", 2, "6859dc78bee87bb0dc4a30af96b1fb8cf0190045d1171b7ef61fe19cbca07695"),
    ("meta_noprec.lang", 1, "9fbf80d54183a95592ff9ef4c34a2cdb72a655ae4df6728b9a150667ae74978f"),
])
def test_conflict_reports_match_pins(tmp_path, capsys, name, max_k, sha256):
    lang = tmp_path / name
    if name == "meta_noprec.lang":
        lang.write_text(meta_noprec_source(), encoding="utf-8")
    else:
        lang = GRAMMARS / name
    out = tmp_path / "report.txt"
    assert cmd_langcc(str(lang), str(tmp_path), max_k=max_k, conflicts_out=str(out)) == 1
    report = out.read_text(encoding="utf-8")
    err = capsys.readouterr().err
    assert report in err
    assert "warning:" not in err
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == sha256


def test_unproductive_nonterminal_warns(tmp_path, capsys):
    lang = tmp_path / "unprod.lang"
    lang.write_text(_small_source(["    S.P0 <- `a` B;", "    S.P1 <- `b`;",
                                   "    B.P2 <- B `a`;"]))
    assert cmd_langcc(str(lang), str(tmp_path)) == 0
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert "%s: warning: nonterminal B derives no terminal string\n" % lang in err
    assert (tmp_path / "unprod.clang").exists()


def test_unproductive_conflicted_grammar_warns_and_reports_as_before(tmp_path, capsys):
    lang = tmp_path / "unprod.lang"
    lang.write_text(_UNPRODUCTIVE)
    out = tmp_path / "report.txt"
    assert cmd_langcc(str(lang), str(tmp_path), conflicts_out=str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("%s: warning: nonterminal B derives no terminal string\n"
                          "%s: warning: nonterminal S derives no terminal string\n" % (lang, lang))
    assert err.count("warning:") == 2
    report = out.read_text(encoding="utf-8")
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == (
        "48c0b1975b3aeefb8e304f73c485f4415565514e9acf4fa23f301d12cadb7dd6")
    # after Reduce(A -> %empty) or Shift no input is accepted, and the search
    # ends at once: that is no completion, not an exceeded budget
    assert "budget exceeded" not in report
    assert "<no completion>" in report


# the SHA-256 of each conflict-free fixture's .clang, as pinned by the
# benchmark (perfbench/pins.py), and of its .ast.schema
CLANG_PINS = {name: pin["sha256"] for name, pin in runpy.run_path(
    str(GRAMMARS.parent / "perfbench" / "pins.py"))["LANGCC"].items() if pin["rc"] == 0}
AST_SCHEMA_SHA256 = {
    "ab_eps.lang": "cfb19720a5424a316cc5893992527edbcd9c5e9f90977e9c4f5ee999eecba0c4",
    "calc.lang": "95d9437da542badd0243a68d5772574f8c99b28fd5aff3ca6982b7ea17512932",
    "calc_prog.lang": "498dccc0aaada513a2e58ab1e4e86b76b76023ed0b8ced2696b55bd9bf4a7ba4",
    "meta.lang": "aa164b593d1dacda4ccccea2de068a3ea5ba9131ee0897f02c432cd68ae68084",
    "parens.lang": "dde92df3327105f075119c83241396ec4bac4eb105ba898530a5aad14b9de160",
    "rd_tiny.lang": "bc585e6ab8973f994aa2bedd94bcc92645421ff91c2e0ea55a2c6c7acbf61f86",
    "sum_list.lang": "4cb04ed805a8ddbfbc16c5ff9049ebd1670d33acea6be67c7fa5a5d65964ff5a",
}


@pytest.mark.parametrize("name", sorted(CLANG_PINS))
def test_fixture_artifacts_match_pins(tmp_path, capsys, name):
    assert cmd_langcc(str(GRAMMARS / name), str(tmp_path), no_test=True) == 0
    assert "warning:" not in capsys.readouterr().err
    stem = name[:-len(".lang")]
    for suffix, sha256 in [(".clang", CLANG_PINS[name]),
                           (".ast.schema", AST_SCHEMA_SHA256[name])]:
        written = (tmp_path / (stem + suffix)).read_bytes()
        assert hashlib.sha256(written).hexdigest() == sha256, suffix


def test_langcc_start_not_a_main_is_usage_error(tmp_path, capsys):
    text = tmp_path / "in.txt"
    text.write_text("1 + 2")
    rc = main_langcc([_lang(tmp_path), str(tmp_path), "--no-test", "--parse", str(text),
                      "--start", "Nope"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "langcc: --start: 'Nope' is not a main nonterminal (mains: Stmt, Expr)")


@pytest.mark.parametrize("mode", ["--parse", "--format"])
def test_langcc_bad_start_is_reported_before_artifacts_and_tests(tmp_path, capsys, mode):
    text = tmp_path / "in.txt"
    text.write_text("1 + 2")
    rc = main_langcc([_lang(tmp_path), str(tmp_path), mode, str(text), "--start", "Nope"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "langcc: --start: 'Nope' is not a main nonterminal (mains: Stmt, Expr)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt"]


def test_langcc_start_without_parse_or_format_is_usage_error(tmp_path, capsys):
    # rejected before the .lang file is read, so a missing one is not reported
    for lang in [_lang(tmp_path), str(tmp_path / "missing.lang")]:
        for start in ["Nope", "Stmt"]:
            assert main_langcc([lang, str(tmp_path), "--no-test", "--start", start]) == 2
            assert capsys.readouterr().err == "langcc: --start needs --parse or --format\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("max_k", [0, -1])
def test_langcc_max_k_below_one_is_usage_error(tmp_path, capsys, max_k):
    # rejected before the .lang file is read, so a missing one is not reported
    for lang in [_lang(tmp_path), str(tmp_path / "missing.lang")]:
        assert main_langcc([lang, str(tmp_path), "--max-k", str(max_k)]) == 2
        assert capsys.readouterr().err == (
            "langcc: --max-k: %d is not a positive integer\n" % max_k)
    assert list(tmp_path.iterdir()) == []


def test_compile_lang_max_k_below_one_is_a_value_error():
    # as build_lr's k: a max_k of 0 would try no k and return no tables
    with pytest.raises(ValueError, match="max_k must be >= 1"):
        compile_lang(load_grammar("calc.lang"), max_k=0)


def test_conflict_no_input_reaches_is_reported(tmp_path, capsys):
    lang = tmp_path / "a.lang"
    lang.write_text(UNREACHABLE_CONFLICTS)
    out = tmp_path / "report.txt"
    rc = main_langcc([str(lang), str(tmp_path), "--max-k", "1", "--conflicts-out", str(out)])
    assert rc == 1
    report = out.read_text()
    assert report.count("===== LR conflict") == report.count("(no input reaches state") == 2
    assert "<unreachable>" in report
    err = capsys.readouterr().err
    assert "has LR conflicts (reported 2)" in err
    assert not (tmp_path / "a.clang").exists()


# ---------------------------------------------------------------------------
# The langcc command pauses the cyclic collector and leaves it as it found it

@pytest.mark.parametrize("name, rc", [("calc.lang", 0), ("calc_noprec.lang", 1)])
@pytest.mark.parametrize("before", [True, False], ids=["on", "off"])
def test_langcc_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch,
                                                    name, rc, before):
    import gc

    import langcc.cli as cli

    seen = []  # whether the collector ran while writing or tracing

    def recorded(fn):
        def call(*args):
            seen.append(gc.isenabled())
            return fn(*args)
        return call

    monkeypatch.setattr(cli, "run_test_stanza", recorded(cli.run_test_stanza))
    monkeypatch.setattr(cli, "trace_all", recorded(cli.trace_all))
    gc.enable() if before else gc.disable()
    try:
        assert cmd_langcc(_lang(tmp_path, name), str(tmp_path)) == rc
        assert seen == [False]
        assert gc.isenabled() == before
        assert cmd_langcc(_lang(tmp_path, name), str(tmp_path / "missing")) == 2
        assert gc.isenabled() == before
    finally:
        gc.enable()
