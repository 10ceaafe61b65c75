"""Command line drivers: langcc and datacc.

Exit codes: 0 success (including all embedded tests), 1 conflicts / test
failures / diagnostics, 2 IO or usage errors.  Reports go to stderr,
artifacts to the gen path, debug dumps to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import datacc
from .artifact import collector_paused
from .compiled import CompiledLang, CompileResult, compile_lang
from .conflicts import render_conflict_report, trace_all
from .grammar import derive_ast_schema, dump_grammar
from .lexer import LexCompileError
from .lr import build_lr, dump_lr
from .printer import compare_printed, pretty_print
from .runtime import parse, render_node
from .spec_ast import SpecError


def _err(msg: str):
    print(msg, file=sys.stderr)


def _read(prog: str, path: str) -> Optional[str]:
    """The text of the UTF-8 file at path, or None once why it cannot be
    read is reported."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        _err("%s: cannot read %s: %s" % (prog, path, e))
        return None


class TestReport:
    """Outcomes of the compile_test and test stanzas of one language."""

    def __init__(self):
        self.lines: List[str] = []
        self.failures = 0

    def record(self, ok: bool, desc: str):
        self.lines.append("%s: %s" % ("pass" if ok else "FAIL", desc))
        if not ok:
            self.failures += 1

    def render(self) -> str:
        return "\n".join(self.lines)


def run_test_stanza(compiled: CompiledLang, tests, report: Optional[TestReport] = None
                    ) -> TestReport:
    """Success entries must parse and round-trip byte-exactly (unless marked
    <<>>); failure entries must fail with the offending token starting at the
    recorded ## offset.  A round trip prints the tree of the one parse."""
    report = report or TestReport()
    for i, t in enumerate(tests):
        desc = "test %d %r" % (i + 1, t.input if len(t.input) < 40 else t.input[:37] + "...")
        res = parse(compiled, t.input)
        if t.expected_fail_offset is not None:
            if res.is_success():
                report.record(False, desc + " (expected failure, parsed)")
            elif res.err.bounds[0] != t.expected_fail_offset:
                report.record(False, "%s (failed at %d, expected %d)"
                              % (desc, res.err.bounds[0], t.expected_fail_offset))
            else:
                report.record(True, desc + " (fails at the marked offset)")
            continue
        if not res.is_success():
            report.record(False, "%s (parse error: %s)" % (desc, res.err.message))
            continue
        if t.skip_roundtrip:
            report.record(True, desc + " (round-trip skipped)")
            continue
        ok, offset = compare_printed(t.input, pretty_print(compiled, res.result))
        if ok:
            report.record(True, desc + " (round-trip exact)")
        else:
            report.record(False, "%s (round-trip diverges at byte %d)" % (desc, offset))
    return report


def run_compile_tests(result: CompileResult) -> List[tuple]:
    """Each compile_test entry with whether it holds: LR(k) iff the grammar
    is LR(k) conflict-free, which no k below 1 is.  compile_lang stops at
    the first conflict-free k, so if it is ok every k below k_used had
    conflicts; any k it did not settle is built."""
    out = []
    for decl in result.spec.compile_tests:
        if decl.k < 1:
            conflict_free = False
        elif result.ok and decl.k <= result.k_used:
            conflict_free = decl.k == result.k_used
        else:
            conflict_free = not build_lr(result.cfg, decl.k).conflicts
        out.append((decl, conflict_free == decl.expect_success))
    return out


@collector_paused
def cmd_langcc(lang_path: str, gen_path: str, *, max_k: int = 2,
               dump_lexer_flag: bool = False, dump_grammar_flag: bool = False,
               dump_lr_flag: bool = False, conflicts_out: Optional[str] = None,
               parse_file: Optional[str] = None, start: Optional[str] = None,
               format_file: Optional[str] = None, no_test: bool = False) -> int:
    """The langcc command, under artifact.collector_paused; returns its
    exit code."""
    if max_k < 1:
        _err("langcc: --max-k: %d is not a positive integer" % max_k)
        return 2
    if start is not None and not (parse_file or format_file):
        _err("langcc: --start needs --parse or --format")
        return 2
    source = _read("langcc", lang_path)
    if source is None:
        return 2
    if not os.path.isdir(gen_path):
        _err("langcc: gen path %s is not a directory" % gen_path)
        return 2

    try:
        result = compile_lang(source, max_k=max_k)
    except (SpecError, LexCompileError) as e:
        if isinstance(e, SpecError) and e.loc is not None:
            _err("%s:%d:%d: %s" % (lang_path, e.loc.line, e.loc.col, e.message))
        else:
            _err("%s: %s" % (lang_path, e))
        return 1
    if start is not None and start not in result.cfg.mains:
        _err("langcc: --start: %r is not a main nonterminal (mains: %s)"
             % (start, ", ".join(result.cfg.mains)))
        return 2
    for name in sorted({inst.base for inst in result.tables.unproductive}
                       & result.cfg.ast_shape.keys()):
        _err("%s: warning: nonterminal %s derives no terminal string" % (lang_path, name))

    if dump_grammar_flag:
        sys.stdout.write(dump_grammar(result.cfg))
    if dump_lexer_flag:
        sys.stdout.write(result.lexer.dump())
    if dump_lr_flag:
        sys.stdout.write(dump_lr(result.tables))

    if not result.ok:
        exemplars = trace_all(result.tables)
        report = render_conflict_report(exemplars)
        _err(report)
        if conflicts_out:
            try:
                with open(conflicts_out, "w", encoding="utf-8") as f:
                    f.write(report)
            except OSError as e:
                _err("langcc: cannot write %s: %s" % (conflicts_out, e))
                return 2
        _err("langcc: %s has LR conflicts (reported %d)" % (lang_path, len(exemplars)))
        return 1

    compiled = result.compiled
    stem = os.path.splitext(os.path.basename(lang_path))[0]
    clang_path = os.path.join(gen_path, stem + ".clang")
    schema_path = os.path.join(gen_path, stem + ".ast.schema")
    schema_text = datacc.schema_render(derive_ast_schema(result.cfg))
    try:
        with open(clang_path, "w", encoding="utf-8") as f:
            f.write(compiled.to_json())
        with open(schema_path, "w", encoding="utf-8") as f:
            f.write(schema_text)
    except OSError as e:
        _err("langcc: cannot write artifacts: %s" % e)
        return 2
    _err("langcc: compiled %s at k=%d -> %s" % (lang_path, result.k_used, clang_path))

    status = 0
    if not no_test:
        report = TestReport()
        for decl, ok in run_compile_tests(result):
            report.record(ok, "compile_test %sLR(%d)"
                          % ("" if decl.expect_success else "!", decl.k))
        run_test_stanza(compiled, result.spec.parse_tests, report)
        if report.lines:
            _err(report.render())
        if report.failures:
            _err("langcc: %d embedded test(s) failed" % report.failures)
            status = 1

    if parse_file or format_file:
        path = parse_file or format_file
        text = _read("langcc", path)
        if text is None:
            return 2
        res = parse(compiled, text, start)
        if not res.is_success():
            _err("Parse error: %s" % res.err)
            return 1
        if format_file:
            sys.stdout.write(pretty_print(compiled, res.result))
        else:
            sys.stdout.write(render_node(res.result) + "\n")
    return status


def cmd_datacc(data_path: str, gen_path: str) -> int:
    source = _read("datacc", data_path)
    if source is None:
        return 2
    if not os.path.isdir(gen_path):
        _err("datacc: gen path %s is not a directory" % gen_path)
        return 2
    try:
        schema = datacc.parse_data_spec(source)
    except SpecError as e:
        _err("%s:%d:%d: %s" % (data_path, e.loc.line, e.loc.col, e.message))
        return 1
    stem = os.path.splitext(os.path.basename(data_path))[0]
    out_path = os.path.join(gen_path, stem + ".schema")
    try:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(datacc.schema_render(schema))
    except OSError as e:
        _err("datacc: cannot write %s: %s" % (out_path, e))
        return 2
    n_types = len(schema.types)
    n_cases = sum(_count_cases(d) for _n, d in schema.types)
    _err("datacc: %s -> %s (%d type(s), %d case(s))"
         % (data_path, out_path, n_types, n_cases))
    return 0


def _count_cases(d) -> int:
    """The cases of d and of the case bodies nested in it, counted from an
    explicit stack."""
    n, todo = 0, [d]
    while todo:
        d = todo.pop()
        if isinstance(d, datacc.Sum):
            n += len(d.cases)
            todo.extend(c for _n, c in d.cases)
    return n


# ---------------------------------------------------------------------------
# Entry points

def main_langcc(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="langcc",
        description="Compile a .lang specification to a parser artifact.")
    ap.add_argument("lang", help="input .lang file")
    ap.add_argument("gen", help="output directory for artifacts")
    ap.add_argument("--max-k", type=int, default=2, metavar="N",
                    help="retry LR(k) up to this k before reporting conflicts")
    ap.add_argument("--dump-lexer", action="store_true")
    ap.add_argument("--dump-grammar", action="store_true")
    ap.add_argument("--dump-lr", action="store_true")
    ap.add_argument("--conflicts-out", metavar="FILE")
    ap.add_argument("--parse", metavar="FILE", help="parse FILE and print its AST")
    ap.add_argument("--start", metavar="N", help="main nonterminal for --parse/--format")
    ap.add_argument("--format", metavar="FILE", help="parse FILE and print it normalized")
    ap.add_argument("--no-test", action="store_true",
                    help="skip the embedded compile_test/test stanzas")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    return cmd_langcc(
        args.lang, args.gen, max_k=args.max_k,
        dump_lexer_flag=args.dump_lexer, dump_grammar_flag=args.dump_grammar,
        dump_lr_flag=args.dump_lr, conflicts_out=args.conflicts_out,
        parse_file=args.parse, start=args.start, format_file=args.format,
        no_test=args.no_test)


def main_datacc(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="datacc",
        description="Compile a .data datatype specification to a schema artifact.")
    ap.add_argument("data", help="input .data file")
    ap.add_argument("gen", help="output directory")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    return cmd_datacc(args.data, args.gen)


if __name__ == "__main__":
    sys.exit(main_langcc())
