"""The three workloads, their timed passes and their output checks.

Every call into langcc goes through `Run.op`, which times it, wraps it in a
span when tracing is on, and counts it as attempted (and as failed if it
raises).  A check that finds a wrong output, or an exception other than the
RecursionError deep documents raise today, marks the operation failed and
the whole run incorrect.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import re
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import gen
import pins
from calib import Calibrator

import langcc.cli as cli_mod
import langcc.compiled as compiled_mod
from langcc import datacc
from langcc.bootstrap import langspec_from_node
from langcc.cli import cmd_langcc
from langcc.compiled import CompiledLang, compile_lang
from langcc.grammar import expand_instances
from langcc.lexer import lex
from langcc.lr import dump_lr
from langcc.meta_frontend import parse_lang_spec
from langcc.printer import pretty_print
from langcc.runtime import EnumVal, Node, SeqVal, TokenLeaf, node_to_data_value, parse

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRAMMARS = os.path.join(ROOT, "grammars")
GOLDEN_LR2 = os.path.join(ROOT, "tests", "golden", "ab_eps_lr2.txt")

SETUP_REPS = 9
CONFLICT_FREE = ["ab_eps.lang", "calc.lang", "calc_prog.lang", "meta.lang",
                 "parens.lang", "rd_tiny.lang", "sum_list.lang"]
PREC_STANZA = re.compile(r"\n    prec \{.*?\n    \}\n", re.S)

clock = time.perf_counter


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def without_prec(source: str) -> str:
    """The source with the parser's prec stanza (the first one) removed."""
    out, n = PREC_STANZA.subn("\n", source, count=1)
    if n != 1:
        raise RuntimeError("no prec stanza to remove")
    return out


# ---------------------------------------------------------------------------
# Run state

class Run:
    """Counts, samples and calibration of one benchmark run.

    `wrong` lists wrong outputs (and unexpected exceptions); any entry
    makes the run incorrect.  `counts` holds [attempted, failed] per
    repetition (see `outcome`).

    A sample keeps the time windows of the operations it was made from, so
    that each can be scaled by the calibration factor of its own moment
    (see calib.py) when the run ends.
    """

    def __init__(self, tracer, work_dir: str, seed: int):
        self.tr = tracer
        self.work_dir = work_dir
        self.seed = seed
        self.cal = Calibrator()
        self.counts: Dict[tuple, list] = defaultdict(lambda: [0, 0])  # rep -> [attempted, failed]
        self.wrong: List[str] = []
        self.raised: Counter = Counter()
        self.rep = ("setup", 0)
        self.reps: Dict[tuple, tuple] = {}        # rep -> (start, end, kernel seconds)
        self.samples: Dict[str, list] = defaultdict(list)   # name -> [(work, windows)]
        self.latency: Dict[str, list] = defaultdict(list)   # doc -> [window]

    def begin(self, rep: tuple):
        self.rep = rep
        self._spent = self.cal.spent
        self._start = clock()

    def end(self):
        self.reps[self.rep] = (self._start, clock(), self.cal.spent - self._spent)

    def sample(self, name: str, work=None, windows=()):
        """One sample of a metric: seconds are the summed `windows`, a rate
        is `work` over them, a count is `work` alone."""
        self.samples[name].append((work, list(windows)))

    def op(self, name: str, fn, *args, op_id=None, extra=False, deep=False, **attrs):
        """Call fn(*args) as one operation; returns (result, window, ok),
        the window being (start, end, calibration kernel seconds inside).
        On a `deep` document a RecursionError is an expected failure:
        counted, not a wrong output.  Any other exception is wrong."""
        if not extra:
            self.counts[self.rep][0] += 1
        with self.tr.span(name, op_id, extra, **attrs):
            spent = self.cal.spent
            t0 = clock()
            try:
                result = fn(*args)
                ok = True
            except Exception as e:  # counted and reported, not fatal
                result, ok = None, False
                self.counts[self.rep][1] += not extra
                key = (name, type(e).__name__)
                if not self.raised[key]:
                    print("perfbench: %s on %s raised %s" % (name, op_id, type(e).__name__),
                          file=sys.stderr)
                    traceback.print_exc(limit=3, file=sys.stderr)
                self.raised[key] += 1
                if not (deep and isinstance(e, RecursionError)):
                    self.note_wrong("%s on %s raised %s: %s"
                                    % (name, op_id, type(e).__name__, e))
            t1 = clock()
        return result, (t0, t1, self.cal.spent - spent), ok

    def check(self, ok: bool, what: str) -> bool:
        """Record a wrong output; the operation that produced it counts as failed."""
        if not ok:
            self.counts[self.rep][1] += 1
            self.note_wrong(what)
        return ok

    def outcome(self):
        """(attempted, failed) of one set-up and one timed pass: of each
        phase, the repetition with the most failures.  How many passes fit
        in the measuring time varies from run to run; this does not, so two
        runs of the same code report the same counts, and a failure in any
        repetition still shows."""
        attempted = failed = 0
        for phase in ("setup", "pass"):
            reps = [c for rep, c in self.counts.items() if rep[0] == phase]
            if reps:
                a, f = max(reps, key=lambda c: (c[1], c[0]))
                attempted += a
                failed += f
        return attempted, failed

    def note_wrong(self, what: str):
        if len(self.wrong) < 20:
            self.wrong.append(what)
        else:
            self.wrong[-1] = "... and more"


# ---------------------------------------------------------------------------
# The langcc command, in process; in traced passes with its calls wrapped

@dataclass
class CommandResult:
    """What one langcc command produced; `states` (LR states of each k
    compile_lang attempted) only when traced, since only then are the
    tables seen."""

    rc: int
    artifact: Optional[str] = None
    report: Optional[str] = None
    test_failures: int = 0
    states: Dict[int, int] = field(default_factory=dict)


def _outputs(gen_dir: str, stem: str):
    return (os.path.join(gen_dir, stem + ".clang"),
            os.path.join(gen_dir, stem + ".ast.schema"),
            os.path.join(gen_dir, stem + ".report"))


@contextlib.contextmanager
def traced_calls(tr, states: Dict[int, int]):
    """While open, the module-level names `cmd_langcc` and `compile_lang`
    call are replaced by wrappers that time each call in a span and count
    what it returned; `states` gets the LR state count of each k that
    compile_lang attempts.  `expand_instances` runs once more, as an extra
    span after lowering, because `build_lr` does that work internally."""

    def wrap(fn, name, after=None):
        def call(*args, **kwargs):
            with tr.span(name(*args) if callable(name) else name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args)
            return out
        return call

    def lexer_built(lexer, *_args):
        tr.count("lexer.dfa_states", sum(len(d.states) for d in lexer.dfas.values()))

    def lowered(cfg, *_args):
        tr.count("grammar.productions", len(cfg.productions))
        with tr.span("grammar.expand", extra=True):
            ig = expand_instances(cfg)
        tr.count("grammar.inst_productions", len(ig.iprods))

    def tables_built(tables, _cfg, _k, *_args):
        tr.count("lr.states", len(tables.states))
        tr.count("lr.action_cells", len(tables.action))
        tr.count("lr.goto_cells", len(tables.goto))

    def compiled_tables(tables, cfg, k, *args):
        tables_built(tables, cfg, k)
        states[k] = len(tables.states)

    def lr_name(_cfg, k, *_args):
        return "lr.build_k%d" % k

    patches = [
        (compiled_mod, "parse_lang_spec",
         wrap(compiled_mod.parse_lang_spec, "meta_frontend.parse")),
        (compiled_mod, "compile_lexer",
         wrap(compiled_mod.compile_lexer, "lexer.compile", lexer_built)),
        (compiled_mod, "lower_grammar", wrap(compiled_mod.lower_grammar, "grammar.lower")),
        (compiled_mod, "lower_precedence",
         wrap(compiled_mod.lower_precedence, "grammar.lower", lowered)),
        (compiled_mod, "build_lr", wrap(compiled_mod.build_lr, lr_name, compiled_tables)),
        (compiled_mod, "flatten", wrap(compiled_mod.flatten, "compiled.flatten")),
        (CompiledLang, "to_json", wrap(CompiledLang.to_json, "compiled.to_json")),
        (cli_mod, "build_lr", wrap(cli_mod.build_lr, lr_name, tables_built)),
        (cli_mod, "trace_all", wrap(cli_mod.trace_all, "conflicts.trace",
                                    lambda ex, *_a: tr.count("conflicts.exemplars", len(ex)))),
        (cli_mod, "render_conflict_report",
         wrap(cli_mod.render_conflict_report, "conflicts.render")),
        (cli_mod, "run_test_stanza", wrap(cli_mod.run_test_stanza, "cli.tests")),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _w in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def langcc_command(tr, path: str, gen_dir: str, max_k: int) -> CommandResult:
    """`langcc path gen_dir --max-k max_k --conflicts-out ...`, in process."""
    stem = os.path.splitext(os.path.basename(path))[0]
    clang, _schema, report = _outputs(gen_dir, stem)
    err = io.StringIO()
    states: Dict[int, int] = {}
    with contextlib.redirect_stderr(err), \
            (traced_calls(tr, states) if tr.on else contextlib.nullcontext()):
        rc = cmd_langcc(path, gen_dir, max_k=max_k, conflicts_out=report)
    out = CommandResult(rc, test_failures=err.getvalue().count("FAIL: "), states=states)
    if rc == 0:
        out.artifact = read(clang)
    elif os.path.exists(report):
        out.report = read(report)
    return out


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_langcc(run: Run, path: str, max_k: int, name: str):
    """One langcc command as an operation, its output checked against the
    pins.  Returns (outcome or None if it raised, its time window)."""
    gen_dir = os.path.join(run.work_dir, "gen")
    os.makedirs(gen_dir, exist_ok=True)
    res, window, ok = run.op("op.langcc", langcc_command, run.tr, path, gen_dir, max_k,
                             op_id=name)
    if not ok:
        return None, window
    pin = pins.LANGCC[name]
    if pin["rc"] == 0:
        if run.check(res.rc == 0 and res.test_failures == 0,
                     "%s: exit %d with %d embedded test failure(s)"
                     % (name, res.rc, res.test_failures)):
            run.check(sha(res.artifact) == pin["sha256"],
                      "%s: artifact SHA-256 differs from the pin" % name)
    elif run.check(res.rc == 1 and bool(res.report),
                   "%s: expected exit 1 with a conflict report, got exit %d"
                   % (name, res.rc)):
        run.check(sha(res.report) == pin["report_sha256"],
                  "%s: conflict report differs from the pin" % name)
    if run.tr.on:
        run.check(res.states == pin["states"],
                  "%s: LR states %r, pinned %r" % (name, res.states, pin["states"]))
    return res, window


def load_artifact(run: Run, text: str, name: str):
    """CompiledLang.from_json as an operation; checks it re-serializes exactly."""
    loaded, window, ok = run.op("compiled.from_json", CompiledLang.from_json, text,
                                op_id=name)
    if ok and not run.check(loaded.to_json() == text,
                            "%s: from_json/to_json does not round-trip" % name):
        loaded = None
    return loaded, window


# ---------------------------------------------------------------------------
# Walking parsed calc programs without recursion

def evaluate(root: Node) -> List[int]:
    """Value of each statement of a Prog::Main node, evaluated with an
    explicit stack so that deep nesting cannot overflow."""
    env: Dict[str, int] = {}
    values = []
    for stmt in root.field("stmts").items:
        expr = stmt.field("y") if stmt.variant[1] == "Assign" else stmt.field("x")
        val = _eval_expr(expr, env)
        if stmt.variant[1] == "Assign":
            env[stmt.field("x").field("name").text] = val
        values.append(val)
    return values


_BINOPS = {"Add": "+", "Sub": "-", "Mul": "*", "Div": "/", "Pow": "^"}


def _eval_expr(expr: Node, env) -> int:
    out: List[int] = []
    todo = [(expr, False)]
    while todo:
        n, done = todo.pop()
        v = n.variant
        if v[1] == "Id":
            out.append(env[n.field("name").text])
        elif v[1] == "Lit":
            out.append(int(n.field("val").text) % gen.MOD)
        elif not done:
            todo.append((n, True))
            if v[1] in ("Paren", "UnaryPre"):
                todo.append((n.field("x"), False))
            else:
                todo.append((n.field("y"), False))
                todo.append((n.field("x"), False))
        elif v[1] == "UnaryPre":
            out.append(gen.apply_neg(out.pop()))
        elif v[1] != "Paren":
            b = out.pop()
            a = out.pop()
            out.append(gen.apply_binop(_BINOPS[n.field("op").label], a, b))
    return out[0]


def same_tree(a, b) -> bool:
    """Structural equality of two parse results, ignoring source positions."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, Node):
            if x.variant != y.variant or len(x.fields) != len(y.fields):
                return False
            for (fx, vx), (fy, vy) in zip(x.fields, y.fields):
                if fx != fy:
                    return False
                todo.append((vx, vy))
        elif isinstance(x, TokenLeaf):
            if (x.terminal, x.text) != (y.terminal, y.text):
                return False
        elif isinstance(x, EnumVal):
            if x.label != y.label:
                return False
        elif isinstance(x, SeqVal):
            if x.trailing != y.trailing or len(x.items) != len(y.items):
                return False
            todo.extend(zip(x.items, y.items))
        elif x != y:
            return False
    return True


def count_nodes(root) -> int:
    n = 0
    todo = [root]
    while todo:
        x = todo.pop()
        if isinstance(x, Node):
            n += 1
            todo.extend(v for _f, v in x.fields)
        elif isinstance(x, SeqVal):
            todo.extend(x.items)
    return n





# ---------------------------------------------------------------------------
# Documents: parse, check the meaning, print, check the tree

@dataclass
class DocPass:
    """One pass over documents: the operations' time windows and the work
    they completed."""

    parse: list = field(default_factory=list)
    print: list = field(default_factory=list)
    check: list = field(default_factory=list)
    convert: list = field(default_factory=list)
    tokens: int = 0
    bytes: int = 0
    nodes: int = 0
    converted_bytes: int = 0


def convert(run: Run, name: str, root: Node, reference):
    """bootstrap.langspec_from_node, checked against the hand-written
    frontend's spec.  Returns (ok, time window)."""
    spec, window, ok = run.op("bootstrap.convert", langspec_from_node, root, op_id=name)
    return ok and run.check(spec == reference,
                            "%s: self-hosted spec differs from parse_lang_spec" % name), window


class Workload:
    """Set-up, run SETUP_REPS times (the last one's products are used), and
    a timed pass that the run repeats for its measuring time."""

    name = ""

    def __init__(self, run: Run, sizes: dict):
        self.run = run
        self.sizes = sizes
        self.nodes: Dict[str, int] = {}
        self.hashes: Dict[str, bytes] = {}
        self.reparsed = set()

    def setup(self):
        raise NotImplementedError

    def one_pass(self):
        raise NotImplementedError

    def meaning_ok(self, doc: gen.Doc, root: Node, totals: DocPass) -> bool:
        raise NotImplementedError

    def printed_ok(self, doc: gen.Doc, compiled, root: Node, printed: str) -> bool:
        """Printing is deterministic, so one reparse per document and run
        checks it."""
        if doc.name in self.reparsed:
            return True
        self.reparsed.add(doc.name)
        again = parse(compiled, printed)
        return self.run.check(again.is_success() and same_tree(root, again.result),
                              "%s: printed text reparses to a different AST" % doc.name)

    def documents(self, compiled, schema, docs: List[gen.Doc]) -> DocPass:
        run, tr = self.run, self.run.tr
        totals = DocPass()
        for doc in docs:
            deep = doc.kind == "deep"
            res, window, ok = run.op("runtime.parse", parse, compiled, doc.text,
                                     op_id=doc.name, deep=deep, tokens=doc.tokens,
                                     line=doc.max_line, kind=doc.kind)
            totals.parse.append(window)
            run.latency[doc.name].append(window)
            if tr.on:
                lexed, _window, lok = run.op("lexer.lex", lex, compiled.lexer, doc.text,
                                             op_id=doc.name, extra=True)
                if lok:
                    tr.count("lexer.tokens", len(lexed.tokens))
                    run.check(len(lexed.tokens) == doc.tokens, "%s: lexed %d tokens, "
                              "expected %d" % (doc.name, len(lexed.tokens), doc.tokens))
            if not ok or not run.check(res.is_success(), "%s: parse error %s"
                                       % (doc.name, res.err)):
                continue
            root = res.result
            if not self.meaning_ok(doc, root, totals):
                continue
            totals.tokens += doc.tokens
            if doc.name not in self.nodes:
                self.nodes[doc.name] = count_nodes(root)
            tr.count("runtime.nodes", self.nodes[doc.name])

            printed, window, ok = run.op("printer.print", pretty_print, compiled, root,
                                         op_id=doc.name, deep=deep)
            totals.print.append(window)
            if ok and self.printed_ok(doc, compiled, root, printed):
                n = len(printed.encode("utf-8"))
                totals.bytes += n
                tr.count("printer.bytes", n)

            before = datacc.hash_computation_count()
            digest, window, ok = run.op("op.check", self.check_tree, compiled, schema, root,
                                        op_id=doc.name, deep=deep)
            tr.count("datacc.hash_computations", datacc.hash_computation_count() - before)
            totals.check.append(window)
            if ok and run.check(len(digest) == 32 and
                                self.hashes.setdefault(doc.name, digest) == digest,
                                "%s: value hash changed between passes" % doc.name):
                totals.nodes += self.nodes[doc.name]
        run.sample("parse_tok_s", totals.tokens, totals.parse)
        run.sample("print_bytes_s", totals.bytes, totals.print)
        run.sample("check_nodes_s", totals.nodes, totals.check)
        return totals

    def check_tree(self, compiled, schema, root) -> bytes:
        tr = self.run.tr
        with tr.span("runtime.to_data"):
            value = node_to_data_value(compiled, root)
        with tr.span("datacc.conforms"):
            datacc.conforms(schema, value)
        with tr.span("datacc.hash"):
            return datacc.value_hash(value)


class CalcWorkload(Workload):
    """calc_prog programs: the grammar is compiled in set-up; every pass
    parses, evaluates, prints and checks the whole corpus."""

    GRAMMAR = "calc_prog.lang"
    SELFHOST_ROUNDS = 5

    def corpus(self, seed: int) -> List[gen.Doc]:
        raise NotImplementedError

    def setup(self):
        run = self.run
        path = os.path.join(GRAMMARS, self.GRAMMAR)
        source = read(path)
        res, window = run_langcc(run, path, 2, self.GRAMMAR)
        run.sample("compile_s", windows=[window])
        noprec = os.path.join(run.work_dir, "calc_prog_noprec.lang")
        with open(noprec, "w", encoding="utf-8") as f:
            f.write(without_prec(source))
        _res, window = run_langcc(run, noprec, 2, "calc_prog_noprec.lang")
        run.sample("explain_s", windows=[window])
        if res is None or res.artifact is None:
            raise RuntimeError("%s did not compile; nothing to measure" % self.GRAMMAR)
        self.compiled, window = load_artifact(run, res.artifact, self.GRAMMAR)
        run.sample("load_s", windows=[window])
        run.sample("artifact_bytes", len(res.artifact.encode("utf-8")))
        gen_dir = os.path.join(run.work_dir, "gen")
        self.schema = datacc.parse_data_spec(read(_outputs(gen_dir, "calc_prog")[1]))

        # the self-hosted frontend on the workload's grammar and its
        # prec-less variant, SELFHOST_ROUNDS times for a steadier figure
        with run.tr.span("setup.meta_artifact"):
            meta = compile_lang(read(os.path.join(GRAMMARS, "meta.lang")), max_k=1).compiled
        sources = [(self.GRAMMAR, source), ("calc_prog_noprec.lang", read(noprec))]
        references = {name: parse_lang_spec(text) for name, text in sources}
        done, windows = 0, []
        for _ in range(self.SELFHOST_ROUNDS):
            for name, text in sources:
                parsed, window, ok = run.op("runtime.parse", parse, meta, text, op_id=name)
                windows.append(window)
                if not ok or not run.check(parsed.is_success(), "meta parser rejects %s" % name):
                    continue
                ok, window = convert(run, name, parsed.result, references[name])
                windows.append(window)
                done += len(text.encode("utf-8")) if ok else 0
        run.sample("selfhost_bytes_s", done, windows)

        self.docs = self.corpus(run.seed)

    def one_pass(self):
        self.documents(self.compiled, self.schema, self.docs)

    def meaning_ok(self, doc, root, totals):
        return self.run.check(evaluate(root) == doc.expect,
                              "%s: evaluated values differ from the generator's" % doc.name)

    def printed_ok(self, doc, compiled, root, printed):
        if not self.run.check(printed == doc.canonical,
                              "%s: printed text differs from the expected text" % doc.name):
            return False
        if doc.kind == "lines":  # byte-equal to the input: a round trip
            return True
        return super().printed_ok(doc, compiled, root, printed)


class CalcLines(CalcWorkload):
    name = "calc_lines"
    FULL = {"docs": 100, "smallest": 25, "largest": 250}
    TINY = {"docs": 6, "smallest": 5, "largest": 20}

    def corpus(self, seed):
        s = self.sizes
        return gen.line_corpus(seed, s["docs"], s["smallest"], s["largest"])


class CalcShapes(CalcWorkload):
    name = "calc_shapes"
    FULL = {"line_sizes": (500, 1000, 2000, 4000), "depths": (1500, 3000)}
    TINY = {"line_sizes": (10, 80), "depths": (3000,)}

    def corpus(self, seed):
        return gen.shape_corpus(seed, self.sizes["line_sizes"], self.sizes["depths"])


class GrammarCompile(Workload):
    """Every pass: the langcc command on every conflict-free fixture and on
    the conflicted grammars, from_json of each artifact, and the fixture
    sources through the self-hosted frontend (parse with the fresh meta.lang
    artifact, convert, print, check)."""

    name = "grammar_compile"
    FULL = TINY = {}

    def setup(self):
        # The inputs are the fixture files, so the seed changes nothing here.
        # Their order stays fixed too: it decides which operation the
        # collector's pauses land in.
        run = self.run
        self.fixtures = list(CONFLICT_FREE)
        sources = {f: read(os.path.join(GRAMMARS, f))
                   for f in CONFLICT_FREE + ["calc_noprec.lang"]}
        meta_noprec = os.path.join(run.work_dir, "meta_noprec.lang")
        with open(meta_noprec, "w", encoding="utf-8") as f:
            f.write(without_prec(sources["meta.lang"]))
        # prec-less meta.lang stops at LR(1): its LR(2) attempt alone takes ~40 s
        self.conflicted = [(os.path.join(GRAMMARS, "calc_noprec.lang"), 2),
                           (meta_noprec, 1)]
        self.docs = [gen.Doc(f, "lang", sources[f], pins.TOKENS[f],
                             gen.longest_line(sources[f]), parse_lang_spec(sources[f]))
                     for f in sorted(sources)]
        golden, _window, ok = run.op("op.golden", compile_lang, sources["ab_eps.lang"],
                                 op_id="ab_eps.lang")
        if ok:
            run.check(dump_lr(golden.tables) == read(GOLDEN_LR2),
                      "ab_eps LR(2) dump differs from tests/golden/ab_eps_lr2.txt")

    def one_pass(self):
        run = self.run
        # a full collection between groups keeps garbage of one group from
        # being collected (and timed) in the next
        artifacts, windows = {}, []
        for f in self.fixtures:
            res, window = run_langcc(run, os.path.join(GRAMMARS, f), 2, f)
            windows.append(window)
            if res is not None and res.artifact is not None:
                artifacts[f] = res.artifact
        run.sample("compile_s", windows=windows)
        run.sample("artifact_bytes", sum(len(t.encode("utf-8")) for t in artifacts.values()))
        gc.collect()
        windows = [run_langcc(run, path, max_k, os.path.basename(path))[1]
                   for path, max_k in self.conflicted]
        run.sample("explain_s", windows=windows)
        gc.collect()
        loaded, windows = {}, []
        for f in sorted(artifacts):
            loaded[f], window = load_artifact(run, artifacts[f], f)
            windows.append(window)
        run.sample("load_s", windows=windows)
        meta = loaded.get("meta.lang")
        if meta is None:
            raise RuntimeError("meta.lang did not compile and load; nothing to parse with")
        gen_dir = os.path.join(run.work_dir, "gen")
        schema = datacc.parse_data_spec(read(_outputs(gen_dir, "meta")[1]))
        gc.collect()
        totals = self.documents(meta, schema, self.docs)
        run.sample("selfhost_bytes_s", totals.converted_bytes, totals.parse + totals.convert)

    def meaning_ok(self, doc, root, totals):
        ok, window = convert(self.run, doc.name, root, doc.expect)
        totals.convert.append(window)
        if ok:
            totals.converted_bytes += len(doc.text.encode("utf-8"))
        return ok


WORKLOADS = {w.name: w for w in (CalcLines, CalcShapes, GrammarCompile)}
