"""The generator: compile_lang, from `.lang` source to a CompiledLang.

Runs the frontend, lexer DFA construction, lowering and LR(k) table
construction, retrying at a larger k on conflicts, and flattens the
products into the plain dict/list tree of an artifact (flatten), which
artifact.CompiledLang writes.  The action and goto lists, most of an
artifact, go into the tree as their canonical text (artifact.RawJson),
written straight from the builder's tables: each state's action masks
expanded into lookahead ranks (LrTables.ranks) and put in lookahead order
by one sort of ints, each lookahead's text, each action's and each goto
symbol's made once, and no per-cell list built.  LrTables.cells and its
per-cell view LrTables.action are left to dump_lr and the tests.  The
lowerer already writes AST field kinds and print templates in the
artifact's terms, literal text decoded, so flatten copies them as they
are.  flatten also hands CompiledLang the parser's rows, built in the same
loops as the action and goto text, and the CompiledLexer compile_lexer
returned: a freshly compiled language is not checked or rebuilt from its
own tree, as a loaded one is by CompiledLang.from_json.  compile_lang runs
with the cyclic collector paused.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from .artifact import (FORMAT_VERSION, CompiledLang, RawJson, _canonical_json, _encode_str,
                       lexer_to_json, pause_collector, prod_tuples, resume_collector)
from .grammar import Cfg, lower_grammar, lower_precedence
from .lexer import CompiledLexer, compile_lexer
from .lr import LrTables, build_lr
from .meta_frontend import parse_lang_spec
from .spec_ast import LangSpec, SpecError


# ---------------------------------------------------------------------------
# Flattening build products into an artifact

def flatten(lexer: CompiledLexer, tables: LrTables, digest: str) -> CompiledLang:
    """The artifact of a conflict-free build: its productions turned into
    lists, its action and goto lists into text, and each user variant's
    field kinds and print template as the lowerer wrote them (from
    tables.ig.cfg).  The actions are read from the masks of tables.acts
    through tables.ranks, not from tables.cells or the per-cell view
    tables.action, which stays unbuilt.  The CompiledLang serves `lexer`
    itself and the parser rows built beside the action and goto text, the
    same as from_json builds from those lists, with none of its checks."""
    cfg = tables.ig.cfg
    inst_index = {}

    def inst_ref(inst) -> str:
        if inst not in inst_index:
            inst_index[inst] = inst.mangled()
        return inst_index[inst]

    prods_json = []
    for p in tables.prods:
        base = p.base
        if p.lhs is None:
            prods_json.append(["start", 1, base.lhs])
            continue
        lhs_ref = inst_ref(p.lhs)
        display = tables.display_production(len(prods_json))
        if base.kind == "user":
            vk = "::".join((base.lhs,) + base.variant)
            fields = [[name, list(src)] for name, src in base.fields]
            prods_json.append(["user", len(base.slots), lhs_ref, vk, fields, display])
        elif base.kind == "enum":
            prods_json.append(["enum", len(base.slots), lhs_ref,
                               [base.label], display])
        else:
            prods_json.append([base.kind, len(base.slots), lhs_ref,
                               list(base.asm), display])
    # what each entry means to the parse loop, read by the one reader of
    # production entries (a few hundred of them at most: cheap to check)
    prods = prod_tuples(prods_json)

    # the parser's rows, as _load_tables builds them from the lists below
    k, n_states = tables.k, len(tables.states)
    action_rows = [{} for _ in range(n_states)]
    goto_rows = [{} for _ in range(n_states)]
    reduce_cells = [-2 - p for p in range(len(prods))]  # one int per production

    # The action and goto lists as _canonical_json writes them, as values of
    # the top-level object: an entry on a line of two spaces, its items on
    # lines of three.  An action entry is the state, the lookahead's text
    # and the action's, each of those two rendered once; lookaheads are
    # taken by rank (their place in lookahead order), so each state's
    # entries come out of one sort of ints.
    if tables.conflicts:
        raise SpecError("cannot flatten tables with conflicts")
    las = tables.lookaheads
    la_texts = [_canonical_json(list(las[b]), "\n   ") + ",\n   " for b in tables.la_order]
    row_keys = [las[b][0] if k == 1 else las[b] for b in tables.la_order]
    ranks = tables.ranks
    heads = ["[\n   %d,\n   " % state for state in range(n_states)]  # each entry's start
    tails = {}  # action -> (its text, ending the entry; its parser cell)
    action_entries = []  # by state, then lookahead
    for state, acts in enumerate(tables.acts):
        cells = {}  # lookahead rank -> the tail of its action
        for act, mask in acts:
            tail = tails.get(act)
            if tail is None:
                tag, arg = act
                tail = tails[act] = (
                    '[\n    "%s",\n    %s\n   ]\n  ]'
                    % (tag, _encode_str(arg) if tag == "accept" else arg),
                    arg if tag == "shift" else -1 if tag == "accept" else reduce_cells[arg])
            cells.update(dict.fromkeys(ranks[mask], tail))
        head = heads[state]
        row = action_rows[state]
        for r in sorted(cells):
            text, cell = cells[r]
            action_entries.append(head + la_texts[r] + text)
            row[row_keys[r]] = cell

    # Goto entries go by state, then nonterminals ("n") before terminals
    # ("t"), then name, as one sort of ints: state and the symbol's rank in
    # that order.  Each symbol's name, text and row key are made once, and
    # each target's text.
    refs = {sym: sym[1] if sym[0] == "t" else inst_ref(sym[1])
            for sym in {sym for _state, sym in tables.goto}}
    syms = sorted(refs, key=lambda sym: (sym[0], refs[sym]))
    sym_rank = {sym: r for r, sym in enumerate(syms)}
    sym_texts = ['"%s",\n   %s' % (sym[0], _encode_str(refs[sym])) for sym in syms]
    row_refs = [refs[sym] if sym[0] == "n" else None for sym in syms]
    ends = [",\n   %d\n  ]" % target for target in range(n_states)]
    n_syms = len(syms)
    gotos = {}  # state * n_syms + symbol rank -> the entry
    for (state, sym), target in tables.goto.items():
        r = sym_rank[sym]
        gotos[state * n_syms + r] = heads[state] + sym_texts[r] + ends[target]
        if row_refs[r] is not None:
            goto_rows[state][row_refs[r]] = target
    goto_entries = [gotos[key] for key in sorted(gotos)]

    ast_json = {}
    templates_json = {}
    for p in cfg.productions:
        if p.kind == "user":
            vk = "::".join((p.lhs,) + p.variant)
            ast_json[vk] = [list(f) for f in cfg.ast_shape.variants[p.lhs][p.variant]]
            templates_json[vk] = [list(it) for it in p.template]

    data = {
        "version": FORMAT_VERSION,
        "digest": digest,
        "k": k,
        "rd": False,  # no recursive-descent actions; the key keeps the format unchanged
        "mains": list(cfg.mains),
        "indent_unit": 4,
        "terminals": sorted(cfg.terminals),
        "lexer": lexer_to_json(lexer),
        "action": _list_text(action_entries),
        "goto": _list_text(goto_entries),
        "starts": {m: s for m, s in sorted(tables.starts.items())},
        "prods": prods_json,
        "ast": ast_json,
        "templates": templates_json,
    }
    return CompiledLang(data, prods, action_rows, goto_rows, lexer)


def _list_text(entries: list) -> RawJson:
    """The list of the entries' texts as the value of a top-level key."""
    return RawJson("[\n  %s\n ]" % ",\n  ".join(entries) if entries else "[]", "\n ")


# ---------------------------------------------------------------------------
# Compile pipeline

@dataclass
class CompileResult:
    ok: bool
    spec: LangSpec
    cfg: Optional[Cfg] = None
    lexer: Optional[CompiledLexer] = None
    tables: Optional[LrTables] = None
    k_used: Optional[int] = None
    compiled: Optional[CompiledLang] = None


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def compile_lang(source: str, max_k: int = 2) -> CompileResult:
    """Full pipeline: frontend, lexer DFAs, lowering, LR(k) with k retry.

    On conflicts at every k up to max_k, returns ok=False with the tables of
    the first k attempted (their conflicts feed the exemplar tracer).
    Raises ValueError if max_k < 1, as build_lr does for k.  Runs with the
    cyclic collector paused (artifact.pause_collector), as parse and
    to_json do: the build allocates many objects that reference counting
    frees, and the collections they would set off find little.
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    pause_collector()
    try:
        spec = parse_lang_spec(source)
        lexer = compile_lexer(spec)
        cfg = lower_grammar(spec)
        cfg = lower_precedence(spec, cfg)

        missing = sorted(t for t in cfg.terminals if t not in lexer.emittable)
        if missing:
            raise SpecError("parser uses terminal(s) the lexer never emits: %s"
                            % ", ".join(missing))

        first_tables = None
        for k in range(1, max_k + 1):
            tables = build_lr(cfg, k)
            if first_tables is None:
                first_tables = tables
            if not tables.conflicts:
                compiled = flatten(lexer, tables, source_digest(source))
                return CompileResult(True, spec, cfg, lexer, tables, k, compiled)
        return CompileResult(False, spec, cfg, lexer, first_tables, 1)
    finally:
        resume_collector()
