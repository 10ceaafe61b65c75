"""The generator: compile_lang, from `.lang` source to a CompiledLang.

Runs the frontend, lexer DFA construction, lowering and LR(k) table
construction, retrying at a larger k on conflicts, and flattens the
products into the plain dict/list tree of an artifact (flatten), which
artifact.CompiledLang checks and writes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from .artifact import FORMAT_VERSION, CompiledLang, lexer_to_json
from .grammar import Cfg, lower_grammar, lower_precedence
from .lexer import CompiledLexer, compile_lexer
from .lr import LrTables, build_lr
from .meta_frontend import decode_backtick, parse_lang_spec
from .spec_ast import LangSpec, SpecError


# ---------------------------------------------------------------------------
# Flattening build products into an artifact

def _decode_template(tmpl, lit_text):
    """A kind's print template as an artifact holds it, each literal
    terminal decoded to its text (CompiledLang rejects any other item than
    ("lit", text), ("verbatim", text) or ("content",))."""
    return [["lit", lit_text(it[1])] if it[0] == "lit" else list(it) for it in tmpl]


def _kind_to_json(kind, lit_text):
    tag = kind[0]
    if tag in ("token", "node"):
        return [tag, kind[1]]
    if tag == "seq":
        return ["seq", _kind_to_json(kind[1], lit_text),
                kind[2], _decode_template(kind[3], lit_text), kind[4], kind[5]]
    if tag == "opt":
        return ["opt", _kind_to_json(kind[1], lit_text),
                _decode_template(kind[2], lit_text), kind[3]]
    if tag == "bool":
        return ["bool", _decode_template(kind[1], lit_text)]
    if tag == "enum":
        return ["enum", [[label, _decode_template(t, lit_text)]
                         for label, t in kind[1]]]
    raise AssertionError(kind)


def flatten(spec: LangSpec, cfg: Cfg, lexer: CompiledLexer, tables: LrTables,
            digest: str) -> CompiledLang:
    opaque = set(spec.opaque_names())

    def lit_text(term: str) -> str:
        if term in opaque:
            raise AssertionError("opaque token in a literal template: %r" % term)
        return decode_backtick(term)

    inst_index = {}

    def inst_ref(inst) -> str:
        if inst not in inst_index:
            inst_index[inst] = inst.mangled()
        return inst_index[inst]

    prods_json = []
    for p in tables.prods:
        if p["kind"] == "start":
            prods_json.append(["start", 1, p["main"]])
            continue
        base = p["iprod"].base
        lhs_ref = inst_ref(p["lhs"])
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

    action_json = []
    for (state, la), acts in sorted(tables.action.items()):
        if len(acts) != 1:
            raise SpecError("cannot flatten tables with conflicts")
        action_json.append([state, list(la), list(acts[0])])

    goto_json = []
    for (state, key), target in tables.goto.items():
        if isinstance(key, tuple) and key[0] == "t":
            goto_json.append([state, "t", key[1], target])
        else:
            goto_json.append([state, "n", inst_ref(key), target])
    # by state, then nonterminals ("n") before terminals ("t"), then name:
    # no two entries share all three, so the targets are never compared
    goto_json.sort()

    ast_json = {}
    templates_json = {}
    shape = cfg.ast_shape
    for nt in shape.variants:
        for path, fields in shape.variants[nt].items():
            vk = "::".join((nt,) + path)
            ast_json[vk] = [[name, _kind_to_json(kind, lit_text)]
                            for name, kind in fields]
    for p in cfg.productions:
        if p.kind != "user":
            continue
        vk = "::".join((p.lhs,) + p.variant)
        field_of_slot = {src[1]: name for name, src in p.fields}
        items = []
        for it in p.template:
            if it[0] == "verbatim":
                items.append(["verbatim", it[1]])
            else:
                idx = it[1]
                if idx in field_of_slot:
                    items.append(["field", field_of_slot[idx]])
                else:
                    slot = p.slots[idx]
                    if not slot.is_terminal:
                        raise SpecError("unbound nonterminal slot %r in %s" % (slot, vk))
                    items.append(["lit", lit_text(slot.symbol)])
        templates_json[vk] = items

    data = {
        "version": FORMAT_VERSION,
        "digest": digest,
        "k": tables.k,
        "rd": False,  # no recursive-descent actions; the key keeps the format unchanged
        "mains": list(cfg.mains),
        "indent_unit": 4,
        "terminals": sorted(cfg.terminals),
        "lexer": lexer_to_json(lexer),
        "action": action_json,
        "goto": goto_json,
        "starts": {m: s for m, s in sorted(tables.starts.items())},
        "prods": prods_json,
        "ast": ast_json,
        "templates": templates_json,
    }
    return CompiledLang(data)


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
    """
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
            compiled = flatten(spec, cfg, lexer, tables, source_digest(source))
            return CompileResult(True, spec, cfg, lexer, tables, k, compiled)
    return CompileResult(False, spec, cfg, lexer, first_tables, 1)

