"""Independent recognizers used as test oracles.

earley_accepts decides membership directly over the constraint-expanded
grammar, with none of the LR machinery; enumerate_trees builds every parse
tree of the *unconstrained* grammar so precedence filtering can be checked
as a pure admissibility predicate on top.

reference_lex is the lexer's mode-stack machine as a plain loop over the
spec's action objects, with no load-time compilation; nfa_simulate runs
one mode's NFA directly over a string, the oracle for its DFA.

reference_complete is the conflict tracer's completion search as it was
before it learned to skip lookaheads no state acts on: it appends every
terminal and $, and lets the dead ends fail at the next pop.

node_to_data_value, conforms, value_hash and _Printer (driven by
reference_pretty_print) are the check and print walks as they were before
they were planned per variant and run on explicit stacks, and render_node
and debug_print the renderings as they were before they did: plain
recursion, which fails on deep trees.  value_hash counts its digests in
reference_hash_computations(), apart from datacc's counter.

scan_meta and _Parser are the hand-written `.lang` scanner and
recursive-descent parser that fronted the toolchain before it parsed every
`.lang` source with its own generated meta.clang, kept verbatim;
reference_parse_lang_spec is parse_lang_spec as it was on top of them.  The
parser leaves every name in a rule body a NontermRef, and
reference_resolve_refs is the second pass that then made the opaque token
names TokenRefs, before the converter read the tokens stanza first.

reference_to_json is CompiledLang.to_json as it was on json's own
indenting encoder, before the artifact's canonical text had a writer of
its own.  reference_flatten_lists is flatten's action and goto loops as
they were before it wrote those lists as text: a list per cell of
LrTables.action, and the goto entries sorted as lists, with the parser's
rows filled beside them.

reference_lr is canonical LR(k) built item by item on sets of lookahead
tuples, each goto target closed and then looked up by its closed set: the
construction with none of build_lr's kernels, bitmasks or per-nonterminal
propagation, on FirstK.beta_first and lr._extend alone.  FirstK is FIRST_k
on sets of tuples, the engine lr.py ran for k >= 2 (and first_k for every
k) before its one engine on lookahead masks; it lives here as the FIRST
reference that engine is checked against.

reference_compile_lexer is compile_lexer as it was before each pattern went
through one walk on an explicit stack: aliases expanded into a new pattern
tree, then separate recursive walks for eof and the empty string, and a
recursive Thompson construction and emit flattening.  Its DFAs come from
reference_subset_construct, the subset construction as it was before it
collected a DFA state's NFA edges once: it rescans them for every atomic
interval, and takes the next DFA state off the front of its worklist.  reference_token_diags
is validate_spec's token checks as they were then, with a recursive
reference collector and recursive opaque-reach and alias-cycle searches.

reference_render_regex is spec_ast.render_regex as it was before it walked
a pattern on an explicit stack: one call per level of nesting.
reference_render_parse_expr is spec_ast.render_parse_expr likewise, for a
rule body.
"""

import functools
import hashlib
import heapq
import json
from typing import Dict, List, Optional, Set, Tuple

from langcc.artifact import CompiledLang
from langcc.datacc import (
    _ANY, DataValue, DatatypeSchema, Sum, TOpt, TSeq, TypeExpr, _print_scalar, _subst, _u32,
)
from langcc.grammar import Cfg, Inst, InstGrammar, expand_instances
from langcc.lexer import (
    ASCII_ROW, EOF_TERMINAL, CompiledLexer, Extract, LexCompileError, LexError, LexOutput,
    MAX_CODEPOINT, ModeDfa, Nfa, Tag, TokenLeaf, _byte_offsets, _resolve_accept,
    literal_terminal,
)
from langcc.lr import LrTables, _extend, _sym_sort_key
from langcc.runtime import EnumVal, Node, SeqVal, wrong_value
from langcc.meta_frontend import _checked, make_parse_test
from langcc.spec_ast import (
    AltBranches, AttrLine, Diagnostic, Eps, LangSpec, LexerAction, LexerRule, LexerSpec,
    ListExpr, Loc, LrTestDecl, Named, NontermRef, Optional_, ParseExpr, ParserSpec,
    ParseTestDecl, PassString, Plus, PrecLine, RAlt, RConcat, REof, RLit, RRange, RRef, RStar,
    RWildcard, RegexExpr, RuleDecl, Seq, SingletonAlt, SpaceShorthand, SpecError, Star,
    TermLiteral, TokenDecl, TokenRef, Unfold, decode_backtick, quote_backtick,
)


def earley_accepts(ig: InstGrammar, start, tokens) -> bool:
    """Plain Earley recognition over the instance grammar.

    `start` is a main-nonterminal name or an Inst to recognize from."""
    if isinstance(start, str):
        start = ig.start_insts[start]
    n = len(tokens)
    # item: (iprod id, dot, origin)
    chart = [set() for _ in range(n + 1)]

    def predict_complete(i):
        changed = True
        while changed:
            changed = False
            for item in list(chart[i]):
                pid, dot, origin = item
                rhs = ig.iprods[pid].rhs
                if dot < len(rhs):
                    sym = rhs[dot]
                    if sym[0] == "n":
                        for ip in ig.by_lhs.get(sym[1], ()):
                            new = (ip.ipid, 0, i)
                            if new not in chart[i]:
                                chart[i].add(new)
                                changed = True
                else:
                    lhs = ig.iprods[pid].lhs
                    for prev in list(chart[origin]):
                        ppid, pdot, porigin = prev
                        prhs = ig.iprods[ppid].rhs
                        if pdot < len(prhs) and prhs[pdot] == ("n", lhs):
                            new = (ppid, pdot + 1, porigin)
                            if new not in chart[i]:
                                chart[i].add(new)
                                changed = True

    for ip in ig.by_lhs.get(start, ()):
        chart[0].add((ip.ipid, 0, 0))
    predict_complete(0)
    for i, tok in enumerate(tokens):
        for pid, dot, origin in chart[i]:
            rhs = ig.iprods[pid].rhs
            if dot < len(rhs) and rhs[dot] == ("t", tok):
                chart[i + 1].add((pid, dot + 1, origin))
        predict_complete(i + 1)
    for pid, dot, origin in chart[n]:
        ip = ig.iprods[pid]
        if origin == 0 and dot == len(ip.rhs) and ip.lhs == start:
            return True
    return False


def recognizer(cfg: Cfg, start_name: str):
    ig = expand_instances(cfg)
    return lambda tokens: earley_accepts(ig, start_name, tokens)


def enumerate_trees(cfg: Cfg, start: str, tokens):
    """Every parse tree of the unconstrained grammar (attributes and
    precedence ignored); a tree is (production id, child...) with terminal
    children as ("t", terminal).  Exponential; for short fixture inputs.
    Spans shorter than a symbol's minimal sentence are pruned, which also
    rules out unbounded recursion on empty spans."""
    prods_of = {}
    for p in cfg.productions:
        prods_of.setdefault(p.lhs, []).append(p)

    INF = 1 << 30
    min_len = {nt: INF for nt in prods_of}
    changed = True
    while changed:
        changed = False
        for p in cfg.productions:
            total = 0
            for s in p.slots:
                total += 1 if s.is_terminal else min_len.get(s.symbol, INF)
            if total < min_len[p.lhs]:
                min_len[p.lhs] = total
                changed = True

    def sym_min(slot):
        return 1 if slot.is_terminal else min_len.get(slot.symbol, INF)

    def derive(sym, i, j):
        if j - i < min_len.get(sym, INF):
            return
        for p in prods_of.get(sym, []):
            for split in splits(p.slots, 0, i, j):
                yield (p.pid,) + tuple(split)

    def splits(slots, idx, i, j):
        if idx == len(slots):
            if i == j:
                yield ()
            return
        slot = slots[idx]
        rest_min = sum(sym_min(s) for s in slots[idx + 1:])
        if slot.is_terminal:
            if i < j and tokens[i] == slot.symbol and j - (i + 1) >= rest_min:
                for rest in splits(slots, idx + 1, i + 1, j):
                    yield (("t", slot.symbol),) + rest
            return
        for mid in range(i + sym_min(slot), j - rest_min + 1):
            for sub in derive(slot.symbol, i, mid):
                for rest in splits(slots, idx + 1, mid, j):
                    yield (sub,) + rest

    return list(derive(start, 0, len(tokens)))


def admissible_tree(cfg: Cfg, tree, reqs=frozenset(), bound=0) -> bool:
    """Does the tree satisfy every attribute requirement and precedence
    bound along its nonterminal slots?"""
    pid = tree[0]
    p = cfg.productions[pid]
    if not reqs <= p.decl_attrs:
        return False
    if p.prec_level is not None and p.prec_level < bound:
        return False
    nt_children = [c for c in tree[1:] if c[0] != "t"]
    nt_slots = [s for s in p.slots if not s.is_terminal]
    assert len(nt_children) == len(nt_slots)
    for child, slot in zip(nt_children, nt_slots):
        if not admissible_tree(cfg, child, slot.attr_reqs, slot.prec_bound):
            return False
    return True


# ---------------------------------------------------------------------------
# Reference lexer

class _Frame:
    __slots__ = ("mode", "buffer", "start")

    def __init__(self, mode: str, start: int):
        self.mode = mode
        self.buffer: List[str] = []
        self.start = start


def _match(dfa: ModeDfa, codes, pos: int, n: int):
    """Maximal munch from pos over the codepoints `codes`; returns
    (end, accept) of the longest match, or None."""
    rows = dfa.ascii_rows
    accepts = dfa.accepts
    state = dfa.start
    best_acc = accepts[state]
    best_end = pos
    i = pos
    while i < n:
        cp = codes[i]
        state = rows[state][cp] if cp < ASCII_ROW else dfa.step(state, cp)
        if state < 0:
            break
        i += 1
        acc = accepts[state]
        if acc is not None:
            best_acc = acc
            best_end = i
    else:
        eof_state = dfa.eofs[state]
        if eof_state >= 0:
            acc = accepts[eof_state]
            if acc is not None:
                best_acc = acc
                best_end = i
    if best_acc is None:
        return None
    return best_end, best_acc


def nfa_simulate(nfa: Nfa, text: str, with_eof: bool = False) -> Optional[Tag]:
    """Direct NFA run over a whole string; test oracle for the DFA."""
    cur = nfa.eps_closure([nfa.start])
    for ch in text:
        cp = ord(ch)
        nxt = set()
        for s in cur:
            for lo, hi, t in nfa.edges[s]:
                if lo <= cp <= hi:
                    nxt.add(t)
        if not nxt:
            return None
        cur = nfa.eps_closure(nxt)
    if with_eof:
        nxt = set()
        for s in cur:
            nxt.update(nfa.eof_edges[s])
        cur = nfa.eps_closure(nxt)
    tags = [nfa.accepts[s] for s in cur if s in nfa.accepts]
    if not tags:
        return None
    return sorted(tags, key=lambda t: t.key())[0]


def reference_lex(compiled: CompiledLexer, text: str) -> LexOutput:
    """Run the mode-stack machine over text.

    Succeeds iff the mode stack first becomes empty exactly at end of input.
    An emit/pass action consumes the matched string (crediting the frame that
    is on top when the action runs); a match with no consuming action is left
    for the next mode on the stack to reprocess.
    """
    n = len(text)
    byte_of = _byte_offsets(text)
    codes = text.encode("ascii") if text.isascii() else [ord(ch) for ch in text]
    frames = [_Frame(compiled.main_mode, 0)]
    tokens: List[TokenLeaf] = []
    extracts: List[Extract] = []
    pos = 0

    while frames:
        top = frames[-1]
        m = _match(compiled.dfas[top.mode], codes, pos, n)
        if m is None:
            if pos == n:
                raise LexError("stack_nonempty_at_eof", byte_of[pos], "mode %s" % top.mode)
            raise LexError("no_match", byte_of[pos], "mode %s" % top.mode)
        end, (rule_idx, emit_token) = m
        matched = text[pos:end]
        consumed = False
        for action in compiled.mode_actions[top.mode][rule_idx]:
            if action.op == "emit":
                tokens.append(TokenLeaf(emit_token, matched, byte_of[pos], byte_of[end]))
                frames[-1].buffer.append(matched)
                consumed = True
            elif action.op == "pass":
                frames[-1].buffer.append(matched)
                consumed = True
            elif action.op == "push":
                frames.append(_Frame(action.arg, pos))
            else:
                f = frames.pop()
                f_end = end if consumed else pos
                if action.op == "pop_extract":
                    extracts.append(Extract(f.mode, "".join(f.buffer),
                                            byte_of[f.start], byte_of[f_end]))
                elif action.op == "pop_emit":
                    tokens.append(TokenLeaf(action.arg, "".join(f.buffer),
                                            byte_of[f.start], byte_of[f_end]))
                if not frames:
                    break
        if consumed:
            pos = end
        if not frames and pos < n:
            raise LexError("premature_empty", byte_of[pos])
    return LexOutput(tokens, extracts)


# ---------------------------------------------------------------------------
# Reference completion search

def _step(tables, stack: tuple, la: tuple, act: tuple):
    """Apply one action; returns (new_stack, consumed_one_token, accepted)."""
    tag = act[0]
    if tag == "shift":
        return (stack + (act[1],), True, False)
    if tag == "reduce":
        prod = tables.prods[act[1]]
        n = len(prod.rhs)
        if len(stack) <= n:
            return (None, False, False)
        rest = stack[: len(stack) - n]
        target = tables.goto.get((rest[-1], ("n", prod.lhs)))
        return (None if target is None else rest + (target,), False, False)
    if tag == "accept":
        return (stack, False, True)
    raise AssertionError(act)


def reference_complete(tables: LrTables, stack: tuple, queue: tuple, budget: int,
                       terminals: List[str]) -> Optional[List[str]]:
    """Shortest terminal suffix driving the configuration to Accept.

    `queue` holds committed upcoming terminals (the conflict lookahead);
    the returned list is queue plus whatever was appended, $ padding removed.
    """
    k = tables.k
    heap = []
    counter = 0
    start = (stack, queue)
    heapq.heappush(heap, (0, (), counter, start))
    counter += 1
    seen = set()
    popped = 0
    while heap:
        cost, appended, _c, (st, q) = heapq.heappop(heap)
        if (st, q) in seen:
            continue
        seen.add((st, q))
        popped += 1
        if popped > budget:
            return None
        if len(q) < k:
            if q and q[-1] == EOF_TERMINAL:
                choices = [EOF_TERMINAL]  # nothing follows end of input
            else:
                choices = list(terminals) + [EOF_TERMINAL]
            for t in choices:
                nq = q + (t,)
                c = cost + (0 if t == EOF_TERMINAL else 1)
                ap = appended if t == EOF_TERMINAL else appended + (t,)
                heapq.heappush(heap, (c, ap, counter, (st, nq)))
                counter += 1
            continue
        la = q[:k]
        for act in tables.action.get((st[-1], la), ()):
            ns, consumed, accepted = _step(tables, st, la, act)
            if accepted:
                return list(appended)
            if ns is None:
                continue
            nq = q[1:] if consumed else q
            heapq.heappush(heap, (cost, appended, counter, (ns, nq)))
            counter += 1
    return None


# ---------------------------------------------------------------------------
# Reference tree walks: the recursive check, hash and print steps as they
# were before they were planned per variant and run on explicit stacks.
# Kept verbatim (with their own hash counter) for the agreement tests.

_HASH_COMPUTATIONS = 0


def reference_hash_computations() -> int:
    return _HASH_COMPUTATIONS


@functools.lru_cache(maxsize=8)
def _variant_tables(text: str):
    """The AST field kinds and print templates of an artifact's text, each
    keyed by variant tuple (so ("Expr::Lit", "Int_") is no key), decoded
    once per artifact (to_json returns the same str each call)."""
    tree = json.loads(text)
    return tuple({tuple(vk.split("::")): v for vk, v in tree[key].items()}
                 for key in ("ast", "templates"))


def _ast_and_templates(compiled: CompiledLang):
    return _variant_tables(compiled.to_json())


def field_kind(compiled: CompiledLang, variant: tuple, name: str):
    for fname, kind in _ast_and_templates(compiled)[0].get(variant, ()):
        if fname == name:
            return kind
    raise KeyError("%s.%s" % ("::".join(variant), name))


def node_to_data_value(compiled: CompiledLang, n: Node):
    """Convert a Node to the datatype value layer for schema validation."""
    vk = "::".join(n.variant)
    fields = []
    for name, v in zip(n.names, n.values):
        kind = field_kind(compiled, n.variant, name)
        fields.append((name, _value_to_data(compiled, v, kind, vk, name)))
    return DataValue(n.variant, tuple(fields))


def _value_to_data(compiled, v, kind, vk, fname):
    tag = kind[0]
    if tag == "token":
        if not isinstance(v, TokenLeaf):
            raise wrong_value(v, TokenLeaf, "field %s.%s" % (vk, fname))
        return v.text
    if tag == "node":
        if not isinstance(v, Node):
            raise wrong_value(v, Node, "field %s.%s" % (vk, fname))
        return node_to_data_value(compiled, v)
    if tag == "seq":
        if not isinstance(v, SeqVal):
            raise wrong_value(v, SeqVal, "field %s.%s" % (vk, fname))
        return tuple(_value_to_data(compiled, item, kind[1], vk, fname)
                     for item in v.items)
    if tag == "opt":
        if v is None:
            return None
        return _value_to_data(compiled, v, kind[1], vk, fname)
    if tag == "bool":
        if not isinstance(v, bool):
            raise wrong_value(v, bool, "field %s.%s" % (vk, fname))
        return v
    if tag == "enum":
        if not isinstance(v, EnumVal):
            raise wrong_value(v, EnumVal, "field %s.%s" % (vk, fname))
        enum_type = "_".join(vk.split("::") + [fname])
        return DataValue((enum_type, v.label), ())
    raise AssertionError(kind)


def _check_field(schema, te: TypeExpr, v, bindings, where):
    if isinstance(te, TOpt):
        if v is None:
            return
        _check_field(schema, te.elem, v, bindings, where)
        return
    if isinstance(te, TSeq):
        if not isinstance(v, tuple):
            raise SpecError("%s: expected a tuple sequence" % where)
        for i, item in enumerate(v):
            _check_field(schema, te.elem, item, bindings, "%s[%d]" % (where, i))
        return
    if te is _ANY:
        return  # unbound type parameter: checked at instantiation sites
    name = te.name
    if name in bindings:
        bound = bindings[name]
        if bound is not None:
            _check_field(schema, bound, v, {}, where)
        return
    if name == "integer":
        if not isinstance(v, int) or isinstance(v, bool):
            raise SpecError("%s: expected integer, got %r" % (where, v))
        return
    if name == "string":
        if not isinstance(v, str):
            raise SpecError("%s: expected string, got %r" % (where, v))
        return
    if name == "boolean":
        if not isinstance(v, bool):
            raise SpecError("%s: expected boolean, got %r" % (where, v))
        return
    if not isinstance(v, DataValue):
        raise SpecError("%s: expected a %s value, got %r" % (where, name, v))
    if v.type_path[0] != name:
        raise SpecError("%s: expected %s, got %s" % (where, name, v.type_path[0]))
    params = schema.params_of(name)
    if params:
        args = tuple(_subst(a, bindings) for a in te.args)
        conforms(schema, v, bindings=dict(zip(params, args)))
    else:
        conforms(schema, v)


def conforms(schema: DatatypeSchema, v: DataValue, bindings: Optional[dict] = None):
    """Check that v's shape matches the schema; raises SpecError if not.

    For parameterized types, pass bindings like {"T": TRef("integer")} to
    check a particular instantiation; unbound parameters are wildcards.
    """
    d = schema.resolve_path(v.type_path)
    if d is None:
        raise SpecError("unknown type path %s" % "::".join(v.type_path))
    if isinstance(d, Sum):
        raise SpecError("%s is not a concrete case" % "::".join(v.type_path))
    bindings = dict(bindings or {})
    for p in schema.params_of(v.type_path[0]):
        bindings.setdefault(p, None)
    declared = [f for f, _ in d.fields]
    actual = [f for f, _ in v.fields]
    if declared != actual:
        raise SpecError("fields of %s are %s, expected %s"
                        % ("::".join(v.type_path), actual, declared))
    for (fname, fty), (_, fv) in zip(d.fields, v.fields):
        _check_field(schema, fty, fv, bindings,
                     "%s.%s" % ("::".join(v.type_path), fname))
    return True


def _ser_field(v, out: List[bytes]):
    if isinstance(v, DataValue):
        out.append(b"D")
        out.append(value_hash(v))
    elif isinstance(v, bool):
        out.append(b"B" + (b"\x01" if v else b"\x00"))
    elif isinstance(v, int):
        dec = str(v).encode("ascii")
        out.append(b"I" + _u32(len(dec)) + dec)
    elif isinstance(v, str):
        data = v.encode("utf-8")
        out.append(b"S" + _u32(len(data)) + data)
    elif isinstance(v, tuple):
        out.append(b"L" + _u32(len(v)))
        for item in v:
            _ser_field(item, out)
    elif v is None:
        out.append(b"N")
    else:
        raise TypeError(v)


def value_hash(v: DataValue) -> bytes:
    """32-byte SHA-256 over the canonical serialization, memoized per node.

    Nested values contribute their own digests, so the cache composes and
    equal structures hash equal across runs and processes.
    """
    cached = v._hash
    if cached is not None:
        return cached
    global _HASH_COMPUTATIONS
    _HASH_COMPUTATIONS += 1
    path = "::".join(v.type_path).encode("utf-8")
    out: List[bytes] = [b"V", _u32(len(path)), path]
    for fname, fv in v.fields:
        fname_b = fname.encode("utf-8")
        out.append(_u32(len(fname_b)))
        out.append(fname_b)
        _ser_field(fv, out)
    digest = hashlib.sha256(b"".join(out)).digest()
    object.__setattr__(v, "_hash", digest)
    return digest


class _Printer:
    def __init__(self, compiled: CompiledLang):
        self.compiled = compiled
        self.out: List[str] = []
        self.indent = 0

    def pad(self) -> str:
        return " " * (self.indent * self.compiled.indent_unit)

    def emit_template(self, tmpl, content_value=None, content_kind=None):
        for it in tmpl:
            if it[0] == "verbatim" or it[0] == "lit":
                self.out.append(it[1])
            elif it[0] == "content":
                self.emit_value(content_value, content_kind)
            elif it[0] == "field":
                raise AssertionError("field item outside a node template")
            else:
                raise AssertionError(it)

    def emit_node(self, n: Node):
        tmpl = _ast_and_templates(self.compiled)[1].get(n.variant)
        if tmpl is None:
            raise SpecError("no template for variant %s" % "::".join(n.variant))
        fields = dict(zip(n.names, n.values))
        for it in tmpl:
            if it[0] in ("verbatim", "lit"):
                self.out.append(it[1])
            elif it[0] == "field":
                name = it[1]
                self.emit_value(fields[name], field_kind(self.compiled, n.variant, name))
            else:
                raise AssertionError(it)

    def emit_value(self, v, kind):
        tag = kind[0]
        if tag == "token":
            if not isinstance(v, TokenLeaf):
                raise wrong_value(v, TokenLeaf, "a token field")
            self.out.append(v.text)
        elif tag == "node":
            if not isinstance(v, Node):
                raise wrong_value(v, Node, "a node field")
            self.emit_node(v)
        elif tag == "seq":
            if not isinstance(v, SeqVal):
                raise wrong_value(v, SeqVal, "a seq field")
            self.emit_seq(v, kind)
        elif tag == "opt":
            if v is not None:
                _opt_tag, elem_kind, some_tmpl, _content = kind
                self.emit_template(some_tmpl, v, elem_kind)
        elif tag == "bool":
            if v is True:
                self.emit_template(kind[1])
        elif tag == "enum":
            if not isinstance(v, EnumVal):
                raise wrong_value(v, EnumVal, "an enum field")
            for label, tmpl in kind[1]:
                if label == v.label:
                    self.emit_template(tmpl)
                    return
            raise SpecError("enum value %r has no branch" % v.label)
        else:
            raise AssertionError(kind)

    def emit_seq(self, v: SeqVal, kind):
        _tag, elem_kind, flavor, delim_tmpl, trailing, _min = kind
        items = v.items
        if not items:
            return
        blank = flavor in ("B2", "T2")
        block = flavor in ("B", "B2")
        top = flavor in ("T", "T2")

        def delim_after(i):
            if i < len(items) - 1:
                return True
            if trailing == "required":
                return True
            if trailing == "optional":
                return v.trailing
            return False

        if flavor == "L":
            for i, item in enumerate(items):
                self.emit_value(item, elem_kind)
                if delim_after(i):
                    self.emit_template(delim_tmpl)
            return

        if block:
            self.indent += 1
        for i, item in enumerate(items):
            if block or (top and i > 0):
                self.out.append("\n\n" if (blank and i > 0) else "\n")
                self.out.append(self.pad())
            self.emit_value(item, elem_kind)
            if delim_after(i):
                self.emit_template(delim_tmpl)
        if block:
            self.indent -= 1
            self.out.append("\n")
            self.out.append(self.pad())


def reference_pretty_print(compiled, n) -> str:
    p = _Printer(compiled)
    p.emit_node(n)
    return "".join(p.out)


def _render_value(v) -> str:
    if isinstance(v, Node):
        return render_node(v)
    if isinstance(v, TokenLeaf):
        return '"%s"' % v.text.replace("\\", "\\\\").replace('"', '\\"')
    if isinstance(v, EnumVal):
        return v.label
    if isinstance(v, SeqVal):
        return "[%s]" % ", ".join(_render_value(x) for x in v.items)
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    raise TypeError(v)


def render_node(n: Node) -> str:
    body = ", ".join("%s: %s" % (name, _render_value(v)) for name, v in zip(n.names, n.values))
    return "%s{%s}" % ("::".join(n.variant), body)


def _print_field(v) -> str:
    if isinstance(v, DataValue):
        return debug_print(v)
    if isinstance(v, tuple):
        return "[%s]" % ", ".join(_print_field(x) for x in v)
    if v is None:
        return "none"
    return _print_scalar(v)


def debug_print(v: DataValue) -> str:
    """Deterministic rendering; injective on schema-conforming values."""
    head = "::".join(v.type_path)
    if not v.fields:
        return head
    return "%s(%s)" % (head, ", ".join("%s: %s" % (f, _print_field(x))
                                       for f, x in v.fields))


# ---------------------------------------------------------------------------
# The hand-written .lang frontend, kept verbatim for the agreement tests.

KEYWORDS = {
    "tokens", "lexer", "parser", "compile_test", "test",
    "main", "mode", "prec", "prop", "attr",
    "emit", "pass", "push", "pop", "pop_extract", "pop_emit",
    "eof", "eps", "name_strict",
    "assoc_left", "assoc_right", "prefix", "postfix", "LR", "pr",
}

# longest first so the scanner can take the first match
PUNCT = [
    "<<>>", "#B2", "#T2", "#Alt", "#L", "#B", "#T",
    "<-", "<=", "=>", "->", "::", ":?", "..", "++",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", ":", "|", "*", "+", "?",
    "~", "@", "=", "_", "!",
]


class MetaToken:
    __slots__ = ("kind", "text", "loc")

    def __init__(self, kind: str, text: str, loc: Loc):
        self.kind = kind  # "id" | "int" | "str" | "punct" | "kw" | "eof"
        self.text = text
        self.loc = loc

    def __repr__(self):
        return "MetaToken(%s, %r)" % (self.kind, self.text)



def scan_meta(source: str) -> List[MetaToken]:
    toks: List[MetaToken] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def loc():
        return Loc(line, col)

    def advance(text):
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            if j < 0:
                j = n
            advance(source[i:j])
            i = j
            continue
        start = loc()
        if ch == "`":
            j = i + 1
            while j < n:
                if source[j] == "\\":
                    j += 2
                    continue
                if source[j] == "`":
                    break
                j += 1
            if j >= n:
                raise SpecError("unterminated backtick literal", start)
            raw = source[i:j + 1]
            decode_backtick(raw, start)  # validate escapes eagerly
            toks.append(MetaToken("str", raw, start))
            advance(raw)
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            toks.append(MetaToken("int", source[i:j], start))
            advance(source[i:j])
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if word == "_":
                toks.append(MetaToken("punct", "_", start))
            elif word in KEYWORDS:
                toks.append(MetaToken("kw", word, start))
            else:
                toks.append(MetaToken("id", word, start))
            advance(word)
            i = j
            continue
        for p in PUNCT:
            if source.startswith(p, i):
                toks.append(MetaToken("punct", p, start))
                advance(p)
                i += len(p)
                break
        else:
            raise SpecError("unexpected character %r" % ch, start)
    toks.append(MetaToken("eof", "", loc()))
    return toks


PE_ATOM_START = {
    ("str", None), ("id", None), ("punct", "_"), ("punct", "("), ("punct", "@"),
    ("punct", "~"), ("kw", "eps"),
    ("punct", "#L"), ("punct", "#B"), ("punct", "#B2"), ("punct", "#T"),
    ("punct", "#T2"), ("punct", "#Alt"),
}


class _Parser:
    def __init__(self, toks: List[MetaToken]):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0) -> MetaToken:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> MetaToken:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> MetaToken:
        t = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise SpecError("expected %r, found %r" % (want, t.text or "<eof>"), t.loc)
        return self.next()

    def ident(self) -> str:
        return self.expect("id").text

    # -- file ---------------------------------------------------------------

    def parse_file(self) -> LangSpec:
        token_decls: List[TokenDecl] = []
        lexer: Optional[LexerSpec] = None
        parser: Optional[ParserSpec] = None
        compile_tests: List[LrTestDecl] = []
        parse_tests: List[ParseTestDecl] = []
        seen = set()
        while not self.at("eof"):
            t = self.peek()
            if t.kind != "kw" or t.text not in ("tokens", "lexer", "parser", "compile_test", "test"):
                raise SpecError("expected a stanza keyword, found %r" % t.text, t.loc)
            if t.text in seen:
                raise SpecError("duplicate %s stanza" % t.text, t.loc)
            seen.add(t.text)
            self.next()
            self.expect("punct", "{")
            if t.text == "tokens":
                token_decls = self.parse_token_decls()
            elif t.text == "lexer":
                lexer = self.parse_lexer_stanza()
            elif t.text == "parser":
                parser = self.parse_parser_stanza()
            elif t.text == "compile_test":
                compile_tests = self.parse_compile_tests()
            else:
                parse_tests = self.parse_parse_tests()
            self.expect("punct", "}")
        if lexer is None:
            raise SpecError("missing lexer stanza")
        if parser is None:
            raise SpecError("missing parser stanza")
        return LangSpec(
            token_decls=tuple(token_decls),
            lexer=lexer,
            parser=parser,
            compile_tests=tuple(compile_tests),
            parse_tests=tuple(parse_tests),
        )

    # -- tokens -------------------------------------------------------------

    def parse_token_decls(self) -> List[TokenDecl]:
        decls = []
        while not self.at("punct", "}"):
            loc = self.peek().loc
            name = self.ident()
            if self.at("punct", "<-"):
                kind = "opaque"
            elif self.at("punct", "<="):
                kind = "alias"
            else:
                raise SpecError("expected '<-' or '<=' in token declaration", self.peek().loc)
            self.next()
            pat = self.parse_regex()
            self.expect("punct", ";")
            decls.append(TokenDecl(name, kind, pat, loc))
        return decls

    # regex precedence: alt < concat < postfix < atom
    def parse_regex(self) -> RegexExpr:
        parts = [self.parse_regex_concat()]
        while self.at("punct", "|"):
            self.next()
            parts.append(self.parse_regex_concat())
        return parts[0] if len(parts) == 1 else RAlt(tuple(parts))

    def _at_regex_atom(self) -> bool:
        t = self.peek()
        return (t.kind, t.text) in (("kw", "eof"),) or t.kind == "str" or t.kind == "id" \
            or (t.kind == "punct" and t.text in ("_", "("))

    def parse_regex_concat(self) -> RegexExpr:
        parts = [self.parse_regex_postfix()]
        while self._at_regex_atom():
            parts.append(self.parse_regex_postfix())
        return parts[0] if len(parts) == 1 else RConcat(tuple(parts))

    def parse_regex_postfix(self) -> RegexExpr:
        e = self.parse_regex_atom()
        while True:
            if self.at("punct", "*"):
                self.next()
                e = RStar(e)
            elif self.at("punct", "+"):
                self.next()
                e = RConcat((e, RStar(e)))
            elif self.at("punct", "?"):
                self.next()
                e = RAlt((e, RConcat(())))
            else:
                return e

    def parse_regex_atom(self) -> RegexExpr:
        t = self.peek()
        if t.kind == "str":
            self.next()
            text = decode_backtick(t.text, t.loc)
            if self.at("punct", ".."):
                self.next()
                hi_tok = self.expect("str")
                hi = decode_backtick(hi_tok.text, hi_tok.loc)
                if len(text) != 1 or len(hi) != 1:
                    raise SpecError("character range bounds must be single characters", t.loc)
                if ord(text) > ord(hi):
                    raise SpecError("empty character range %s..%s" % (
                        quote_backtick(text), quote_backtick(hi)), t.loc)
                return RRange(text, hi)
            return RLit(text)
        if t.kind == "id":
            self.next()
            return RRef(t.text)
        if t.kind == "kw" and t.text == "eof":
            self.next()
            return REof()
        if t.kind == "punct" and t.text == "_":
            self.next()
            return RWildcard()
        if t.kind == "punct" and t.text == "(":
            self.next()
            e = self.parse_regex()
            self.expect("punct", ")")
            return e
        raise SpecError("expected a token pattern, found %r" % (t.text or "<eof>"), t.loc)

    # -- lexer --------------------------------------------------------------

    def parse_lexer_stanza(self) -> LexerSpec:
        main: Optional[str] = None
        modes: List[Tuple[str, Tuple[LexerRule, ...]]] = []
        while not self.at("punct", "}"):
            t = self.peek()
            if t.kind == "kw" and t.text == "main":
                if main is not None:
                    raise SpecError("duplicate main declaration in lexer", t.loc)
                self.next()
                self.expect("punct", "{")
                main = self.ident()
                self.expect("punct", "}")
            elif t.kind == "kw" and t.text == "mode":
                self.next()
                name = self.ident()
                self.expect("punct", "{")
                rules = []
                while not self.at("punct", "}"):
                    rules.append(self.parse_lexer_rule())
                self.expect("punct", "}")
                modes.append((name, tuple(rules)))
            else:
                raise SpecError("expected 'main' or 'mode' in lexer stanza", t.loc)
        if main is None:
            raise SpecError("lexer stanza has no main declaration")
        return LexerSpec(main, tuple(modes))

    def parse_lexer_rule(self) -> LexerRule:
        loc = self.peek().loc
        pat = self.parse_regex()
        self.expect("punct", "=>")
        self.expect("punct", "{")
        actions = []
        while not self.at("punct", "}"):
            t = self.peek()
            if t.kind != "kw":
                raise SpecError("expected a lexer action, found %r" % t.text, t.loc)
            self.next()
            if t.text == "emit":
                actions.append(LexerAction("emit"))
            elif t.text == "pass":
                actions.append(LexerAction("pass"))
            elif t.text == "push":
                actions.append(LexerAction("push", self.ident()))
            elif t.text == "pop":
                actions.append(LexerAction("pop"))
            elif t.text == "pop_extract":
                actions.append(LexerAction("pop_extract"))
            elif t.text == "pop_emit":
                actions.append(LexerAction("pop_emit", self.ident()))
            else:
                raise SpecError("unknown lexer action %r" % t.text, t.loc)
            self.expect("punct", ";")
        self.expect("punct", "}")
        if not actions:
            raise SpecError("lexer rule has an empty action list", loc)
        return LexerRule(pat, tuple(actions), loc)

    # -- parser -------------------------------------------------------------

    def parse_parser_stanza(self) -> ParserSpec:
        main: Optional[Tuple[str, ...]] = None
        prec_lines: List[PrecLine] = []
        props: List[str] = []
        attr_lines: List[AttrLine] = []
        rules: List[RuleDecl] = []
        while not self.at("punct", "}"):
            t = self.peek()
            if t.kind == "kw" and t.text == "main":
                if main is not None:
                    raise SpecError("duplicate main declaration in parser", t.loc)
                self.next()
                self.expect("punct", "{")
                names = [self.ident()]
                while self.at("punct", ","):
                    self.next()
                    names.append(self.ident())
                self.expect("punct", "}")
                main = tuple(names)
            elif t.kind == "kw" and t.text == "prec":
                self.next()
                self.expect("punct", "{")
                while not self.at("punct", "}"):
                    prec_lines.append(self.parse_prec_line())
                self.expect("punct", "}")
            elif t.kind == "kw" and t.text == "prop":
                self.next()
                self.expect("punct", "{")
                while not self.at("punct", "}"):
                    ft = self.peek()
                    if ft.kind == "kw" and ft.text == "name_strict":
                        self.next()
                        props.append("name_strict")
                    else:
                        raise SpecError("unknown prop flag %r" % ft.text, ft.loc)
                    self.expect("punct", ";")
                self.expect("punct", "}")
            elif t.kind == "kw" and t.text == "attr":
                self.next()
                self.expect("punct", "{")
                while not self.at("punct", "}"):
                    attr_lines.append(self.parse_attr_line())
                self.expect("punct", "}")
            elif t.kind == "id":
                rules.append(self.parse_rule_decl())
            else:
                raise SpecError("expected a parser rule or directive, found %r" % t.text, t.loc)
        if main is None:
            raise SpecError("parser stanza has no main declaration")
        return ParserSpec(main, tuple(prec_lines), tuple(props), tuple(attr_lines), tuple(rules))

    def parse_dotted(self) -> Tuple[str, ...]:
        parts = [self.ident()]
        while self.at("punct", "."):
            self.next()
            parts.append(self.ident())
        return tuple(parts)

    def parse_prec_line(self) -> PrecLine:
        loc = self.peek().loc
        paths = [self.parse_dotted()]
        while self.at("id"):
            paths.append(self.parse_dotted())
        tag = None
        t = self.peek()
        if t.kind == "kw" and t.text in ("assoc_left", "assoc_right", "prefix", "postfix"):
            tag = t.text
            self.next()
        self.expect("punct", ";")
        return PrecLine(tuple(paths), tag, loc)

    def parse_attr_line(self) -> AttrLine:
        loc = self.peek().loc
        path = self.parse_dotted()
        if self.at("punct", "->"):
            self.next()
            target = self.ident()
            self.expect("punct", "[")
            attr = self.ident()
            self.expect("punct", "]")
            self.expect("punct", ";")
            return AttrLine(path, attr, target, loc)
        self.expect("punct", "[")
        attr = self.ident()
        self.expect("punct", "]")
        self.expect("punct", ";")
        return AttrLine(path, attr, None, loc)

    def parse_rule_decl(self) -> RuleDecl:
        loc = self.peek().loc
        path = self.parse_dotted()
        lhs_attrs: Tuple[str, ...] = ()
        if self.at("punct", "["):
            self.next()
            attrs = [self.ident()]
            while self.at("punct", ","):
                self.next()
                attrs.append(self.ident())
            self.expect("punct", "]")
            lhs_attrs = tuple(attrs)
        self.expect("punct", "<-")
        rhs = self.parse_pe_alt()
        self.expect("punct", ";")
        return RuleDecl(path, lhs_attrs, rhs, loc)

    # parse-expr precedence: alt < seq < prefix (name, ~) < postfix < atom

    def parse_pe_alt(self) -> ParseExpr:
        first = self.parse_pe_seq()
        if not self.at("punct", "|"):
            return first
        branches = [first]
        while self.at("punct", "|"):
            self.next()
            branches.append(self.parse_pe_seq())
        return self._branches_to_alt(branches)

    def _branches_to_alt(self, branches: List[ParseExpr]) -> AltBranches:
        labeled = []
        for i, b in enumerate(branches):
            if isinstance(b, Named):
                labeled.append((b.field_name, b.inner))
            else:
                labeled.append(("_b%d" % i, b))
        return AltBranches(tuple(labeled))

    def _at_pe_atom(self) -> bool:
        t = self.peek()
        return (t.kind, None if t.kind in ("str", "id") else t.text) in PE_ATOM_START

    def parse_pe_seq(self) -> ParseExpr:
        items = [self.parse_pe_prefix()]
        while self._at_pe_atom():
            items.append(self.parse_pe_prefix())
        return items[0] if len(items) == 1 else Seq(tuple(items))

    def parse_pe_prefix(self) -> ParseExpr:
        t = self.peek()
        if t.kind == "id" and self.peek(1).kind == "punct" and self.peek(1).text == ":":
            self.next()
            self.next()
            return Named(t.text, self.parse_pe_prefix())
        if t.kind == "punct" and t.text == "~":
            self.next()
            return Unfold(self.parse_pe_prefix())
        return self.parse_pe_postfix()

    def parse_pe_postfix(self) -> ParseExpr:
        e = self.parse_pe_atom()
        while True:
            if self.at("punct", "*"):
                self.next()
                e = Star(e)
            elif self.at("punct", "+"):
                self.next()
                e = Plus(e)
            elif self.at("punct", "?"):
                self.next()
                e = Optional_(e)
            elif self.at("punct", "["):
                e = self._attach_attrs(e)
            else:
                return e

    def _attach_attrs(self, e: ParseExpr) -> ParseExpr:
        loc = self.expect("punct", "[").loc
        reqs: List[str] = []
        pr_star = False
        while True:
            if self.at("kw", "pr"):
                self.next()
                self.expect("punct", "=")
                self.expect("punct", "*")
                pr_star = True
            else:
                reqs.append(self.ident())
            if self.at("punct", ","):
                self.next()
                continue
            break
        self.expect("punct", "]")
        if not isinstance(e, NontermRef):
            raise SpecError("attribute requirements apply only to nonterminal references", loc)
        return NontermRef(e.name, e.attr_reqs + tuple(reqs), e.pr_star or pr_star)

    def parse_pe_atom(self) -> ParseExpr:
        t = self.peek()
        if t.kind == "str":
            self.next()
            return TermLiteral(decode_backtick(t.text, t.loc))
        if t.kind == "id":
            self.next()
            # resolved to TokenRef/NontermRef by reference_resolve_refs
            return NontermRef(t.text)
        if t.kind == "kw" and t.text == "eps":
            self.next()
            return Eps()
        if t.kind == "punct" and t.text == "_":
            self.next()
            return SpaceShorthand()
        if t.kind == "punct" and t.text == "@":
            self.next()
            self.expect("punct", "(")
            s = self.expect("str")
            self.expect("punct", ")")
            return PassString(decode_backtick(s.text, s.loc))
        if t.kind == "punct" and t.text == "(":
            self.next()
            inner = self.parse_pe_alt()
            self.expect("punct", ")")
            if isinstance(inner, AltBranches):
                return inner
            return inner  # plain grouping
        if t.kind == "punct" and t.text == "#Alt":
            self.next()
            self.expect("punct", "[")
            branch = self.parse_pe_seq()
            self.expect("punct", "]")
            if isinstance(branch, Named):
                label, inner = branch.field_name, branch.inner
            else:
                raise SpecError("#Alt branch must be labeled, e.g. #Alt[Neg:`-`]", t.loc)
            return SingletonAlt(label, inner)
        if t.kind == "punct" and t.text in ("#L", "#B", "#B2", "#T", "#T2"):
            self.next()
            flavor = t.text[1:]
            self.expect("punct", "[")
            elem = self.parse_pe_seq()
            self.expect("punct", "::")
            min_count = 0
            if self.at("punct", "+"):
                self.next()
                min_count = 1
            elif self.at("punct", "++"):
                self.next()
                min_count = 2
            delim = self.parse_pe_seq()
            trailing = "none"
            if self.at("punct", "::"):
                self.next()
                trailing = "required"
            elif self.at("punct", ":?"):
                self.next()
                trailing = "optional"
            self.expect("punct", "]")
            return ListExpr(flavor, elem, min_count, delim, trailing)
        raise SpecError("expected a parse expression, found %r" % (t.text or "<eof>"), t.loc)

    # -- compile_test / test --------------------------------------------------

    def parse_compile_tests(self) -> List[LrTestDecl]:
        out = []
        while not self.at("punct", "}"):
            expect_success = True
            if self.at("punct", "!"):
                self.next()
                expect_success = False
            self.expect("kw", "LR")
            self.expect("punct", "(")
            k = int(self.expect("int").text)
            self.expect("punct", ")")
            self.expect("punct", ";")
            out.append(LrTestDecl(k, expect_success))
        return out

    def parse_parse_tests(self) -> List[ParseTestDecl]:
        out = []
        while not self.at("punct", "}"):
            s = self.expect("str")
            text = decode_backtick(s.text, s.loc)
            skip = False
            if self.at("punct", "<<>>"):
                self.next()
                skip = True
            self.expect("punct", ";")
            out.append(make_parse_test(text, s.loc, skip))
        return out


def reference_resolve_refs(spec: LangSpec) -> LangSpec:
    """Second pass: bare identifiers in rule bodies become TokenRef or NontermRef."""
    opaque = set(spec.opaque_names())

    def walk(e: ParseExpr) -> ParseExpr:
        if isinstance(e, NontermRef):
            if e.name in opaque:
                if e.attr_reqs or e.pr_star:
                    raise SpecError("attribute requirements apply only to nonterminal "
                                    "references, but %r is a token" % e.name)
                return TokenRef(e.name)
            return e
        if isinstance(e, Named):
            return Named(e.field_name, walk(e.inner))
        if isinstance(e, Seq):
            return Seq(tuple(walk(p) for p in e.items))
        if isinstance(e, AltBranches):
            return AltBranches(tuple((lbl, walk(inner)) for lbl, inner in e.branches))
        if isinstance(e, SingletonAlt):
            return SingletonAlt(e.label, walk(e.inner))
        if isinstance(e, Star):
            return Star(walk(e.inner))
        if isinstance(e, Plus):
            return Plus(walk(e.inner))
        if isinstance(e, Optional_):
            return Optional_(walk(e.inner))
        if isinstance(e, ListExpr):
            return ListExpr(e.flavor, walk(e.elem), e.min_count, walk(e.delim), e.trailing)
        if isinstance(e, Unfold):
            return Unfold(walk(e.inner))
        return e

    rules = tuple(RuleDecl(r.path, r.lhs_attrs, walk(r.rhs), r.loc) for r in spec.parser.rules)
    p = spec.parser
    return LangSpec(spec.token_decls, spec.lexer,
                    ParserSpec(p.main_nonterms, p.prec_lines, p.props, p.attr_lines, rules),
                    spec.compile_tests, spec.parse_tests)


def reference_parse_lang_spec(source: str) -> LangSpec:
    """parse_lang_spec on the hand-written scanner and parser."""
    return _checked(reference_resolve_refs(_Parser(scan_meta(source)).parse_file()))


def reference_render_regex(e: RegexExpr, prec: int = 0) -> str:
    """render_regex, recursive."""
    # precedence: 0 alt, 1 concat, 2 postfix/atom
    if isinstance(e, RAlt):
        s = " | ".join(reference_render_regex(p, 1) for p in e.parts)
        return "(" + s + ")" if prec > 0 else s
    if isinstance(e, RConcat):
        if not e.parts:
            return "()"
        s = " ".join(reference_render_regex(p, 2) for p in e.parts)
        return "(" + s + ")" if prec > 1 else s
    if isinstance(e, RStar):
        return reference_render_regex(e.inner, 2) + "*"
    if isinstance(e, RLit):
        return quote_backtick(e.text)
    if isinstance(e, RRange):
        return "%s..%s" % (quote_backtick(e.lo), quote_backtick(e.hi))
    if isinstance(e, RRef):
        return e.name
    if isinstance(e, RWildcard):
        return "_"
    if isinstance(e, REof):
        return "eof"
    raise TypeError(e)


def reference_render_parse_expr(e: ParseExpr, prec: int = 0) -> str:
    """render_parse_expr, recursive."""
    # precedence: 0 alt, 1 seq, 2 prefix (name/unfold), 3 postfix, 4 atom
    def wrap(s, at):
        return "(" + s + ")" if prec > at else s

    if isinstance(e, AltBranches):
        s = " | ".join("%s:%s" % (lbl, reference_render_parse_expr(inner, 2))
                       for lbl, inner in e.branches)
        # alternation only ever appears parenthesized in the surface syntax
        return "(" + s + ")"
    if isinstance(e, Seq):
        if not e.items:
            return "eps"
        return wrap(" ".join(reference_render_parse_expr(p, 2) for p in e.items), 1)
    if isinstance(e, Named):
        return wrap("%s:%s" % (e.field_name, reference_render_parse_expr(e.inner, 2)), 2)
    if isinstance(e, Unfold):
        return wrap("~" + reference_render_parse_expr(e.inner, 2), 2)
    if isinstance(e, Star):
        return reference_render_parse_expr(e.inner, 3) + "*"
    if isinstance(e, Plus):
        return reference_render_parse_expr(e.inner, 3) + "+"
    if isinstance(e, Optional_):
        return reference_render_parse_expr(e.inner, 3) + "?"
    if isinstance(e, TermLiteral):
        return quote_backtick(e.text)
    if isinstance(e, TokenRef):
        return e.name
    if isinstance(e, NontermRef):
        s = e.name
        reqs = list(e.attr_reqs) + (["pr=*"] if e.pr_star else [])
        if reqs:
            s += "[" + ", ".join(reqs) + "]"
        return s
    if isinstance(e, SingletonAlt):
        return "#Alt[%s:%s]" % (e.label, reference_render_parse_expr(e.inner, 2))
    if isinstance(e, ListExpr):
        num = {0: "::", 1: "::+", 2: "::++"}[e.min_count]
        end = {"none": "", "optional": ":?", "required": "::"}[e.trailing]
        return "#%s[%s%s%s%s]" % (e.flavor, reference_render_parse_expr(e.elem, 0), num,
                                  reference_render_parse_expr(e.delim, 0), end)
    if isinstance(e, PassString):
        return "@(%s)" % quote_backtick(e.text)
    if isinstance(e, SpaceShorthand):
        return "_"
    if isinstance(e, Eps):
        return "eps"
    raise TypeError(e)


def reference_to_json(compiled: CompiledLang) -> str:
    """The canonical JSON text of the artifact: sorted keys, one-space
    indents, a newline at the end, written by json's own encoder from the
    tree of compiled.to_json()'s text.  Each top-level field is encoded on
    its own and indented one more step, as json.dumps keeps every small
    piece of its output until it joins them, several times the text."""
    tree = json.loads(compiled.to_json())
    encode = json.JSONEncoder(sort_keys=True, indent=1, separators=(",", ": "),
                              ensure_ascii=False).encode
    return "{\n%s\n}\n" % ",\n".join(
        " %s: %s" % (encode(key), encode(tree[key]).replace("\n", "\n "))
        for key in sorted(tree))


def reference_flatten_lists(tables: LrTables):
    """(action list, goto list, action rows, goto rows) of a conflict-free
    build, as flatten built them cell by cell."""
    inst_index = {}

    def inst_ref(inst) -> str:
        if inst not in inst_index:
            inst_index[inst] = inst.mangled()
        return inst_index[inst]

    k, n_states = tables.k, len(tables.states)
    action_rows = [{} for _ in range(n_states)]
    goto_rows = [{} for _ in range(n_states)]
    reduce_cells = [-2 - p for p in range(len(tables.prods))]  # one int per production

    action_json = []  # in the tables' order: by state, then lookahead
    for (state, la), acts in tables.action.items():
        if len(acts) != 1:
            raise SpecError("cannot flatten tables with conflicts")
        tag, arg = acts[0]
        action_json.append([state, list(la), [tag, arg]])
        action_rows[state][la[0] if k == 1 else la] = (
            arg if tag == "shift" else -1 if tag == "accept" else reduce_cells[arg])

    goto_json = []
    for (state, (kind, x)), target in tables.goto.items():
        ref = x if kind == "t" else inst_ref(x)
        goto_json.append([state, kind, ref, target])
        if kind == "n":
            goto_rows[state][ref] = target
    # by state, then nonterminals ("n") before terminals ("t"), then name:
    # no two entries share all three, so the targets are never compared
    goto_json.sort()
    return action_json, goto_json, action_rows, goto_rows


class FirstK:
    def __init__(self, ig: InstGrammar, k: int):
        self.ig = ig
        self.k = k
        self.first: Dict[Inst, Set[tuple]] = {inst: set() for inst in ig.insts}
        self._fixpoint()

    def _seq_sets(self, syms) -> Set[tuple]:
        """All k-truncated terminal prefixes derivable from a symbol sequence.

        Tuples shorter than k mean the whole sequence can derive that short
        string (they still need extension by right context).
        """
        k = self.k
        cur = {()}
        for sym in syms:
            nxt = set()
            if sym[0] == "t":
                for p in cur:
                    nxt.add(p if len(p) == k else p + (sym[1],))
            else:
                fs = self.first[sym[1]]
                for p in cur:
                    if len(p) == k:
                        nxt.add(p)
                        continue
                    for w in fs:
                        nxt.add((p + w)[:k])
            cur = nxt
        return cur

    def _fixpoint(self):
        changed = True
        while changed:
            changed = False
            for ip in self.ig.iprods:
                target = self.first[ip.lhs]
                for w in self._seq_sets(ip.rhs):
                    if w not in target:
                        target.add(w)
                        changed = True

    def beta_first(self, syms) -> Tuple[frozenset, frozenset]:
        """Split FIRST prefixes of syms into (complete k-tuples, shorter ones)."""
        sets = self._seq_sets(syms)
        full = frozenset(w for w in sets if len(w) == self.k)
        partial = frozenset(w for w in sets if len(w) < self.k)
        return full, partial


def reference_lr(cfg: Cfg, k: int):
    """Canonical LR(k) of cfg, each goto target closed item by item and then
    looked up by its closed set.  Productions are numbered as in
    LrTables.prods: the instance productions, then one start production per
    main.  Returns (states, goto, action) with each action cell a set."""
    ig = expand_instances(cfg)
    fk = FirstK(ig, k)
    rhss = [ip.rhs for ip in ig.iprods]
    main_of = {}
    for m in cfg.mains:
        main_of[len(rhss)] = m
        rhss.append((("n", ig.start_insts[m]),))
    by_lhs = {}
    for pi, ip in enumerate(ig.iprods):
        by_lhs.setdefault(ip.lhs, []).append(pi)

    def lookaheads_after(pi, dot, la):
        full, partial = fk.beta_first(rhss[pi][dot:])
        return full | _extend(partial, (la,), k)

    def closure(kernel):
        items = set(kernel)
        work = list(kernel)
        while work:
            pi, dot, la = work.pop()
            rhs = rhss[pi]
            if dot >= len(rhs) or rhs[dot][0] != "n":
                continue
            for w in lookaheads_after(pi, dot + 1, la):
                for cpi in by_lhs.get(rhs[dot][1], ()):
                    if (cpi, 0, w) not in items:
                        items.add((cpi, 0, w))
                        work.append((cpi, 0, w))
        return frozenset(items)

    states, state_of, goto = [], {}, {}

    def ensure_state(kernel):
        closed = closure(kernel)
        if closed not in state_of:
            state_of[closed] = len(states)
            states.append(closed)
        return state_of[closed]

    for pi, m in main_of.items():
        ensure_state([(pi, 0, (EOF_TERMINAL,) * k)])
    idx = 0
    while idx < len(states):
        by_symbol = {}
        for pi, dot, la in sorted(states[idx]):
            rhs = rhss[pi]
            if dot < len(rhs):
                by_symbol.setdefault(rhs[dot], []).append((pi, dot + 1, la))
        for key in sorted(by_symbol, key=_sym_sort_key):
            goto[(idx, key)] = ensure_state(by_symbol[key])
        idx += 1

    action = {}
    for idx, items in enumerate(states):
        for pi, dot, la in items:
            rhs = rhss[pi]
            if dot == len(rhs):
                act = ("accept", main_of[pi]) if pi in main_of else ("reduce", pi)
                action.setdefault((idx, la), set()).add(act)
            elif rhs[dot][0] == "t":
                for w in lookaheads_after(pi, dot, la):
                    action.setdefault((idx, w), set()).add(("shift", goto[(idx, rhs[dot])]))
    return states, goto, action


# ---------------------------------------------------------------------------
# Reference lexer compilation and token validation

def _ref_add_regex(nfa: Nfa, e: RegexExpr, src: int) -> int:
    if isinstance(e, RLit):
        cur = src
        for ch in e.text:
            nxt = nfa.new_state()
            cp = ord(ch)
            nfa.edges[cur].append((cp, cp, nxt))
            cur = nxt
        return cur
    if isinstance(e, RRange):
        nxt = nfa.new_state()
        nfa.edges[src].append((ord(e.lo), ord(e.hi), nxt))
        return nxt
    if isinstance(e, RWildcard):
        nxt = nfa.new_state()
        nfa.edges[src].append((0, MAX_CODEPOINT, nxt))
        return nxt
    if isinstance(e, REof):
        nxt = nfa.new_state()
        nfa.eof_edges[src].append(nxt)
        return nxt
    if isinstance(e, RConcat):
        cur = src
        for p in e.parts:
            cur = _ref_add_regex(nfa, p, cur)
        return cur
    if isinstance(e, RAlt):
        out = nfa.new_state()
        for p in e.parts:
            entry = nfa.new_state()
            nfa.eps[src].append(entry)
            end = _ref_add_regex(nfa, p, entry)
            nfa.eps[end].append(out)
        return out
    if isinstance(e, RStar):
        hub = nfa.new_state()
        nfa.eps[src].append(hub)
        entry = nfa.new_state()
        nfa.eps[hub].append(entry)
        end = _ref_add_regex(nfa, e.inner, entry)
        nfa.eps[end].append(hub)
        return hub
    raise TypeError(e)


def _expand_aliases(e: RegexExpr, env) -> RegexExpr:
    if isinstance(e, RRef):
        if e.name not in env:
            raise LexCompileError("reference to unknown token %r" % e.name)
        return _expand_aliases(env[e.name], env)
    if isinstance(e, RConcat):
        return RConcat(tuple(_expand_aliases(p, env) for p in e.parts))
    if isinstance(e, RAlt):
        return RAlt(tuple(_expand_aliases(p, env) for p in e.parts))
    if isinstance(e, RStar):
        return RStar(_expand_aliases(e.inner, env))
    return e


def _nullable(e: RegexExpr) -> bool:
    if isinstance(e, RLit):
        return e.text == ""
    if isinstance(e, RConcat):
        return all(_nullable(p) for p in e.parts)
    if isinstance(e, RAlt):
        return any(_nullable(p) for p in e.parts)
    if isinstance(e, RStar):
        return True
    return False  # RRange, RWildcard, REof (refs are expanded before this)


def _contains_eof(e: RegexExpr) -> bool:
    if isinstance(e, REof):
        return True
    if isinstance(e, (RConcat, RAlt)):
        return any(_contains_eof(p) for p in e.parts)
    if isinstance(e, RStar):
        return _contains_eof(e.inner)
    return False


def _emit_constituents(e: RegexExpr, decls, stack=()):
    if isinstance(e, RLit):
        if e.text == "":
            raise LexCompileError("cannot emit the empty literal")
        return [(literal_terminal(e.text), e, True)]
    if isinstance(e, RRef):
        decl = decls.get(e.name)
        if decl is None:
            raise LexCompileError("emit pattern references unknown token %r" % e.name)
        if decl.kind == "opaque":
            return [(e.name, decl.pattern, False)]
        if e.name in stack:
            raise LexCompileError("cyclic alias %r in emit pattern" % e.name)
        return _emit_constituents(decl.pattern, decls, stack + (e.name,))
    if isinstance(e, RAlt):
        out = []
        for p in e.parts:
            out.extend(_emit_constituents(p, decls, stack))
        return out
    if isinstance(e, RConcat) and len(e.parts) == 1:
        return _emit_constituents(e.parts[0], decls, stack)
    raise LexCompileError(
        "emit pattern has no token identity; use opaque tokens, literals, "
        "or an alias alternation over them")


def reference_subset_construct(mode: str, nfa: Nfa) -> ModeDfa:
    start_set = nfa.eps_closure([nfa.start])
    order: Dict[frozenset, int] = {start_set: 0}
    work = [start_set]
    rows = []
    witnesses = {start_set: ""}

    while work:
        cur = work.pop(0)
        # atomic interval partition of the outgoing labels
        points = set()
        for s in cur:
            for lo, hi, _t in nfa.edges[s]:
                points.add(lo)
                points.add(hi + 1)
        cuts = sorted(points)
        transitions = []
        for i in range(len(cuts) - 1):
            lo, nxt_cut = cuts[i], cuts[i + 1]
            hi = nxt_cut - 1
            move = set()
            for s in cur:
                for elo, ehi, t in nfa.edges[s]:
                    # cut points refine every edge, so overlap implies containment
                    if elo <= lo and hi <= ehi:
                        move.add(t)
            if not move:
                continue
            target = nfa.eps_closure(move)
            if target not in order:
                order[target] = len(order)
                work.append(target)
                witnesses[target] = witnesses[cur] + chr(lo)
            transitions.append((lo, hi, order[target]))
        eof_move = set()
        for s in cur:
            eof_move.update(nfa.eof_edges[s])
        eof_target = None
        if eof_move:
            target = nfa.eps_closure(eof_move)
            if target not in order:
                order[target] = len(order)
                work.append(target)
                witnesses[target] = witnesses[cur]  # eof adds no characters
            eof_target = order[target]
        rows.append((cur, tuple(transitions), eof_target))

    states = []
    for cur, transitions, eof_target in rows:
        tag = _resolve_accept(mode, cur, nfa, witnesses[cur])
        states.append((transitions, eof_target, tag))
    return ModeDfa(mode, states)


def reference_compile_lexer(spec: LangSpec) -> CompiledLexer:
    decls = {d.name: d for d in spec.token_decls}
    env = {d.name: d.pattern for d in spec.token_decls}

    emittable = set()
    dfas = {}
    mode_actions = {}
    for mode_name, rules in spec.lexer.modes:
        nfa = Nfa()
        for idx, rule in enumerate(rules):
            if any(a.op == "emit" for a in rule.actions):
                for token_id, pattern, is_lit in _emit_constituents(rule.pattern, decls):
                    expanded = _expand_aliases(pattern, env)
                    if _contains_eof(expanded):
                        raise LexCompileError("eof cannot appear inside an emitted pattern")
                    if _nullable(expanded):
                        raise LexCompileError(
                            "token %s matches the empty string" % token_id)
                    end = _ref_add_regex(nfa, expanded, nfa.start)
                    nfa.accepts[end] = Tag(idx, token_id, is_lit, False)
                    emittable.add(token_id)
            else:
                expanded = _expand_aliases(rule.pattern, env)
                is_default = isinstance(rule.pattern, RWildcard)
                if isinstance(expanded, REof):
                    pass  # bare eof rule
                elif _contains_eof(expanded):
                    raise LexCompileError(
                        "eof may only be used as a whole lexer-rule pattern")
                elif _nullable(expanded):
                    raise LexCompileError(
                        "lexer rule pattern in mode %r matches the empty string" % mode_name)
                end = _ref_add_regex(nfa, expanded, nfa.start)
                nfa.accepts[end] = Tag(idx, None, False, is_default)
            for a in rule.actions:
                if a.op == "pop_emit":
                    emittable.add(a.arg)
        dfas[mode_name] = reference_subset_construct(mode_name, nfa)
        mode_actions[mode_name] = tuple(rule.actions for rule in rules)
    return CompiledLexer(spec.lexer.main_mode, dfas, mode_actions, frozenset(emittable))


def _regex_refs(e: RegexExpr) -> List[str]:
    if isinstance(e, RRef):
        return [e.name]
    if isinstance(e, (RConcat, RAlt)):
        out = []
        for p in e.parts:
            out.extend(_regex_refs(p))
        return out
    if isinstance(e, RStar):
        return _regex_refs(e.inner)
    return []


def reference_token_diags(token_decls) -> List[Diagnostic]:
    """validate_spec's diagnostics on the token declarations."""
    diags: List[Diagnostic] = []
    by_name = {}
    for d in token_decls:
        if d.name in by_name:
            diags.append(Diagnostic(d.loc, "duplicate token name %r" % d.name))
        else:
            by_name[d.name] = d

    for d in token_decls:
        for ref in _regex_refs(d.pattern):
            if ref not in by_name:
                diags.append(Diagnostic(d.loc, "token %r references undeclared token %r"
                                        % (d.name, ref)))

    def opaque_reach(name, seen):
        if name in seen:
            return None
        seen.add(name)
        d = by_name.get(name)
        if d is None:
            return None
        for ref in _regex_refs(d.pattern):
            target = by_name.get(ref)
            if target is None:
                continue
            if target.kind == "opaque":
                return ref
            hit = opaque_reach(ref, seen)
            if hit is not None:
                return hit
        return None

    for d in token_decls:
        if d.kind != "opaque":
            continue
        hit = opaque_reach(d.name, set())
        if hit is not None and hit != d.name:
            diags.append(Diagnostic(d.loc, "opaque token %r cannot be used in the "
                                    "definition of %r" % (hit, d.name)))

    graph = {d.name: [r for r in _regex_refs(d.pattern) if r in by_name]
             for d in token_decls}
    state = {}  # 0 visiting, 1 done

    def has_cycle(name, stack):
        if state.get(name) == 1:
            return None
        if state.get(name) == 0:
            return stack[stack.index(name):] + [name]
        state[name] = 0
        stack.append(name)
        for nxt in graph.get(name, []):
            cyc = has_cycle(nxt, stack)
            if cyc:
                return cyc
        stack.pop()
        state[name] = 1
        return None

    for d in token_decls:
        cyc = has_cycle(d.name, [])
        if cyc:
            diags.append(Diagnostic(d.loc, "cyclic alias reference: %s" % " -> ".join(cyc)))
            break
    return diags
