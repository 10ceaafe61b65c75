"""Independent recognizers used as test oracles.

earley_accepts decides membership directly over the constraint-expanded
grammar, with none of the LR machinery; enumerate_trees builds every parse
tree of the *unconstrained* grammar so precedence filtering can be checked
as a pure admissibility predicate on top.

reference_lex is the lexer's mode-stack machine as a plain loop over the
spec's action objects, with no load-time compilation.

reference_complete is the conflict tracer's completion search as it was
before it learned to skip lookaheads no state acts on: it appends every
terminal and $, and lets the dead ends fail at the next pop.

node_to_data_value, conforms, value_hash and _Printer (driven by
reference_pretty_print) are the check and print walks as they were before
they were planned per variant and run on explicit stacks, and render_node
and debug_print the renderings as they were before they did: plain
recursion, which fails on deep trees.  value_hash counts its digests in
reference_hash_computations(), apart from datacc's counter.
"""

import hashlib
import heapq
from typing import List, Optional

from langcc.compiled import CompiledLang
from langcc.conflicts import _step
from langcc.datacc import (
    DataValue, DatatypeSchema, Sum, TOpt, TSeq, TypeExpr, _print_scalar, _subst, _u32,
)
from langcc.grammar import Cfg, InstGrammar, expand_instances
from langcc.lexer import (
    ASCII_ROW, EOF_TERMINAL, CompiledLexer, Extract, LexError, LexOutput, ModeDfa, Token,
    _byte_offsets,
)
from langcc.lr import LrTables
from langcc.runtime import EnumVal, Node, SeqVal, TokenLeaf, wrong_value
from langcc.spec_ast import AEmit, APass, APopEmit, APopExtract, APush, SpecError


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
    tokens: List[Token] = []
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
            if isinstance(action, AEmit):
                tokens.append(Token(emit_token, matched, byte_of[pos], byte_of[end]))
                frames[-1].buffer.append(matched)
                consumed = True
            elif isinstance(action, APass):
                frames[-1].buffer.append(matched)
                consumed = True
            elif isinstance(action, APush):
                frames.append(_Frame(action.mode, pos))
            else:
                f = frames.pop()
                f_end = end if consumed else pos
                if isinstance(action, APopExtract):
                    extracts.append(Extract(f.mode, "".join(f.buffer),
                                            byte_of[f.start], byte_of[f_end]))
                elif isinstance(action, APopEmit):
                    tokens.append(Token(action.token, "".join(f.buffer),
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
        for act in tables.actions_at(st[-1], la):
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


def node_to_data_value(compiled: CompiledLang, n: Node):
    """Convert a Node to the datatype value layer for schema validation."""
    vk = "::".join(n.variant)
    fields = []
    for name, v in n.fields:
        kind = compiled.field_kind(vk, name)
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
    name = te.name
    if name == "__any":
        return  # unbound type parameter: checked at instantiation sites
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
        vk = "::".join(n.variant)
        tmpl = self.compiled.print_templates.get(vk)
        if tmpl is None:
            raise SpecError("no template for variant %s" % vk)
        fields = dict(n.fields)
        for it in tmpl:
            if it[0] in ("verbatim", "lit"):
                self.out.append(it[1])
            elif it[0] == "field":
                name = it[1]
                self.emit_value(fields[name], self.compiled.field_kind(vk, name))
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
    body = ", ".join("%s: %s" % (name, _render_value(v)) for name, v in n.fields)
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
