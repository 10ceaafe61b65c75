"""Table-driven parse runtime.

Executes Shift/Reduce/Accept over the token stream and assembles
generic AST nodes.  Synthesized nonterminals (lists, optionals, alternation
enums) are collapsed during reduction, so users only ever see nodes of their
own rule variants, sequences, options, booleans, and enum labels; every
value carries its source bounds as UTF-8 byte offsets.  Line and column are
computed on demand from an offset with lexer.token_bounds_to_linecol.

The LR loop reads the lexer's parallel token lists (lexer.lex_lists) and
indexes the per-state rows artifact.CompiledLang builds at load
(action_rows[state][lookahead], goto_rows[state][nonterminal]); with k = 1
the lookahead key is the terminal string itself, so no tuple is built per
step.  An action cell is an int: a shift to state s is s, accept is -1 and
a reduce by production p is -2 - p.  A production is the tuple
(kind, rhs_len, lhs, data) with an int kind (artifact.P_USER and the rest);
the loop builds user nodes and appends to list chains itself and leaves
the other kinds to _assemble.  Tree values are __slots__ classes (see
lexer.SlotValue), several times cheaper to construct than frozen
dataclasses, and the cyclic collector is paused for the duration of a
parse.

node_to_data_value reads the plans CompiledLang resolves per variant at
load (CompiledLang.plans; a field plan starts (tag, element plan, enum
type name, field description); a variant with no plan has no fields), so
it neither scans field kinds nor joins variant names per node.  It,
render_node and Node equality and hashing walk a tree on an explicit
stack, so a tree of any depth passes through them at the default
recursion limit.  Nothing here or in artifact.py imports the generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .artifact import (
    K_BOOL, K_ENUM, K_NODE, K_OPT, K_SEQ, K_TOKEN, P_ENUM, P_LIST_APPEND, P_LIST_EMPTY,
    P_LIST_PAIR, P_LIST_PASS, P_LIST_SINGLE, P_OPT_NONE, P_OPT_SOME, P_USER, CompiledLang,
    pause_collector, resume_collector,
)
from .datacc import DataValue, conforms
from .lexer import EOF_TERMINAL, LexError, SlotValue, lex_lists, token_bounds_to_linecol
from .spec_ast import SpecError


class Bounds(SlotValue):
    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        self.start = start  # byte offsets
        self.end = end

    def span(self) -> Tuple[int, int]:
        return (self.start, self.end)


class TokenLeaf(SlotValue):
    __slots__ = ("terminal", "text", "bounds")

    def __init__(self, terminal: str, text: str, bounds: Bounds):
        self.terminal = terminal
        self.text = text
        self.bounds = bounds


class EnumVal(SlotValue):
    __slots__ = ("label", "bounds")

    def __init__(self, label: str, bounds: Bounds):
        self.label = label
        self.bounds = bounds


class SeqVal(SlotValue):
    __slots__ = ("items", "trailing", "bounds")

    def __init__(self, items: tuple, trailing: bool, bounds: Bounds):
        self.items = items
        self.trailing = trailing
        self.bounds = bounds


class Node:
    __slots__ = ("variant", "fields", "bounds")

    def __init__(self, variant: Tuple[str, ...], fields: Tuple[Tuple[str, object], ...],
                 bounds: Bounds):
        self.variant = variant
        self.fields = fields
        self.bounds = bounds

    def field(self, name: str):
        for fname, v in self.fields:
            if fname == name:
                return v
        raise KeyError(name)

    def has_variant_prefix(self, prefix: Tuple[str, ...]) -> bool:
        return self.variant[: len(prefix)] == prefix

    def __repr__(self):
        return "Node(%s)" % render_node(self)

    def __eq__(self, other):
        if not isinstance(other, Node):
            return NotImplemented
        # the comparison tuple equality would make, nested nodes, sequences
        # and tuples unfolded on a stack instead of compared recursively
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if isinstance(a, Node) and isinstance(b, Node):
                if a.variant != b.variant:
                    return False
                a, b = a.fields, b.fields
            elif a.__class__ is SeqVal and b.__class__ is SeqVal:
                if a.trailing != b.trailing or a.bounds != b.bounds:
                    return False
                a, b = a.items, b.items
            elif not (a.__class__ is tuple and b.__class__ is tuple):
                if not a == b:
                    return False
                continue
            if len(a) != len(b):
                return False
            todo.extend(zip(a, b))
        return True

    def __hash__(self):
        """Computed bottom-up on a stack: a node hashes its variant, field
        names and the hashes of its field values, a sequence its trailing
        flag, bounds and items' hashes, anything else as hash() does."""
        hashes = []
        todo = [(self, False)]
        while todo:
            x, done = todo.pop()
            if done:
                if x.__class__ is SeqVal:
                    k = len(x.items)
                    h = hash((x.trailing, x.bounds, tuple(hashes[len(hashes) - k:])))
                else:
                    k = len(x.fields)
                    h = hash((x.variant, tuple([f[0] for f in x.fields]),
                              tuple(hashes[len(hashes) - k:])))
                del hashes[len(hashes) - k:]
                hashes.append(h)
            elif isinstance(x, Node):
                todo.append((x, True))
                todo.extend([(v, False) for _f, v in reversed(x.fields)])
            elif x.__class__ is SeqVal:
                todo.append((x, True))
                todo.extend([(v, False) for v in reversed(x.items)])
            else:
                hashes.append(hash(x))
        return hashes[0]


@dataclass
class ParseError:
    message: str
    bounds: Tuple[int, int]
    location_block: str
    # the terminals the failing state acts on (LR(1) artifacts; else empty)
    expected: Tuple[str, ...] = ()
    lex_error: Optional[LexError] = None

    def __str__(self):
        return "%s\n%s" % (self.message, self.location_block)


@dataclass
class ParseResult:
    result: Optional[Node]
    err: Optional[ParseError]
    extracts: list

    def is_success(self) -> bool:
        return self.err is None


def location_fmt_str(text: str, bounds: Tuple[int, int]) -> str:
    """Render the standard location block:

        Line L, column C:
        <blank>
          <source line>
          <caret under column C>

    The caret line is padded with spaces out to one column past the end of
    the source line.
    """
    line, col = token_bounds_to_linecol(text, bounds[0])
    lines = text.split("\n")
    src = lines[line - 1] if line - 1 < len(lines) else ""
    width = len(src)
    caret = " " * (col - 1) + "^" + " " * (width + 1 - col)
    return "Line %d, column %d:\n\n  %s\n  %s\n" % (line, col, src, caret)


# ---------------------------------------------------------------------------
# Parsing

def parse(compiled: CompiledLang, text: str, start: Optional[str] = None) -> ParseResult:
    """Lex then run the LR engine; exactly one of result / err is set.

    The cyclic collector is paused meanwhile (artifact.pause_collector),
    and turned back on when the last of overlapping parses returns if it
    was on when the first began: the tree is acyclic, so reference counting
    frees it, and collector passes over the growing tree would make parse
    time grow faster than the input."""
    if start is None:
        start = compiled.default_start
    if start not in compiled.starts:
        raise SpecError("%r is not a main nonterminal (mains: %s)"
                        % (start, ", ".join(compiled.mains)))
    pause_collector()
    try:
        return _parse(compiled, text, compiled.starts[start])
    finally:
        resume_collector()


def _parse(compiled: CompiledLang, text: str, start_state: int) -> ParseResult:
    try:
        terms, texts, starts, ends, extracts = lex_lists(compiled.lexer, text)
    except LexError as e:
        msg = _lex_error_message(e, text)
        b = (e.offset, e.offset)
        return ParseResult(None, ParseError(msg, b, location_fmt_str(text, b), (), e), [])

    n_toks = len(terms)
    end_byte = len(text.encode("utf-8"))
    k = compiled.k
    terms.extend([EOF_TERMINAL] * k)
    # the action-row key at each position: the terminal itself when k = 1
    las = terms if k == 1 else [tuple(terms[i:i + k]) for i in range(n_toks + 1)]
    action_rows = compiled.action_rows
    goto_rows = compiled.goto_rows
    prods = compiled.prods

    state = start_state  # the top of `states`
    states = [state]
    values: List[object] = []
    vbounds: List[Bounds] = []
    pos = 0

    act = 0
    try:
        while True:
            act = action_rows[state].get(las[pos])
            if act is None:
                return ParseResult(None, _unexpected(text, end_byte, texts, starts, ends, pos,
                                                     action_rows[state] if k == 1 else {}),
                                   extracts)
            if act >= 0:  # shift
                b = Bounds(starts[pos], ends[pos])
                values.append(TokenLeaf(terms[pos], texts[pos], b))
                vbounds.append(b)
                states.append(act)
                state = act
                pos += 1
            elif act < -1:  # reduce
                kind, rhs_len, lhs, data = prods[-2 - act]
                if rhs_len:
                    popped = values[-rhs_len:]
                    # Bounds are immutable, so a unit reduce shares its child's
                    span = (vbounds[-1] if rhs_len == 1
                            else Bounds(vbounds[-rhs_len].start, vbounds[-1].end))
                    del values[-rhs_len:]
                    del vbounds[-rhs_len:]
                    del states[-rhs_len:]
                else:
                    popped = ()
                    at = starts[pos] if pos < n_toks else end_byte
                    span = Bounds(at, at)
                if kind == P_USER:
                    variant, fields = data
                    value = Node(variant, tuple([
                        (name, popped[idx]) if is_slot
                        else (name, EnumVal(label, popped[idx].bounds))
                        for name, is_slot, idx, label in fields]), span)
                elif kind == P_LIST_APPEND:
                    # each chain value is popped exactly once, so in-place append
                    # keeps long lists linear
                    value = popped[data[0]]
                    value.append(popped[data[1]])
                else:
                    value = _assemble(kind, data, popped, span)
                state = goto_rows[states[-1]].get(lhs)
                if state is None:
                    raise SpecError("malformed artifact: no goto for %s in state %d"
                                    % (lhs, states[-1]))
                states.append(state)
                values.append(value)
                vbounds.append(span)
            else:  # accept
                if len(values) != 1 or not isinstance(values[0], Node):
                    raise SpecError("malformed artifact: accept without a single node "
                                    "on the stack")
                return ParseResult(values[0], None, extracts)
    except (AttributeError, TypeError) as e:
        # a production whose assembly takes a list, or an enum's bounds,
        # from a slot that holds another kind of value (the artifact does
        # not record slot kinds, so from_json cannot check this)
        if act is None or act >= -1:
            raise
        raise SpecError("malformed artifact: production %d assembles its value from a "
                        "slot of the wrong kind (%s)" % (-2 - act, e)) from None


def _assemble(kind: int, data, popped, span: Bounds):
    """The value of a reduce by a production other than P_USER and
    P_LIST_APPEND (see artifact.P_USER for what `data` holds)."""
    if kind == P_LIST_SINGLE:
        return [popped[data]]
    if kind == P_LIST_PASS:
        return SeqVal(tuple(popped[data]), False, span)
    if kind == P_OPT_NONE:
        return data
    if kind == P_OPT_SOME:
        return True if data < 0 else popped[data]
    if kind == P_ENUM:
        return EnumVal(data, span)
    if kind == P_LIST_EMPTY:
        return SeqVal((), False, span)
    if kind == P_LIST_PAIR:
        return [popped[data[0]], popped[data[1]]]
    # P_LIST_TRAIL (P_START is never reduced: CompiledLang rejects it)
    return SeqVal(tuple(popped[data]), True, span)


def _lex_error_message(e: LexError, text: str) -> str:
    if e.kind == "no_match":
        data = text.encode("utf-8")
        ch = data[e.offset: e.offset + 4].decode("utf-8", "replace")[:1]
        return "Lexing error: unexpected character: `%s`" % ch
    if e.kind == "premature_empty":
        return "Lexing error: mode stack emptied before end of input"
    if e.kind == "unencodable":
        return "Lexing error: text not encodable as UTF-8 (%s)" % e.detail
    return "Lexing error: unterminated input (%s)" % e.detail


def _unexpected(text, end_byte, texts, starts, ends, pos, row) -> ParseError:
    if pos < len(texts):
        msg = "Unexpected token: `%s`" % texts[pos]
        b = (starts[pos], ends[pos])
    else:
        msg = "Unexpected end of input"
        b = (end_byte, end_byte)
    return ParseError(msg, b, location_fmt_str(text, b), tuple(sorted(row)))


# ---------------------------------------------------------------------------
# Downcasting and rendering

def node_downcast(compiled: CompiledLang, n: Node, path) -> Optional[Node]:
    """View n as the given variant prefix (e.g. "Expr::Lit"); None if it isn't."""
    if isinstance(path, str):
        path = tuple(path.split("::"))
    path = tuple(path)
    if path not in compiled.variant_prefixes:
        raise SpecError("unknown variant path %s" % "::".join(path))
    return n if n.has_variant_prefix(path) else None


def render_node(n: Node) -> str:
    """`Variant::Path{field: value, ...}`, with token texts quoted, lists in
    brackets and enum labels bare; built from an explicit stack of
    (text, False) and (value, True) items, so any depth renders."""
    out: List[str] = []
    todo = [(n, True)]
    while todo:
        v, is_value = todo.pop()
        if not is_value:
            out.append(v)
        elif isinstance(v, Node):
            out.append("%s{" % "::".join(v.variant))
            todo.append(("}", False))
            fields = v.fields
            for i in range(len(fields) - 1, -1, -1):
                name, x = fields[i]
                todo.append((x, True))
                todo.append(("%s: " % (name,) if i == 0 else ", %s: " % (name,), False))
        elif isinstance(v, TokenLeaf):
            out.append('"%s"' % v.text.replace("\\", "\\\\").replace('"', '\\"'))
        elif isinstance(v, EnumVal):
            out.append(v.label)
        elif isinstance(v, SeqVal):
            todo.append(("]", False))
            items = v.items
            for i in range(len(items) - 1, -1, -1):
                todo.append((items[i], True))
                if i:
                    todo.append((", ", False))
            todo.append(("[", False))
        elif isinstance(v, bool):
            out.append("true" if v else "false")
        elif v is None:
            out.append("none")
        else:
            raise TypeError(v)
    return "".join(out)


# ---------------------------------------------------------------------------
# Schema conformance

def wrong_value(v, cls, where: str) -> SpecError:
    """The error for a tree value that is not a cls (trees built by hand can
    hold a value of the wrong kind in any field)."""
    return SpecError("%s holds a %s, expected a %s"
                     % (where, type(v).__name__, cls.__name__))


_ROOT = (K_NODE, None, None, None)  # the plan of the root: a node, not checked
# more tags: stack marks saying that the fields of a node, or the items of
# a sequence, are converted, so build its value; and a field the variant
# does not have
_BUILD_NODE, _BUILD_SEQ, _NO_KIND = -1, -2, -3


def node_to_data_value(compiled: CompiledLang, n: Node) -> DataValue:
    """Convert a Node to the datatype value layer for schema validation.

    Walks the tree on an explicit stack of (value, field plan, field name)
    items, with the per-variant plans of CompiledLang.plans, in the
    order a recursive walk would visit the fields, so the
    first wrong-kind field found is the one recursion would find.  Each
    finished value goes on `out` as a (field name, value) pair; the marks
    _BUILD_NODE and _BUILD_SEQ take their parts off it."""
    plans = compiled.plans
    out: list = []
    todo = [(n, _ROOT, None)]
    while todo:
        v, plan, name = todo.pop()
        tag = plan[0]
        if tag == K_NODE:
            if not isinstance(v, Node) and plan is not _ROOT:
                raise wrong_value(v, Node, plan[3])
            vk, kinds, _ = plans.get(v.variant) or ("::".join(v.variant), {}, None)
            fields = v.fields
            todo.append((v, (_BUILD_NODE,), name))
            for i in range(len(fields) - 1, -1, -1):
                fname, fv = fields[i]
                fplan = kinds.get(fname)
                if fplan is None:  # fails when its turn comes
                    fplan = (_NO_KIND, None, None, "%s.%s" % (vk, fname))
                todo.append((fv, fplan, fname))
        elif tag == _BUILD_NODE:
            k = len(v.fields)
            if k:
                fields = tuple(out[-k:])
                del out[-k:]
            else:
                fields = ()
            out.append((name, DataValue(v.variant, fields)))
        elif tag == K_TOKEN:
            if not isinstance(v, TokenLeaf):
                raise wrong_value(v, TokenLeaf, plan[3])
            out.append((name, v.text))
        elif tag == K_ENUM:
            if not isinstance(v, EnumVal):
                raise wrong_value(v, EnumVal, plan[3])
            out.append((name, DataValue((plan[2], v.label), ())))
        elif tag == K_SEQ:
            if not isinstance(v, SeqVal):
                raise wrong_value(v, SeqVal, plan[3])
            items = v.items
            todo.append((len(items), (_BUILD_SEQ,), name))
            elem = plan[1]
            todo.extend([(item, elem, None) for item in reversed(items)])
        elif tag == _BUILD_SEQ:
            if v:
                items = tuple([x for _n, x in out[-v:]])
                del out[-v:]
            else:
                items = ()
            out.append((name, items))
        elif tag == K_OPT:
            if v is None:
                out.append((name, None))
            else:
                todo.append((v, plan[1], name))
        elif tag == K_BOOL:
            if not isinstance(v, bool):
                raise wrong_value(v, bool, plan[3])
            out.append((name, v))
        else:  # _NO_KIND
            raise KeyError(plan[3])
    return out[0][1]


def validate_node(compiled: CompiledLang, schema, n: Node) -> bool:
    """Check a parsed Node against the derived AST datatype schema."""
    return conforms(schema, node_to_data_value(compiled, n))
