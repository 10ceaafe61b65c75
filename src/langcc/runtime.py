"""Table-driven parse runtime.

Executes Shift/Reduce/Accept over the token stream and assembles
generic AST nodes.  Synthesized nonterminals (lists, optionals, alternation
enums) are collapsed during reduction, so users only ever see nodes of their
own rule variants, sequences, options, booleans, and enum labels; every
value carries its source bounds as UTF-8 byte offsets.  Line and column are
computed on demand from an offset with lexer.token_bounds_to_linecol.

The LR loop reads the lexer's parallel token lists (lexer.lex_lists) and
indexes the per-state rows CompiledLang builds at load
(action_rows[state][lookahead], goto_rows[state][nonterminal]); with k = 1
the lookahead key is the terminal string itself, so no tuple is built per
step.  An action cell is an int: a shift to state s is s, accept is -1 and
a reduce by production p is -2 - p.  A production is the tuple
(kind, rhs_len, lhs, data) with an int kind (compiled.P_USER and the rest);
the loop builds user nodes and appends to list chains itself and leaves
the other kinds to _assemble.  Tree values are __slots__ classes (see
lexer.SlotValue), several times cheaper to construct than frozen
dataclasses, and the cyclic collector is paused for the duration of a
parse.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .compiled import (
    P_ENUM, P_LIST_APPEND, P_LIST_EMPTY, P_LIST_PAIR, P_LIST_PASS, P_LIST_SINGLE,
    P_OPT_NONE, P_OPT_SOME, P_USER, CompiledLang,
)
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
        return self.variant == other.variant and self.fields == other.fields

    def __hash__(self):
        return hash((self.variant, self.fields))


@dataclass
class ParseError:
    message: str
    bounds: Tuple[int, int]
    location_block: str

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

    The cyclic collector is paused meanwhile, and turned back on when this
    call returns if it was on when the call began: the tree is acyclic, so
    reference counting frees it, and collector passes over the growing tree
    would make parse time grow faster than the input."""
    if start is None:
        start = compiled.default_start
    if start not in compiled.starts:
        raise SpecError("%r is not a main nonterminal (mains: %s)"
                        % (start, ", ".join(compiled.mains)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(compiled, text, compiled.starts[start])
    finally:
        if was_enabled:
            gc.enable()


def _parse(compiled: CompiledLang, text: str, start_state: int) -> ParseResult:
    try:
        terms, texts, starts, ends, extracts = lex_lists(compiled.lexer, text)
    except LexError as e:
        msg = _lex_error_message(e, text)
        b = (e.offset, e.offset)
        return ParseResult(None, ParseError(msg, b, location_fmt_str(text, b)), [])

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

    while True:
        act = action_rows[state].get(las[pos])
        if act is None:
            return ParseResult(None, _unexpected(text, end_byte, texts, starts, ends, pos),
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


def _assemble(kind: int, data, popped, span: Bounds):
    """The value of a reduce by a production other than P_USER and
    P_LIST_APPEND (see compiled.P_USER for what `data` holds)."""
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


def _unexpected(text, end_byte, texts, starts, ends, pos) -> ParseError:
    if pos < len(texts):
        msg = "Unexpected token: `%s`" % texts[pos]
        b = (starts[pos], ends[pos])
    else:
        msg = "Unexpected end of input"
        b = (end_byte, end_byte)
    return ParseError(msg, b, location_fmt_str(text, b))


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


# ---------------------------------------------------------------------------
# Schema conformance

def node_to_data_value(compiled: CompiledLang, n: Node):
    """Convert a Node to the datatype value layer for schema validation."""
    from .datacc import DataValue

    vk = "::".join(n.variant)
    fields = []
    for name, v in n.fields:
        kind = compiled.field_kind(vk, name)
        fields.append((name, _value_to_data(compiled, v, kind, vk, name)))
    return DataValue(n.variant, tuple(fields))


def wrong_value(v, cls, where: str) -> SpecError:
    """The error for a tree value that is not a cls (trees built by hand can
    hold a value of the wrong kind in any field)."""
    return SpecError("%s holds a %s, expected a %s"
                     % (where, type(v).__name__, cls.__name__))


def _value_to_data(compiled, v, kind, vk, fname):
    from .datacc import DataValue

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


def validate_node(compiled: CompiledLang, schema, n: Node) -> bool:
    """Check a parsed Node against the derived AST datatype schema."""
    from .datacc import conforms

    return conforms(schema, node_to_data_value(compiled, n))
