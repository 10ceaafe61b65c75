"""Table-driven parse runtime.

Executes Shift/Reduce/Accept over the token stream and assembles
generic AST nodes.  Synthesized nonterminals (lists, optionals, alternation
enums) are collapsed during reduction, so users only ever see nodes of their
own rule variants, sequences, options, booleans, and enum labels; every
value carries its source bounds as UTF-8 byte offsets.  Line and column are
computed on demand from an offset with lexer.token_bounds_to_linecol.

The LR loop indexes the per-state rows CompiledLang builds at load
(action_rows[state][lookahead], goto_rows[state][nonterminal]); with k = 1
the lookahead key is the terminal string itself, so no tuple is built per
step.  Tree values are __slots__ classes (see lexer.SlotValue), several
times cheaper to construct than frozen dataclasses, and the cyclic
collector is paused for the duration of a parse.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .compiled import CompiledLang
from .lexer import EOF_TERMINAL, LexError, SlotValue, lex, token_bounds_to_linecol
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
        lexed = lex(compiled.lexer, text)
    except LexError as e:
        msg = _lex_error_message(e, text)
        b = (e.offset, e.offset)
        return ParseResult(None, ParseError(msg, b, location_fmt_str(text, b)), [])

    toks = lexed.tokens
    n_toks = len(toks)
    end_byte = len(text.encode("utf-8"))
    k = compiled.k
    terms = [t.terminal for t in toks] + [EOF_TERMINAL] * k
    # the action-row key at each position: the terminal itself when k = 1
    las = terms if k == 1 else [tuple(terms[i:i + k]) for i in range(n_toks + 1)]
    action_rows = compiled.action_rows
    goto_rows = compiled.goto_rows
    prods = compiled.prods

    states = [start_state]
    values: List[object] = []
    vbounds: List[Bounds] = []
    pos = 0

    while True:
        act = action_rows[states[-1]].get(las[pos])
        if act is None:
            return ParseResult(None, _unexpected(text, end_byte, toks, pos),
                               lexed.extracts)
        tag = act[0]

        if tag == "shift":
            tok = toks[pos]
            b = Bounds(tok.start, tok.end)
            values.append(TokenLeaf(tok.terminal, tok.text, b))
            vbounds.append(b)
            states.append(act[1])
            pos += 1
        elif tag == "reduce":
            prod = prods[act[1]]
            rhs_len = prod[1]
            if rhs_len:
                popped = values[-rhs_len:]
                span = Bounds(vbounds[-rhs_len].start, vbounds[-1].end)
                del values[-rhs_len:]
                del vbounds[-rhs_len:]
                del states[-rhs_len:]
            else:
                popped = []
                at = toks[pos].start if pos < n_toks else end_byte
                span = Bounds(at, at)
            value = _assemble(prod, popped, span)
            target = goto_rows[states[-1]].get(prod[2])
            if target is None:
                raise SpecError("malformed artifact: no goto for %s in state %d"
                                % (prod[2], states[-1]))
            states.append(target)
            values.append(value)
            vbounds.append(span)
        else:  # accept
            if len(values) != 1 or not isinstance(values[0], Node):
                raise SpecError("malformed artifact: accept without a single node "
                                "on the stack")
            return ParseResult(values[0], None, lexed.extracts)


def _assemble(prod, popped, span: Bounds):
    kind = prod[0]
    if kind == "user":
        variant_key, fields = prod[3], prod[4]
        out = []
        for name, src in fields:
            if src[0] == "slot":
                out.append((name, popped[src[1]]))
            else:  # enum_inline
                idx, label = src[1], src[2]
                out.append((name, EnumVal(label, popped[idx].bounds)))
        return Node(tuple(variant_key.split("::")), tuple(out), span)
    if kind == "enum":
        return EnumVal(prod[3][0], span)
    # chain productions build plain lists; each chain value is popped exactly
    # once, so in-place append keeps long lists linear
    if kind == "list_empty":
        return SeqVal((), False, span)
    if kind == "list_single":
        return [popped[prod[3][0]]]
    if kind == "list_pair":
        a, b = prod[3]
        return [popped[a], popped[b]]
    if kind == "list_append":
        chain_idx, elem_idx = prod[3]
        left = popped[chain_idx]
        left.append(popped[elem_idx])
        return left
    if kind == "list_pass":
        return SeqVal(tuple(popped[prod[3][0]]), False, span)
    if kind == "list_trail":
        return SeqVal(tuple(popped[prod[3][0]]), True, span)
    if kind == "opt_none":
        return False if prod[3][0] == 1 else None
    if kind == "opt_some":
        content = prod[3][0]
        if content < 0:
            return True
        return popped[content]
    raise AssertionError(kind)


def _lex_error_message(e: LexError, text: str) -> str:
    if e.kind == "no_match":
        data = text.encode("utf-8")
        ch = data[e.offset: e.offset + 4].decode("utf-8", "replace")[:1]
        return "Lexing error: unexpected character: `%s`" % ch
    if e.kind == "premature_empty":
        return "Lexing error: mode stack emptied before end of input"
    return "Lexing error: unterminated input (%s)" % e.detail


def _unexpected(text, end_byte, toks, pos) -> ParseError:
    if pos < len(toks):
        tok = toks[pos]
        msg = "Unexpected token: `%s`" % tok.text
        b = (tok.start, tok.end)
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
