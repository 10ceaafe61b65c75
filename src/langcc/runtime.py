"""Table-driven parse runtime.

Executes Shift/Reduce/Accept over the token stream and assembles
generic AST nodes.  Synthesized nonterminals (lists, optionals, alternation
enums) are collapsed during reduction, so users only ever see nodes of their
own rule variants, sequences, options, booleans, and enum labels.  A token,
enum, sequence or node holds its span as two int UTF-8 byte offsets, start
and end, and a node holds its field values in a tuple beside the names
tuple every node of its production shares.  A token is the lexer's own
TokenLeaf.  Line and column are computed on demand from an offset
with lexer.token_bounds_to_linecol.

The LR loop reads the lexer's parallel token lists (lexer.lex_lists) and
indexes the per-state rows artifact.CompiledLang builds at load
(action_rows[state][lookahead], goto_rows[state][nonterminal]); with k = 1
the lookahead key is the terminal string itself, so no tuple is built per
step.  An action cell is an int: a shift to state s is s, accept is -1 and
a reduce by production p is -2 - p.  A production is the tuple
(kind, rhs_len, lhs, data) with an int kind (artifact.P_USER and the rest);
the loop builds user nodes and appends to list chains itself and leaves
the other kinds to _assemble.  It builds every token's leaf in one map
before it starts, and keeps the values' start and end offsets on two int
stacks beside the value stack, so a reduce allocates no span object and no
field pair: a user node takes its values off the stack with the
production's getter.  Tree values are __slots__ classes on spec_ast.Tree,
several times cheaper to construct than frozen dataclasses, and a parse
runs under artifact.collector_paused.

node_to_data_value reads the plans CompiledLang resolves per variant at
load (CompiledLang.plans; a field plan starts (tag, element plan, enum
type name, field description); a variant with no plan has no fields), so
it neither scans field kinds nor joins variant names per node.  It walks
a tree on an explicit stack, as Tree's == and hash do, and render_node
runs on spec_ast.render, as Tree's repr does, so a tree of any depth
passes through them at the default recursion limit.  Nothing here or in
artifact.py imports the generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .artifact import (
    K_BOOL, K_ENUM, K_NODE, K_OPT, K_SEQ, K_TOKEN, P_ENUM, P_LIST_APPEND, P_LIST_EMPTY,
    P_LIST_PAIR, P_LIST_PASS, P_LIST_SINGLE, P_OPT_NONE, P_OPT_SOME, P_USER, CompiledLang,
    collector_paused,
)
from .datacc import DataValue, conforms
from .lexer import EOF_TERMINAL, LexError, TokenLeaf, lex_lists, token_bounds_to_linecol
from .spec_ast import SpecError, Tree, joined, quote_text, render


class EnumVal(Tree):
    __slots__ = ("label", "start", "end")

    def __init__(self, label: str, start: int, end: int):
        self.label = label
        self.start = start
        self.end = end


class SeqVal(Tree):
    __slots__ = ("items", "trailing", "start", "end")

    def __init__(self, items: tuple, trailing: bool, start: int, end: int):
        self.items = items
        self.trailing = trailing
        self.start = start
        self.end = end


class Node(Tree):
    """A node of a rule variant: its field values in `values`, named by
    `names`, the one tuple every node its production builds shares."""

    __slots__ = ("variant", "names", "values", "start", "end")
    COMPARED = ("variant", "names", "values")  # a node's own positions are not compared

    def __init__(self, variant: Tuple[str, ...], names: Tuple[str, ...], values: tuple,
                 start: int, end: int):
        self.variant = variant
        self.names = names
        self.values = values
        self.start = start
        self.end = end

    @property
    def fields(self) -> Tuple[Tuple[str, object], ...]:
        """The (name, value) pairs of the fields, in order."""
        return tuple(zip(self.names, self.values))

    def field(self, name: str):
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def has_variant_prefix(self, prefix: Tuple[str, ...]) -> bool:
        return self.variant[: len(prefix)] == prefix

    def __repr__(self):
        return "Node(%s)" % render_node(self)


@dataclass
class ParseError:
    message: str
    bounds: Tuple[int, int]
    location_block: str
    # the terminals the failing state acts on (at k >= 2, the first of each
    # lookahead it acts on)
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
    """Lex then run the LR engine, under artifact.collector_paused; exactly
    one of result / err is set."""
    if start is None:
        start = compiled.default_start
    if start not in compiled.starts:
        raise SpecError("%r is not a main nonterminal (mains: %s)"
                        % (start, ", ".join(compiled.mains)))
    with collector_paused:
        return _parse(compiled, text, compiled.starts[start])


def _parse(compiled: CompiledLang, text: str, start_state: int) -> ParseResult:
    try:
        terms, texts, starts, ends, extracts = lex_lists(compiled.lexer, text)
    except LexError as e:
        msg = _lex_error_message(e, text)
        b = (e.offset, e.offset)
        return ParseResult(None, ParseError(msg, b, location_fmt_str(text, b), (), e), [])

    n_toks = len(terms)
    leaves = list(map(TokenLeaf, terms, texts, starts, ends))
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
    # the byte offsets each value of `values` spans
    vstarts: List[int] = []
    vends: List[int] = []
    pos = 0

    act = 0
    try:
        while True:
            act = action_rows[state].get(las[pos])
            if act is None:
                row = action_rows[state]
                return ParseResult(None, _unexpected(text, end_byte, texts, starts, ends, pos,
                                                     row if k == 1 else {la[0] for la in row}),
                                   extracts)
            if act >= 0:  # shift
                values.append(leaves[pos])
                vstarts.append(starts[pos])
                vends.append(ends[pos])
                states.append(act)
                state = act
                pos += 1
                continue
            if act == -1:  # accept
                if len(values) != 1 or not isinstance(values[0], Node):
                    raise SpecError("malformed artifact: accept without a single node "
                                    "on the stack")
                return ParseResult(values[0], None, extracts)
            # reduce; a value spans from its first part's start to its last
            # part's end, and an empty one sits at the next token
            kind, rhs_len, lhs, data = prods[-2 - act]
            if kind == P_USER:  # its field values, read off the stack
                variant, names, get, enums = data
                vals = (values[get],) if get.__class__ is int else get(values)
                if enums is not None:
                    vals = list(vals)
                    for j, label in enums:
                        x = vals[j]
                        vals[j] = EnumVal(label, x.start, x.end)
                    vals = tuple(vals)
            else:
                popped = values[-rhs_len:] if rhs_len else ()
            if rhs_len:
                del values[-rhs_len:]
                del states[-rhs_len:]
                if rhs_len > 1:
                    del vstarts[1 - rhs_len:]
                    del vends[-rhs_len:-1]
            else:
                at = starts[pos] if pos < n_toks else end_byte
                vstarts.append(at)
                vends.append(at)
            if kind == P_USER:
                value = Node(variant, names, vals, vstarts[-1], vends[-1])
            elif kind == P_LIST_APPEND:
                # each chain value is popped exactly once, so in-place append
                # keeps long lists linear
                value = popped[data[0]]
                value.append(popped[data[1]])
            else:
                value = _assemble(kind, data, popped, vstarts[-1], vends[-1])
            state = goto_rows[states[-1]].get(lhs)
            if state is None:
                raise SpecError("malformed artifact: no goto for %s in state %d"
                                % (lhs, states[-1]))
            states.append(state)
            values.append(value)
    except (AttributeError, TypeError) as e:
        # a production whose assembly takes a list, or an enum's positions,
        # from a slot that holds another kind of value (the artifact does
        # not record slot kinds, so from_json cannot check this)
        if act is None or act >= -1:
            raise
        raise SpecError("malformed artifact: production %d assembles its value from a "
                        "slot of the wrong kind (%s)" % (-2 - act, e)) from None


def _assemble(kind: int, data, popped, start: int, end: int):
    """The value of a reduce by a production other than P_USER and
    P_LIST_APPEND (see artifact.P_USER for what `data` holds), spanning
    start..end."""
    if kind == P_LIST_SINGLE:
        return [popped[data]]
    if kind == P_LIST_PASS:
        return SeqVal(tuple(popped[data]), False, start, end)
    if kind == P_OPT_NONE:
        return data
    if kind == P_OPT_SOME:
        return True if data < 0 else popped[data]
    if kind == P_ENUM:
        return EnumVal(data, start, end)
    if kind == P_LIST_EMPTY:
        return SeqVal((), False, start, end)
    if kind == P_LIST_PAIR:
        return [popped[data[0]], popped[data[1]]]
    # P_LIST_TRAIL (P_START is never reduced: CompiledLang rejects it)
    return SeqVal(tuple(popped[data]), True, start, end)


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
    brackets and enum labels bare; written by spec_ast.render, so any depth
    renders."""
    return render((n, None), _node_parts)


def _node_parts(v, _context):
    if isinstance(v, Node):
        # tokens and labels, the commonest leaves, are written in place,
        # which saves a call of this function each
        pieces = ["%s{" % "::".join(v.variant)]
        sep = ""
        for name, x in zip(v.names, v.values):
            if x.__class__ is TokenLeaf:
                pieces.append("%s%s: %s" % (sep, name, quote_text(x.text)))
            elif x.__class__ is EnumVal:
                pieces.append("%s%s: %s" % (sep, name, x.label))
            else:
                pieces += ("%s%s: " % (sep, name), (x, None))
            sep = ", "
        pieces.append("}")
        return pieces
    if isinstance(v, TokenLeaf):
        return quote_text(v.text)
    if isinstance(v, EnumVal):
        return v.label
    if isinstance(v, SeqVal):
        return ["[", *joined(", ", [(x, None) for x in v.items]), "]"]
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    raise TypeError(v)


# ---------------------------------------------------------------------------
# Schema conformance

def wrong_value(v, cls, where: str) -> SpecError:
    """The error for a tree value that is not a cls (trees built by hand can
    hold a value of the wrong kind in any field)."""
    return SpecError("%s holds a %s, expected a %s"
                     % (where, type(v).__name__, cls.__name__))


_ROOT = (K_NODE, None, None, None)  # the plan of the root: a node, not checked
# more tags: stack marks saying that the fields of a node (their number
# follows the tag), or the items of a sequence, are converted, so build its
# value; and a field the variant does not have
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
            names, values = v.names, v.values
            k = min(len(names), len(values))  # the fields with both a name and a value
            todo.append((v, (_BUILD_NODE, k), name))
            for i in range(k - 1, -1, -1):
                fname = names[i]
                fplan = kinds.get(fname)
                if fplan is None:  # fails when its turn comes
                    fplan = (_NO_KIND, None, None, "%s.%s" % (vk, fname))
                todo.append((values[i], fplan, fname))
        elif tag == _BUILD_NODE:
            k = plan[1]
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
