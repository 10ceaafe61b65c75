"""Pretty-printing of parsed nodes back to source text.

Every production carries a print template (terminals, verbatim strings from
`@(...)` and `_`); sequence fields carry their list flavor:

  L   elements joined inline by the delimiter
  B   each element on its own line, one indent unit deeper
  B2  like B with a blank line between elements
  T   each element on its own line at the current indent
  T2  like T with a blank line between elements

Trailing delimiters print according to the mode recorded on the node at
parse time, so `:?` lists round-trip the input's choice.

The templates are resolved per variant when the artifact loads
(artifact.CompiledLang.plans: variant tuple -> (variant key, {field: field
plan}, the template's entries reversed, each literal text or (field name,
field plan))); a variant with no plan has no template.  pretty_print runs
one explicit stack over them, so it prints a tree of any depth at the
default recursion limit.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from .artifact import (
    CONTENT, F_BLOCK, F_BLOCK2, F_LINE, F_TOP2, K_BOOL, K_ENUM, K_NODE, K_OPT, K_SEQ,
    K_TOKEN, CompiledLang,
)
from .runtime import EnumVal, Node, SeqVal, TokenLeaf, parse, wrong_value
from .spec_ast import SpecError

_ROOT = (K_NODE,)  # the plan of the root: a node, not checked
_NO_FIELD = (-1,)  # the plan of a field the node does not have
# stack marks: a line break at the current indent, the same after a blank
# line, one indent unit deeper, and back out with a line break
_NEWLINE, _BLANK_LINE, _INDENT, _DEDENT = (object() for _ in range(4))


def pretty_print(compiled: CompiledLang, n: Node) -> str:
    """Render a node back to text using the per-production templates.

    One explicit stack holds the text still to print (strings), the values
    still to print ((value, field plan) pairs) and the layout marks, and
    each node pushes its variant's entries from CompiledLang.plans (its
    template, reversed and resolved against its field kinds).
    The walk prints what a recursive one would, in the same order, so a
    tree of any depth prints and the first malformed value found is the
    one recursion would find."""
    plans = compiled.plans
    unit = compiled.indent_unit
    out: List[str] = []
    indent = 0
    todo: list = [(n, _ROOT)]
    while todo:
        item = todo.pop()
        cls = item.__class__
        if cls is str:
            out.append(item)
            continue
        if cls is not tuple:
            if item is _NEWLINE or item is _BLANK_LINE:
                out.append("\n" if item is _NEWLINE else "\n\n")
                out.append(" " * (indent * unit))
            elif item is _INDENT:
                indent += 1
            else:  # _DEDENT
                indent -= 1
                out.append("\n")
                out.append(" " * (indent * unit))
            continue
        v, plan = item
        tag = plan[0]
        if tag == K_NODE:
            if not isinstance(v, Node) and plan is not _ROOT:
                raise wrong_value(v, Node, "a node field")
            vk, _kinds, entries = plans.get(v.variant) or ("::".join(v.variant), {}, None)
            if entries is None:
                raise SpecError("no template for variant %s" % vk)
            names, values = v.names, v.values
            for e in entries:
                if e.__class__ is str:
                    todo.append(e)
                    continue
                try:
                    todo.append((values[names.index(e[0])], e[1]))
                except (ValueError, IndexError):  # fails when its turn comes
                    todo.append((e[0], _NO_FIELD))
        elif tag == K_TOKEN:
            if not isinstance(v, TokenLeaf):
                raise wrong_value(v, TokenLeaf, "a token field")
            out.append(v.text)
        elif tag == K_ENUM:
            if not isinstance(v, EnumVal):
                raise wrong_value(v, EnumVal, "an enum field")
            entries = plan[4].get(v.label)
            if entries is None:
                raise SpecError("enum value %r has no branch" % v.label)
            todo.extend(entries)
        elif tag == K_SEQ:
            if not isinstance(v, SeqVal):
                raise wrong_value(v, SeqVal, "a seq field")
            items = v.items
            if not items:
                continue
            _tag, elem, _enum_type, _desc, flavor, delim, trailing = plan
            last = len(items) - 1
            delim_last = trailing == "required" or (trailing == "optional" and v.trailing)
            if flavor == F_LINE:
                for i in range(last, -1, -1):
                    if i < last or delim_last:
                        todo.extend(delim)
                    todo.append((items[i], elem))
                continue
            block = flavor == F_BLOCK or flavor == F_BLOCK2
            newline = _BLANK_LINE if flavor == F_BLOCK2 or flavor == F_TOP2 else _NEWLINE
            if block:
                todo.append(_DEDENT)
            for i in range(last, -1, -1):
                if i < last or delim_last:
                    todo.extend(delim)
                todo.append((items[i], elem))
                if i:
                    todo.append(newline)
                elif block:
                    todo.append(_NEWLINE)
            if block:
                todo.append(_INDENT)
        elif tag == K_OPT:
            if v is not None:
                elem = plan[1]
                for e in plan[4]:
                    todo.append((v, elem) if e is CONTENT else e)
        elif tag == K_BOOL:
            if v is True:
                todo.extend(plan[4])
        else:  # _NO_FIELD
            raise KeyError(v)
    return "".join(out)


def roundtrip_check(compiled: CompiledLang, text: str,
                    start: Optional[str] = None) -> Tuple[bool, Optional[int]]:
    """parse then print must reproduce the input byte-for-byte.

    Returns (ok, first diverging byte offset or None).  A parse failure
    propagates as SpecError: callers are expected to parse first.
    """
    res = parse(compiled, text, start)
    if not res.is_success():
        raise SpecError("roundtrip_check on unparseable input: %s" % res.err.message)
    return compare_printed(text, pretty_print(compiled, res.result))


def compare_printed(text: str, printed: str) -> Tuple[bool, Optional[int]]:
    """(True, None) if printed is text, else (False, the first byte offset
    at which their UTF-8 encodings differ)."""
    if printed == text:
        return (True, None)
    return (False, len(os.path.commonprefix([text.encode("utf-8"), printed.encode("utf-8")])))
