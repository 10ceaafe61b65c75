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
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .compiled import CompiledLang
from .runtime import EnumVal, Node, SeqVal, TokenLeaf, parse, wrong_value
from .spec_ast import SpecError


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


def pretty_print(compiled: CompiledLang, n: Node) -> str:
    """Render a node back to text using the per-production templates."""
    p = _Printer(compiled)
    p.emit_node(n)
    return "".join(p.out)


def roundtrip_check(compiled: CompiledLang, text: str,
                    start: Optional[str] = None) -> Tuple[bool, Optional[int]]:
    """parse then print must reproduce the input byte-for-byte.

    Returns (ok, first diverging byte offset or None).  A parse failure
    propagates as SpecError: callers are expected to parse first.
    """
    res = parse(compiled, text, start)
    if not res.is_success():
        raise SpecError("roundtrip_check on unparseable input: %s" % res.err.message)
    printed = pretty_print(compiled, res.result)
    if printed == text:
        return (True, None)
    a = text.encode("utf-8")
    b = printed.encode("utf-8")
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return (False, i)
    return (False, limit)
