"""Surface AST for `.lang` language specifications.

Everything here is immutable. Source locations are carried for diagnostics
but excluded from equality, so two parses of equivalent sources compare
equal structurally (this is what the bootstrap fixpoint check relies on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union


@dataclass(frozen=True)
class Loc:
    line: int
    col: int

    def __str__(self):
        return "%d:%d" % (self.line, self.col)


@dataclass(frozen=True)
class Diagnostic:
    loc: Optional[Loc]
    message: str

    def render(self, filename: str = "<input>") -> str:
        if self.loc is None:
            return "%s: %s" % (filename, self.message)
        return "%s:%d:%d: %s" % (filename, self.loc.line, self.loc.col, self.message)


class SpecError(Exception):
    """Raised for unrecoverable errors while reading a .lang or .data file."""

    def __init__(self, message: str, loc: Optional[Loc] = None):
        super().__init__(message if loc is None else "%s: %s" % (loc, message))
        self.message = message
        self.loc = loc

    def diagnostic(self) -> Diagnostic:
        return Diagnostic(self.loc, self.message)


# ---------------------------------------------------------------------------
# Token regexes

@dataclass(frozen=True)
class RLit:
    text: str  # decoded codepoint sequence


@dataclass(frozen=True)
class RRange:
    lo: str  # single codepoint, lo <= hi
    hi: str


@dataclass(frozen=True)
class RConcat:
    parts: Tuple["RegexExpr", ...]


@dataclass(frozen=True)
class RAlt:
    parts: Tuple["RegexExpr", ...]


@dataclass(frozen=True)
class RStar:
    inner: "RegexExpr"


@dataclass(frozen=True)
class RRef:
    name: str


@dataclass(frozen=True)
class RWildcard:
    pass


@dataclass(frozen=True)
class REof:
    pass


RegexExpr = Union[RLit, RRange, RConcat, RAlt, RStar, RRef, RWildcard, REof]

R_EPSILON = RConcat(())


@dataclass(frozen=True)
class TokenDecl:
    name: str
    kind: str  # "opaque" (X <- e) or "alias" (X <= e)
    pattern: RegexExpr
    loc: Optional[Loc] = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Lexer stanza

@dataclass(frozen=True)
class AEmit:
    pass


@dataclass(frozen=True)
class APass:
    pass


@dataclass(frozen=True)
class APush:
    mode: str


@dataclass(frozen=True)
class APop:
    pass


@dataclass(frozen=True)
class APopExtract:
    pass


@dataclass(frozen=True)
class APopEmit:
    token: str


LexerAction = Union[AEmit, APass, APush, APop, APopExtract, APopEmit]


@dataclass(frozen=True)
class LexerRule:
    pattern: RegexExpr
    actions: Tuple[LexerAction, ...]
    loc: Optional[Loc] = field(default=None, compare=False)


@dataclass(frozen=True)
class LexerSpec:
    main_mode: str
    modes: Tuple[Tuple[str, Tuple[LexerRule, ...]], ...]

    def mode(self, name: str) -> Tuple[LexerRule, ...]:
        for mode_name, rules in self.modes:
            if mode_name == name:
                return rules
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Parser stanza expressions

@dataclass(frozen=True)
class TermLiteral:
    text: str


@dataclass(frozen=True)
class TokenRef:
    name: str


@dataclass(frozen=True)
class NontermRef:
    name: str
    attr_reqs: Tuple[str, ...] = ()
    pr_star: bool = False


@dataclass(frozen=True)
class Named:
    field_name: str
    inner: "ParseExpr"


@dataclass(frozen=True)
class Seq:
    items: Tuple["ParseExpr", ...]


@dataclass(frozen=True)
class AltBranches:
    branches: Tuple[Tuple[str, "ParseExpr"], ...]  # (label, inner)


@dataclass(frozen=True)
class SingletonAlt:
    label: str
    inner: "ParseExpr"


@dataclass(frozen=True)
class Star:
    inner: "ParseExpr"


@dataclass(frozen=True)
class Plus:
    inner: "ParseExpr"


@dataclass(frozen=True)
class Optional_:
    inner: "ParseExpr"


@dataclass(frozen=True)
class ListExpr:
    flavor: str  # L | B | B2 | T | T2
    elem: "ParseExpr"
    min_count: int  # 0 | 1 | 2
    delim: "ParseExpr"
    trailing: str  # none | optional | required


@dataclass(frozen=True)
class PassString:
    text: str


@dataclass(frozen=True)
class SpaceShorthand:
    pass


@dataclass(frozen=True)
class Eps:
    pass


@dataclass(frozen=True)
class Unfold:
    inner: "ParseExpr"


ParseExpr = Union[
    TermLiteral, TokenRef, NontermRef, Named, Seq, AltBranches, SingletonAlt,
    Star, Plus, Optional_, ListExpr, PassString, SpaceShorthand, Eps, Unfold,
]


@dataclass(frozen=True)
class RuleDecl:
    path: Tuple[str, ...]  # first component = LHS nonterminal
    lhs_attrs: Tuple[str, ...]
    rhs: ParseExpr
    loc: Optional[Loc] = field(default=None, compare=False)

    @property
    def lhs(self) -> str:
        return self.path[0]

    @property
    def variant(self) -> Tuple[str, ...]:
        return self.path[1:]

    @property
    def dotted(self) -> str:
        return ".".join(self.path)


@dataclass(frozen=True)
class PrecLine:
    rule_paths: Tuple[Tuple[str, ...], ...]
    tag: Optional[str]  # assoc_left | assoc_right | prefix | postfix | None
    loc: Optional[Loc] = field(default=None, compare=False)


@dataclass(frozen=True)
class AttrLine:
    rule_path: Tuple[str, ...]
    attr: str
    target_nonterm: Optional[str]  # None: declaration on the rule; else requirement on slots of that nonterm
    loc: Optional[Loc] = field(default=None, compare=False)


@dataclass(frozen=True)
class ParserSpec:
    main_nonterms: Tuple[str, ...]
    prec_lines: Tuple[PrecLine, ...]
    props: Tuple[str, ...]
    attr_lines: Tuple[AttrLine, ...]
    rules: Tuple[RuleDecl, ...]

    @property
    def name_strict(self) -> bool:
        return "name_strict" in self.props


# ---------------------------------------------------------------------------
# Test stanzas

@dataclass(frozen=True)
class ParseTestDecl:
    input: str
    expected_fail_offset: Optional[int]  # byte offset of the removed ## marker
    skip_roundtrip: bool = False


@dataclass(frozen=True)
class LrTestDecl:
    k: int
    expect_success: bool


@dataclass(frozen=True)
class LangSpec:
    token_decls: Tuple[TokenDecl, ...]
    lexer: LexerSpec
    parser: ParserSpec
    compile_tests: Tuple[LrTestDecl, ...]
    parse_tests: Tuple[ParseTestDecl, ...]

    def token_decl(self, name: str) -> Optional[TokenDecl]:
        for d in self.token_decls:
            if d.name == name:
                return d
        return None

    def opaque_names(self):
        return [d.name for d in self.token_decls if d.kind == "opaque"]


# ---------------------------------------------------------------------------
# Canonical rendering (debug form; reparses to an equal LangSpec)

_ESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", "\\": "\\\\", "`": "\\`"}


def quote_backtick(text: str) -> str:
    out = ["`"]
    for ch in text:
        out.append(_ESCAPES.get(ch, ch))
    out.append("`")
    return "".join(out)


def render_regex(e: RegexExpr, prec: int = 0) -> str:
    # precedence: 0 alt, 1 concat, 2 postfix/atom
    if isinstance(e, RAlt):
        s = " | ".join(render_regex(p, 1) for p in e.parts)
        return "(" + s + ")" if prec > 0 else s
    if isinstance(e, RConcat):
        if not e.parts:
            return "()"
        s = " ".join(render_regex(p, 2) for p in e.parts)
        return "(" + s + ")" if prec > 1 else s
    if isinstance(e, RStar):
        return render_regex(e.inner, 2) + "*"
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


def render_parse_expr(e: ParseExpr, prec: int = 0) -> str:
    # precedence: 0 alt, 1 seq, 2 prefix (name/unfold), 3 postfix, 4 atom
    def wrap(s, at):
        return "(" + s + ")" if prec > at else s

    if isinstance(e, AltBranches):
        s = " | ".join("%s:%s" % (lbl, render_parse_expr(inner, 2)) for lbl, inner in e.branches)
        # alternation only ever appears parenthesized in the surface syntax
        return "(" + s + ")"
    if isinstance(e, Seq):
        if not e.items:
            return "eps"
        return wrap(" ".join(render_parse_expr(p, 2) for p in e.items), 1)
    if isinstance(e, Named):
        return wrap("%s:%s" % (e.field_name, render_parse_expr(e.inner, 2)), 2)
    if isinstance(e, Unfold):
        return wrap("~" + render_parse_expr(e.inner, 2), 2)
    if isinstance(e, Star):
        return render_parse_expr(e.inner, 3) + "*"
    if isinstance(e, Plus):
        return render_parse_expr(e.inner, 3) + "+"
    if isinstance(e, Optional_):
        return render_parse_expr(e.inner, 3) + "?"
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
        return "#Alt[%s:%s]" % (e.label, render_parse_expr(e.inner, 2))
    if isinstance(e, ListExpr):
        num = {0: "::", 1: "::+", 2: "::++"}[e.min_count]
        end = {"none": "", "optional": ":?", "required": "::"}[e.trailing]
        return "#%s[%s%s%s%s]" % (
            e.flavor, render_parse_expr(e.elem, 0), num, render_parse_expr(e.delim, 0), end)
    if isinstance(e, PassString):
        return "@(%s)" % quote_backtick(e.text)
    if isinstance(e, SpaceShorthand):
        return "_"
    if isinstance(e, Eps):
        return "eps"
    raise TypeError(e)


def _render_action(a: LexerAction) -> str:
    if isinstance(a, AEmit):
        return "emit;"
    if isinstance(a, APass):
        return "pass;"
    if isinstance(a, APush):
        return "push %s;" % a.mode
    if isinstance(a, APop):
        return "pop;"
    if isinstance(a, APopExtract):
        return "pop_extract;"
    if isinstance(a, APopEmit):
        return "pop_emit %s;" % a.token
    raise TypeError(a)


def render_spec(spec: LangSpec) -> str:
    """Render a LangSpec back to canonical .lang text."""
    out = []
    out.append("tokens {")
    for d in spec.token_decls:
        arrow = "<-" if d.kind == "opaque" else "<="
        out.append("    %s %s %s;" % (d.name, arrow, render_regex(d.pattern)))
    out.append("}")
    out.append("")
    out.append("lexer {")
    out.append("    main { %s }" % spec.lexer.main_mode)
    for mode_name, rules in spec.lexer.modes:
        out.append("")
        out.append("    mode %s {" % mode_name)
        for r in rules:
            acts = " ".join(_render_action(a) for a in r.actions)
            out.append("        %s => { %s }" % (render_regex(r.pattern), acts))
        out.append("    }")
    out.append("}")
    out.append("")
    out.append("parser {")
    p = spec.parser
    out.append("    main { %s }" % ", ".join(p.main_nonterms))
    if p.prec_lines:
        out.append("")
        out.append("    prec {")
        for line in p.prec_lines:
            names = " ".join(".".join(path) for path in line.rule_paths)
            tag = (" " + line.tag) if line.tag else ""
            out.append("        %s%s;" % (names, tag))
        out.append("    }")
    if p.props:
        out.append("")
        out.append("    prop { %s }" % " ".join(f + ";" for f in p.props))
    if p.attr_lines:
        out.append("")
        out.append("    attr {")
        for al in p.attr_lines:
            base = ".".join(al.rule_path)
            if al.target_nonterm is None:
                out.append("        %s[%s];" % (base, al.attr))
            else:
                out.append("        %s -> %s[%s];" % (base, al.target_nonterm, al.attr))
        out.append("    }")
    out.append("")
    for r in p.rules:
        attrs = "[" + ", ".join(r.lhs_attrs) + "]" if r.lhs_attrs else ""
        out.append("    %s%s <- %s;" % (r.dotted, attrs, render_parse_expr(r.rhs)))
    out.append("}")
    if spec.compile_tests:
        out.append("")
        out.append("compile_test {")
        for ct in spec.compile_tests:
            bang = "" if ct.expect_success else "!"
            out.append("    %sLR(%d);" % (bang, ct.k))
        out.append("}")
    if spec.parse_tests:
        out.append("")
        out.append("test {")
        for t in spec.parse_tests:
            text = t.input
            if t.expected_fail_offset is not None:
                text = text[: t.expected_fail_offset] + "##" + text[t.expected_fail_offset:]
            marker = " <<>>" if t.skip_roundtrip else ""
            out.append("    %s%s;" % (quote_backtick(text), marker))
        out.append("}")
    out.append("")
    return "\n".join(out)
