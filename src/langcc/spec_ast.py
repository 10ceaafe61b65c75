"""Surface AST for `.lang` language specifications.

Everything here is immutable. Source locations are carried for diagnostics
but excluded from equality, so two parses of equivalent sources compare
equal structurally (this is what the bootstrap fixpoint check relies on).
A lexer action is one LexerAction record whose op is its `.lang` keyword,
and LEXER_OPS says what each op does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple, Union


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


class SpecError(Exception):
    """Raised for unrecoverable errors while reading a .lang or .data file."""

    def __init__(self, message: str, loc: Optional[Loc] = None):
        super().__init__(message if loc is None else "%s: %s" % (loc, message))
        self.message = message
        self.loc = loc


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
class LexerAction:
    """One action of a lexer rule.  `op` is its `.lang` keyword, which is
    also its tag in an artifact; `arg` is the mode of a push or the token
    of a pop_emit, and None for the other ops."""
    op: str
    arg: Optional[str] = None


class OpInfo(NamedTuple):
    takes_arg: bool  # a push names a mode, a pop_emit a token
    consumes: bool  # the action consumes the match
    pops: bool  # the action pops a frame


# The lexer-action vocabulary, op -> what it does.
LEXER_OPS = {
    "emit": OpInfo(False, True, False),
    "pass": OpInfo(False, True, False),
    "push": OpInfo(True, False, False),
    "pop": OpInfo(False, False, True),
    "pop_extract": OpInfo(False, False, True),
    "pop_emit": OpInfo(True, False, True),
}


@dataclass(frozen=True)
class LexerRule:
    pattern: RegexExpr
    actions: Tuple[LexerAction, ...]
    loc: Optional[Loc] = field(default=None, compare=False)


@dataclass(frozen=True)
class LexerSpec:
    main_mode: str
    modes: Tuple[Tuple[str, Tuple[LexerRule, ...]], ...]


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
    """e as .lang text, parenthesized where its context binds tighter:
    `prec` is that context's precedence, 0 alt, 1 concat, 2 postfix/atom.
    Walks e on an explicit stack, so deep patterns render at any depth."""
    out = []
    todo = [(e, prec)]  # (regex, context precedence) to render, or text to emit
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        e, prec = item
        if isinstance(e, RConcat) and not e.parts:
            out.append("()")
        elif isinstance(e, (RAlt, RConcat)):
            sep, inner, at = (" | ", 1, 0) if isinstance(e, RAlt) else (" ", 2, 1)
            if prec > at:
                todo.append(")")
            for i in range(len(e.parts) - 1, -1, -1):
                todo.append((e.parts[i], inner))
                if i:
                    todo.append(sep)
            if prec > at:
                todo.append("(")
        elif isinstance(e, RStar):
            todo.append("*")
            todo.append((e.inner, 2))
        elif isinstance(e, RLit):
            out.append(quote_backtick(e.text))
        elif isinstance(e, RRange):
            out.append("%s..%s" % (quote_backtick(e.lo), quote_backtick(e.hi)))
        elif isinstance(e, RRef):
            out.append(e.name)
        elif isinstance(e, RWildcard):
            out.append("_")
        elif isinstance(e, REof):
            out.append("eof")
        else:
            raise TypeError(e)
    return "".join(out)


def render_parse_expr(e: ParseExpr, prec: int = 0) -> str:
    """e as .lang text, parenthesized where its context binds tighter:
    `prec` is that context's precedence, 0 alt, 1 seq, 2 prefix
    (name/unfold), 3 postfix, 4 atom.  Walks e on an explicit stack, so deep
    rule bodies render at any depth."""
    out = []
    todo = [(e, prec)]  # (expression, context precedence) to render, or text to emit
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        e, prec = item
        if isinstance(e, AltBranches):
            # alternation only ever appears parenthesized in the surface syntax
            todo.append(")")
            for i in range(len(e.branches) - 1, -1, -1):
                lbl, inner = e.branches[i]
                todo.append((inner, 2))
                todo.append("%s:" % lbl)
                if i:
                    todo.append(" | ")
            todo.append("(")
        elif isinstance(e, Seq):
            if not e.items:
                out.append("eps")
                continue
            if prec > 1:
                todo.append(")")
            for i in range(len(e.items) - 1, -1, -1):
                todo.append((e.items[i], 2))
                if i:
                    todo.append(" ")
            if prec > 1:
                todo.append("(")
        elif isinstance(e, (Named, Unfold)):
            if prec > 2:
                todo.append(")")
            todo.append((e.inner, 2))
            todo.append("%s:" % e.field_name if isinstance(e, Named) else "~")
            if prec > 2:
                todo.append("(")
        elif isinstance(e, (Star, Plus, Optional_)):
            todo.append("*" if isinstance(e, Star) else "+" if isinstance(e, Plus) else "?")
            todo.append((e.inner, 3))
        elif isinstance(e, TermLiteral):
            out.append(quote_backtick(e.text))
        elif isinstance(e, TokenRef):
            out.append(e.name)
        elif isinstance(e, NontermRef):
            reqs = list(e.attr_reqs) + (["pr=*"] if e.pr_star else [])
            out.append(e.name + "[" + ", ".join(reqs) + "]" if reqs else e.name)
        elif isinstance(e, SingletonAlt):
            todo.append("]")
            todo.append((e.inner, 2))
            todo.append("#Alt[%s:" % e.label)
        elif isinstance(e, ListExpr):
            num = {0: "::", 1: "::+", 2: "::++"}[e.min_count]
            end = {"none": "", "optional": ":?", "required": "::"}[e.trailing]
            todo.append(end + "]")
            todo.append((e.delim, 0))
            todo.append(num)
            todo.append((e.elem, 0))
            todo.append("#%s[" % e.flavor)
        elif isinstance(e, PassString):
            out.append("@(%s)" % quote_backtick(e.text))
        elif isinstance(e, SpaceShorthand):
            out.append("_")
        elif isinstance(e, Eps):
            out.append("eps")
        else:
            raise TypeError(e)
    return "".join(out)


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
            acts = " ".join("%s;" % a.op if a.arg is None else "%s %s;" % (a.op, a.arg)
                            for a in r.actions)
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
