"""Surface AST for `.lang` language specifications.

Nothing here is modified once built: the records are frozen dataclasses,
and the trees are left as built by a rule that code follows, not one their
classes enforce. Source locations are carried for diagnostics but excluded
from equality, so two parses of equivalent sources compare equal
structurally (this is what the bootstrap fixpoint check relies on).
Token regexes and parse expressions derive from Tree, the base of every
tree type in the package, so specs compare, hash and print at any depth.
A lexer action is one LexerAction record whose op is its `.lang` keyword,
and LEXER_OPS says what each op does.

render is the one text walk of the package: Tree's repr, render_regex and
render_parse_expr here, runtime.render_node, and datacc's debug_print and
schema_render are each a render call with a function that gives the pieces
of one value, so each reads in output order and renders any depth.
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


class Tree:
    """Base of the tree types: token regexes and parse expressions here,
    datacc's type expressions, schema bodies and values, and the runtime's
    parse-tree values and lexer tokens.  == and hash each walk one explicit
    stack, and repr runs on render, so a tree of any depth compares, hashes
    and prints at the default recursion limit.

    A class lists its parts in __slots__, in order, and Tree.__init__
    takes them positionally, filling missing trailing ones from the class's
    DEFAULTS.  == and hash read the attributes a class compares: its
    COMPARED tuple if it has one, else its __slots__.  == is the tuple
    equality of those between instances of one class, hash the hash of
    their tuple, and repr the dataclass form Cls(f=v, ...), with trees and
    tuples inside unfolded as pieces; so each gives what a frozen dataclass
    would.  A class's own __hash__ or __repr__ is used wherever one of its
    instances sits."""

    __slots__ = ()
    DEFAULTS: tuple = ()  # values of the last parts, for a caller that omits them

    def __init__(self, *parts):
        names = self.__slots__
        if len(parts) != len(names):
            missing, defaults = len(names) - len(parts), self.DEFAULTS
            if not 0 < missing <= len(defaults):
                raise TypeError("%s(%s) given %d parts" % (
                    self.__class__.__qualname__, ", ".join(names), len(parts)))
            parts += defaults[len(defaults) - missing:]
        i = 0
        for name in names:  # indexed: a zip costs more than a tree's few parts
            setattr(self, name, parts[i])
            i += 1

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            cls = a.__class__
            if cls is not b.__class__ or not (cls is tuple or isinstance(a, Tree)):
                if not a == b:
                    return False
                continue
            if cls is not tuple:
                a, b = _parts(a), _parts(b)
            elif len(a) != len(b):
                return False
            todo.extend(zip(reversed(a), reversed(b)))  # compared left to right
        return True

    def __hash__(self):
        # post-order: once its n parts are hashed, a tree or tuple is hashed
        # as the tuple of them, each unfolded part standing in by its hash
        done: list = []
        todo: list = [(self, None)]
        while todo:
            x, n = todo.pop()
            if n is not None:
                parts = tuple(done[len(done) - n:])
                del done[len(done) - n:]
                done.append(_Hashed(hash(parts)))
            elif x.__class__ is tuple or _inherits(x, "__hash__"):
                parts = x if x.__class__ is tuple else _parts(x)
                todo.append((x, len(parts)))
                todo.extend([(p, None) for p in reversed(parts)])
            else:
                done.append(x)
        return done[0].h

    def __repr__(self):
        return render((self, None), _repr_parts)


_COMPARED: dict = {}  # Tree class -> the attributes it compares


def _compared(cls) -> Tuple[str, ...]:
    names = _COMPARED.get(cls)
    if names is None:
        names = _COMPARED[cls] = getattr(cls, "COMPARED", cls.__slots__)
    return names


def _parts(x: Tree) -> list:
    return [getattr(x, n) for n in _compared(x.__class__)]


def _inherits(x, method: str) -> bool:
    """x is a tree whose class keeps Tree's `method`."""
    return isinstance(x, Tree) and getattr(x.__class__, method) is getattr(Tree, method)


def _repr_parts(x, _context) -> list:
    """Tree.__repr__'s pieces of a tree or tuple: its head, each part as its
    repr or, if it prints the same way, as a pair, and its close."""
    if x.__class__ is tuple:
        pieces, labels, values = ["("], [""] * len(x), x
    else:
        pieces = [x.__class__.__qualname__ + "("]
        labels, values = [n + "=" for n in _compared(x.__class__)], _parts(x)
    for i, v in enumerate(values):
        label = ", " + labels[i] if i else labels[i]
        if v.__class__ is tuple or _inherits(v, "__repr__"):
            pieces += (label, (v, None))
        else:
            pieces.append(label + repr(v))
    pieces.append(",)" if x.__class__ is tuple and len(x) == 1 else ")")
    return pieces


class _Hashed:
    """Stands in a tuple for a part already hashed: hashing the tuple then
    gives what hashing it with the part itself in that place would."""

    __slots__ = ("h",)

    def __init__(self, h: int):
        self.h = h

    def __hash__(self):
        return self.h


def render(root, parts) -> str:
    """The text of `root`, a piece: a str, written as it stands, or a
    (value, context) pair, which parts(value, context) turns into its text
    or into a list of the pieces that stand for it, in reading order.  The
    lists being read wait on one explicit stack, so a tree of any depth
    renders at the default recursion limit."""
    out = []
    todo = [iter((root,))]  # each list being read, at the place reached
    while todo:
        for piece in todo[-1]:
            if piece.__class__ is tuple:
                piece = parts(*piece)
                if piece.__class__ is list:
                    todo.append(iter(piece))
                    break
            out.append(piece)
        else:
            todo.pop()
    return "".join(out)


def joined(sep: str, pieces: list) -> list:
    """pieces with sep between each two."""
    return [x for p in pieces for x in (sep, p)][1:]


def quote_text(text: str) -> str:
    """text in double quotes, backslash and double quote escaped."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


# ---------------------------------------------------------------------------
# Token regexes

class RLit(Tree):
    __slots__ = ("text",)  # decoded codepoint sequence


class RRange(Tree):
    __slots__ = ("lo", "hi")  # single codepoints, lo <= hi


class RConcat(Tree):
    __slots__ = ("parts",)


class RAlt(Tree):
    __slots__ = ("parts",)


class RStar(Tree):
    __slots__ = ("inner",)


class RRef(Tree):
    __slots__ = ("name",)


class RWildcard(Tree):
    __slots__ = ()


class REof(Tree):
    __slots__ = ()


RegexExpr = Union[RLit, RRange, RConcat, RAlt, RStar, RRef, RWildcard, REof]


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
    # where the main's mode name and each mode declaration stand, for
    # diagnostics; () or None for a spec built without a source
    main_loc: Optional[Loc] = field(default=None, compare=False)
    mode_locs: Tuple[Optional[Loc], ...] = field(default=(), compare=False)


# ---------------------------------------------------------------------------
# Parser stanza expressions

class TermLiteral(Tree):
    __slots__ = ("text",)


class TokenRef(Tree):
    __slots__ = ("name",)


class NontermRef(Tree):
    __slots__ = ("name", "attr_reqs", "pr_star")
    DEFAULTS = ((), False)


class Named(Tree):
    __slots__ = ("field_name", "inner")


class Seq(Tree):
    __slots__ = ("items",)


class AltBranches(Tree):
    __slots__ = ("branches",)  # (label, inner) pairs


class SingletonAlt(Tree):
    __slots__ = ("label", "inner")


class Star(Tree):
    __slots__ = ("inner",)


class Plus(Tree):
    __slots__ = ("inner",)


class Optional_(Tree):
    __slots__ = ("inner",)


class ListExpr(Tree):
    __slots__ = (
        "flavor",  # L | B | B2 | T | T2
        "elem",
        "min_count",  # 0 | 1 | 2
        "delim",
        "trailing",  # none | optional | required
    )


class PassString(Tree):
    __slots__ = ("text",)


class SpaceShorthand(Tree):
    __slots__ = ()


class Eps(Tree):
    __slots__ = ()


class Unfold(Tree):
    __slots__ = ("inner",)


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
    # where each of main_nonterms stands, for diagnostics; () for a spec
    # built without a source
    main_locs: Tuple[Optional[Loc], ...] = field(default=(), compare=False)

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


_UNESCAPES = {esc[1]: ch for ch, esc in _ESCAPES.items()}


def decode_backtick(raw: str, loc: Optional[Loc] = None) -> str:
    """Decode the contents of a backtick literal (delimiters included in raw)."""
    if not (len(raw) >= 2 and raw.startswith("`") and raw.endswith("`")):
        raise SpecError("%r is not a backtick literal" % raw, loc)
    body = raw[1:-1]
    if "\\" not in body:
        return body
    out = []
    chars = iter(body)
    for ch in chars:
        if ch == "\\":
            esc = next(chars, None)
            if esc is None:
                raise SpecError("dangling escape in literal", loc)
            if esc not in _UNESCAPES:
                raise SpecError("unknown escape \\%s in literal" % esc, loc)
            ch = _UNESCAPES[esc]
        out.append(ch)
    return "".join(out)


def render_regex(e: RegexExpr, prec: int = 0) -> str:
    """e as .lang text, parenthesized where its context binds tighter:
    `prec` is that context's precedence, 0 alt, 1 concat, 2 postfix/atom."""
    return render((e, prec), _regex_parts)


def _paren(pieces: list, wrap: bool) -> list:
    return ["(", *pieces, ")"] if wrap else pieces


def _regex_parts(e: RegexExpr, prec: int):
    # the commonest kinds first
    if isinstance(e, RLit):
        return quote_backtick(e.text)
    if isinstance(e, RRef):
        return e.name
    if isinstance(e, RConcat) and not e.parts:
        return "()"
    if isinstance(e, (RAlt, RConcat)):
        sep, inner, at = (" | ", 1, 0) if isinstance(e, RAlt) else (" ", 2, 1)
        return _paren(joined(sep, [(p, inner) for p in e.parts]), prec > at)
    if isinstance(e, RWildcard):
        return "_"
    if isinstance(e, RStar):
        return [(e.inner, 2), "*"]
    if isinstance(e, RRange):
        return "%s..%s" % (quote_backtick(e.lo), quote_backtick(e.hi))
    if isinstance(e, REof):
        return "eof"
    raise TypeError(e)


def render_parse_expr(e: ParseExpr, prec: int = 0) -> str:
    """e as .lang text, parenthesized where its context binds tighter:
    `prec` is that context's precedence, 0 alt, 1 seq, 2 prefix
    (name/unfold), 3 postfix, 4 atom."""
    return render((e, prec), _parse_expr_parts)


def _parse_expr_parts(e: ParseExpr, prec: int):
    # the commonest kinds first
    if isinstance(e, TermLiteral):
        return quote_backtick(e.text)
    if isinstance(e, (Named, Unfold)):
        head = "%s:" % e.field_name if isinstance(e, Named) else "~"
        return _paren([head, (e.inner, 2)], prec > 2)
    if isinstance(e, Seq):
        if not e.items:
            return "eps"
        return _paren(joined(" ", [(x, 2) for x in e.items]), prec > 1)
    if isinstance(e, SpaceShorthand):
        return "_"
    if isinstance(e, NontermRef):
        reqs = list(e.attr_reqs) + (["pr=*"] if e.pr_star else [])
        return e.name + "[" + ", ".join(reqs) + "]" if reqs else e.name
    if isinstance(e, TokenRef):
        return e.name
    if isinstance(e, ListExpr):
        num = {0: "::", 1: "::+", 2: "::++"}[e.min_count]
        end = {"none": "", "optional": ":?", "required": "::"}[e.trailing]
        return ["#%s[" % e.flavor, (e.elem, 0), num, (e.delim, 0), end + "]"]
    if isinstance(e, Eps):
        return "eps"
    if isinstance(e, AltBranches):
        # alternation only ever appears parenthesized in the surface syntax
        pieces = ["("]
        for i, (lbl, inner) in enumerate(e.branches):
            pieces += (" | %s:" % lbl if i else "%s:" % lbl, (inner, 2))
        return pieces + [")"]
    if isinstance(e, (Star, Plus, Optional_)):
        return [(e.inner, 3), "*" if isinstance(e, Star) else "+" if isinstance(e, Plus) else "?"]
    if isinstance(e, SingletonAlt):
        return ["#Alt[%s:" % e.label, (e.inner, 2), "]"]
    if isinstance(e, PassString):
        return "@(%s)" % quote_backtick(e.text)
    raise TypeError(e)


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
                data, at = text.encode("utf-8"), t.expected_fail_offset  # a byte offset
                text = (data[:at] + b"##" + data[at:]).decode("utf-8")
            marker = " <<>>" if t.skip_roundtrip else ""
            out.append("    %s%s;" % (quote_backtick(text), marker))
        out.append("}")
    out.append("")
    return "\n".join(out)
