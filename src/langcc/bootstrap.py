"""Self-hosting: from the generated metalanguage parser's tree to a LangSpec.

meta_frontend.parse_lang_spec parses `.lang` source with meta.clang, the
parser generated from grammars/meta.lang, and langspec_from_node turns the
Lang::File node it returns into a LangSpec, each declaration located at the
start of its node.  A rule body names opaque tokens and nonterminals
alike; the converter tells them apart by the tokens stanza, which it reads
first.  The regex and parse-expression converters run on explicit stacks,
so a pattern or rule body of any depth or length converts at the default
recursion limit.  bootstrap_check is the fixpoint: a parser freshly
generated from meta.lang reads meta.lang as the committed one does.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from . import spec_ast as sa
from .lexer import lex_lists
from .compiled import compile_lang
from .meta_frontend import (
    _checked, lexable, make_parse_test, meta_artifact, parse_lang_spec,
)
from .runtime import EnumVal, Node, SeqVal, TokenLeaf, parse
from .spec_ast import LangSpec, Loc, SpecError, decode_backtick

class _Lines:
    """Locs and token texts of one source, by byte offset: 1-based lines,
    and columns counting code points, read off line starts indexed once.
    Tokens read their text from the source, which differs from the text
    parsed where meta_frontend.lexable folded a character.  With no source,
    every Loc is None.  `late` holds the first error that is raised only
    once every stanza has converted."""

    def __init__(self, source: Optional[str]):
        self.source = source
        self.late: Optional[SpecError] = None
        self.data = None if source is None else source.encode("utf-8", "surrogatepass")
        self.folded = self.data is not None and not (self.data.isascii()
                                                     and b"\r" not in self.data)
        self.starts = [0] + [m.end() for m in re.finditer(b"\n", self.data or b"")]

    def loc(self, offset: int) -> Optional[Loc]:
        if self.data is None:
            return None
        line = bisect_right(self.starts, offset)
        start = self.starts[line - 1]
        return Loc(line, len(self.data[start:offset].decode("utf-8", "surrogatepass")) + 1)

    def text(self, tok: TokenLeaf) -> str:
        if not self.folded:
            return tok.text
        return self.data[tok.bounds.start:tok.bounds.end].decode("utf-8", "surrogatepass")

    def next_token(self, offset: int) -> Optional[Loc]:
        """The Loc of the first token at or after offset, as meta.lang's
        lexer finds it."""
        if self.data is None:
            return None
        starts = lex_lists(meta_artifact().lexer, lexable(self.source))[2]
        return self.loc(starts[bisect_left(starts, offset)])


def _lit(tok: TokenLeaf, lines: _Lines) -> str:
    try:
        return decode_backtick(lines.text(tok))
    except SpecError as e:
        raise SpecError(e.message, lines.loc(tok.bounds.start)) from None


def _ids(seq: SeqVal, lines: _Lines) -> Tuple[str, ...]:
    return tuple(lines.text(t) for t in seq.items)


def _dotted(node: Node, lines: _Lines) -> Tuple[str, ...]:
    if node.variant != ("DottedName", "Name"):
        raise SpecError("expected a DottedName::Name node, got %s" % "::".join(node.variant))
    return _ids(node.field("parts"), lines)


def _flatten_chain(n: Node, variant: str) -> List[Node]:
    """The operands, in order, of a chain of binary `variant` nodes (Alt,
    Concat or Seq), which nests to the left: every such operator is
    left-associative."""
    out = []
    while True:
        out.append(n.field("y"))
        x = n.field("x")
        if not (isinstance(x, Node) and x.variant[0] == n.variant[0]
                and x.variant[1] == variant):
            break
        n = x
    out.append(x)
    out.reverse()
    return out


# Both converters run on an explicit stack.  `todo` holds the nodes still to
# convert and (build, count, node) marks, each pushed before the `count`
# operands of `node`; once those are converted, `done` ends with them, and
# build(node, operands, lines) replaces them with the value of `node`.

def _settle(done: list, mark: tuple, lines: _Lines):
    build, count, n = mark
    at = len(done) - count
    value = build(n, done[at:], lines)
    del done[at:]
    done.append(value)


# -- token regexes ----------------------------------------------------------

_REGEX_BUILD = {
    "Alt": lambda n, parts, lines: sa.RAlt(tuple(parts)),
    "Concat": lambda n, parts, lines: sa.RConcat(tuple(parts)),
    "Star": lambda n, parts, lines: sa.RStar(parts[0]),
    "Plus": lambda n, parts, lines: sa.RConcat((parts[0], sa.RStar(parts[0]))),
    "Opt": lambda n, parts, lines: sa.RAlt((parts[0], sa.RConcat(()))),
}


def _range(n: Node, lines: _Lines) -> sa.RRange:
    lo = _lit(n.field("lo"), lines)
    hi = _lit(n.field("hi"), lines)
    if len(lo) != 1 or len(hi) != 1:
        raise SpecError("character range bounds must be single characters",
                        lines.loc(n.bounds.start))
    if ord(lo) > ord(hi):
        raise SpecError("empty character range %s..%s"
                        % (sa.quote_backtick(lo), sa.quote_backtick(hi)),
                        lines.loc(n.bounds.start))
    return sa.RRange(lo, hi)


def _conv_regex(root: Node, lines: _Lines) -> sa.RegexExpr:
    done: list = []
    todo: list = [root]
    while todo:
        n = todo.pop()
        if type(n) is tuple:
            _settle(done, n, lines)
            continue
        v = n.variant[1]
        if v == "Alt" or v == "Concat":
            parts = _flatten_chain(n, v)
            todo.append((_REGEX_BUILD[v], len(parts), n))
            todo.extend(reversed(parts))
        elif v in _REGEX_BUILD:
            todo.append((_REGEX_BUILD[v], 1, n))
            todo.append(n.field("x"))
        elif v == "Paren":
            todo.append(n.field("x"))
        elif v == "Lit":
            done.append(sa.RLit(_lit(n.field("s"), lines)))
        elif v == "Range":
            done.append(_range(n, lines))
        elif v == "Ref":
            done.append(sa.RRef(lines.text(n.field("name"))))
        elif v == "Wild":
            done.append(sa.RWildcard())
        elif v == "Eof":
            done.append(sa.REof())
        else:
            raise SpecError("unexpected regex variant %s" % v)
    return done[0]


# -- parse expressions --------------------------------------------------------

def _alt(n: Node, parts: list, lines: _Lines) -> sa.AltBranches:
    return sa.AltBranches(tuple(
        (p.field_name, p.inner) if isinstance(p, sa.Named) else ("_b%d" % i, p)
        for i, p in enumerate(parts)))


def _attr(n: Node, parts: list, lines: _Lines) -> sa.ParseExpr:
    inner = parts[0]
    if not isinstance(inner, (sa.NontermRef, sa.TokenRef)):
        # located at the `[`, the first token after the operand
        raise SpecError("attribute requirements apply only to nonterminal references",
                        lines.next_token(n.field("e").bounds.end))
    reqs: List[str] = []
    pr_star = False
    for req in n.field("reqs").items:
        if req.variant[1] == "Base":
            reqs.append(lines.text(req.field("name")))
        else:
            pr_star = True
    if isinstance(inner, sa.TokenRef):
        if (reqs or pr_star) and lines.late is None:
            lines.late = SpecError("attribute requirements apply only to nonterminal "
                                   "references, but %r is a token" % inner.name)
        return inner
    return sa.NontermRef(inner.name, inner.attr_reqs + tuple(reqs), inner.pr_star or pr_star)


def _singleton_alt(n: Node, parts: list, lines: _Lines) -> sa.SingletonAlt:
    b = parts[0]
    if not isinstance(b, sa.Named):
        raise SpecError("#Alt branch must be labeled, e.g. #Alt[Neg:`-`]",
                        lines.loc(n.bounds.start))
    return sa.SingletonAlt(b.field_name, b.inner)


_MIN_COUNT = {"N0": 0, "N1": 1, "N2": 2}
_TRAILING = {"ENone": "none", "EOpt": "optional", "ESome": "required"}


def _list(n: Node, parts: list, lines: _Lines) -> sa.ListExpr:
    return sa.ListExpr(n.field("ty").label, parts[0], _MIN_COUNT[n.field("num").label],
                       parts[1], _TRAILING[n.field("end").label])


_PE_BUILD = {
    "Alt": _alt,
    "Seq": lambda n, parts, lines: sa.Seq(tuple(parts)),
    "Name": lambda n, parts, lines: sa.Named(lines.text(n.field("name")), parts[0]),
    "Unfold": lambda n, parts, lines: sa.Unfold(parts[0]),
    "Star": lambda n, parts, lines: sa.Star(parts[0]),
    "Plus": lambda n, parts, lines: sa.Plus(parts[0]),
    "Opt": lambda n, parts, lines: sa.Optional_(parts[0]),
    "Attr": _attr,
    "SAlt": _singleton_alt,
    "List": _list,
}
# the operand fields of the other compound parse expressions, in order
_PE_OPERANDS = {"Name": ("e",), "Unfold": ("e",), "Star": ("e",), "Plus": ("e",),
                "Opt": ("e",), "Attr": ("e",), "SAlt": ("b",), "List": ("elem", "delim")}


def _conv_pe(root: Node, lines: _Lines, opaque: set) -> sa.ParseExpr:
    done: list = []
    todo: list = [root]
    while todo:
        n = todo.pop()
        if type(n) is tuple:
            _settle(done, n, lines)
            continue
        v = n.variant[1]
        if v == "Alt" or v == "Seq":
            parts = _flatten_chain(n, v)
            todo.append((_PE_BUILD[v], len(parts), n))
            todo.extend(reversed(parts))
        elif v in _PE_OPERANDS:
            fields = _PE_OPERANDS[v]
            todo.append((_PE_BUILD[v], len(fields), n))
            todo.extend(n.field(f) for f in reversed(fields))
        elif v == "Paren":
            todo.append(n.field("x"))
        elif v == "Lit":
            done.append(sa.TermLiteral(_lit(n.field("s"), lines)))
        elif v == "Pass":
            done.append(sa.PassString(_lit(n.field("s"), lines)))
        elif v == "Space":
            done.append(sa.SpaceShorthand())
        elif v == "Eps":
            done.append(sa.Eps())
        elif v == "Ref":
            # `opaque` holds the opaque token names; any other name is a nonterminal
            name = lines.text(n.field("name"))
            done.append(sa.TokenRef(name) if name in opaque else sa.NontermRef(name))
        else:
            raise SpecError("unexpected parse-expr variant %s" % v)
    return done[0]


# -- stanzas ------------------------------------------------------------------

def _conv_token_decl(n: Node, lines: _Lines) -> sa.TokenDecl:
    kind = "opaque" if n.variant[1] == "Opaque" else "alias"
    return sa.TokenDecl(lines.text(n.field("name")), kind, _conv_regex(n.field("re"), lines),
                        lines.loc(n.bounds.start))


# meta.lang's LexerAction variants -> their ops
_LEXER_ACTION_OPS = {"Emit": "emit", "Pass": "pass", "Push": "push", "Pop": "pop",
                     "PopExtract": "pop_extract", "PopEmit": "pop_emit"}


def _conv_lexer_action(n: Node, lines: _Lines) -> sa.LexerAction:
    op = _LEXER_ACTION_OPS.get(n.variant[1])
    if op is None:
        raise SpecError("unexpected lexer action %s" % n.variant[1])
    # Push and PopEmit name a mode or a token; the other actions have no fields
    return sa.LexerAction(op, *(lines.text(v) for _f, v in n.fields))


def _conv_lexer(items: SeqVal, lines: _Lines) -> sa.LexerSpec:
    main: Optional[str] = None
    modes = []
    for item in items.items:
        if item.variant[1] == "Main":
            if main is not None:
                raise SpecError("duplicate main declaration in lexer",
                                lines.loc(item.bounds.start))
            main = lines.text(item.field("name"))
        else:
            rules = []
            for r in item.field("rules").items:
                loc = lines.loc(r.bounds.start)
                pat = _conv_regex(r.field("pat"), lines)
                actions = tuple(_conv_lexer_action(a, lines) for a in r.field("actions").items)
                if not actions:
                    raise SpecError("lexer rule has an empty action list", loc)
                rules.append(sa.LexerRule(pat, actions, loc))
            modes.append((lines.text(item.field("name")), tuple(rules)))
    if main is None:
        raise SpecError("lexer stanza has no main declaration")
    return sa.LexerSpec(main, tuple(modes))


_TAG_OF = {"AssocLeft": "assoc_left", "AssocRight": "assoc_right",
           "Prefix": "prefix", "Postfix": "postfix"}


def _conv_parser(items: SeqVal, lines: _Lines, opaque: set) -> sa.ParserSpec:
    main: Optional[Tuple[str, ...]] = None
    prec_lines: List[sa.PrecLine] = []
    props: List[str] = []
    attr_lines: List[sa.AttrLine] = []
    rules: List[sa.RuleDecl] = []
    for item in items.items:
        v = item.variant[1]
        if v == "Main":
            if main is not None:
                raise SpecError("duplicate main declaration in parser",
                                lines.loc(item.bounds.start))
            main = _ids(item.field("names"), lines)
        elif v == "Prec":
            for line in item.field("lines").items:
                names = tuple(_dotted(d, lines) for d in line.field("names").items)
                tag_val = line.field("tag")
                tag = _TAG_OF[tag_val.label] if isinstance(tag_val, EnumVal) else None
                prec_lines.append(sa.PrecLine(names, tag, lines.loc(line.bounds.start)))
        elif v == "Prop":
            props.append("name_strict")
        elif v == "Attr":
            for line in item.field("lines").items:
                target = lines.text(line.field("target")) if line.variant[1] == "Req" else None
                attr_lines.append(sa.AttrLine(_dotted(line.field("rule"), lines),
                                              lines.text(line.field("a")), target,
                                              lines.loc(line.bounds.start)))
        elif v == "Rule":
            loc = lines.loc(item.bounds.start)
            attrs_val = item.field("attrs")
            lhs_attrs = _ids(attrs_val, lines) if isinstance(attrs_val, SeqVal) else ()
            rules.append(sa.RuleDecl(_dotted(item.field("path"), lines), lhs_attrs,
                                     _conv_pe(item.field("rhs"), lines, opaque), loc))
        else:
            raise SpecError("unexpected parser item %s" % v)
    if main is None:
        raise SpecError("parser stanza has no main declaration")
    return sa.ParserSpec(main, tuple(prec_lines), tuple(props),
                         tuple(attr_lines), tuple(rules))


_STANZA_KEYWORDS = {"Tokens": "tokens", "Lexer": "lexer", "Parser": "parser",
                    "CompileTest": "compile_test", "Test": "test"}


def langspec_from_node(root: Node, source: Optional[str] = None) -> LangSpec:
    """The validated LangSpec of a Lang::File node of the generated meta
    parser.  `source`, the text the node was parsed from, locates the
    declarations and diagnostics; without it every Loc is None."""
    if root.variant != ("Lang", "File"):
        raise SpecError("expected a Lang::File node, got %s" % "::".join(root.variant))
    lines = _Lines(source)
    token_decls: List[sa.TokenDecl] = []
    lexer: Optional[sa.LexerSpec] = None
    parser: Optional[sa.ParserSpec] = None
    compile_tests: List[sa.LrTestDecl] = []
    parse_tests: List[sa.ParseTestDecl] = []
    seen = set()
    stanzas = root.field("stanzas").items
    opaque = {lines.text(d.field("name")) for s in stanzas if s.variant[1] == "Tokens"
              for d in s.field("decls").items if d.variant[1] == "Opaque"}
    for stanza in stanzas:
        v = stanza.variant[1]
        if v not in _STANZA_KEYWORDS:
            raise SpecError("unexpected stanza %s" % v)
        if v in seen:
            raise SpecError("duplicate %s stanza" % _STANZA_KEYWORDS[v],
                            lines.loc(stanza.bounds.start))
        seen.add(v)
        if v == "Tokens":
            token_decls = [_conv_token_decl(d, lines) for d in stanza.field("decls").items]
        elif v == "Lexer":
            lexer = _conv_lexer(stanza.field("items"), lines)
        elif v == "Parser":
            parser = _conv_parser(stanza.field("items"), lines, opaque)
        elif v == "CompileTest":
            for e in stanza.field("entries").items:
                compile_tests.append(sa.LrTestDecl(
                    int(lines.text(e.field("k"))), e.variant[1] == "Pos"))
        else:
            for e in stanza.field("entries").items:
                s = e.field("s")
                parse_tests.append(make_parse_test(
                    _lit(s, lines), lines.loc(s.bounds.start), e.field("skip") is True))
    if lexer is None:
        raise SpecError("missing lexer stanza")
    if parser is None:
        raise SpecError("missing parser stanza")
    if lines.late is not None:
        raise lines.late
    return _checked(LangSpec(tuple(token_decls), lexer, parser,
                             tuple(compile_tests), tuple(parse_tests)))


def bootstrap_check(meta_source: str):
    """Fixpoint: a parser freshly generated from meta_source parses
    meta_source to a LangSpec structurally equal to the one the committed
    meta.clang (parse_lang_spec) makes of it.

    Returns (ok, detail message).
    """
    committed = parse_lang_spec(meta_source)
    result = compile_lang(meta_source)
    if not result.ok:
        return (False, "meta.lang does not compile conflict-free")
    parsed = parse(result.compiled, lexable(meta_source))
    if not parsed.is_success():
        return (False, "generated parser rejects meta.lang: %s" % parsed.err.message)
    generated = langspec_from_node(parsed.result, meta_source)
    if committed == generated:
        return (True, "fixpoint reached")
    return (False, _first_difference(committed, generated))


def _first_difference(a: LangSpec, b: LangSpec) -> str:
    for what, xs, ys in (("token decl", a.token_decls, b.token_decls),
                         ("rule", a.parser.rules, b.parser.rules)):
        for x, y in zip(xs, ys):
            if x != y:
                return "%s differs: %r vs %r" % (what, x, y)
    for field in ("token_decls", "lexer", "parser", "compile_tests", "parse_tests"):
        if getattr(a, field) != getattr(b, field):
            return "%s differ" % field
    return "specs differ"
