"""The `.lang` frontend: from source text to a checked LangSpec.

The metalanguage is self-hosted.  grammars/meta.lang describes the `.lang`
dialect (docs/metalang.md) in itself, and the parser generated from it is
committed as src/langcc/meta.clang.  parse_lang_spec parses every source
with that artifact, loaded once per process, and reports a failed parse as
a located SpecError.  langspec_from_node turns the Lang::File node into a
LangSpec, each declaration located at the start of its node, and
validate_spec checks it.  A rule body names opaque tokens and nonterminals
alike; the converter tells them apart by the tokens stanza, which it reads
first.  The regex and parse-expression converters share one walk on an
explicit stack (_convert), so a pattern or rule body of any depth or length
converts at the default recursion limit.  bootstrap.bootstrap_check checks
that meta.clang is what langcc makes of meta.lang today; docs/metalang.md
says how to regenerate it.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left, bisect_right
from importlib import resources
from typing import List, Optional, Tuple

from . import spec_ast as sa
from .artifact import CompiledLang
from .lexer import EOF_TERMINAL, action_list_fault, alias_target, lex_lists
from .runtime import EnumVal, Node, SeqVal, TokenLeaf, parse
from .spec_ast import (
    AltBranches, Diagnostic, LangSpec, ListExpr, Loc, Named, NontermRef,
    Optional_, ParseTestDecl, Plus, RAlt, RConcat, REof, RRef, RStar, RegexExpr, Seq,
    SingletonAlt, SpecError, Star, TokenRef, Unfold, decode_backtick,
)


def make_parse_test(text: str, loc: Optional[Loc], skip_roundtrip: bool) -> ParseTestDecl:
    """Strip the ## failure marker and record its byte offset."""
    idx = text.find("##")
    if idx < 0:
        return ParseTestDecl(text, None, skip_roundtrip)
    stripped = text[:idx] + text[idx + 2:]
    if stripped.find("##") >= 0:
        raise SpecError("test string contains more than one ## marker", loc)
    offset = len(text[:idx].encode("utf-8"))
    return ParseTestDecl(stripped, offset, skip_roundtrip)


def _checked(spec: LangSpec) -> LangSpec:
    """The spec, once it passes validate_spec; else a SpecError naming the
    first diagnostic."""
    diags = validate_spec(spec)
    if diags:
        first = diags[0]
        raise SpecError(first.message + ("" if len(diags) == 1 else
                                         " (+%d more diagnostics)" % (len(diags) - 1)),
                        first.loc)
    return spec


@functools.lru_cache(maxsize=None)
def meta_artifact():
    """The generated metalanguage parser, src/langcc/meta.clang, loaded on
    first use."""
    text = resources.files(__package__).joinpath("meta.clang").read_text(encoding="utf-8")
    return CompiledLang.from_json(text)


# meta.lang's lexer is ASCII and takes only spaces, tabs and newlines as
# blanks; the metalanguage also takes a carriage return as a blank and any
# letter or digit (str.isalnum) in a name or integer.  lexable folds those
# characters into ASCII stand-ins of the same class and the same UTF-8
# length, so every offset in the tree indexes the original source, from
# which the converters read each token's text.
_UNLEXABLE = re.compile("[\r\x80-\U0010ffff]")


def _stand_in(m) -> str:
    ch = m.group()
    if ch == "\r":
        return " "
    if ch.isdigit():
        return "0" * len(ch.encode("utf-8"))
    if ch.isalnum():
        return "a" * len(ch.encode("utf-8"))
    return ch


def lexable(source: str) -> str:
    """source as meta.lang's lexer reads it (see _UNLEXABLE)."""
    return source if _UNLEXABLE.search(source) is None else _UNLEXABLE.sub(_stand_in, source)


def _syntax_error(err, lines) -> SpecError:
    """The SpecError for a failed parse of `.lang` source by meta.clang: a
    lex error as the hand-written scanner reported it, or the unexpected
    token with the terminals the parser expected there."""
    lex = err.lex_error
    if lex is not None and lex.kind == "stack_nonempty_at_eof" and lex.detail == "mode string_lit":
        return SpecError("unterminated backtick literal", lines.loc(lex.opened))
    if lex is not None and lex.kind == "no_match":
        ch = lines.data[lex.offset:lex.offset + 4].decode("utf-8", "replace")[:1]
        return SpecError("unexpected character %r" % ch, lines.loc(lex.offset))
    start, end = err.bounds
    message = err.message if start == end else "Unexpected token: `%s`" % (
        lines.data[start:end].decode("utf-8", "surrogatepass"))  # as written, not as lexed
    if err.expected:
        names = ["end of input" if t == EOF_TERMINAL else t for t in err.expected]
        message += " (expected %s)" % (names[0] if len(names) == 1 else
                                       ", ".join(names[:-1]) + " or " + names[-1])
    return SpecError(message, lines.loc(start))


def parse_lang_spec(source: str) -> LangSpec:
    """Parse .lang source text into a validated LangSpec.

    Raises SpecError on syntax errors and on any validation diagnostic."""
    res = parse(meta_artifact(), lexable(source))
    if not res.is_success():
        raise _syntax_error(res.err, _Lines(source))
    return langspec_from_node(res.result, source)


# ---------------------------------------------------------------------------
# meta.clang's tree -> LangSpec

class _Lines:
    """Locs and token texts of one source, by byte offset: 1-based lines,
    and columns counting code points, read off line starts indexed once.
    Tokens read their text from the source, which differs from the text
    parsed where lexable folded a character.  With no source,
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
        return self.data[tok.start:tok.end].decode("utf-8", "surrogatepass")

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
        raise SpecError(e.message, lines.loc(tok.start)) from None


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


def _convert(root: Node, lines: _Lines, build: dict, operands: dict, leaf):
    """The value of `root`, a token regex or parse expression, converted on
    an explicit stack.  `build[variant](node, values, lines)` makes a
    compound node's value from its operands' values: those of the fields
    operands[variant] names, in order, or of its chain (_flatten_chain) if
    `operands` has no entry for it.  A Paren converts as its content and
    any other node is `leaf(node, variant)`.  `todo` holds the nodes still
    to convert and a (node, count) mark pushed before the `count` operands
    of each compound node; once those are converted, `done` ends with
    their values, which the node's value replaces."""
    done: list = []
    todo: list = [root]
    while todo:
        n = todo.pop()
        if type(n) is tuple:
            n, count = n
            at = len(done) - count
            value = build[n.variant[1]](n, done[at:], lines)
            del done[at:]
            done.append(value)
            continue
        v = n.variant[1]
        if v in operands:
            parts = [n.field(f) for f in operands[v]]
        elif v in build:
            parts = _flatten_chain(n, v)
        elif v == "Paren":
            todo.append(n.field("x"))
            continue
        else:
            done.append(leaf(n, v))
            continue
        todo.append((n, len(parts)))
        todo.extend(reversed(parts))
    return done[0]


# -- token regexes ----------------------------------------------------------

_REGEX_BUILD = {
    "Alt": lambda n, parts, lines: sa.RAlt(tuple(parts)),
    "Concat": lambda n, parts, lines: sa.RConcat(tuple(parts)),
    "Star": lambda n, parts, lines: sa.RStar(parts[0]),
    "Plus": lambda n, parts, lines: sa.RConcat((parts[0], sa.RStar(parts[0]))),
    "Opt": lambda n, parts, lines: sa.RAlt((parts[0], sa.RConcat(()))),
}
# the operand fields of the compound regexes that are no chain
_REGEX_OPERANDS = {"Star": ("x",), "Plus": ("x",), "Opt": ("x",)}


def _range(n: Node, lines: _Lines) -> sa.RRange:
    lo = _lit(n.field("lo"), lines)
    hi = _lit(n.field("hi"), lines)
    if len(lo) != 1 or len(hi) != 1:
        raise SpecError("character range bounds must be single characters",
                        lines.loc(n.start))
    if ord(lo) > ord(hi):
        raise SpecError("empty character range %s..%s"
                        % (sa.quote_backtick(lo), sa.quote_backtick(hi)),
                        lines.loc(n.start))
    return sa.RRange(lo, hi)


def _conv_regex(root: Node, lines: _Lines) -> sa.RegexExpr:
    def leaf(n: Node, v: str) -> sa.RegexExpr:
        if v == "Lit":
            return sa.RLit(_lit(n.field("s"), lines))
        if v == "Range":
            return _range(n, lines)
        if v == "Ref":
            return sa.RRef(lines.text(n.field("name")))
        if v == "Wild":
            return sa.RWildcard()
        if v == "Eof":
            return sa.REof()
        raise SpecError("unexpected regex variant %s" % v)
    return _convert(root, lines, _REGEX_BUILD, _REGEX_OPERANDS, leaf)


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
                        lines.next_token(n.field("e").end))
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
                        lines.loc(n.start))
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
# the operand fields of the compound parse expressions that are no chain, in order
_PE_OPERANDS = {"Name": ("e",), "Unfold": ("e",), "Star": ("e",), "Plus": ("e",),
                "Opt": ("e",), "Attr": ("e",), "SAlt": ("b",), "List": ("elem", "delim")}


def _conv_pe(root: Node, lines: _Lines, opaque: set) -> sa.ParseExpr:
    def leaf(n: Node, v: str) -> sa.ParseExpr:
        if v == "Lit":
            return sa.TermLiteral(_lit(n.field("s"), lines))
        if v == "Pass":
            return sa.PassString(_lit(n.field("s"), lines))
        if v == "Space":
            return sa.SpaceShorthand()
        if v == "Eps":
            return sa.Eps()
        if v == "Ref":
            # `opaque` holds the opaque token names; any other name is a nonterminal
            name = lines.text(n.field("name"))
            return sa.TokenRef(name) if name in opaque else sa.NontermRef(name)
        raise SpecError("unexpected parse-expr variant %s" % v)
    return _convert(root, lines, _PE_BUILD, _PE_OPERANDS, leaf)


# -- stanzas ------------------------------------------------------------------

def _conv_token_decl(n: Node, lines: _Lines) -> sa.TokenDecl:
    kind = "opaque" if n.variant[1] == "Opaque" else "alias"
    return sa.TokenDecl(lines.text(n.field("name")), kind, _conv_regex(n.field("re"), lines),
                        lines.loc(n.start))


# meta.lang's LexerAction variants -> their ops
_LEXER_ACTION_OPS = {"Emit": "emit", "Pass": "pass", "Push": "push", "Pop": "pop",
                     "PopExtract": "pop_extract", "PopEmit": "pop_emit"}


def _conv_lexer_action(n: Node, lines: _Lines) -> sa.LexerAction:
    op = _LEXER_ACTION_OPS.get(n.variant[1])
    if op is None:
        raise SpecError("unexpected lexer action %s" % n.variant[1])
    # Push and PopEmit name a mode or a token; the other actions have no fields
    return sa.LexerAction(op, *(lines.text(v) for v in n.values))


def _conv_lexer(items: SeqVal, lines: _Lines) -> sa.LexerSpec:
    main: Optional[str] = None
    main_loc: Optional[Loc] = None
    modes = []
    mode_locs = []
    for item in items.items:
        if item.variant[1] == "Main":
            if main is not None:
                raise SpecError("duplicate main declaration in lexer",
                                lines.loc(item.start))
            name = item.field("name")
            main, main_loc = lines.text(name), lines.loc(name.start)
        else:
            rules = []
            for r in item.field("rules").items:
                loc = lines.loc(r.start)
                pat = _conv_regex(r.field("pat"), lines)
                actions = tuple(_conv_lexer_action(a, lines) for a in r.field("actions").items)
                if not actions:
                    raise SpecError("lexer rule has an empty action list", loc)
                rules.append(sa.LexerRule(pat, actions, loc))
            modes.append((lines.text(item.field("name")), tuple(rules)))
            mode_locs.append(lines.loc(item.start))
    if main is None:
        raise SpecError("lexer stanza has no main declaration")
    return sa.LexerSpec(main, tuple(modes), main_loc, tuple(mode_locs))


_TAG_OF = {"AssocLeft": "assoc_left", "AssocRight": "assoc_right",
           "Prefix": "prefix", "Postfix": "postfix"}


def _conv_parser(items: SeqVal, lines: _Lines, opaque: set) -> sa.ParserSpec:
    main: Optional[Tuple[str, ...]] = None
    main_locs: Tuple[Optional[Loc], ...] = ()
    prec_lines: List[sa.PrecLine] = []
    props: List[str] = []
    attr_lines: List[sa.AttrLine] = []
    rules: List[sa.RuleDecl] = []
    for item in items.items:
        v = item.variant[1]
        if v == "Main":
            if main is not None:
                raise SpecError("duplicate main declaration in parser",
                                lines.loc(item.start))
            main = _ids(item.field("names"), lines)
            main_locs = tuple(lines.loc(t.start) for t in item.field("names").items)
        elif v == "Prec":
            for line in item.field("lines").items:
                names = tuple(_dotted(d, lines) for d in line.field("names").items)
                tag_val = line.field("tag")
                tag = _TAG_OF[tag_val.label] if isinstance(tag_val, EnumVal) else None
                prec_lines.append(sa.PrecLine(names, tag, lines.loc(line.start)))
        elif v == "Prop":
            props.append("name_strict")
        elif v == "Attr":
            for line in item.field("lines").items:
                target = lines.text(line.field("target")) if line.variant[1] == "Req" else None
                attr_lines.append(sa.AttrLine(_dotted(line.field("rule"), lines),
                                              lines.text(line.field("a")), target,
                                              lines.loc(line.start)))
        elif v == "Rule":
            loc = lines.loc(item.start)
            attrs_val = item.field("attrs")
            lhs_attrs = _ids(attrs_val, lines) if isinstance(attrs_val, SeqVal) else ()
            rules.append(sa.RuleDecl(_dotted(item.field("path"), lines), lhs_attrs,
                                     _conv_pe(item.field("rhs"), lines, opaque), loc))
        else:
            raise SpecError("unexpected parser item %s" % v)
    if main is None:
        raise SpecError("parser stanza has no main declaration")
    return sa.ParserSpec(main, tuple(prec_lines), tuple(props),
                         tuple(attr_lines), tuple(rules), main_locs)


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
                            lines.loc(stanza.start))
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
                    _lit(s, lines), lines.loc(s.start), e.field("skip") is True))
    if lexer is None:
        raise SpecError("missing lexer stanza")
    if parser is None:
        raise SpecError("missing parser stanza")
    if lines.late is not None:
        raise lines.late
    return _checked(LangSpec(tuple(token_decls), lexer, parser,
                             tuple(compile_tests), tuple(parse_tests)))


# ---------------------------------------------------------------------------
# Validation

def _regex_refs(e: RegexExpr) -> List[str]:
    """The token names e references, in order, read on an explicit stack."""
    out = []
    work = [e]
    while work:
        e = work.pop()
        if isinstance(e, RRef):
            out.append(e.name)
        elif isinstance(e, (RConcat, RAlt)):
            work.extend(reversed(e.parts))
        elif isinstance(e, RStar):
            work.append(e.inner)
    return out


def _alias_diags(decls, by_name, refs) -> List[Diagnostic]:
    """Depth-first searches, on stacks of iterators over refs[i], the
    references of decls[i]: for opaque tokens reached from opaque ones
    (through a name's first declaration), then for an alias cycle (its last)."""
    out = []
    first_refs = {d.name: rs for d, rs in reversed(list(zip(decls, refs)))}
    for d in decls:
        if d.kind != "opaque":
            continue
        hit = None
        seen = {d.name}
        stack = [iter(first_refs[d.name])]
        while stack and hit is None:
            for ref in stack[-1]:
                target = by_name.get(ref)
                if target is not None and target.kind == "opaque":
                    hit = ref
                    break
                if target is not None and ref not in seen:
                    seen.add(ref)
                    stack.append(iter(first_refs[ref]))
                    break
            else:
                stack.pop()
        if hit is not None and hit != d.name:
            out.append(Diagnostic(d.loc, "opaque token %r cannot be used in the "
                                  "definition of %r" % (hit, d.name)))

    graph = {d.name: [r for r in rs if r in by_name] for d, rs in zip(decls, refs)}
    done = set()
    for d in decls:
        path = [d.name]
        stack = [] if d.name in done else [iter(graph[d.name])]
        while stack:
            for name in stack[-1]:
                if name in path:
                    cycle = path[path.index(name):] + [name]
                    out.append(Diagnostic(d.loc, "cyclic alias reference: %s"
                                          % " -> ".join(cycle)))
                    return out
                if name not in done:
                    path.append(name)
                    stack.append(iter(graph[name]))
                    break
            else:
                stack.pop()
                done.add(path.pop())
    return out


def validate_spec(spec: LangSpec) -> List[Diagnostic]:
    """Check all cross-reference and acyclicity invariants; empty list iff ok."""
    diags: List[Diagnostic] = []
    by_name = {}
    for d in spec.token_decls:
        if d.name in by_name:
            diags.append(Diagnostic(d.loc, "duplicate token name %r" % d.name))
        else:
            by_name[d.name] = d

    # references resolve; opaque definitions are transitively opaque-free
    # (aliases may name opaque constituents: that is what emit consumes)
    refs = [_regex_refs(d.pattern) for d in spec.token_decls]
    for d, rs in zip(spec.token_decls, refs):
        for ref in rs:
            if ref not in by_name:
                diags.append(Diagnostic(d.loc, "token %r references undeclared token %r"
                                        % (d.name, ref)))
    diags.extend(_alias_diags(spec.token_decls, by_name, refs))

    # lexer: main and push targets name declared modes; rule shape constraints
    mode_names = [m for m, _ in spec.lexer.modes]
    mode_locs = spec.lexer.mode_locs or (None,) * len(mode_names)
    repeats = [loc for i, loc in enumerate(mode_locs) if mode_names[i] in mode_names[:i]]
    if repeats:
        diags.append(Diagnostic(repeats[0], "duplicate lexer mode name"))
    if spec.lexer.main_mode not in mode_names:
        diags.append(Diagnostic(spec.lexer.main_loc, "lexer main names undeclared mode %r"
                                % spec.lexer.main_mode))
    for mode_name, rules in spec.lexer.modes:
        for r in rules:
            # an alias of eof matches eof too
            at_eof = isinstance(alias_target(r.pattern, by_name), REof)
            fault = action_list_fault(mode_name, r.actions, at_eof)
            if fault is not None:
                diags.append(Diagnostic(r.loc, fault))
            for a in r.actions:
                if a.op == "push" and a.arg not in mode_names:
                    diags.append(Diagnostic(r.loc, "push targets undeclared mode %r" % a.arg))
                if a.op == "pop_emit":
                    d = by_name.get(a.arg)
                    if d is None or d.kind != "opaque":
                        diags.append(Diagnostic(r.loc, "pop_emit must name an opaque token, "
                                                "got %r" % a.arg))
            for ref in _regex_refs(r.pattern):
                if ref not in by_name:
                    diags.append(Diagnostic(r.loc, "lexer rule references undeclared "
                                            "token %r" % ref))

    # parser: rule paths unique, main/prec references resolve
    nonterms = {r.lhs for r in spec.parser.rules}
    seen_paths = set()
    for r in spec.parser.rules:
        if r.path in seen_paths:
            diags.append(Diagnostic(r.loc, "duplicate rule %s" % r.dotted))
        seen_paths.add(r.path)
    main_locs = spec.parser.main_locs or (None,) * len(spec.parser.main_nonterms)
    for name, loc in zip(spec.parser.main_nonterms, main_locs):
        if name not in nonterms:
            diags.append(Diagnostic(loc, "parser main names undeclared nonterminal %r" % name))
    prec_seen = set()
    for line in spec.parser.prec_lines:
        lhs_here = set()
        for path in line.rule_paths:
            if path not in seen_paths:
                diags.append(Diagnostic(line.loc, "prec line names undeclared rule %s"
                                        % ".".join(path)))
                continue
            if path in prec_seen:
                diags.append(Diagnostic(line.loc, "rule %s appears in more than one prec line"
                                        % ".".join(path)))
            prec_seen.add(path)
            lhs_here.add(path[0])
        if len(lhs_here) > 1:
            diags.append(Diagnostic(line.loc, "prec line mixes distinct nonterminals: %s"
                                    % ", ".join(sorted(lhs_here))))
    for al in spec.parser.attr_lines:
        if al.rule_path not in seen_paths:
            diags.append(Diagnostic(al.loc, "attr line names undeclared rule %s"
                                    % ".".join(al.rule_path)))
        if al.target_nonterm is not None and al.target_nonterm not in nonterms:
            diags.append(Diagnostic(al.loc, "attr line names undeclared nonterminal %r"
                                    % al.target_nonterm))

    opaque = set(spec.opaque_names())
    reserved = _reserved_name_diags(spec, nonterms, opaque)
    diags.extend(reserved)

    # rule bodies, each on an explicit stack in the order of a recursive
    # walk: a `~`'s diagnostic waits beneath its operand, and follows it
    for r in spec.parser.rules:
        todo = [r.rhs]
        while todo:
            e = todo.pop()
            if isinstance(e, Diagnostic):
                diags.append(e)
            elif isinstance(e, NontermRef):
                if e.name not in nonterms:
                    diags.append(Diagnostic(r.loc, "reference to undeclared nonterminal or "
                                            "token %r" % e.name))
            elif isinstance(e, TokenRef):
                if e.name not in opaque:
                    diags.append(Diagnostic(r.loc, "reference to undeclared token %r" % e.name))
            elif isinstance(e, Seq):
                todo.extend(reversed(e.items))
            elif isinstance(e, AltBranches):
                todo.extend(inner for _, inner in reversed(e.branches))
            elif isinstance(e, ListExpr):
                todo += (e.delim, e.elem)
            elif isinstance(e, (Named, SingletonAlt, Star, Plus, Optional_, Unfold)):
                if isinstance(e, Unfold) and not isinstance(e.inner, NontermRef):
                    todo.append(Diagnostic(r.loc, "~ applies only to nonterminal references"))
                todo.append(e.inner)

    return diags


def _reserved_name_diags(spec, nonterms, opaque):
    out = []
    pat = re.compile(r"^[XLQ][0-9]+$")
    for name in sorted(nonterms | opaque):
        if pat.match(name):
            out.append(Diagnostic(None, "name %r is reserved for synthesized symbols" % name))
    return out
