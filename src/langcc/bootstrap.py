"""Self-hosting support.

grammars/meta.lang defines the `.lang` metalanguage in itself.  This module
converts the generic AST produced by the *generated* metalanguage parser back
into a LangSpec, so the fixpoint check can compare it structurally against
the hand-written frontend's parse of the same source.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import spec_ast as sa
from .meta_frontend import decode_backtick, make_parse_test, validate_spec
from .runtime import EnumVal, Node, SeqVal, TokenLeaf, parse
from .spec_ast import LangSpec, SpecError


def _lit(tok: TokenLeaf) -> str:
    return decode_backtick(tok.text)


def _ids(seq: SeqVal) -> Tuple[str, ...]:
    return tuple(t.text for t in seq.items)


def _dotted(node: Node) -> Tuple[str, ...]:
    if node.variant != ("DottedName", "Name"):
        raise SpecError("expected a DottedName::Name node, got %s" % "::".join(node.variant))
    return _ids(node.field("parts"))


# -- token regexes ----------------------------------------------------------

def _conv_regex(n: Node) -> sa.RegexExpr:
    v = n.variant[1]
    if v == "Alt":
        parts = []
        _flatten_chain(n, "Alt", parts)
        return sa.RAlt(tuple(_conv_regex(p) for p in parts))
    if v == "Concat":
        parts = []
        _flatten_chain(n, "Concat", parts)
        return sa.RConcat(tuple(_conv_regex(p) for p in parts))
    if v == "Star":
        return sa.RStar(_conv_regex(n.field("x")))
    if v == "Plus":
        inner = _conv_regex(n.field("x"))
        return sa.RConcat((inner, sa.RStar(inner)))
    if v == "Opt":
        return sa.RAlt((_conv_regex(n.field("x")), sa.RConcat(())))
    if v == "Lit":
        return sa.RLit(_lit(n.field("s")))
    if v == "Range":
        lo = _lit(n.field("lo"))
        hi = _lit(n.field("hi"))
        if len(lo) != 1 or len(hi) != 1 or ord(lo) > ord(hi):
            raise SpecError("invalid character range %s..%s" % (lo, hi))
        return sa.RRange(lo, hi)
    if v == "Ref":
        return sa.RRef(n.field("name").text)
    if v == "Wild":
        return sa.RWildcard()
    if v == "Eof":
        return sa.REof()
    if v == "Paren":
        return _conv_regex(n.field("x"))
    raise SpecError("unexpected regex variant %s" % v)


def _flatten_chain(n: Node, variant: str, out: List[Node]):
    """Left-nested binary Alt/Concat/Seq chains flatten to item lists."""
    x = n.field("x")
    y = n.field("y")
    if isinstance(x, Node) and x.variant[0] == n.variant[0] and x.variant[1] == variant:
        _flatten_chain(x, variant, out)
    else:
        out.append(x)
    out.append(y)


# -- parse expressions --------------------------------------------------------

def _conv_pe(n: Node) -> sa.ParseExpr:
    v = n.variant[1]
    if v == "Alt":
        parts: List[Node] = []
        _flatten_chain(n, "Alt", parts)
        branches = []
        for i, b in enumerate(parts):
            conv = _conv_pe(b)
            if isinstance(conv, sa.Named):
                branches.append((conv.field_name, conv.inner))
            else:
                branches.append(("_b%d" % i, conv))
        return sa.AltBranches(tuple(branches))
    if v == "Seq":
        parts = []
        _flatten_chain(n, "Seq", parts)
        return sa.Seq(tuple(_conv_pe(p) for p in parts))
    if v == "Name":
        return sa.Named(n.field("name").text, _conv_pe(n.field("e")))
    if v == "Unfold":
        return sa.Unfold(_conv_pe(n.field("e")))
    if v == "Star":
        return sa.Star(_conv_pe(n.field("e")))
    if v == "Plus":
        return sa.Plus(_conv_pe(n.field("e")))
    if v == "Opt":
        return sa.Optional_(_conv_pe(n.field("e")))
    if v == "Attr":
        inner = _conv_pe(n.field("e"))
        reqs: List[str] = []
        pr_star = False
        for req in n.field("reqs").items:
            if req.variant[1] == "Base":
                reqs.append(req.field("name").text)
            else:
                pr_star = True
        if not isinstance(inner, sa.NontermRef):
            raise SpecError("attribute requirements apply only to nonterminal references")
        return sa.NontermRef(inner.name, inner.attr_reqs + tuple(reqs),
                             inner.pr_star or pr_star)
    if v == "Lit":
        return sa.TermLiteral(_lit(n.field("s")))
    if v == "Pass":
        return sa.PassString(_lit(n.field("s")))
    if v == "Space":
        return sa.SpaceShorthand()
    if v == "Eps":
        return sa.Eps()
    if v == "Ref":
        return sa.NontermRef(n.field("name").text)
    if v == "SAlt":
        b = _conv_pe(n.field("b"))
        if not isinstance(b, sa.Named):
            raise SpecError("#Alt branch must be labeled")
        return sa.SingletonAlt(b.field_name, b.inner)
    if v == "List":
        flavor = n.field("ty").label
        min_count = {"N0": 0, "N1": 1, "N2": 2}[n.field("num").label]
        trailing = {"ENone": "none", "EOpt": "optional", "ESome": "required"}[
            n.field("end").label]
        return sa.ListExpr(flavor, _conv_pe(n.field("elem")), min_count,
                           _conv_pe(n.field("delim")), trailing)
    if v == "Paren":
        return _conv_pe(n.field("x"))
    raise SpecError("unexpected parse-expr variant %s" % v)


# -- stanzas ------------------------------------------------------------------

def _conv_token_decl(n: Node) -> sa.TokenDecl:
    kind = "opaque" if n.variant[1] == "Opaque" else "alias"
    return sa.TokenDecl(n.field("name").text, kind, _conv_regex(n.field("re")))


def _conv_lexer_action(n: Node) -> sa.LexerAction:
    v = n.variant[1]
    if v == "Emit":
        return sa.AEmit()
    if v == "Pass":
        return sa.APass()
    if v == "Push":
        return sa.APush(n.field("name").text)
    if v == "Pop":
        return sa.APop()
    if v == "PopExtract":
        return sa.APopExtract()
    if v == "PopEmit":
        return sa.APopEmit(n.field("name").text)
    raise SpecError("unexpected lexer action %s" % v)


def _conv_lexer(items: SeqVal) -> sa.LexerSpec:
    main: Optional[str] = None
    modes = []
    for item in items.items:
        if item.variant[1] == "Main":
            if main is not None:
                raise SpecError("duplicate main declaration in lexer")
            main = item.field("name").text
        else:
            rules = []
            for r in item.field("rules").items:
                actions = tuple(_conv_lexer_action(a)
                                for a in r.field("actions").items)
                rules.append(sa.LexerRule(_conv_regex(r.field("pat")), actions))
            modes.append((item.field("name").text, tuple(rules)))
    if main is None:
        raise SpecError("lexer stanza has no main declaration")
    return sa.LexerSpec(main, tuple(modes))


_TAG_OF = {"AssocLeft": "assoc_left", "AssocRight": "assoc_right",
           "Prefix": "prefix", "Postfix": "postfix"}


def _conv_parser(items: SeqVal) -> sa.ParserSpec:
    main: Optional[Tuple[str, ...]] = None
    prec_lines: List[sa.PrecLine] = []
    props: List[str] = []
    attr_lines: List[sa.AttrLine] = []
    rules: List[sa.RuleDecl] = []
    for item in items.items:
        v = item.variant[1]
        if v == "Main":
            if main is not None:
                raise SpecError("duplicate main declaration in parser")
            main = _ids(item.field("names"))
        elif v == "Prec":
            for line in item.field("lines").items:
                names = tuple(_dotted(d) for d in line.field("names").items)
                tag_val = line.field("tag")
                tag = _TAG_OF[tag_val.label] if isinstance(tag_val, EnumVal) else None
                prec_lines.append(sa.PrecLine(names, tag))
        elif v == "Prop":
            props.append("name_strict")
        elif v == "Attr":
            for line in item.field("lines").items:
                if line.variant[1] == "Decl":
                    attr_lines.append(sa.AttrLine(
                        _dotted(line.field("rule")), line.field("a").text, None))
                else:
                    attr_lines.append(sa.AttrLine(
                        _dotted(line.field("rule")), line.field("a").text,
                        line.field("target").text))
        elif v == "Rule":
            attrs_val = item.field("attrs")
            lhs_attrs = _ids(attrs_val) if isinstance(attrs_val, SeqVal) else ()
            rules.append(sa.RuleDecl(_dotted(item.field("path")), lhs_attrs,
                                     _conv_pe(item.field("rhs"))))
        else:
            raise SpecError("unexpected parser item %s" % v)
    if main is None:
        raise SpecError("parser stanza has no main declaration")
    return sa.ParserSpec(main, tuple(prec_lines), tuple(props),
                         tuple(attr_lines), tuple(rules))


def langspec_from_node(root: Node) -> LangSpec:
    """Rebuild a LangSpec from a Lang::File node of the generated meta parser."""
    if root.variant != ("Lang", "File"):
        raise SpecError("expected a Lang::File node, got %s" % "::".join(root.variant))
    token_decls: List[sa.TokenDecl] = []
    lexer: Optional[sa.LexerSpec] = None
    parser: Optional[sa.ParserSpec] = None
    compile_tests: List[sa.LrTestDecl] = []
    parse_tests: List[sa.ParseTestDecl] = []
    for stanza in root.field("stanzas").items:
        v = stanza.variant[1]
        if v == "Tokens":
            token_decls = [_conv_token_decl(d) for d in stanza.field("decls").items]
        elif v == "Lexer":
            lexer = _conv_lexer(stanza.field("items"))
        elif v == "Parser":
            parser = _conv_parser(stanza.field("items"))
        elif v == "CompileTest":
            for e in stanza.field("entries").items:
                compile_tests.append(sa.LrTestDecl(
                    int(e.field("k").text), e.variant[1] == "Pos"))
        elif v == "Test":
            for e in stanza.field("entries").items:
                parse_tests.append(make_parse_test(
                    _lit(e.field("s")), None, e.field("skip") is True))
        else:
            raise SpecError("unexpected stanza %s" % v)
    if lexer is None or parser is None:
        raise SpecError("missing lexer or parser stanza")
    spec = LangSpec(tuple(token_decls), lexer, parser,
                    tuple(compile_tests), tuple(parse_tests))
    return _resolve(spec)


def _resolve(spec: LangSpec) -> LangSpec:
    from .meta_frontend import _resolve_refs

    spec = _resolve_refs(spec)
    diags = validate_spec(spec)
    if diags:
        raise SpecError("converted spec fails validation: %s" % diags[0].message)
    return spec


def bootstrap_check(meta_source: str):
    """Fixpoint: the generated metalanguage parser re-parses meta.lang to a
    LangSpec structurally equal to the hand frontend's parse.

    Returns (ok, detail message).
    """
    from .compiled import compile_lang
    from .meta_frontend import parse_lang_spec

    hand = parse_lang_spec(meta_source)
    result = compile_lang(meta_source)
    if not result.ok:
        return (False, "meta.lang does not compile conflict-free")
    parsed = parse(result.compiled, meta_source)
    if not parsed.is_success():
        return (False, "generated parser rejects meta.lang: %s" % parsed.err.message)
    generated = langspec_from_node(parsed.result)
    if hand == generated:
        return (True, "fixpoint reached")
    return (False, _first_difference(hand, generated))


def _first_difference(a: LangSpec, b: LangSpec) -> str:
    if a.token_decls != b.token_decls:
        for x, y in zip(a.token_decls, b.token_decls):
            if x != y:
                return "token decl differs: %r vs %r" % (x, y)
        return "token decl count differs"
    if a.lexer != b.lexer:
        return "lexer stanza differs"
    if a.parser != b.parser:
        for x, y in zip(a.parser.rules, b.parser.rules):
            if x != y:
                return "rule differs: %r vs %r" % (x, y)
        return "parser stanza differs (directives)"
    if a.compile_tests != b.compile_tests:
        return "compile_test stanza differs"
    if a.parse_tests != b.parse_tests:
        return "test stanza differs"
    return "specs differ"
