"""Hand-written lexer and recursive-descent parser for the `.lang` metalanguage.

This is the bootstrap frontend: it must exist before any generated parser
does.  The accepted dialect is documented in docs/metalang.md.  The generated
metalanguage parser (compiled from grammars/meta.lang) must agree with this
frontend on every input; see bootstrap.py.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .spec_ast import (
    AEmit, APass, APop, APopEmit, APopExtract, APush, AltBranches, AttrLine,
    Diagnostic, Eps, LangSpec, LexerRule, LexerSpec, ListExpr, Loc, LrTestDecl,
    Named, NontermRef, Optional_, ParseExpr, ParserSpec, ParseTestDecl,
    PassString, Plus, PrecLine, RAlt, RConcat, REof, RLit, RRange, RRef, RStar,
    RWildcard, RegexExpr, RuleDecl, Seq, SingletonAlt, SpaceShorthand,
    SpecError, Star, TermLiteral, TokenDecl, TokenRef, Unfold, quote_backtick,
)

KEYWORDS = {
    "tokens", "lexer", "parser", "compile_test", "test",
    "main", "mode", "prec", "prop", "attr",
    "emit", "pass", "push", "pop", "pop_extract", "pop_emit",
    "eof", "eps", "name_strict",
    "assoc_left", "assoc_right", "prefix", "postfix", "LR", "pr",
}

# longest first so the scanner can take the first match
PUNCT = [
    "<<>>", "#B2", "#T2", "#Alt", "#L", "#B", "#T",
    "<-", "<=", "=>", "->", "::", ":?", "..", "++",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", ":", "|", "*", "+", "?",
    "~", "@", "=", "_", "!",
]

ESCAPE_MAP = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "`": "`"}


class MetaToken:
    __slots__ = ("kind", "text", "loc")

    def __init__(self, kind: str, text: str, loc: Loc):
        self.kind = kind  # "id" | "int" | "str" | "punct" | "kw" | "eof"
        self.text = text
        self.loc = loc

    def __repr__(self):
        return "MetaToken(%s, %r)" % (self.kind, self.text)


def decode_backtick(raw: str, loc: Optional[Loc] = None) -> str:
    """Decode the contents of a backtick literal (delimiters included in raw)."""
    if not (len(raw) >= 2 and raw.startswith("`") and raw.endswith("`")):
        raise SpecError("%r is not a backtick literal" % raw, loc)
    body = raw[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body):
                raise SpecError("dangling escape in literal", loc)
            esc = body[i + 1]
            if esc not in ESCAPE_MAP:
                raise SpecError("unknown escape \\%s in literal" % esc, loc)
            out.append(ESCAPE_MAP[esc])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def scan_meta(source: str) -> List[MetaToken]:
    toks: List[MetaToken] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def loc():
        return Loc(line, col)

    def advance(text):
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            if j < 0:
                j = n
            advance(source[i:j])
            i = j
            continue
        start = loc()
        if ch == "`":
            j = i + 1
            while j < n:
                if source[j] == "\\":
                    j += 2
                    continue
                if source[j] == "`":
                    break
                j += 1
            if j >= n:
                raise SpecError("unterminated backtick literal", start)
            raw = source[i:j + 1]
            decode_backtick(raw, start)  # validate escapes eagerly
            toks.append(MetaToken("str", raw, start))
            advance(raw)
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            toks.append(MetaToken("int", source[i:j], start))
            advance(source[i:j])
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if word == "_":
                toks.append(MetaToken("punct", "_", start))
            elif word in KEYWORDS:
                toks.append(MetaToken("kw", word, start))
            else:
                toks.append(MetaToken("id", word, start))
            advance(word)
            i = j
            continue
        for p in PUNCT:
            if source.startswith(p, i):
                toks.append(MetaToken("punct", p, start))
                advance(p)
                i += len(p)
                break
        else:
            raise SpecError("unexpected character %r" % ch, start)
    toks.append(MetaToken("eof", "", loc()))
    return toks


PE_ATOM_START = {
    ("str", None), ("id", None), ("punct", "_"), ("punct", "("), ("punct", "@"),
    ("punct", "~"), ("kw", "eps"),
    ("punct", "#L"), ("punct", "#B"), ("punct", "#B2"), ("punct", "#T"),
    ("punct", "#T2"), ("punct", "#Alt"),
}


class _Parser:
    def __init__(self, toks: List[MetaToken]):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0) -> MetaToken:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> MetaToken:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> MetaToken:
        t = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise SpecError("expected %r, found %r" % (want, t.text or "<eof>"), t.loc)
        return self.next()

    def ident(self) -> str:
        return self.expect("id").text

    # -- file ---------------------------------------------------------------

    def parse_file(self) -> LangSpec:
        token_decls: List[TokenDecl] = []
        lexer: Optional[LexerSpec] = None
        parser: Optional[ParserSpec] = None
        compile_tests: List[LrTestDecl] = []
        parse_tests: List[ParseTestDecl] = []
        seen = set()
        while not self.at("eof"):
            t = self.peek()
            if t.kind != "kw" or t.text not in ("tokens", "lexer", "parser", "compile_test", "test"):
                raise SpecError("expected a stanza keyword, found %r" % t.text, t.loc)
            if t.text in seen:
                raise SpecError("duplicate %s stanza" % t.text, t.loc)
            seen.add(t.text)
            self.next()
            self.expect("punct", "{")
            if t.text == "tokens":
                token_decls = self.parse_token_decls()
            elif t.text == "lexer":
                lexer = self.parse_lexer_stanza()
            elif t.text == "parser":
                parser = self.parse_parser_stanza()
            elif t.text == "compile_test":
                compile_tests = self.parse_compile_tests()
            else:
                parse_tests = self.parse_parse_tests()
            self.expect("punct", "}")
        if lexer is None:
            raise SpecError("missing lexer stanza")
        if parser is None:
            raise SpecError("missing parser stanza")
        return LangSpec(
            token_decls=tuple(token_decls),
            lexer=lexer,
            parser=parser,
            compile_tests=tuple(compile_tests),
            parse_tests=tuple(parse_tests),
        )

    # -- tokens -------------------------------------------------------------

    def parse_token_decls(self) -> List[TokenDecl]:
        decls = []
        while not self.at("punct", "}"):
            loc = self.peek().loc
            name = self.ident()
            if self.at("punct", "<-"):
                kind = "opaque"
            elif self.at("punct", "<="):
                kind = "alias"
            else:
                raise SpecError("expected '<-' or '<=' in token declaration", self.peek().loc)
            self.next()
            pat = self.parse_regex()
            self.expect("punct", ";")
            decls.append(TokenDecl(name, kind, pat, loc))
        return decls

    # regex precedence: alt < concat < postfix < atom
    def parse_regex(self) -> RegexExpr:
        parts = [self.parse_regex_concat()]
        while self.at("punct", "|"):
            self.next()
            parts.append(self.parse_regex_concat())
        return parts[0] if len(parts) == 1 else RAlt(tuple(parts))

    def _at_regex_atom(self) -> bool:
        t = self.peek()
        return (t.kind, t.text) in (("kw", "eof"),) or t.kind == "str" or t.kind == "id" \
            or (t.kind == "punct" and t.text in ("_", "("))

    def parse_regex_concat(self) -> RegexExpr:
        parts = [self.parse_regex_postfix()]
        while self._at_regex_atom():
            parts.append(self.parse_regex_postfix())
        return parts[0] if len(parts) == 1 else RConcat(tuple(parts))

    def parse_regex_postfix(self) -> RegexExpr:
        e = self.parse_regex_atom()
        while True:
            if self.at("punct", "*"):
                self.next()
                e = RStar(e)
            elif self.at("punct", "+"):
                self.next()
                e = RConcat((e, RStar(e)))
            elif self.at("punct", "?"):
                self.next()
                e = RAlt((e, RConcat(())))
            else:
                return e

    def parse_regex_atom(self) -> RegexExpr:
        t = self.peek()
        if t.kind == "str":
            self.next()
            text = decode_backtick(t.text, t.loc)
            if self.at("punct", ".."):
                self.next()
                hi_tok = self.expect("str")
                hi = decode_backtick(hi_tok.text, hi_tok.loc)
                if len(text) != 1 or len(hi) != 1:
                    raise SpecError("character range bounds must be single characters", t.loc)
                if ord(text) > ord(hi):
                    raise SpecError("empty character range %s..%s" % (
                        quote_backtick(text), quote_backtick(hi)), t.loc)
                return RRange(text, hi)
            return RLit(text)
        if t.kind == "id":
            self.next()
            return RRef(t.text)
        if t.kind == "kw" and t.text == "eof":
            self.next()
            return REof()
        if t.kind == "punct" and t.text == "_":
            self.next()
            return RWildcard()
        if t.kind == "punct" and t.text == "(":
            self.next()
            e = self.parse_regex()
            self.expect("punct", ")")
            return e
        raise SpecError("expected a token pattern, found %r" % (t.text or "<eof>"), t.loc)

    # -- lexer --------------------------------------------------------------

    def parse_lexer_stanza(self) -> LexerSpec:
        main: Optional[str] = None
        modes: List[Tuple[str, Tuple[LexerRule, ...]]] = []
        while not self.at("punct", "}"):
            t = self.peek()
            if t.kind == "kw" and t.text == "main":
                if main is not None:
                    raise SpecError("duplicate main declaration in lexer", t.loc)
                self.next()
                self.expect("punct", "{")
                main = self.ident()
                self.expect("punct", "}")
            elif t.kind == "kw" and t.text == "mode":
                self.next()
                name = self.ident()
                self.expect("punct", "{")
                rules = []
                while not self.at("punct", "}"):
                    rules.append(self.parse_lexer_rule())
                self.expect("punct", "}")
                modes.append((name, tuple(rules)))
            else:
                raise SpecError("expected 'main' or 'mode' in lexer stanza", t.loc)
        if main is None:
            raise SpecError("lexer stanza has no main declaration")
        return LexerSpec(main, tuple(modes))

    def parse_lexer_rule(self) -> LexerRule:
        loc = self.peek().loc
        pat = self.parse_regex()
        self.expect("punct", "=>")
        self.expect("punct", "{")
        actions = []
        while not self.at("punct", "}"):
            t = self.peek()
            if t.kind != "kw":
                raise SpecError("expected a lexer action, found %r" % t.text, t.loc)
            self.next()
            if t.text == "emit":
                actions.append(AEmit())
            elif t.text == "pass":
                actions.append(APass())
            elif t.text == "push":
                actions.append(APush(self.ident()))
            elif t.text == "pop":
                actions.append(APop())
            elif t.text == "pop_extract":
                actions.append(APopExtract())
            elif t.text == "pop_emit":
                actions.append(APopEmit(self.ident()))
            else:
                raise SpecError("unknown lexer action %r" % t.text, t.loc)
            self.expect("punct", ";")
        self.expect("punct", "}")
        if not actions:
            raise SpecError("lexer rule has an empty action list", loc)
        return LexerRule(pat, tuple(actions), loc)

    # -- parser -------------------------------------------------------------

    def parse_parser_stanza(self) -> ParserSpec:
        main: Optional[Tuple[str, ...]] = None
        prec_lines: List[PrecLine] = []
        props: List[str] = []
        attr_lines: List[AttrLine] = []
        rules: List[RuleDecl] = []
        while not self.at("punct", "}"):
            t = self.peek()
            if t.kind == "kw" and t.text == "main":
                if main is not None:
                    raise SpecError("duplicate main declaration in parser", t.loc)
                self.next()
                self.expect("punct", "{")
                names = [self.ident()]
                while self.at("punct", ","):
                    self.next()
                    names.append(self.ident())
                self.expect("punct", "}")
                main = tuple(names)
            elif t.kind == "kw" and t.text == "prec":
                self.next()
                self.expect("punct", "{")
                while not self.at("punct", "}"):
                    prec_lines.append(self.parse_prec_line())
                self.expect("punct", "}")
            elif t.kind == "kw" and t.text == "prop":
                self.next()
                self.expect("punct", "{")
                while not self.at("punct", "}"):
                    ft = self.peek()
                    if ft.kind == "kw" and ft.text == "name_strict":
                        self.next()
                        props.append("name_strict")
                    else:
                        raise SpecError("unknown prop flag %r" % ft.text, ft.loc)
                    self.expect("punct", ";")
                self.expect("punct", "}")
            elif t.kind == "kw" and t.text == "attr":
                self.next()
                self.expect("punct", "{")
                while not self.at("punct", "}"):
                    attr_lines.append(self.parse_attr_line())
                self.expect("punct", "}")
            elif t.kind == "id":
                rules.append(self.parse_rule_decl())
            else:
                raise SpecError("expected a parser rule or directive, found %r" % t.text, t.loc)
        if main is None:
            raise SpecError("parser stanza has no main declaration")
        return ParserSpec(main, tuple(prec_lines), tuple(props), tuple(attr_lines), tuple(rules))

    def parse_dotted(self) -> Tuple[str, ...]:
        parts = [self.ident()]
        while self.at("punct", "."):
            self.next()
            parts.append(self.ident())
        return tuple(parts)

    def parse_prec_line(self) -> PrecLine:
        loc = self.peek().loc
        paths = [self.parse_dotted()]
        while self.at("id"):
            paths.append(self.parse_dotted())
        tag = None
        t = self.peek()
        if t.kind == "kw" and t.text in ("assoc_left", "assoc_right", "prefix", "postfix"):
            tag = t.text
            self.next()
        self.expect("punct", ";")
        return PrecLine(tuple(paths), tag, loc)

    def parse_attr_line(self) -> AttrLine:
        loc = self.peek().loc
        path = self.parse_dotted()
        if self.at("punct", "->"):
            self.next()
            target = self.ident()
            self.expect("punct", "[")
            attr = self.ident()
            self.expect("punct", "]")
            self.expect("punct", ";")
            return AttrLine(path, attr, target, loc)
        self.expect("punct", "[")
        attr = self.ident()
        self.expect("punct", "]")
        self.expect("punct", ";")
        return AttrLine(path, attr, None, loc)

    def parse_rule_decl(self) -> RuleDecl:
        loc = self.peek().loc
        path = self.parse_dotted()
        lhs_attrs: Tuple[str, ...] = ()
        if self.at("punct", "["):
            self.next()
            attrs = [self.ident()]
            while self.at("punct", ","):
                self.next()
                attrs.append(self.ident())
            self.expect("punct", "]")
            lhs_attrs = tuple(attrs)
        self.expect("punct", "<-")
        rhs = self.parse_pe_alt()
        self.expect("punct", ";")
        return RuleDecl(path, lhs_attrs, rhs, loc)

    # parse-expr precedence: alt < seq < prefix (name, ~) < postfix < atom

    def parse_pe_alt(self) -> ParseExpr:
        first = self.parse_pe_seq()
        if not self.at("punct", "|"):
            return first
        branches = [first]
        while self.at("punct", "|"):
            self.next()
            branches.append(self.parse_pe_seq())
        return self._branches_to_alt(branches)

    def _branches_to_alt(self, branches: List[ParseExpr]) -> AltBranches:
        labeled = []
        for i, b in enumerate(branches):
            if isinstance(b, Named):
                labeled.append((b.field_name, b.inner))
            else:
                labeled.append(("_b%d" % i, b))
        return AltBranches(tuple(labeled))

    def _at_pe_atom(self) -> bool:
        t = self.peek()
        return (t.kind, None if t.kind in ("str", "id") else t.text) in PE_ATOM_START

    def parse_pe_seq(self) -> ParseExpr:
        items = [self.parse_pe_prefix()]
        while self._at_pe_atom():
            items.append(self.parse_pe_prefix())
        return items[0] if len(items) == 1 else Seq(tuple(items))

    def parse_pe_prefix(self) -> ParseExpr:
        t = self.peek()
        if t.kind == "id" and self.peek(1).kind == "punct" and self.peek(1).text == ":":
            self.next()
            self.next()
            return Named(t.text, self.parse_pe_prefix())
        if t.kind == "punct" and t.text == "~":
            self.next()
            return Unfold(self.parse_pe_prefix())
        return self.parse_pe_postfix()

    def parse_pe_postfix(self) -> ParseExpr:
        e = self.parse_pe_atom()
        while True:
            if self.at("punct", "*"):
                self.next()
                e = Star(e)
            elif self.at("punct", "+"):
                self.next()
                e = Plus(e)
            elif self.at("punct", "?"):
                self.next()
                e = Optional_(e)
            elif self.at("punct", "["):
                e = self._attach_attrs(e)
            else:
                return e

    def _attach_attrs(self, e: ParseExpr) -> ParseExpr:
        loc = self.expect("punct", "[").loc
        reqs: List[str] = []
        pr_star = False
        while True:
            if self.at("kw", "pr"):
                self.next()
                self.expect("punct", "=")
                self.expect("punct", "*")
                pr_star = True
            else:
                reqs.append(self.ident())
            if self.at("punct", ","):
                self.next()
                continue
            break
        self.expect("punct", "]")
        if not isinstance(e, NontermRef):
            raise SpecError("attribute requirements apply only to nonterminal references", loc)
        return NontermRef(e.name, e.attr_reqs + tuple(reqs), e.pr_star or pr_star)

    def parse_pe_atom(self) -> ParseExpr:
        t = self.peek()
        if t.kind == "str":
            self.next()
            return TermLiteral(decode_backtick(t.text, t.loc))
        if t.kind == "id":
            self.next()
            # resolved to TokenRef/NontermRef in a post-pass
            return NontermRef(t.text)
        if t.kind == "kw" and t.text == "eps":
            self.next()
            return Eps()
        if t.kind == "punct" and t.text == "_":
            self.next()
            return SpaceShorthand()
        if t.kind == "punct" and t.text == "@":
            self.next()
            self.expect("punct", "(")
            s = self.expect("str")
            self.expect("punct", ")")
            return PassString(decode_backtick(s.text, s.loc))
        if t.kind == "punct" and t.text == "(":
            self.next()
            inner = self.parse_pe_alt()
            self.expect("punct", ")")
            if isinstance(inner, AltBranches):
                return inner
            return inner  # plain grouping
        if t.kind == "punct" and t.text == "#Alt":
            self.next()
            self.expect("punct", "[")
            branch = self.parse_pe_seq()
            self.expect("punct", "]")
            if isinstance(branch, Named):
                label, inner = branch.field_name, branch.inner
            else:
                raise SpecError("#Alt branch must be labeled, e.g. #Alt[Neg:`-`]", t.loc)
            return SingletonAlt(label, inner)
        if t.kind == "punct" and t.text in ("#L", "#B", "#B2", "#T", "#T2"):
            self.next()
            flavor = t.text[1:]
            self.expect("punct", "[")
            elem = self.parse_pe_seq()
            self.expect("punct", "::")
            min_count = 0
            if self.at("punct", "+"):
                self.next()
                min_count = 1
            elif self.at("punct", "++"):
                self.next()
                min_count = 2
            delim = self.parse_pe_seq()
            trailing = "none"
            if self.at("punct", "::"):
                self.next()
                trailing = "required"
            elif self.at("punct", ":?"):
                self.next()
                trailing = "optional"
            self.expect("punct", "]")
            return ListExpr(flavor, elem, min_count, delim, trailing)
        raise SpecError("expected a parse expression, found %r" % (t.text or "<eof>"), t.loc)

    # -- compile_test / test --------------------------------------------------

    def parse_compile_tests(self) -> List[LrTestDecl]:
        out = []
        while not self.at("punct", "}"):
            expect_success = True
            if self.at("punct", "!"):
                self.next()
                expect_success = False
            self.expect("kw", "LR")
            self.expect("punct", "(")
            k = int(self.expect("int").text)
            self.expect("punct", ")")
            self.expect("punct", ";")
            out.append(LrTestDecl(k, expect_success))
        return out

    def parse_parse_tests(self) -> List[ParseTestDecl]:
        out = []
        while not self.at("punct", "}"):
            s = self.expect("str")
            text = decode_backtick(s.text, s.loc)
            skip = False
            if self.at("punct", "<<>>"):
                self.next()
                skip = True
            self.expect("punct", ";")
            out.append(make_parse_test(text, s.loc, skip))
        return out


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


def _resolve_refs(spec: LangSpec) -> LangSpec:
    """Second pass: bare identifiers in rule bodies become TokenRef or NontermRef."""
    opaque = set(spec.opaque_names())
    nonterms = {r.lhs for r in spec.parser.rules}

    def walk(e: ParseExpr) -> ParseExpr:
        if isinstance(e, NontermRef):
            if e.name in opaque:
                if e.attr_reqs or e.pr_star:
                    raise SpecError("attribute requirements apply only to nonterminal "
                                    "references, but %r is a token" % e.name)
                return TokenRef(e.name)
            return e
        if isinstance(e, Named):
            return Named(e.field_name, walk(e.inner))
        if isinstance(e, Seq):
            return Seq(tuple(walk(p) for p in e.items))
        if isinstance(e, AltBranches):
            return AltBranches(tuple((lbl, walk(inner)) for lbl, inner in e.branches))
        if isinstance(e, SingletonAlt):
            return SingletonAlt(e.label, walk(e.inner))
        if isinstance(e, Star):
            return Star(walk(e.inner))
        if isinstance(e, Plus):
            return Plus(walk(e.inner))
        if isinstance(e, Optional_):
            return Optional_(walk(e.inner))
        if isinstance(e, ListExpr):
            return ListExpr(e.flavor, walk(e.elem), e.min_count, walk(e.delim), e.trailing)
        if isinstance(e, Unfold):
            return Unfold(walk(e.inner))
        return e

    _ = nonterms  # membership of the remaining NontermRefs is checked in validate_spec
    rules = tuple(RuleDecl(r.path, r.lhs_attrs, walk(r.rhs), r.loc) for r in spec.parser.rules)
    p = spec.parser
    return LangSpec(spec.token_decls, spec.lexer,
                    ParserSpec(p.main_nonterms, p.prec_lines, p.props, p.attr_lines, rules),
                    spec.compile_tests, spec.parse_tests)


def parse_lang_spec(source: str) -> LangSpec:
    """Parse .lang source text into a validated LangSpec.

    Raises SpecError on syntax errors and on any validation diagnostic.
    """
    toks = scan_meta(source)
    spec = _Parser(toks).parse_file()
    spec = _resolve_refs(spec)
    diags = validate_spec(spec)
    if diags:
        first = diags[0]
        raise SpecError(first.message + ("" if len(diags) == 1 else
                                         " (+%d more diagnostics)" % (len(diags) - 1)),
                        first.loc)
    return spec


# ---------------------------------------------------------------------------
# Validation

def _regex_refs(e: RegexExpr) -> List[str]:
    if isinstance(e, RRef):
        return [e.name]
    if isinstance(e, (RConcat, RAlt)):
        out = []
        for p in e.parts:
            out.extend(_regex_refs(p))
        return out
    if isinstance(e, RStar):
        return _regex_refs(e.inner)
    return []


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
    for d in spec.token_decls:
        for ref in _regex_refs(d.pattern):
            if ref not in by_name:
                diags.append(Diagnostic(d.loc, "token %r references undeclared token %r"
                                        % (d.name, ref)))

    def opaque_reach(name, seen):
        if name in seen:
            return None
        seen.add(name)
        d = by_name.get(name)
        if d is None:
            return None
        for ref in _regex_refs(d.pattern):
            target = by_name.get(ref)
            if target is None:
                continue
            if target.kind == "opaque":
                return ref
            hit = opaque_reach(ref, seen)
            if hit is not None:
                return hit
        return None

    for d in spec.token_decls:
        if d.kind != "opaque":
            continue
        hit = opaque_reach(d.name, set())
        if hit is not None and hit != d.name:
            diags.append(Diagnostic(d.loc, "opaque token %r cannot be used in the "
                                    "definition of %r" % (hit, d.name)))

    graph = {d.name: [r for r in _regex_refs(d.pattern) if r in by_name]
             for d in spec.token_decls}
    state = {}  # 0 visiting, 1 done

    def has_cycle(name, stack):
        if state.get(name) == 1:
            return None
        if state.get(name) == 0:
            return stack[stack.index(name):] + [name]
        state[name] = 0
        stack.append(name)
        for nxt in graph.get(name, []):
            cyc = has_cycle(nxt, stack)
            if cyc:
                return cyc
        stack.pop()
        state[name] = 1
        return None

    for d in spec.token_decls:
        cyc = has_cycle(d.name, [])
        if cyc:
            diags.append(Diagnostic(d.loc, "cyclic alias reference: %s" % " -> ".join(cyc)))
            break

    # lexer: main and push targets name declared modes; rule shape constraints
    mode_names = [m for m, _ in spec.lexer.modes]
    if len(set(mode_names)) != len(mode_names):
        diags.append(Diagnostic(None, "duplicate lexer mode name"))
    if spec.lexer.main_mode not in mode_names:
        diags.append(Diagnostic(None, "lexer main names undeclared mode %r" % spec.lexer.main_mode))
    for mode_name, rules in spec.lexer.modes:
        for r in rules:
            consuming = [a for a in r.actions if isinstance(a, (AEmit, APass))]
            pops = [a for a in r.actions if isinstance(a, (APop, APopExtract, APopEmit))]
            if len(consuming) > 1:
                diags.append(Diagnostic(r.loc, "lexer rule in mode %r has more than one "
                                        "emit/pass action" % mode_name))
            if not consuming and not pops:
                diags.append(Diagnostic(r.loc, "lexer rule in mode %r neither consumes its "
                                        "match nor pops; it cannot make progress" % mode_name))
            for a in r.actions:
                if isinstance(a, APush) and a.mode not in mode_names:
                    diags.append(Diagnostic(r.loc, "push targets undeclared mode %r" % a.mode))
                if isinstance(a, APopEmit):
                    d = by_name.get(a.token)
                    if d is None or d.kind != "opaque":
                        diags.append(Diagnostic(r.loc, "pop_emit must name an opaque token, "
                                                "got %r" % a.token))
            if isinstance(r.pattern, REof) and not pops:
                diags.append(Diagnostic(r.loc, "eof rule in mode %r must pop" % mode_name))
            refs = _regex_refs(r.pattern)
            for ref in refs:
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
    for name in spec.parser.main_nonterms:
        if name not in nonterms:
            diags.append(Diagnostic(None, "parser main names undeclared nonterminal %r" % name))
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

    def check_expr(e: ParseExpr, loc):
        if isinstance(e, NontermRef):
            if e.name not in nonterms:
                diags.append(Diagnostic(loc, "reference to undeclared nonterminal or "
                                        "token %r" % e.name))
        elif isinstance(e, TokenRef):
            if e.name not in opaque:
                diags.append(Diagnostic(loc, "reference to undeclared token %r" % e.name))
        elif isinstance(e, Named):
            check_expr(e.inner, loc)
        elif isinstance(e, Seq):
            for p in e.items:
                check_expr(p, loc)
        elif isinstance(e, AltBranches):
            for _, inner in e.branches:
                check_expr(inner, loc)
        elif isinstance(e, (SingletonAlt, Star, Plus, Optional_, Unfold)):
            check_expr(e.inner, loc)
        elif isinstance(e, ListExpr):
            check_expr(e.elem, loc)
            check_expr(e.delim, loc)
        if isinstance(e, Unfold) and not isinstance(e.inner, NontermRef):
            diags.append(Diagnostic(loc, "~ applies only to nonterminal references"))

    for r in spec.parser.rules:
        check_expr(r.rhs, r.loc)

    return diags


def _reserved_name_diags(spec, nonterms, opaque):
    import re
    out = []
    pat = re.compile(r"^[XLQ][0-9]+$")
    for name in sorted(nonterms | opaque):
        if pat.match(name):
            out.append(Diagnostic(None, "name %r is reserved for synthesized symbols" % name))
    return out
