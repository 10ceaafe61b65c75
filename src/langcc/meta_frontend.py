"""The `.lang` frontend: parse_lang_spec, and the checks a LangSpec passes.

The metalanguage is self-hosted.  grammars/meta.lang describes the `.lang`
dialect (docs/metalang.md) in itself, and the parser generated from it is
committed as src/langcc/meta.clang.  parse_lang_spec parses every source
with that artifact, loaded once per process, and bootstrap.langspec_from_node
turns the tree into a LangSpec, which _resolve_refs and validate_spec finish.
tests/test_bootstrap.py checks that meta.clang is what langcc makes of
meta.lang today; docs/metalang.md says how to regenerate it.
"""

from __future__ import annotations

import functools
import re
from importlib import resources
from typing import List, Optional

from .lexer import EOF_TERMINAL
from .spec_ast import (
    AEmit, APass, APop, APopEmit, APopExtract, APush, AltBranches, Diagnostic,
    LangSpec, ListExpr, Loc, Named, NontermRef, Optional_, ParseExpr, ParserSpec,
    ParseTestDecl, Plus, RAlt, RConcat, REof, RRef, RStar, RegexExpr, RuleDecl,
    Seq, SingletonAlt, SpecError, Star, TokenRef, Unfold,
)

ESCAPE_MAP = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "`": "`"}


def decode_backtick(raw: str, loc: Optional[Loc] = None) -> str:
    """Decode the contents of a backtick literal (delimiters included in raw)."""
    if not (len(raw) >= 2 and raw.startswith("`") and raw.endswith("`")):
        raise SpecError("%r is not a backtick literal" % raw, loc)
    body = raw[1:-1]
    if "\\" not in body:
        return body
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

    rules = tuple(RuleDecl(r.path, r.lhs_attrs, walk(r.rhs), r.loc) for r in spec.parser.rules)
    p = spec.parser
    return LangSpec(spec.token_decls, spec.lexer,
                    ParserSpec(p.main_nonterms, p.prec_lines, p.props, p.attr_lines, rules),
                    spec.compile_tests, spec.parse_tests)


def _checked(spec: LangSpec) -> LangSpec:
    """The spec with its references resolved, once it passes validate_spec;
    else a SpecError naming the first diagnostic."""
    spec = _resolve_refs(spec)
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
    from .compiled import CompiledLang

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
    from .bootstrap import _Lines, langspec_from_node
    from .runtime import parse

    res = parse(meta_artifact(), lexable(source))
    if not res.is_success():
        raise _syntax_error(res.err, _Lines(source))
    return langspec_from_node(res.result, source)


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
