"""The `.lang` frontend: parse_lang_spec, and the checks a LangSpec passes.

The metalanguage is self-hosted.  grammars/meta.lang describes the `.lang`
dialect (docs/metalang.md) in itself, and the parser generated from it is
committed as src/langcc/meta.clang.  parse_lang_spec parses every source
with that artifact, loaded once per process, and bootstrap.langspec_from_node
turns the tree into a LangSpec, which validate_spec checks.
tests/test_bootstrap.py checks that meta.clang is what langcc makes of
meta.lang today; docs/metalang.md says how to regenerate it.
"""

from __future__ import annotations

import functools
import re
from importlib import resources
from typing import List, Optional

from .artifact import CompiledLang
from .lexer import EOF_TERMINAL, action_list_fault, alias_target
from .runtime import parse
from .spec_ast import (
    AltBranches, Diagnostic, LangSpec, ListExpr, Loc, Named, NontermRef,
    Optional_, ParseTestDecl, Plus, RAlt, RConcat, REof, RRef, RStar, RegexExpr, Seq,
    SingletonAlt, SpecError, Star, TokenRef, Unfold,
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
    from .bootstrap import _Lines, langspec_from_node

    res = parse(meta_artifact(), lexable(source))
    if not res.is_success():
        raise _syntax_error(res.err, _Lines(source))
    return langspec_from_node(res.result, source)


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
    if len(set(mode_names)) != len(mode_names):
        diags.append(Diagnostic(None, "duplicate lexer mode name"))
    if spec.lexer.main_mode not in mode_names:
        diags.append(Diagnostic(None, "lexer main names undeclared mode %r" % spec.lexer.main_mode))
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
