"""Self-hosting: the fixpoint check.

bootstrap_check generates a parser from meta.lang and checks that it reads
meta.lang as the committed meta.clang does: meta_frontend.langspec_from_node
makes the same LangSpec of both trees.
"""

from __future__ import annotations

from .compiled import compile_lang
from .meta_frontend import langspec_from_node, lexable, parse_lang_spec
from .runtime import parse
from .spec_ast import LangSpec


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
