"""The parse tree's compact form: positions as ints and one names tuple per
production.  Parse, print, render and value-hash output is pinned by
digest, the `fields` and `field` views agree with what they view, a node's
DataValue keeps the node's names tuple, a lexed token is the tree's own
leaf class, and a parsed tree's retained memory per token stays small."""

import gc
import hashlib
import random
import tracemalloc

import pytest

import oracle
from conftest import GRAMMARS, load_grammar
from langcc import compile_lang, datacc, lexer, parse, pretty_print, render_node, runtime
from langcc.lexer import lex, lex_lists
from langcc.runtime import EnumVal, Node, SeqVal, TokenLeaf, node_to_data_value

FIXTURES = sorted(p.name for p in GRAMMARS.glob("*.lang"))


# ---------------------------------------------------------------------------
# A seeded calc_prog corpus

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}  # calc_prog's prec stanza
_NEG, _ATOM = 3, 5


def _expr(rng: random.Random, depth: int):
    """(text, precedence level) of an expression, with the parentheses the
    precedence needs and a few more."""
    roll = rng.randrange(10) if depth else 0
    if roll < 4:
        return (str(rng.randrange(1000)) if rng.randrange(2)
                else "abcdefghxyz"[rng.randrange(11)] * (1 + rng.randrange(3))), _ATOM
    if roll < 8:
        op = "+-*/^"[rng.randrange(5)]
        level = _LEVEL[op]
        (x, xl), (y, yl) = _expr(rng, depth - 1), _expr(rng, depth - 1)
        return "%s %s %s" % ("(%s)" % x if xl < level else x, op,
                             "(%s)" % y if yl <= level else y), level
    x, xl = _expr(rng, depth - 1)
    if roll < 9:
        return "-%s" % ("(%s)" % x if xl < _NEG else x), _NEG
    return "(%s)" % x, _ATOM


def calc_prog_corpus(seed: int, docs: int, stmts: int):
    """`docs` documents of `stmts` statements, one per line."""
    rng = random.Random(seed)
    out = []
    for _ in range(docs):
        lines = []
        for _ in range(stmts):
            e = _expr(rng, 5)[0]
            lines.append("v%d = %s" % (rng.randrange(50), e) if rng.randrange(3) else e)
        out.append(";\n".join(lines))
    return out


@pytest.fixture(scope="module")
def corpus():
    return calc_prog_corpus(27, 12, 60)


# ---------------------------------------------------------------------------
# Output pinned by digest

def _outputs(compiled, texts):
    """One line per text: its parse error, or the digests of render_node,
    pretty_print and the value hash of its tree."""
    lines = []
    for text in texts:
        res = parse(compiled, text)
        if not res.is_success():
            lines.append("error %r %r" % (res.err.message, res.err.bounds))
            continue
        root = res.result
        lines.append(" ".join(hashlib.sha256(s.encode("utf-8", "surrogatepass")).hexdigest()
                              for s in (render_node(root), pretty_print(compiled, root)))
                     + " " + datacc.value_hash(node_to_data_value(compiled, root)).hex())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# digests of _outputs taken before the tree became compact
PINNED = {
    "ab_eps.lang": "6e2dc63d43897ea2c7fb0a91ac7c0d7a25490c0293755972ec7fb7e4312078b7",
    "calc.lang": "755ba1af41c8a308949cbd821454ade9feaaced87c66d39108921dc2eda2b9f0",
    "calc_noprec.lang": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "calc_prog.lang": "e23b59a419f5a8086cb96cade92ad9d6f5608dd631f26d016eba534fb6b81efe",
    "meta.lang": "b4ec6c8ee7d52d5b87dd343f140f93e4e26fc3ca8afd3fdca8d89c32dbe4780d",
    "parens.lang": "cf9c5d35132312cabf433882797eb764440d9b8e3d30280a6725bd414ebf865b",
    "rd_tiny.lang": "3e69bbda96bde369f57a14ac9c9949055db5d4d7d89359a7fe2564f48d9e69a9",
    "sum_list.lang": "8f114d70c81960c583c7b75fe356f89b835402fad7e0567c9a78a8a875cc4777",
    "corpus": "47e981b0ee3d9f189648360a26232fd0a41a3b7cc2c711f32eb76eb8f8a3dfc6",
}


@pytest.mark.parametrize("fixture", FIXTURES)
def test_test_stanza_outputs_are_pinned(fixture):
    result = compile_lang(load_grammar(fixture))
    texts = [t.input for t in result.spec.parse_tests]
    assert _outputs(result.compiled, texts) == PINNED[fixture]


def test_calc_prog_corpus_outputs_are_pinned(calc_prog, corpus):
    assert _outputs(calc_prog.compiled, corpus) == PINNED["corpus"]


# ---------------------------------------------------------------------------
# The views

def _values(root):
    out, todo = [], [root]
    while todo:
        x = todo.pop()
        out.append(x)
        if isinstance(x, Node):
            todo.extend(x.values)
        elif isinstance(x, SeqVal):
            todo.extend(x.items)
    return out


def test_views_agree_with_the_compact_form(calc_prog, meta, corpus):
    trees = [parse(calc_prog.compiled, text).result for text in corpus]
    trees += [parse(meta.compiled, load_grammar(f)).result for f in FIXTURES]
    shared = {}
    for root in trees:
        for v in _values(root):
            if isinstance(v, (Node, TokenLeaf, EnumVal, SeqVal)):
                assert type(v.start) is int and type(v.end) is int and v.start <= v.end
            if not isinstance(v, Node):
                continue
            assert v.fields == tuple(zip(v.names, v.values))
            assert len(v.names) == len(v.values)
            for i, name in enumerate(v.names):
                assert v.field(name) is v.values[i]
            with pytest.raises(KeyError):
                v.field("no such field")
            # every node of a variant shares one names tuple
            assert shared.setdefault(v.variant, v.names) is v.names


def test_data_values_keep_each_node_s_names(calc_prog, corpus):
    compiled = calc_prog.compiled
    for text in corpus:
        root = parse(compiled, text).result
        value = node_to_data_value(compiled, root)
        # the fields are the pairs the reference builds one by one
        reference = oracle.node_to_data_value(compiled, root)
        assert value.fields == reference.fields and value == reference
        todo = [(root, value)]
        while todo:
            x, y = todo.pop()
            if isinstance(x, SeqVal):
                assert type(y) is tuple and len(y) == len(x.items)
                todo.extend(zip(x.items, y))
            elif isinstance(x, EnumVal):
                assert y.names == () == y.values and y.type_path[1] == x.label
            elif isinstance(x, Node):
                assert type(y) is datacc.DataValue and y.type_path == x.variant
                assert y.names is x.names and len(y.values) == len(x.values)
                todo.extend(zip(x.values, y.values))


def test_one_token_class_from_lex_to_tree(calc_prog, corpus):
    # the lexer's tokens are the tree's leaves, and a span is read only as
    # its two ints
    assert runtime.TokenLeaf is lexer.TokenLeaf
    assert not hasattr(lexer, "Token") and not hasattr(runtime, "Bounds")
    tokens = lex(calc_prog.compiled.lexer, corpus[0]).tokens
    assert tokens and all(type(t) is TokenLeaf for t in tokens)
    values = [v for text in corpus for v in _values(parse(calc_prog.compiled, text).result)]
    assert any(type(v) is TokenLeaf for v in values)
    assert [v for v in values if hasattr(v, "bounds")] == []


# ---------------------------------------------------------------------------
# Memory

class _Span:
    __slots__ = ("start", "end")


class _Leaf:
    __slots__ = ("terminal", "text", "bounds")


class _Enum:
    __slots__ = ("label", "bounds")


class _Seq:
    __slots__ = ("items", "trailing", "bounds")


class _Node:
    __slots__ = ("variant", "fields", "bounds")


def _make(cls, *values):
    v = cls.__new__(cls)
    for name, x in zip(cls.__slots__, values):
        setattr(v, name, x)
    return v


def _bounds_and_pairs(v, span=None):
    """A copy of the tree in the form it had before it became compact: a
    span object on every value, and a (name, value) pair per field.  A
    node or sequence with one part at its own offsets shares that part's
    span, as a unit reduce shared its child's; `span` is the one a value
    shares with its parent."""
    if span is None or (span.start, span.end) != (v.start, v.end):
        span = _make(_Span, v.start, v.end)
    if isinstance(v, Node):
        one = span if len(v.values) == 1 else None
        return _make(_Node, v.variant, tuple([(n, _bounds_and_pairs(x, one)) if _spanned(x)
                                              else (n, x) for n, x in zip(v.names, v.values)]),
                     span)
    if isinstance(v, SeqVal):
        one = span if len(v.items) == 1 else None
        return _make(_Seq, tuple([_bounds_and_pairs(x, one) for x in v.items]), v.trailing, span)
    if isinstance(v, TokenLeaf):
        return _make(_Leaf, v.terminal, v.text, span)
    return _make(_Enum, v.label, span)


def _spanned(v) -> bool:
    return isinstance(v, (Node, SeqVal, TokenLeaf, EnumVal))


def _retained(build):
    """The bytes still allocated after build() returns, and its value.  A
    full collection first empties the interpreter's free lists, so every
    object build() makes is allocated where tracemalloc sees it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = build()
        return tracemalloc.get_traced_memory()[0] - before, value
    finally:
        tracemalloc.stop()


def test_retained_tree_memory_per_token(calc_prog, corpus):
    # against the old form in the same process, so the bound holds whatever
    # the Python version's object sizes; the old form's count also holds
    # what each freed compact tree leaves on the free lists (about 1% more
    # than the old parse retained, on Python 3.11)
    compiled = calc_prog.compiled
    tokens = sum(len(lex_lists(compiled.lexer, text)[0]) for text in corpus)
    parse(compiled, corpus[0])  # anything parsing allocates once is allocated
    compact, trees = _retained(lambda: [parse(compiled, text).result for text in corpus])
    assert all(trees)
    del trees
    old, copies = _retained(lambda: [_bounds_and_pairs(parse(compiled, text).result)
                                     for text in corpus])
    assert len(copies) == len(corpus)
    assert compact <= 0.7 * old, (compact / tokens, old / tokens)
