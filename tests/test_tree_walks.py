"""The check and print walks (node_to_data_value, conforms, value_hash,
pretty_print) agree with the recursive references in tests/oracle.py, and
they and the other tree walks take trees of any depth; spec_ast.render, the
text walk the renderers run on, writes its pieces in reading order."""

import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracle
from conftest import GRAMMARS, load_grammar
from langcc import datacc as D
from langcc import derive_ast_schema, parse, pretty_print, render_node, validate_node
from langcc.runtime import EnumVal, Node, SeqVal, TokenLeaf, node_to_data_value
from langcc.spec_ast import SpecError, joined, quote_text, render

FIXTURES = sorted(p.name for p in GRAMMARS.glob("*.lang"))


def _outcome(fn, *args):
    """What fn(*args) returned, or the type and text of what it raised."""
    try:
        return ("returned", fn(*args))
    except (SpecError, KeyError, TypeError) as e:
        return ("raised", type(e), str(e))


def _hash_outcome(v, value_hash, count):
    before = count()
    out = _outcome(value_hash, v)
    return out, count() - before


def _assert_values_agree(schema, v, w):
    """v and w are equal values built apart (so neither has a hash cached
    that the other computed): debug_print, conforms, value_hash and its
    digest count agree between datacc and the references."""
    assert v == w
    assert _outcome(D.debug_print, v) == _outcome(oracle.debug_print, w)
    assert _outcome(D.conforms, schema, v) == _outcome(oracle.conforms, schema, w)
    new = _hash_outcome(v, D.value_hash, D.hash_computation_count)
    ref = _hash_outcome(w, oracle.value_hash, oracle.reference_hash_computations)
    assert new == ref


def _assert_walks_agree(compiled, schema, root):
    new = _outcome(node_to_data_value, compiled, root)
    ref = _outcome(oracle.node_to_data_value, compiled, root)
    if new[0] == "returned" and ref[0] == "returned":
        _assert_values_agree(schema, new[1], ref[1])
    else:
        assert new == ref
    assert (_outcome(pretty_print, compiled, root)
            == _outcome(oracle.reference_pretty_print, compiled, root))
    assert _outcome(render_node, root) == _outcome(oracle.render_node, root)
    return new


@pytest.fixture(scope="module")
def calc_prog_schema(calc_prog):
    return derive_ast_schema(calc_prog.cfg)


@pytest.fixture(scope="module")
def meta_schema(meta):
    return derive_ast_schema(meta.cfg)


# ---------------------------------------------------------------------------
# Documents: calc_prog programs and the fixture grammars

_NAMES = st.from_regex(r"[a-z]{1,3}", fullmatch=True)
_ATOMS = st.one_of(_NAMES, st.integers(0, 999).map(str))


def _operand(e):
    # a negation binds less tightly than `^`, so it is bracketed as an operand
    return "(%s)" % e if e.startswith("-") else e


def _compound(exprs):
    return st.one_of(
        st.tuples(exprs, st.sampled_from(["+", "-", "*", "/", "^"]), exprs)
        .map(lambda t: "%s %s %s" % (_operand(t[0]), t[1], _operand(t[2]))),
        exprs.map(lambda e: "(%s)" % e),
        exprs.map(lambda e: "-%s" % e))


_EXPRS = st.recursive(_ATOMS, _compound, max_leaves=12)
_STMTS = st.one_of(_EXPRS, st.tuples(_NAMES, _EXPRS).map(lambda t: "%s = %s" % t))
_PROGRAMS = st.lists(_STMTS, min_size=1, max_size=5).map(";\n".join)


def _parsed(compiled, text):
    res = parse(compiled, text)
    assert res.is_success(), (text, res.err)
    return res.result


@settings(max_examples=150, deadline=None)
@given(_PROGRAMS)
def test_walks_agree_with_references_on_calc_prog_programs(calc_prog, calc_prog_schema, text):
    root = _parsed(calc_prog.compiled, text)
    kind, v = _assert_walks_agree(calc_prog.compiled, calc_prog_schema, root)
    assert kind == "returned" and D.conforms(calc_prog_schema, v)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_walks_agree_with_references_on_fixtures_parsed_by_meta(meta, meta_schema, fixture):
    root = _parsed(meta.compiled, load_grammar(fixture))
    kind, v = _assert_walks_agree(meta.compiled, meta_schema, root)
    assert kind == "returned" and D.conforms(meta_schema, v)


def test_walks_agree_with_references_on_test_stanzas(calc, parens, sum_list, ab_eps, meta):
    for result in (calc, parens, sum_list, ab_eps, meta):
        schema = derive_ast_schema(result.cfg)
        for t in result.spec.parse_tests:
            res = parse(result.compiled, t.input)
            if res.is_success():
                assert _assert_walks_agree(result.compiled, schema, res.result)[0] == "returned"


# ---------------------------------------------------------------------------
# Hand-built trees holding values of the wrong kind

def _nodes(root):
    out, todo = [], [root]
    while todo:
        x = todo.pop()
        if isinstance(x, Node):
            out.append(x)
            todo.extend(reversed(x.values))
        elif isinstance(x, SeqVal):
            todo.extend(reversed(x.items))
    return out


def _leaf():
    return TokenLeaf("id", "q", 0, 1)


def _ident():
    return Node(("Expr", "Id"), ("name",), (_leaf(),), 0, 1)


# values of every kind, built afresh each time (a later change may edit them)
_WRONG_VALUES = [
    _leaf,
    _ident,
    lambda: Node(("Stmt", "Expr"), ("x",), (_ident(),), 0, 1),
    lambda: Node(("Nope",), ("a",), (_leaf(),), 0, 1),
    lambda: Node(("Nope",), (), (), 0, 1),
    lambda: EnumVal("Add", 0, 1),
    lambda: EnumVal("Nope", 0, 1),
    lambda: SeqVal((), False, 0, 1),
    lambda: SeqVal((_leaf(), _ident()), True, 0, 1),
    lambda: None,
    lambda: True,
    lambda: "text",
]


def _set_fields(node, fields):
    """Give node the (name, value) pairs `fields`, keeping its names tuple,
    which the nodes of its production share, if the names are the same."""
    names = tuple(name for name, _v in fields)
    if names != node.names:
        node.names = names
    node.values = tuple(v for _name, v in fields)


def _mutate_tree(data, root):
    """Change one field of one node of root in place: a value of another
    kind, a renamed, dropped or moved field, a value dropped with its name
    kept, or another variant; or give a later field a value of another
    kind and change a node under an earlier one (which of the two a walk
    finds first shows the order it visits)."""
    by_variant = {}
    for n in _nodes(root):
        by_variant.setdefault(n.variant, []).append(n)
    # every variant as likely as any other, however many nodes it has
    node = data.draw(st.sampled_from(by_variant[data.draw(st.sampled_from(sorted(by_variant)))]))
    fields = list(node.fields)
    how = data.draw(st.sampled_from(["value", "rename", "drop", "reverse", "variant",
                                     "siblings", "short"]))
    if how == "siblings":
        if len(fields) < 2:
            return
        i = data.draw(st.integers(0, len(fields) - 2))
        j = data.draw(st.integers(i + 1, len(fields) - 1))
        fields[j] = (fields[j][0], data.draw(st.sampled_from(_WRONG_VALUES))())
        under = _nodes(fields[i][1])
        if not under:
            fields[i] = (fields[i][0], data.draw(st.sampled_from(_WRONG_VALUES))())
        _set_fields(node, fields)
        if under:
            _mutate_tree(data, data.draw(st.sampled_from(under)))
        return
    if how == "variant" or not fields:
        node.variant = data.draw(st.sampled_from([("Nope",), ("Expr", "Id"), ("Stmt", "Expr"),
                                                  ("Expr::Lit", "Int_")]))
        return
    if how == "short":
        node.values = node.values[:-1]
        return
    i = data.draw(st.integers(0, len(fields) - 1))
    name, value = fields[i]
    if how == "value":
        fields[i] = (name, data.draw(st.sampled_from(_WRONG_VALUES))())
    elif how == "rename":
        fields[i] = (name + "_", value)
    elif how == "drop":
        del fields[i]
    else:
        fields.reverse()
    _set_fields(node, fields)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_walks_raise_as_references_on_hand_built_trees(calc_prog, calc_prog_schema, meta,
                                                       meta_schema, data):
    if data.draw(st.booleans()):
        compiled, schema = calc_prog.compiled, calc_prog_schema
        root = _parsed(compiled, data.draw(_PROGRAMS))
    else:
        compiled, schema = meta.compiled, meta_schema
        root = _parsed(compiled, load_grammar(data.draw(st.sampled_from(FIXTURES))))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate_tree(data, root)
    _assert_walks_agree(compiled, schema, root)


def _wrong(i: int):
    """A value of no kind a field can hold, its type named after i, so an
    error message tells which field it came from."""
    return type("Wrong%d" % i, (), {})()


def _first_of_each_variant(compiled, texts):
    """(text, preorder index) of the first node of each variant."""
    seen = {}
    for text in texts:
        for i, n in enumerate(_nodes(_parsed(compiled, text))):
            seen.setdefault(n.variant, (text, i))
    return [seen[v] for v in sorted(seen)]


@pytest.mark.parametrize("grammar", ["calc_prog", "meta"])
def test_walks_report_the_first_wrong_field_as_references(grammar, request):
    # with several fields wrong, the error is the one a recursive walk meets
    # first: in an earlier field's subtree before a later field
    result = request.getfixturevalue(grammar)
    compiled, schema = result.compiled, derive_ast_schema(result.cfg)
    texts = ([load_grammar(f) for f in FIXTURES] if grammar == "meta"
             else ["x = 1 + -(2 * y) ^ 3;\nz"])
    for text, i in _first_of_each_variant(compiled, texts):
        node = _nodes(_parsed(compiled, text))[i]
        node.values = tuple(_wrong(j) for j in range(len(node.values)))
        _assert_walks_agree(compiled, schema, node)
        root = _parsed(compiled, text)
        node = _nodes(root)[i]
        if len(node.values) < 2:
            continue
        node.values = node.values[:-1] + (_wrong(len(node.values) - 1),)
        under = _nodes(node.values[0])
        if under and under[-1].values:
            deep = under[-1]
            deep.values = (_wrong(0),) + deep.values[1:]
        _assert_walks_agree(compiled, schema, root)


# ---------------------------------------------------------------------------
# Values that do not fit the schema

def _data_values(root):
    """(path, value) of each DataValue in root, in preorder; a path step is
    (field index, sequence index or None)."""
    out, todo = [], [((), root)]
    while todo:
        path, v = todo.pop()
        out.append((path, v))
        for i in range(len(v.fields) - 1, -1, -1):
            x = v.fields[i][1]
            if isinstance(x, D.DataValue):
                todo.append((path + ((i, None),), x))
            elif isinstance(x, tuple):
                todo.extend((path + ((i, j),), y) for j, y in reversed(list(enumerate(x)))
                            if isinstance(y, D.DataValue))
    return out


def _replaced(root, path, new):
    """A copy of root with the value at path replaced by new."""
    chain = [root]
    for i, j in path:
        x = chain[-1].fields[i][1]
        chain.append(x if j is None else x[j])
    for (i, j), parent in zip(reversed(path), reversed(chain[:-1])):
        fields = list(parent.fields)
        name, old = fields[i]
        fields[i] = (name, new if j is None else old[:j] + (new,) + old[j + 1:])
        new = D.DataValue(parent.type_path, tuple(fields))
    return new


_ID = D.DataValue(("Expr", "Id"), (("name", "q"),))
_WRONG_DATA = [5, "s", True, None, ("a",), (_ID, 7), 1.5, [1], _ID,
               D.DataValue(("Expr", "Nope"), ()), D.DataValue(("Expr",), ()),
               D.DataValue(("Stmt", "Expr"), (("x", _ID),)),
               D.DataValue(("Expr", "Id"), (("name", 3),)),
               D.DataValue(("Expr", "Id"), (("nom", "q"),)),
               D.DataValue(("Expr", "Id"), ())]


def _mutation(data, v):
    """A function that changes one place of a value like v the same way."""
    places = _data_values(v)
    k = data.draw(st.integers(0, len(places) - 1))
    target = places[k][1]
    how = data.draw(st.sampled_from(["field", "whole", "drop"]))
    if how == "field" and target.fields:
        i = data.draw(st.integers(0, len(target.fields) - 1))
        new = data.draw(st.sampled_from(_WRONG_DATA))
    else:
        i = None
        # the root stays a DataValue
        whole = _WRONG_DATA if k else [x for x in _WRONG_DATA if isinstance(x, D.DataValue)]
        new = data.draw(st.sampled_from(whole)) if how == "whole" else None

    def mutate(root):
        path, x = _data_values(root)[k]
        if i is not None:
            fields = list(x.fields)
            fields[i] = (fields[i][0], new)
            changed = D.DataValue(x.type_path, tuple(fields))
        elif new is not None:
            changed = new
        else:
            changed = D.DataValue(x.type_path, x.fields[:-1])
        return _replaced(root, path, changed)
    return mutate


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_conforms_and_hash_raise_as_references_on_values_off_the_schema(
        calc_prog, calc_prog_schema, meta, meta_schema, data):
    if data.draw(st.booleans()):
        compiled, schema = calc_prog.compiled, calc_prog_schema
        root = _parsed(compiled, data.draw(_PROGRAMS))
    else:
        compiled, schema = meta.compiled, meta_schema
        root = _parsed(compiled, load_grammar(data.draw(st.sampled_from(FIXTURES))))
    v = node_to_data_value(compiled, root)
    for _ in range(data.draw(st.integers(1, 2))):
        v = _mutation(data, v)(v)
    # two copies with no digest cached (the wrong values above are shared)
    _assert_values_agree(schema, _copy(v), _copy(v))


def _copy(v):
    """v rebuilt from new DataValue objects (no hash cached in them)."""
    built = {}
    for _path, x in reversed(_data_values(v)):
        fields = []
        for name, f in x.fields:
            if isinstance(f, D.DataValue):
                f = built[id(f)]
            elif isinstance(f, tuple):
                f = tuple(built[id(y)] if isinstance(y, D.DataValue) else y for y in f)
            fields.append((name, f))
        built[id(x)] = D.DataValue(x.type_path, tuple(fields))
    return built[id(v)]


def test_conforms_keeps_bindings_of_parameterised_types():
    schema = D.parse_data_spec("data Pair[T] { fst: T; snd: T; }\n"
                               "data Box { p: Pair[integer]; ps: [Pair[string]]; }")
    ok = D.make_value(schema, "Pair", {"fst": 1, "snd": 2})
    strs = D.make_value(schema, "Pair", {"fst": "a", "snd": "b"})
    box = D.make_value(schema, "Box", {"p": ok, "ps": (strs, strs)})
    assert D.conforms(schema, box) and oracle.conforms(schema, box)
    for bad in [D.DataValue(("Box",), (("p", strs), ("ps", (strs,)))),
                D.DataValue(("Box",), (("p", ok), ("ps", (strs, ok))))]:
        assert _outcome(D.conforms, schema, bad) == _outcome(oracle.conforms, schema, bad)
        assert _outcome(D.conforms, schema, bad)[0] == "raised"
    for bindings in [{"T": D.TRef("integer")}, {"T": D.TRef("string")}, {"T": None}, {}]:
        assert (_outcome(D.conforms, schema, ok, bindings)
                == _outcome(oracle.conforms, schema, ok, bindings))


# ---------------------------------------------------------------------------
# Deep trees at the default recursion limit

def test_deep_calc_prog_at_default_recursion_limit(calc_prog, calc_prog_schema):
    depth = 10 ** 5
    assert sys.getrecursionlimit() < depth
    compiled = calc_prog.compiled
    text = "x = " + "(" * depth + "1 + -y" + ")" * depth
    root = _parsed(compiled, text)
    printed = pretty_print(compiled, root)
    assert printed == text
    again = _parsed(compiled, printed)
    assert again == root and again is not root
    assert validate_node(compiled, calc_prog_schema, again)
    v = node_to_data_value(compiled, again)
    w = node_to_data_value(compiled, root)
    assert v == w
    n0 = D.hash_computation_count()
    digest = D.value_hash(v)
    assert D.hash_computation_count() - n0 == depth + 9  # and 9 values around the brackets
    assert D.value_hash(w) == digest
    assert hash(again) == hash(root)
    rendered = render_node(root)
    assert rendered.startswith('Prog::Main{stmts: [Stmt::Assign{x: Expr::Id{name: "x"}, '
                               'y: Expr::Paren{x: Expr::Paren{x: ')
    assert rendered.endswith('name: "y"}' + "}" * (depth + 3) + "]}")
    assert repr(root) == "Node(%s)" % rendered
    shown = D.debug_print(v)
    assert shown.startswith('Prog::Main(stmts: [Stmt::Assign(x: Expr::Id(name: "x"), '
                            'y: Expr::Paren(x: Expr::Paren(x: ')
    assert shown.endswith('name: "y")' + ")" * (depth + 3) + "])")
    assert repr(v) == "DataValue(%s)" % shown


# ---------------------------------------------------------------------------
# spec_ast.render

def test_render_writes_pieces_in_reading_order():
    def parts(value, context):
        if context == "list":
            return ["[", *joined(", ", [(x, "item") for x in value]), "]"]
        if isinstance(value, tuple):
            return [(value, "list"), "!"]
        return "%s%d" % (context[0], value)

    assert render(((1, (2, 3), 4), "list"), parts) == "[i1, [i2, i3]!, i4]"
    assert render(((), "list"), parts) == "[]"
    assert joined(", ", []) == [] and joined(", ", ["a"]) == ["a"]


def test_render_writes_text_as_it_stands_and_expands_pairs():
    calls = []

    def parts(value, context):
        calls.append((value, context))
        if context == 0:
            return ["leaf", (value, 1), "(leaf, 2)", ""]
        return "<%s %d>" % (value, context)

    assert render(("leaf", 0), parts) == "leaf<leaf 1>(leaf, 2)"
    assert calls == [("leaf", 0), ("leaf", 1)]
    assert render("leaf", parts) == "leaf" and len(calls) == 2
    assert quote_text('a"b\\c') == '"a\\"b\\\\c"'


def test_render_takes_a_chain_of_any_depth():
    depth = 10 ** 5
    assert sys.getrecursionlimit() < depth

    def parts(n, _context):
        return ["(", (n - 1, None), ")"] if n else "x"

    assert render((depth, None), parts) == "(" * depth + "x" + ")" * depth


def test_render_lets_an_exception_of_parts_through():
    def parts(n, _context):
        if n == 3:
            raise TypeError("no parts for %d" % n)
        return [str(n), (n + 1, None)]

    with pytest.raises(TypeError, match="no parts for 3"):
        render((0, None), parts)


# ---------------------------------------------------------------------------
# Node equality and hashing

def test_node_equality_and_hash_follow_every_field(calc_prog):
    compiled = calc_prog.compiled
    text = "x = 1 + 2;\ny = -x"
    a, b = _parsed(compiled, text), _parsed(compiled, text)
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != 5 and a.__eq__(5) is NotImplemented
    b.start, b.end = 3, 4  # a node's own positions are not compared
    assert a == b and hash(a) == hash(b)

    def changed(change):
        c = _parsed(compiled, text)
        change(c)
        return c

    stmts = lambda n: n.values[0]  # noqa: E731
    first = lambda n: stmts(n).items[0]  # noqa: E731
    plus = lambda n: first(n).values[1]  # noqa: E731
    leaf = lambda n: plus(n).values[0].values[0]  # noqa: E731
    variants = [
        lambda n: setattr(leaf(n), "text", "3"),
        lambda n: setattr(leaf(n), "start", 0),
        lambda n: setattr(leaf(n), "end", 0),
        lambda n: setattr(plus(n).values[1], "label", "Sub"),
        lambda n: setattr(plus(n).values[1], "start", 0),
        lambda n: setattr(stmts(n), "trailing", True),
        lambda n: setattr(stmts(n), "end", 0),
        lambda n: setattr(stmts(n), "items", stmts(n).items[:1]),
        lambda n: setattr(plus(n), "variant", ("Expr", "BinOp2")),
        lambda n: setattr(first(n), "names", ("z",) + first(n).names[1:]),
        lambda n: _set_fields(first(n), first(n).fields[:1]),
        lambda n: setattr(first(n), "values", first(n).values[:1]),
    ]
    for change in variants:
        c = changed(change)
        assert a != c and c != a and not a == c
