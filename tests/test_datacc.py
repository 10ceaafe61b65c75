import random

import pytest

from langcc import datacc as D
from langcc.spec_ast import Loc, SpecError

ENUM_SRC = "data Color { Red; Green; Blue; }"
PAIR_SRC = "data Pair[T] { fst: T; snd: T; }"
EXPR_SRC = """
data Expr {
    Lit {
        Int_ { val: string; }
    }
    Id { name: string; }
    Bin { xs: [Expr]; note: string?; flag: boolean; }
}
"""


@pytest.fixture(scope="module")
def schema():
    return D.parse_data_spec("\n".join([ENUM_SRC, PAIR_SRC, EXPR_SRC]))


def test_enum_is_sum_of_empty_products(schema):
    color = schema.type_map()["Color"]
    assert isinstance(color, D.Sum)
    assert color.is_enum()
    assert [n for n, _ in color.cases] == ["Red", "Green", "Blue"]


def test_product_with_type_parameter(schema):
    pair = schema.type_map()["Pair"]
    assert isinstance(pair, D.Product)
    assert schema.params_of("Pair") == ("T",)
    v = D.make_value(schema, "Pair", {"fst": 1, "snd": 2})
    assert D.conforms(schema, v, {"T": D.TRef("integer")})
    with pytest.raises(SpecError):
        D.conforms(schema, v, {"T": D.TRef("string")})


def test_unresolved_reference_rejected():
    with pytest.raises(SpecError, match="unresolved type reference 'Foo'"):
        D.parse_data_spec("data A { x: Foo; }")


def test_duplicate_case_rejected():
    with pytest.raises(SpecError, match="duplicate case"):
        D.parse_data_spec("data A { X; X; }")


def test_duplicate_type_parameter_rejected():
    # with both parameters named T, the last binding would win and x would
    # never be checked against integer
    with pytest.raises(SpecError, match="duplicate type parameter 'T' in A$"):
        D.parse_data_spec("data A[T, T] { x: T; y: T; } data U { a: A[integer, string]; }")
    D.parse_data_spec("data A[T, S] { x: T; y: S; } data U { a: A[integer, string]; }")


def test_downcast_prefix_semantics(schema):
    lit = D.make_value(schema, "Expr::Lit::Int_", {"val": "7"})
    assert D.downcast(schema, lit, "Expr::Lit") is lit
    assert D.downcast(schema, lit, "Expr") is lit
    ident = D.make_value(schema, "Expr::Id", {"name": "x"})
    assert D.downcast(schema, ident, "Expr::Lit") is None
    with pytest.raises(SpecError, match="unknown case path"):
        D.downcast(schema, ident, "Expr::Bogus")


def test_substitute_field(schema):
    v = D.make_value(schema, "Pair", {"fst": 1, "snd": 2})
    w = D.substitute_field(schema, v, "fst", 9)
    assert D.debug_print(w) == "Pair(fst: 9, snd: 2)"
    assert D.debug_print(v) == "Pair(fst: 1, snd: 2)"  # original untouched
    with pytest.raises(SpecError, match="no field 'zzz'"):
        D.substitute_field(schema, v, "zzz", 1)
    with pytest.raises(SpecError):
        D.substitute_field(schema, D.make_value(schema, "Expr::Id", {"name": "x"}),
                           "name", 42)


def test_substitute_equal_value_hashes_equal(schema):
    v = D.make_value(schema, "Pair", {"fst": 1, "snd": 2})
    w = D.substitute_field(schema, v, "fst", 1)
    assert v == w
    assert D.value_hash(v) == D.value_hash(w)


def test_debug_print_formats(schema):
    assert D.debug_print(D.make_value(schema, "Color::Red", {})) == "Color::Red"
    v = D.make_value(schema, "Pair", {"fst": 1, "snd": 2})
    assert D.debug_print(v) == "Pair(fst: 1, snd: 2)"
    nested = D.make_value(schema, "Expr::Lit::Int_", {"val": "7"})
    assert D.debug_print(nested) == 'Expr::Lit::Int_(val: "7")'
    b = D.make_value(schema, "Expr::Bin",
                     {"xs": (nested,), "note": None, "flag": True})
    assert D.debug_print(b) == \
        'Expr::Bin(xs: [Expr::Lit::Int_(val: "7")], note: none, flag: true)'


def test_debug_print_escapes_strings_in_fields_and_sequences():
    # a field's string is written in place, a sequence item's on its own
    s = D.parse_data_spec("data W { one: string; many: [string]; n: integer; }")
    v = D.make_value(s, "W", {"one": 'a\\"b', "many": ("c\\", '"'), "n": -1})
    assert D.debug_print(v) == r'W(one: "a\\\"b", many: ["c\\", "\""], n: -1)'


def test_hash_deterministic_and_order_sensitive(schema):
    a = D.make_value(schema, "Pair", {"fst": 1, "snd": 2})
    b = D.make_value(schema, "Pair", {"fst": 1, "snd": 2})
    c = D.make_value(schema, "Pair", {"fst": 2, "snd": 1})
    assert D.value_hash(a) == D.value_hash(b)
    assert D.value_hash(a) != D.value_hash(c)
    assert len(D.value_hash(a)) == 32


def test_hash_is_cached(schema):
    v = D.make_value(schema, "Pair", {"fst": 3, "snd": 4})
    n0 = D.hash_computation_count()
    D.value_hash(v)
    n1 = D.hash_computation_count()
    D.value_hash(v)
    D.value_hash(v)
    n2 = D.hash_computation_count()
    assert n1 - n0 == 1
    assert n2 == n1


def test_hash_stable_across_processes(schema):
    # frozen digest: canonical serialization must never drift
    v = D.make_value(schema, "Pair", {"fst": 1, "snd": 2})
    assert D.value_hash(v).hex() == (
        "32a9205a9fbd6e3a4b27d5a8f4930151a2a29da5471d37dbd9d03ae71cd04300")


def _random_value(schema, rng, depth=0):
    kind = rng.randrange(4 if depth < 3 else 2)
    if kind == 0:
        return D.make_value(schema, "Expr::Id", {"name": rng.choice("abcdef") * rng.randrange(1, 4)})
    if kind == 1:
        return D.make_value(schema, "Expr::Lit::Int_", {"val": str(rng.randrange(100))})
    xs = tuple(_random_value(schema, rng, depth + 1) for _ in range(rng.randrange(3)))
    note = None if rng.random() < 0.5 else rng.choice(["", "n", "note"])
    return D.make_value(schema, "Expr::Bin",
                        {"xs": xs, "note": note, "flag": rng.random() < 0.5})


def test_randomized_corpus_hash_and_print_consistency(schema):
    rng = random.Random(20260810)
    corpus = [_random_value(schema, rng) for _ in range(1000)]
    by_print = {}
    for v in corpus:
        assert D.conforms(schema, v)
        p = D.debug_print(v)
        h = D.value_hash(v)
        if p in by_print:
            assert by_print[p] == h  # equal prints, equal values, equal hashes
        by_print[p] = h
    # distinct prints imply distinct hashes
    hashes = list(by_print.values())
    assert len(set(hashes)) == len(hashes)


def test_structural_equality_implies_hash_equality(schema):
    rng = random.Random(7)
    for _ in range(200):
        v = _random_value(schema, rng)
        w = _random_value(schema, rng)
        if v == w:
            assert D.value_hash(v) == D.value_hash(w)
        if D.value_hash(v) != D.value_hash(w):
            assert v != w


def test_schema_render_reparse_identity(schema):
    assert D.parse_data_spec(D.schema_render(schema)) == schema


def test_mixed_fields_and_cases_rejected():
    with pytest.raises(SpecError, match="mixes fields and cases"):
        D.parse_data_spec("data A { x: string; Y; }")


def test_no_type_name_is_a_wildcard():
    # only an unbound type parameter matches any value; a type the source
    # names, whatever its name, matches only its own values
    s = D.parse_data_spec("data __any { x: string; } data P { a: __any; } data Q[T] { t: T; }")
    with pytest.raises(SpecError, match=r"P\.a: expected a __any value, got 42"):
        D.make_value(s, "P", {"a": 42})
    D.make_value(s, "P", {"a": D.make_value(s, "__any", {"x": "y"})})
    for v in (42, "s", None, (1, "two")):
        assert D.conforms(s, D.make_value(s, "Q", {"t": v}))


@pytest.mark.parametrize("wrap", [lambda t: t + "?", lambda t: "[%s]" % t],
                         ids=["option", "sequence"])
def test_type_expressions_of_any_depth(wrap):
    # parsed, validated, rendered and compared on explicit stacks, at the
    # default recursion limit
    ty = "string"
    for _ in range(5000):
        ty = wrap(ty)
    schema = D.parse_data_spec("data P { a: %s; }" % ty)
    text = D.schema_render(schema)
    assert "    a: %s;" % ty in text.splitlines()
    again = D.parse_data_spec(text)
    assert again == schema and hash(again) == hash(schema)


def test_repr_of_type_expressions_of_any_depth():
    ty = D.TRef("string")
    for _ in range(5000):
        ty = D.TOpt(ty)
    assert repr(ty) == "TOpt(string%s)" % ("?" * 5000)
    assert repr(D.TRef("Pair", (D.TSeq(D.TRef("T")), D.TRef("integer")))) == (
        "TRef(Pair[[T], integer])")


def nested_cases(depth):
    """A type whose case bodies nest `depth` deep, an empty case beside
    each: T { E0; C0 { E1; C1 { ... { x: string; } } } }."""
    return ("data T {" + "".join(" E%d; C%d {" % (i, i) for i in range(depth))
            + " x: string;" + " }" * depth + " }")


def test_case_bodies_of_any_depth():
    # parsed, validated, rendered, compared and printed on explicit stacks,
    # at the default recursion limit
    source = nested_cases(1200)
    schema = D.parse_data_spec(source)
    text = D.schema_render(schema)
    assert "    " * 1201 + "x: string;" in text.splitlines()
    again = D.parse_data_spec(text)
    assert again == schema and hash(again) == hash(schema)
    printed = repr(schema)
    assert printed.startswith("DatatypeSchema(types=(('T', Sum(cases=(('E0', Product(fields=())), ")
    assert printed.count("Sum(cases=") == 1200 and "(('x', TRef(string)),)" in printed
    assert D.parse_data_spec(source.replace("x: string", "x: integer")) != schema
    where = "T" + "".join(".C%d" % i for i in range(1199))
    with pytest.raises(SpecError, match="duplicate case name 'E1199' in %s$" % where):
        D.parse_data_spec(source.replace("E1199;", "E1199; E1199;"))
    with pytest.raises(SpecError, match="type %s.C1199 mixes fields and cases" % where):
        D.parse_data_spec(source.replace("x: string;", "x: string; E;"))


# each semantic diagnostic, with the Loc of the token at fault
DIAGNOSTICS = [
    ("data A { }\ndata A { }", "duplicate type name 'A'", 2, 6),
    ("data A[T, T] { x: T; }", "duplicate type parameter 'T' in A", 1, 11),
    ("data A {\n    x: string;\n    x: integer;\n}", "duplicate field 'x' in A", 3, 5),
    ("data A { B { X; X; } }", "duplicate case name 'X' in A.B", 1, 17),
    ("data A { x: string; Y; }", "type A mixes fields and cases in one body", 1, 21),
    ("data A { x: B; }", "unresolved type reference 'B' (A.x)", 1, 13),
    ("data P[T] { a: T; }\ndata A { C { x: [P]; } }",
     "type 'P' expects 1 argument(s), got 0 (A.C.x)", 2, 18),
    ("data A { x: [string[integer]]; }", "builtin 'string' takes no arguments (A.x)", 1, 14),
    ("data A[T] { x: T[integer]?; }", "type parameter 'T' cannot take arguments (A.x)", 1, 16),
]


@pytest.mark.parametrize("source, message, line, col", DIAGNOSTICS)
def test_schema_errors_carry_their_loc(source, message, line, col):
    with pytest.raises(SpecError) as info:
        D.parse_data_spec(source)
    assert (info.value.message, info.value.loc) == (message, Loc(line, col))


def test_references_may_point_forward():
    # a reference is checked once every type is read: it may name a type
    # declared after it, its own type, or a type of any arity
    schema = D.parse_data_spec("data A { b: B[integer, [A]]; self: A?; }\n"
                               "data B[S, T] { s: S; t: T; next: B[T, S]?; }")
    assert D.parse_data_spec(D.schema_render(schema)) == schema
    with pytest.raises(SpecError) as info:
        D.parse_data_spec("data A { b: B[integer]; }\ndata B[S, T] { s: S; t: T; }")
    assert (info.value.message, info.value.loc) == (
        "type 'B' expects 2 argument(s), got 1 (A.b)", Loc(1, 13))


@pytest.mark.parametrize("source, message, line, col", [
    # a reference before a repeated type name
    ("data A { x: Nope; }\ndata A { }", "unresolved type reference 'Nope' (A.x)", 1, 13),
    # a repeated case name before the field that mixes the body
    ("data A { X; X; y: string; }", "duplicate case name 'X' in A", 1, 13),
    # a mixed body before a reference in a later type
    ("data A { x: string; Y; } data B { z: Nope; }",
     "type A mixes fields and cases in one body", 1, 21),
    # a reference to a later type before that type's repeated parameter
    ("data A { b: B; } data B[T, T] { }", "type 'B' expects 2 argument(s), got 0 (A.b)", 1, 13),
])
def test_first_fault_in_source_order_is_reported(source, message, line, col):
    with pytest.raises(SpecError) as info:
        D.parse_data_spec(source)
    assert (info.value.message, info.value.loc) == (message, Loc(line, col))


def test_syntax_error_is_reported_where_it_is_met():
    # a source that does not parse has no schema whose faults could be
    # ordered: its syntax error is the one reported
    with pytest.raises(SpecError) as info:
        D.parse_data_spec("data A { X; X; }\ndata B { ; }")
    assert (info.value.message, info.value.loc) == ("expected 'id', found ';'", Loc(2, 10))
