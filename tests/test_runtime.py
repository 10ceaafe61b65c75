import json
import re

import pytest

from langcc import (
    derive_ast_schema, location_fmt_str, node_downcast, parse, pretty_print, render_node,
    token_bounds_to_linecol, validate_node,
)
from langcc.artifact import K_OPT, CompiledLang
from langcc.lexer import EOF_TERMINAL, lex
from langcc.meta_frontend import meta_artifact
from langcc.runtime import Node, SeqVal, TokenLeaf, node_to_data_value
from langcc.spec_ast import SpecError

ERROR_BLOCK = (
    "Line 1, column 10:\n"
    "\n"
    "  7 + (5 + / 3)\n"
    "           ^    \n"
)


def test_unexpected_token_error_block(calc):
    res = parse(calc.compiled, "7 + (5 + / 3)")
    assert not res.is_success()
    assert res.err.message == "Unexpected token: `/`"
    assert res.err.location_block == ERROR_BLOCK
    assert res.err.bounds == (9, 10)


def test_single_int_statement(calc):
    res = parse(calc.compiled, "1")
    assert res.is_success()
    assert render_node(res.result) == 'Stmt::Expr{x: Expr::Lit::Int_{val: "1"}}'


def test_empty_input_unexpected_eof(calc):
    res = parse(calc.compiled, "")
    assert not res.is_success()
    assert res.err.message == "Unexpected end of input"
    assert res.err.bounds == (0, 0)


def test_default_start_is_first_main(calc):
    # mains are (Stmt, Expr); `1 + 2` parses as a Stmt by default
    res = parse(calc.compiled, "1 + 2")
    assert res.result.variant[0] == "Stmt"
    res2 = parse(calc.compiled, "1 + 2", start="Expr")
    assert res2.result.variant[0] == "Expr"
    with pytest.raises(SpecError, match="not a main nonterminal"):
        parse(calc.compiled, "1", start="Nope")


def test_attribute_requirement_enforced(calc):
    # only Expr.Id declares I, so only identifiers may be assigned to
    assert parse(calc.compiled, "x = 1").is_success()
    res = parse(calc.compiled, "1 = 2")
    assert not res.is_success()
    assert res.err.message == "Unexpected token: `=`"


def test_location_fmt_str_examples():
    assert location_fmt_str("7 + (5 + / 3)", (9, 10)) == ERROR_BLOCK
    blame = location_fmt_str("4 / (3 - (15 / 5))", (2, 3))
    assert blame == (
        "Line 1, column 3:\n"
        "\n"
        "  4 / (3 - (15 / 5))\n"
        "    ^                \n"
    )
    assert location_fmt_str("x", (0, 1)) == "Line 1, column 1:\n\n  x\n  ^ \n"


def test_location_fmt_str_second_line():
    block = location_fmt_str("a = 1\nbb = 2", (6, 8))
    assert block.startswith("Line 2, column 1:")
    assert "  bb = 2\n" in block


def test_node_downcast(calc):
    res = parse(calc.compiled, "1")
    node = res.result
    assert node_downcast(calc.compiled, node, "Stmt") is node
    x = node.field("x")
    assert node_downcast(calc.compiled, x, "Expr::Lit") is x
    assert node_downcast(calc.compiled, x, "Expr::Id") is None
    with pytest.raises(SpecError, match="unknown variant path"):
        node_downcast(calc.compiled, node, "Zzz")


def test_lexing_error_surfaces_as_parse_error(calc):
    res = parse(calc.compiled, "1 ? 2")
    assert not res.is_success()
    assert "unexpected character" in res.err.message
    assert res.err.bounds == (2, 2)


@pytest.mark.parametrize("text, offset, line_col", [
    ("x = \ud800", 4, "Line 1, column 5:"),
    ("é = 1;\nyé = \udfff + 1", 14, "Line 2, column 6:"),
])
def test_lone_surrogate_is_a_lex_error(calc_prog, text, offset, line_col):
    # a str may hold a lone surrogate (json.loads('"\\ud800"') makes one)
    res = parse(calc_prog.compiled, text)
    assert not res.is_success()
    assert res.err.message.startswith("Lexing error: text not encodable as UTF-8")
    assert res.err.bounds == (offset, offset)
    assert res.err.location_block.startswith(line_col)


def _walk_spans(value, out):
    if isinstance(value, Node):
        out.append((value.start, value.end))
        for v in value.values:
            _walk_spans(v, out)
    elif isinstance(value, SeqVal):
        for item in value.items:
            _walk_spans(item, out)
    elif isinstance(value, TokenLeaf):
        out.append((value.start, value.end))


def test_bounds_nesting(calc):
    res = parse(calc.compiled, "x = (1 + 2) * -3")
    assert res.is_success()

    def check(node):
        if not isinstance(node, Node):
            return
        for v in node.values:
            if isinstance(v, (Node, TokenLeaf)):
                assert node.start <= v.start
                assert v.end <= node.end
            if isinstance(v, Node):
                check(v)

    check(res.result)
    # sibling fields are ordered and disjoint
    root = res.result
    spans = []
    _walk_spans(root.field("x"), spans)
    left_max = max(end for _start, end in spans)
    spans_y = []
    _walk_spans(root.field("y"), spans_y)
    assert left_max <= min(start for start, _end in spans_y)


def test_bounds_cover_token_span(calc):
    res = parse(calc.compiled, "x = (1 + 2) * 3")
    y = res.result.field("y")
    assert (y.start, y.end) == (4, 15)
    assert token_bounds_to_linecol("x = (1 + 2) * 3", y.start) == (1, 5)


def test_schema_conformance_of_parsed_nodes(calc):
    schema = derive_ast_schema(calc.cfg)
    for text in ["1", "x = 1 + 2 * 3", "-(1) ^ 2", "x = (y)"]:
        res = parse(calc.compiled, text)
        assert res.is_success(), text
        assert validate_node(calc.compiled, schema, res.result)


def test_validate_node_rejects_mistyped_field(calc):
    # `1`, with a token where its Expr node field belongs
    node = parse(calc.compiled, "1").result
    expr, = node.values
    bad = Node(node.variant, node.names, (TokenLeaf("int_lit", "1", expr.start, expr.end),),
               node.start, node.end)
    schema = derive_ast_schema(calc.cfg)
    with pytest.raises(SpecError, match="field Stmt::Expr.x holds a TokenLeaf, "
                                        "expected a Node"):
        validate_node(calc.compiled, schema, bad)


def test_error_offsets_match_marked_tests(calc, parens, sum_list, meta):
    for result in (calc, parens, sum_list, meta):
        for t in result.spec.parse_tests:
            if t.expected_fail_offset is None:
                continue
            res = parse(result.compiled, t.input)
            assert not res.is_success(), t.input
            assert res.err.bounds[0] == t.expected_fail_offset, t.input


def test_extracts_attached_outside_ast(calc):
    res = parse(calc.compiled, "1 + 1 // note")
    assert res.is_success()
    assert [(e.mode, e.text) for e in res.extracts] == [("comment_single", "// note")]
    assert "note" not in render_node(res.result)


def test_parse_is_repeatable(calc):
    a = parse(calc.compiled, "x = 1 + 2")
    b = parse(calc.compiled, "x = 1 + 2")
    assert render_node(a.result) == render_node(b.result)
    assert a.result == b.result


def _calc_artifact(calc):
    return json.loads(calc.compiled.to_json())


def _load(data):
    return CompiledLang.from_json(json.dumps(data))


def test_artifact_with_rd_actions_rejected(calc):
    data = _calc_artifact(calc)
    data["rd"] = True
    with pytest.raises(SpecError, match="rd=True"):
        _load(data)


def test_artifact_missing_key_rejected():
    with pytest.raises(SpecError, match="missing key 'k'"):
        _load({"version": 1, "rd": False})


def test_artifact_with_duplicate_action_cell_rejected(calc):
    data = _calc_artifact(calc)
    data["action"].append(data["action"][0])
    with pytest.raises(SpecError, match="two actions for state"):
        _load(data)


def test_artifact_with_duplicate_goto_rejected(sum_list):
    # the later target would silently win
    data = json.loads(sum_list.compiled.to_json())
    assert [0, "n", "A", 3] not in data["goto"]
    data["goto"].append([0, "n", "A", 3])
    with pytest.raises(SpecError, match="malformed artifact: two gotos for state 0 on A$"):
        _load(data)


def test_artifact_with_malformed_action_entry_rejected(calc):
    data = _calc_artifact(calc)
    data["action"][0] = [0, "x"]
    with pytest.raises(SpecError, match="is not \\[state, lookahead, action\\]"):
        _load(data)


def test_artifact_with_string_k_rejected(calc):
    data = _calc_artifact(calc)
    data["k"] = "1"
    with pytest.raises(SpecError, match="k is '1', not a positive integer"):
        _load(data)


@pytest.mark.parametrize("unit", ["x", 2.5, None, -4, True, "4"])
def test_artifact_with_indent_unit_not_a_non_negative_int_rejected(unit):
    # each loaded before, and then failed in pretty_print or (-4) indented nothing
    data = json.loads(meta_artifact().to_json())
    data["indent_unit"] = unit
    with pytest.raises(SpecError, match=re.escape(
            "malformed artifact: indent_unit is %r, not a non-negative integer" % (unit,))):
        _load(data)
    data["indent_unit"] = 0
    assert _load(data).indent_unit == 0


@pytest.mark.parametrize("version", [True, 1.0, "1", 2])
def test_artifact_with_version_not_the_int_1_rejected(calc, version):
    data = _calc_artifact(calc)
    data["version"] = version
    with pytest.raises(SpecError, match=re.escape("unsupported artifact version %r" % (version,))):
        _load(data)


@pytest.mark.parametrize("starts", [{}, {"Other": 0}, {"Stmt": 0}, "extra"])
def test_artifact_whose_starts_are_not_its_mains_rejected(calc, starts):
    data = _calc_artifact(calc)
    if starts == "extra":
        starts = dict(data["starts"], Other=0)
    data["starts"] = starts
    with pytest.raises(SpecError, match=re.escape(
            "malformed artifact: starts names %s, not the mains Stmt, Expr"
            % (", ".join(sorted(starts)) or "nothing"))):
        _load(data)


def test_artifact_missing_goto_fails_parse(calc):
    data = _calc_artifact(calc)
    action = {(state, tuple(la)): act for state, la, act in data["action"]}
    # `1` shifts from the start state, then reduces; drop the goto that follows
    s0 = data["starts"]["Stmt"]
    tag, s1 = action[(s0, ("int_lit",))]
    tag, pi = action[(s1, (EOF_TERMINAL,))]
    assert tag == "reduce"
    lhs_ref = data["prods"][pi][2]
    data["goto"].remove(next(g for g in data["goto"] if g[:3] == [s0, "n", lhs_ref]))
    with pytest.raises(SpecError, match=re.escape("no goto for %s in state %d"
                                                  % (lhs_ref, s0))):
        parse(_load(data), "1")


def test_concurrent_parses_share_compiled(calc):
    # CompiledLang is immutable; each parse owns its stacks
    from concurrent.futures import ThreadPoolExecutor

    inputs = ["x = %d + %d * 2" % (i, i) for i in range(16)]
    expected = [render_node(parse(calc.compiled, s).result) for s in inputs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda s: render_node(parse(calc.compiled, s).result),
                            inputs))
    assert got == expected


def _shift_entry(data):
    return next(e for e in data["action"] if e[2][0] == "shift")


@pytest.mark.parametrize("where", ["shift", "goto", "start", "negative source"])
def test_artifact_with_state_out_of_range_rejected(calc, where):
    data = _calc_artifact(calc)
    n_states = 1 + max(e[0] for e in data["action"])
    if where == "shift":
        _shift_entry(data)[2][1] = n_states
    elif where == "goto":
        data["goto"][0][3] = n_states + 5
    elif where == "start":
        data["starts"]["Stmt"] = -1
    else:
        data["action"][0][0] = -1
    with pytest.raises(SpecError, match="not one of the %d states|has no state" % n_states):
        _load(data)


def _set_field_src(data, prod, field, src):
    data["prods"][prod][4][field][1] = src


def _set_asm(data, prod, kind, asm):
    assert data["prods"][prod][0] == kind
    data["prods"][prod][3] = asm


def _reduce_start(data):
    start = next(i for i, p in enumerate(data["prods"]) if p[0] == "start")
    next(e for e in data["action"] if e[2][0] == "reduce")[2][1] = start


# each raised a bare IndexError or AssertionError from the parse loop
@pytest.mark.parametrize("grammar,mutate,message", [
    ("calc", _reduce_start, "reduces a start production"),
    ("calc", lambda d: _set_field_src(d, 0, 1, ["slot", 3]), "names slot 3 of 3"),
    ("calc", lambda d: _set_field_src(d, 4, 0, ["enum_inline", 2, "Neg"]), "names slot 2 of 2"),
    ("calc", lambda d: _set_field_src(d, 4, 0, ["enum_inline", 0]), "enum field with no label"),
    ("calc_prog", lambda d: _set_asm(d, 14, "list_append", [0, 3]), "names slot 3 of 3"),
    ("meta", lambda d: _set_asm(d, 63, "opt_some", [3]), "names slot 3 of 3"),
], ids=["start reduce", "slot past rhs", "enum_inline past rhs", "enum_inline without label",
        "list index past rhs", "opt index past rhs"])
def test_artifact_with_unindexable_production_rejected(grammar, mutate, message, request):
    data = json.loads(request.getfixturevalue(grammar).compiled.to_json())
    mutate(data)
    with pytest.raises(SpecError, match="malformed artifact: .*" + message):
        _load(data)


def _set(path, value):
    """A mutation that puts value at the place `path` of an artifact."""
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return mutate


def _first_reduce(data):
    return next(e for e in data["action"] if e[2][0] == "reduce")


# each check of the tables, productions and templates that from_json makes
# by name, on one mutation of a fixture artifact (calc has 97 states and 34
# productions)
@pytest.mark.parametrize("grammar,mutate,message", [
    ("calc", _set(("templates", "Stmt::Expr"), "x"), "print template 'x' is not a list"),
    ("calc", _set(("prods", 32), ["start", 1]),
     "production ['start', 1] is not [kind, length, lhs, ...]"),
    ("calc", _set(("prods", 1, 4), "x"),
     "production ['user', 1, 'Stmt', 'Stmt::Expr', 'x', 'Stmt -> Expr'] has malformed fields"),
    ("calc", _set(("prods", 1, 4), [["x"]]),
     "production ['user', 1, 'Stmt', 'Stmt::Expr', [['x']], 'Stmt -> Expr'] "
     "has malformed fields"),
    ("calc", _set(("prods", 15, 3), "Add"),
     "production ['enum', 1, 'X0', 'Add', 'X0 -> `+`'] has no assembly list"),
    ("calc", _set(("prods", 15, 3), []),
     "production ['enum', 1, 'X0', [], 'X0 -> `+`'] has an empty assembly list"),
    ("calc", _set(("prods", 15, 3), [1]),
     "production ['enum', 1, 'X0', [1], 'X0 -> `+`'] has no enum label"),
    ("calc_prog", lambda d: _set_asm(d, 14, "list_append", [0]),
     "production ['list_append', 3, 'L1', [0], 'L1 -> L1 `;` Stmt'] "
     "has no two-slot assembly list"),
    ("calc", _set(("mains",), []), "mains is [], not a list of names"),
    ("calc", _set(("action", 0, 1), ["`(`", "id"]),
     "action entry [0, ['`(`', 'id'], ['shift', 2]] has no 1-token lookahead"),
    ("calc", _set(("action", 0, 2), ["shift", "2"]),
     "action ['shift', '2'] is not shift, reduce or accept"),
    ("calc", lambda d: _first_reduce(d)[2].__setitem__(1, 34),
     "action ['reduce', 34] reduces a production that does not exist"),
    ("calc", _set(("goto", 0, 1), "x"),
     "goto entry [0, 'x', 'Expr', 6] is not [state, kind, symbol, target]"),
    ("calc", _set(("starts", "Expr"), "1"),
     "starts is {'Expr': '1', 'Stmt': 0}, not a map of names to states"),
    ("calc", _set(("action", 0, 0), 1000), "state 1000 is out of range"),
    ("calc", lambda d: _shift_entry(d)[2].__setitem__(1, -1),
     "shift, goto or start target -1 is not one of the 97 states"),
    ("calc", _set(("goto", 0, 3), -1),
     "shift, goto or start target -1 is not one of the 97 states"),
    ("calc", lambda d: d["goto"].append([97, "n", "Expr", 98]),
     "shift, goto or start target 98 is not one of the 98 states"),
], ids=["template not a list", "short production", "user fields not a list",
        "user field not a pair", "assembly not a list", "empty assembly", "enum label not text",
        "list_append one slot", "no mains", "two-token lookahead", "shift to text",
        "reduce past the productions", "goto kind", "start not a state", "state past the entries",
        "negative shift", "negative goto", "goto-only state"])
def test_artifact_failing_a_named_check_rejected(grammar, mutate, message, request):
    data = json.loads(request.getfixturevalue(grammar).compiled.to_json())
    mutate(data)
    with pytest.raises(SpecError) as e:
        _load(data)
    assert e.value.message == "malformed artifact: " + message


def _enum_on_optional_slot(data):
    # ParserDecl::Rule's `attrs` slot holds an optional, None when absent
    prod = next(p for p in data["prods"] if p[0] == "user" and p[3] == "ParserDecl::Rule")
    field = next(f for f in prod[4] if f[0] == "attrs")
    field[1] = ["enum_inline", field[1][1], "X"]
    return data["prods"].index(prod)


def _chain_on_node_slot(data):
    # `L1 <- L1 ; Stmt` appends to slot 0; point the chain at the Stmt node
    _set_asm(data, 14, "list_append", [2, 0])
    return 14


# each raised a bare AttributeError from the parse loop: the artifact does
# not say what kind of value a slot holds, so only the parse can find out
@pytest.mark.parametrize("grammar,mutate,text,message", [
    ("calc_prog", _chain_on_node_slot, "x = 1; y = 2; z = 3",
     "'Node' object has no attribute 'append'"),
    ("meta", _enum_on_optional_slot, "parser { main { S } S.One <- x:a; }",
     "'NoneType' object has no attribute 'start'"),
], ids=["list chain on a node slot", "enum on an optional slot"])
def test_artifact_with_slot_of_the_wrong_kind_fails_parse(grammar, mutate, text, message,
                                                         request):
    data = json.loads(request.getfixturevalue(grammar).compiled.to_json())
    prod = mutate(data)
    compiled = _load(data)
    with pytest.raises(SpecError, match=re.escape(
            "malformed artifact: production %d assembles its value from a slot of the "
            "wrong kind (%s)" % (prod, message))):
        parse(compiled, text)


def _set_id_kind(data, kind):
    data["ast"]["Expr::Id"][0][1] = kind


def _set_op_branch(data, branch):
    # Expr::BinOp1's `op` is the enum (Add:`+` | Sub:`-`)
    data["ast"]["Expr::BinOp1"][1][1][1][0] = branch


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d["ast"]["Expr::Id"].append(["x"]), "AST field \\['x'\\] is not"),
    (lambda d: _set_id_kind(d, ["nope", "id"]), "AST field kind"),
    (lambda d: _set_id_kind(d, ["seq", ["token", "id"]]), "AST field kind"),
    (lambda d: d["templates"]["Expr::Id"].append(["content"]), "print template item"),
    (lambda d: d["templates"]["Expr::Id"].append(["field", "nope"]),
     "print template field 'nope' has no kind"),
    (lambda d: _set_op_branch(d, ["Add"]), "enum branch \\['Add'\\] is not"),
    (lambda d: _set_id_kind(d, ["seq", ["token", "id"], "Z", [], "none", 0]),
     "sequence flavor 'Z' is not one of"),
    # Prog::Main's `stmts` is a sequence of Stmt with no trailing delimiter
    (lambda d: d["ast"]["Prog::Main"][0][1].__setitem__(4, "bogus"),
     "sequence trailing 'bogus' is not one of none, optional, required"),
    (lambda d: d["ast"]["Prog::Main"][0][1].__setitem__(4, None),
     "sequence trailing None is not one of"),
], ids=["malformed field entry", "unknown kind", "short seq kind", "content in a node template",
        "template field with no kind", "malformed enum branch", "unknown sequence flavor",
        "unknown trailing mode", "trailing mode not a string"])
def test_artifact_with_malformed_kind_or_template_rejected(calc_prog, mutate, message):
    # every variant's kinds and template are resolved when the artifact loads
    data = json.loads(calc_prog.compiled.to_json())
    mutate(data)
    with pytest.raises(SpecError, match="malformed artifact: " + message):
        _load(data)


def test_artifact_with_deeply_nested_kind_loads_or_is_rejected(calc_prog):
    # 900 options around Expr::Id's token kind: the plans are resolved in a
    # loop, so this loads (or the JSON decoder rejects it as too deep)
    data = json.loads(calc_prog.compiled.to_json())
    kind = ["token", "id"]
    for _ in range(900):
        kind = ["opt", kind, [["content"]], 0]
    _set_id_kind(data, kind)
    try:
        compiled = _load(data)
    except SpecError as e:
        assert e.message.startswith("malformed artifact: ")
    else:
        assert compiled.plans[("Expr", "Id")][1]["name"][0] == K_OPT


def test_variant_spelled_with_joined_names_is_rejected_by_both_walks(calc_prog):
    # ("Expr::Lit", "Int_") is not a key of plans, so it has no fields and
    # no template, as any other unknown variant; it is not looked up by its
    # `::`-joined key, Expr::Lit::Int_
    compiled, schema = calc_prog.compiled, derive_ast_schema(calc_prog.cfg)
    lit = Node(("Expr::Lit", "Int_"), ("val",), (TokenLeaf("int_lit", "42", 0, 2),), 0, 2)
    ident = Node(("Expr", "Id"), ("name",), (TokenLeaf("id", "x", 0, 1),), 0, 1)
    stmt = Node(("Stmt", "Assign"), ("x", "y"), (ident, lit), 0, 6)
    for root in (lit, stmt):
        with pytest.raises(SpecError, match="no template for variant Expr::Lit::Int_"):
            pretty_print(compiled, root)
        with pytest.raises(KeyError, match="Expr::Lit::Int_.val"):
            node_to_data_value(compiled, root)
        with pytest.raises(KeyError, match="Expr::Lit::Int_.val"):
            validate_node(compiled, schema, root)
    empty = Node(("Expr::Lit", "Int_"), (), (), 0, 0)
    with pytest.raises(SpecError, match="unknown type path Expr::Lit::Int_"):
        validate_node(compiled, schema, empty)


def test_artifact_with_shift_on_end_of_input_rejected(calc):
    data = _calc_artifact(calc)
    next(e for e in data["action"] if e[2][0] == "accept")[2] = ["shift", 0]
    with pytest.raises(SpecError, match="shifts the end of input"):
        _load(data)


def test_artifact_with_reduce_deeper_than_the_stack_rejected(calc):
    # the first production is reduced somewhere; 50 symbols is deeper than
    # any path of shifts and gotos to that state
    data = _calc_artifact(calc)
    data["prods"][0][1] = 50
    with pytest.raises(SpecError, match="reduces production 0 of length 50, but can "
                                        "be reached with a stack of 3"):
        _load(data)


def _main_dfa(data):
    lx = data["lexer"]
    return lx["modes"][lx["main_mode"]]


def _set_target(states, target):
    states[0][0][0][2] = target  # state 0's first transition


def _set_lo_above_hi(states):
    first = states[0][0][0]
    first[0] = first[1] + 1


def _set_accept(states, state, accept):
    states[state][2] = accept


@pytest.mark.parametrize("mutate,message", [
    (lambda st: _set_target(st, "1"), "is not an interval"),
    (lambda st: _set_target(st, len(st)), "is not an interval"),
    (_set_lo_above_hi, "is not an interval"),
    (lambda st: st[0].__setitem__(1, len(st)), "eof target"),
    (lambda st: _set_accept(st, 1, [1]), "is not null or \\[rule, token\\]"),
    (lambda st: _set_accept(st, 1, ["1", None]), "is not null or \\[rule, token\\]"),
    (lambda st: _set_accept(st, 1, [1, 2]), "is not null or \\[rule, token\\]"),
    (lambda st: _set_accept(st, 1, [99, None]), "with one of 5 rules"),
], ids=["non-int target", "target out of range", "lo above hi", "eof target out of range",
        "short accept", "non-int rule", "non-str token", "rule out of range"])
def test_artifact_with_malformed_lexer_row_rejected(calc, mutate, message):
    data = _calc_artifact(calc)
    states = _main_dfa(data)
    assert states[1][2] == [1, None] and len(data["lexer"]["actions"]["body"]) == 5
    mutate(states)
    with pytest.raises(SpecError, match="malformed artifact: mode body state [01]: .*" + message):
        _load(data)


def test_artifact_pushing_an_unknown_lexer_mode_rejected(calc):
    # raised a KeyError from the lexer when a match reached the rule
    data = _calc_artifact(calc)
    actions = data["lexer"]["actions"]["body"]
    rule = next(i for i, r in enumerate(actions) if r[0][0] == "push")
    actions[rule][0] = ["push", "nowhere"]
    with pytest.raises(SpecError, match="push to unknown lexer mode 'nowhere'"):
        _load(data)


def _set_rule(data, rule, actions):
    data["lexer"]["actions"]["body"][rule] = actions


# Up to "emit with an argument" these loaded, and parse on the first seven
# looped forever or raised a KeyError; the rest raised other errors.  Only
# load them: parsing one that loads again would hang the suite.
@pytest.mark.parametrize("mutate,message", [
    (lambda d: _set_rule(d, 1, []), "'body' neither consumes its match nor pops"),
    (lambda d: _set_rule(d, 1, [["push", "body"]]), "'body' neither consumes its match nor pops"),
    (lambda d: _set_rule(d, 1, [["push", "comment_single"], ["pop"]]),
     "'body' consumes nothing and leaves the mode stack as it found it"),
    (lambda d: _set_rule(d, 4, [["pass"]]), "eof rule in mode 'body' must pop"),
    (lambda d: _set_rule(d, 4, [["push", "body"], ["pop"], ["pass"]]),
     "'body' consumes nothing and leaves the mode stack as it found it"),
    (lambda d: _set_accept(_main_dfa(d), 0, [1, None]),
     "mode body has no start state, or its start state accepts"),
    (lambda d: d["lexer"].__setitem__("main_mode", "nowhere"),
     "main mode 'nowhere' is not a mode"),
    (lambda d: _set_rule(d, 0, [["emit", "x"]]), "lexer action \\['emit', 'x'\\] is not"),
    (lambda d: _set_rule(d, 0, [["push"]]), "lexer action \\['push'\\] is not"),
    (lambda d: _set_rule(d, 0, [["push", 1]]), "lexer action \\['push', 1\\] is not"),
    (lambda d: _set_rule(d, 0, [["skip"]]), "lexer action \\['skip'\\] is not"),
    (lambda d: _set_rule(d, 0, ["emit"]), "lexer action 'emit' is not"),
], ids=["empty list", "push only", "push then pop", "eof rule that does not pop",
        "eof rule that leaves the stack", "start state accepts", "unknown main mode",
        "emit with an argument", "push without a mode", "push to a non-str mode",
        "unknown op", "action not a list"])
def test_artifact_with_a_malformed_lexer_action_list_rejected(calc, mutate, message):
    data = _calc_artifact(calc)
    assert data["lexer"]["actions"]["body"][4] == [["pop"]]
    mutate(data)
    with pytest.raises(SpecError, match="malformed artifact: .*" + message):
        _load(data)


def test_action_rows_key_k1_by_terminal_and_k2_by_tuple(calc, ab_eps):
    assert calc.compiled.k == 1
    assert all(type(la) is str for row in calc.compiled.action_rows for la in row)
    assert ab_eps.compiled.k == 2
    assert all(type(la) is tuple and len(la) == 2
               for row in ab_eps.compiled.action_rows for la in row)


@pytest.mark.parametrize("text,message,bounds", [
    ("aaa", "Unexpected token: `a`", (1, 2)),
    ("aaaa", "Unexpected token: `a`", (1, 2)),
    ("", "Unexpected end of input", (0, 0)),
])
def test_expected_at_k2_lists_first_terminals_of_the_state(ab_eps, text, message, bounds):
    # at k = 2 a row is keyed by terminal pairs: `expected` lists the first
    # terminals of the failing state's keys, sorted (each failing state here
    # acts on `a` then `a` or the end of input)
    err = parse(ab_eps.compiled, text).err
    assert (err.message, err.bounds) == (message, bounds)
    assert err.expected == ("`a`",)


# ---------------------------------------------------------------------------
# The cyclic collector is paused during a parse

@pytest.mark.parametrize("text", ["x = 1 + 2", "x = 1 @", "x = (1"],
                         ids=["success", "lex error", "parse error"])
def test_parse_reenables_collector(calc, text):
    import gc

    assert gc.isenabled()
    res = parse(calc.compiled, text)
    assert res.is_success() == (text == "x = 1 + 2")
    assert gc.isenabled()


def test_parse_keeps_disabled_collector_disabled(calc):
    import gc

    gc.disable()
    try:
        assert parse(calc.compiled, "x = 1 + 2").is_success()
        assert not parse(calc.compiled, "x = (1").is_success()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_parse_reenables_collector_after_exception(calc):
    import gc

    with pytest.raises(SpecError):
        parse(calc.compiled, "x = 1", start="NoSuchMain")
    data = _calc_artifact(calc)
    data["goto"] = [g for g in data["goto"] if g[1] == "t"]
    with pytest.raises(SpecError, match="no goto"):
        parse(_load(data), "x = 1")
    assert gc.isenabled()


def test_pause_allocates_nothing_once_the_collector_is_back_on():
    # an allocation after the pause turns the collector back on starts a
    # collection over everything the pause let live; the 3-tuples drain the
    # free list a `with` on the pause's lock would take its exit's argument
    # tuple from
    import gc

    from langcc.artifact import collector_paused

    marks, starts = [], []

    def note(phase, _info):
        if phase == "start":
            starts.append(len(marks))

    assert gc.isenabled()
    gc.callbacks.append(note)
    try:
        with collector_paused:
            kept = ([[] for _ in range(20_000)], [(i, i, i) for i in range(5_000)])
            marks.append("block ends")
        marks.append("with ends")
    finally:
        gc.callbacks.remove(note)
    assert len(kept[0]) == 20_000
    assert 1 not in starts


# ---------------------------------------------------------------------------
# Value types keep dataclass equality, hashing and repr

def test_value_types_equality_hash_repr(calc):
    from langcc.runtime import EnumVal

    leaf = TokenLeaf("id", "x", 1, 2)
    assert repr(leaf) == "TokenLeaf(terminal='id', text='x', start=1, end=2)"
    enum = EnumVal("Add", 1, 2)
    assert repr(enum) == "EnumVal(label='Add', start=1, end=2)"
    seq = SeqVal((leaf,), False, 1, 2)
    assert repr(seq) == ("SeqVal(items=(%r,), trailing=False, start=1, end=2)" % (leaf,))
    # a lexed token is the same class as a tree's leaf
    (tok,) = lex(calc.compiled.lexer, "7").tokens
    assert repr(tok) == "TokenLeaf(terminal='int_lit', text='7', start=0, end=1)"

    values = [leaf, enum, seq, tok]
    copies = [TokenLeaf("id", "x", 1, 2), EnumVal("Add", 1, 2),
              SeqVal((TokenLeaf("id", "x", 1, 2),), False, 1, 2),
              TokenLeaf("int_lit", "7", 0, 1)]
    for i, v in enumerate(values):
        for j, w in enumerate(copies):
            assert (v == w) == (i == j) and (v != w) == (i != j), (v, w)
    # same fields, different types: unequal, as between two dataclasses
    assert EnumVal("x", 1, 2) != TokenLeaf("x", "x", 1, 2) and leaf != ("id", "x", 1, 2)
    assert leaf != TokenLeaf("id", "y", 1, 2) and seq != SeqVal((leaf,), True, 1, 2)
    assert leaf != TokenLeaf("id", "x", 1, 3)

    table = {v: i for i, v in enumerate(values)}
    assert [table[w] for w in copies] == list(range(len(values)))
    # the tuple hash of the fields, nested trees hashed in their place
    assert hash(tok) == hash(("int_lit", "7", 0, 1)) and hash(leaf) == hash(("id", "x", 1, 2))
    assert hash(enum) == hash(("Add", 1, 2))
    assert hash(seq) == hash(((("id", "x", 1, 2),), False, 1, 2))


def test_overlapping_parses_in_threads_reenable_collector(calc):
    # the collector is process-wide: however the parses interleave, it is on
    # once they have all returned
    import gc
    import sys
    import threading

    errors = []

    def work():
        try:
            for i in range(40):
                assert parse(calc.compiled, "x = %d * (2 + y)" % i).is_success()
        except Exception as e:  # reported by the assertion below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert gc.isenabled()


def test_collector_reenabled_when_the_parse_that_disabled_it_returns(calc, monkeypatch):
    # parse B starts while parse A runs and ends first: the collector stays
    # off until A, the call that found it on, returns
    import gc

    from langcc import runtime

    seen = []
    lex = runtime.lex_lists

    def lex_with_inner_parse(spec, text):
        if text == "x = 1":
            monkeypatch.setattr(runtime, "lex_lists", lex)
            assert parse(calc.compiled, "y = 2").is_success()
            seen.append(gc.isenabled())
        return lex(spec, text)

    monkeypatch.setattr(runtime, "lex_lists", lex_with_inner_parse)
    assert gc.isenabled()
    assert parse(calc.compiled, "x = 1").is_success()
    assert seen == [False]
    assert gc.isenabled()
