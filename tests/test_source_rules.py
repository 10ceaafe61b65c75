"""Rules the package source keeps."""

import ast
import dataclasses
import importlib
import pathlib
from graphlib import CycleError, TopologicalSorter

import pytest

from langcc.spec_ast import Tree

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "langcc"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check the package relies
    # on has to raise an exception instead
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_pure_python_json_indent():
    # json's C encoder does not indent: a json.dumps, json.dump or
    # JSONEncoder given an indent encodes in pure Python, which takes about
    # 2.7 times as long on meta.clang's tree as artifact._canonical_json, the
    # writer of the indented canonical text (Python 3.11, median of 15)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in ("dumps", "dump", "JSONEncoder") and any(
                    kw.arg == "indent" for kw in node.keywords):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def _module_imports(tree):
    """The package modules a module imports by relative import, at any
    level of its body."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [a.name for a in node.names])
    return out


def test_no_function_level_imports():
    # every import sits at the top of its module
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {"%s:%d" % (path.name, n.lineno) for n in ast.walk(fn)
                          if isinstance(n, (ast.Import, ast.ImportFrom))}
    assert found == set()


def test_package_imports_are_acyclic():
    # the graph of relative imports between package modules, module-level
    # and function-level alike, has no cycle
    graph = {path.stem: _module_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             for path in sorted(SRC.glob("*.py"))}
    assert graph
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as e:
        pytest.fail("import cycle: %s" % " -> ".join(e.args[1]))


# The modules that loading an artifact and parsing, printing and checking
# with it need, and the generator modules none of them may import.
ARTIFACT_MODULES = ["artifact.py", "runtime.py", "printer.py", "lexer.py", "datacc.py",
                    "spec_ast.py"]
GENERATOR_MODULES = {"compiled", "grammar", "lr", "conflicts", "meta_frontend", "bootstrap",
                     "cli"}


def test_artifact_modules_import_no_generator_module():
    found = []
    for module in ARTIFACT_MODULES:
        path = SRC / module
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s: %s" % (module, n) for n in sorted(_module_imports(tree))
                  if n in GENERATOR_MODULES]
    assert found == []


def test_only_the_pause_object_switches_the_collector():
    # the cyclic collector is process-wide, and overlapping pauses keep it
    # right only through artifact.collector_paused's lock and count: no
    # other code turns it on or off or asks whether it is on, and none
    # opens or closes the pause by hand, outside a with or a decorator
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        owner = set()
        if path.name == "artifact.py":
            owner = {id(n) for c in tree.body
                     if isinstance(c, ast.ClassDef) and c.name == "_CollectorPause"
                     for n in ast.walk(c)}
            assert owner, "artifact.py: no class _CollectorPause"
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            f = node.func
            if f.attr in ("__enter__", "__exit__") or (
                    f.attr in ("disable", "enable", "isenabled")
                    and isinstance(f.value, ast.Name) and f.value.id == "gc"
                    and id(node) not in owner):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


# The tree walks that run on explicit stacks, so that trees of any depth
# (printed, checked, or read as `.lang` declarations, token patterns
# validated and compiled) pass through them: none may call itself, directly
# or through another function or method of its module.  (Recursion through
# an operator or a builtin, such as == or hash() on a nested tree, is not a
# call this check sees.)
STACK_WALKS = {
    "artifact.py": ["_field_plan", "_entries"],
    "lexer.py": ["Nfa.add_regex", "emit_constituents", "compile_lexer"],
    "meta_frontend.py": ["_convert", "_conv_regex", "_conv_pe", "_flatten_chain",
                         "langspec_from_node", "_regex_refs", "_alias_diags", "validate_spec"],
    "printer.py": ["pretty_print"],
    "spec_ast.py": ["Tree.__eq__", "Tree.__hash__", "Tree.__repr__", "_repr_parts", "render",
                    "render_regex", "_regex_parts", "render_parse_expr", "_parse_expr_parts"],
    "runtime.py": ["node_to_data_value", "validate_node", "render_node", "_node_parts",
                   "Node.__repr__"],
    "datacc.py": ["conforms", "_check_values", "make_value", "substitute_field",
                  "value_hash", "debug_print", "_value_parts", "DataValue.__hash__",
                  "DataValue.__repr__", "_DataParser.parse", "_DataParser.parse_type",
                  "_DataParser.parse_body", "render_type", "schema_render", "_body_parts",
                  "_subst", "_TypeNode.__repr__"],
    "cli.py": ["_count_cases"],
}


def _call_graph(tree):
    """{qualified name: names it may call} for the module's functions and
    methods, a nested function's calls counted as its enclosing one's."""
    classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    defs = {}
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[n.name] = (n, None)
        elif isinstance(n, ast.ClassDef):
            for m in n.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs["%s.%s" % (n.name, m.name)] = (m, n.name)
    graph = {}
    for qual, (fn, cls) in defs.items():
        inner = {n.name for n in ast.walk(fn)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n is not fn}
        calls = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                if f.id in inner:
                    calls.add(qual)
                elif f.id in classes:
                    calls.add(f.id + ".__init__")
                else:
                    calls.add(f.id)
            elif isinstance(f, ast.Attribute):
                # x.m(...) may be any module class's method m
                calls.update(q for q in defs if q.endswith("." + f.attr))
        graph[qual] = {c for c in calls if c in defs}
    return graph


def test_tree_walks_do_not_recurse():
    found = []
    for module, walks in STACK_WALKS.items():
        path = SRC / module
        graph = _call_graph(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for walk in walks:
            assert walk in graph, "%s: no function %s" % (module, walk)
            seen, todo = set(), list(graph[walk])
            while todo:
                name = todo.pop()
                if name == walk:
                    found.append("%s: %s" % (module, walk))
                    break
                if name not in seen:
                    seen.add(name)
                    todo.extend(graph[name])
    assert found == []


def test_tree_types_list_their_parts_in_their_own_slots():
    # Tree.__init__, == and hash read a tree's parts from its class's own
    # __slots__ (or COMPARED), and a class that declares no slots gives its
    # instances a __dict__; a dataclass tree would list its parts twice
    for path in sorted(SRC.glob("*.py")):
        importlib.import_module("langcc" if path.stem == "__init__" else "langcc." + path.stem)
    checked, found, todo = [], [], [Tree]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("langcc."):
                checked.append(cls.__qualname__)
                if "__slots__" not in vars(cls) or dataclasses.is_dataclass(cls):
                    found.append("%s.%s" % (cls.__module__, cls.__qualname__))
    assert {"RLit", "ListExpr", "TRef", "Sum", "DataValue", "Node", "TokenLeaf"} <= set(checked)
    assert found == []
