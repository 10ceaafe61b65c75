"""Rules the package source keeps."""

import ast
import pathlib

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


# The tree walks that run on explicit stacks, so that trees of any depth
# (printed, checked, or read as `.lang` declarations) pass through them:
# none may call itself, directly or through another function or method of
# its module.  (Recursion through an operator, such as == on nested nodes
# inside Node.__eq__, is not a call this check sees.)
STACK_WALKS = {
    "bootstrap.py": ["_conv_regex", "_conv_pe", "_flatten_chain", "langspec_from_node"],
    "printer.py": ["pretty_print"],
    "runtime.py": ["node_to_data_value", "validate_node", "render_node",
                   "Node.__eq__", "Node.__hash__", "Node.__repr__"],
    "datacc.py": ["conforms", "_check_values", "make_value", "substitute_field",
                  "value_hash", "debug_print",
                  "DataValue.__eq__", "DataValue.__hash__", "DataValue.__repr__"],
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
