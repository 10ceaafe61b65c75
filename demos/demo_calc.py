#!/usr/bin/env python3
"""A tiny calculator on top of the compiled calc grammar.

Compiles grammars/calc.lang, then evaluates expressions and statements,
using node source spans for error blame, e.g. pointing at the exact
division operator that divided by zero.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import langcc

GRAMMAR = pathlib.Path(__file__).resolve().parent.parent / "grammars" / "calc.lang"


class CalcError(Exception):
    def __init__(self, desc, blame_bounds):
        super().__init__(desc)
        self.desc = desc
        self.blame = blame_bounds


def expr_eval(e, env):
    if langcc.node_downcast(COMPILED, e, "Expr::Lit"):
        return int(e.field("val").text)
    if langcc.node_downcast(COMPILED, e, "Expr::Id"):
        name = e.field("name").text
        if name not in env:
            raise CalcError("Undefined variable: %s" % name, (e.start, e.end))
        return env[name]
    if langcc.node_downcast(COMPILED, e, "Expr::Paren"):
        return expr_eval(e.field("x"), env)
    if langcc.node_downcast(COMPILED, e, "Expr::UnaryPre"):
        return -expr_eval(e.field("x"), env)
    op = e.field("op")
    x = expr_eval(e.field("x"), env)
    y = expr_eval(e.field("y"), env)
    if op.label == "Add":
        return x + y
    if op.label == "Sub":
        return x - y
    if op.label == "Mul":
        return x * y
    if op.label == "Div":
        if y == 0:
            # the enum label carries the operator token's span
            raise CalcError("Division by zero", (op.start, op.end))
        return x // y
    if op.label == "Pow":
        return x ** y
    raise AssertionError(op.label)


def stmt_eval(stmt, env):
    if langcc.node_downcast(COMPILED, stmt, "Stmt::Assign"):
        target = stmt.field("x")
        value = expr_eval(stmt.field("y"), env)
        env[target.field("name").text] = value
        return value
    return expr_eval(stmt.field("x"), env)


def run_line(line, env):
    parse = langcc.parse(COMPILED, line)
    if not parse.is_success():
        print("Parse error: %s" % parse.err)
        return
    try:
        print(stmt_eval(parse.result, env))
    except CalcError as err:
        print("Error: %s" % err.desc)
        print(langcc.location_fmt_str(line, err.blame))


if __name__ == "__main__":
    result = langcc.compile_lang(GRAMMAR.read_text())
    assert result.ok
    COMPILED = result.compiled
    env = {}
    demo_lines = [
        "x = 6 * 7",
        "x + 1",
        "7 + (5 + / 3)",
        "4 / (3 - (15 / 5))",
        "-2^3 + x",
    ]
    for line in demo_lines:
        print("> %s" % line)
        run_line(line, env)
        print()
