"""Seeded input generators for the calc workloads, and the document record
every workload checks its parses against.

The generator builds each statement as an expression tree, computes its
value itself and renders it with the fewest parentheses the `calc_prog`
precedence table allows (plus some redundant ones).  The library only ever
sees the rendered text; the benchmark evaluates the parsed AST and compares
the result with the values recorded here.

Arithmetic is modulo MOD so values stay small; `/` always divides by a
non-zero literal and `^` always has a literal exponent of at most 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

MOD = 1_000_003

# Precedence levels of calc_prog.lang's prec stanza, tightest last.
ADD, MUL, NEG, POW, ATOM = 1, 2, 3, 4, 5
LEVEL = {"+": ADD, "-": ADD, "*": MUL, "/": MUL, "^": POW}


def apply_binop(op: str, a: int, b: int) -> int:
    if op == "+":
        return (a + b) % MOD
    if op == "-":
        return (a - b) % MOD
    if op == "*":
        return (a * b) % MOD
    if op == "/":
        return (a // b) % MOD
    if op == "^":
        return pow(a, b, MOD)
    raise ValueError(op)


def apply_neg(a: int) -> int:
    return (-a) % MOD


@dataclass
class Doc:
    """One input document: its text and what the benchmark checks it against."""

    name: str
    kind: str              # "lines", "oneline", "deep" or "lang"
    text: str
    tokens: int            # tokens the lexer must emit
    max_line: int          # longest line, in bytes
    expect: object         # calc: each statement's value; lang: the spec
    canonical: Optional[str] = None   # what the printer must produce


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.env: List[Tuple[str, int]] = []
        self.next_var = 0

    def atom(self) -> Tuple[str, int, int, int]:
        """Returns (text, level, value, token count)."""
        rng = self.rng
        if self.env and rng.random() < 0.5:
            name, val = rng.choice(self.env)
            return name, ATOM, val, 1
        val = rng.randrange(1000)
        return str(val), ATOM, val % MOD, 1

    def expr(self, ops: int) -> Tuple[str, int, int, int]:
        rng = self.rng
        if ops == 0:
            return self.atom()
        r = rng.random()
        if r < 0.08:
            t, lvl, v, n = self.expr(ops - 1)
            if lvl < NEG:
                t, n = "(" + t + ")", n + 2
            return "-" + t, NEG, apply_neg(v), n + 1
        if r < 0.14:
            t, _lvl, v, n = self.expr(ops - 1)
            return "(" + t + ")", ATOM, v, n + 2
        op = rng.choice("+-*/^" if r < 0.3 else "+-*")
        if op in "/^":
            left = self.expr(ops - 1)
            rval = rng.randrange(1, 10) if op == "/" else rng.randrange(4)
            right = (str(rval), ATOM, rval, 1)
        else:
            split = rng.randrange(ops)
            left, right = self.expr(split), self.expr(ops - 1 - split)
        p = LEVEL[op]
        lt, ll, lv, ln = left
        rt, rl, rv, rn = right
        if ll < p:
            lt, ln = "(" + lt + ")", ln + 2
        if rl <= p:
            rt, rn = "(" + rt + ")", rn + 2
        sep = "" if op == "^" else " "
        return lt + sep + op + sep + rt, p, apply_binop(op, lv, rv), ln + rn + 1

    def statement(self) -> Tuple[str, int, int]:
        rng = self.rng
        text, _lvl, val, n = self.expr(rng.choice((0, 1, 1, 2, 2, 3)))
        if rng.random() < 0.8:
            if self.env and rng.random() < 0.3:
                name = rng.choice(self.env)[0]
            else:
                name = "v%d" % self.next_var
                self.next_var += 1
            self.env = [(k, v) for k, v in self.env if k != name]
            self.env.append((name, val))
            return "%s = %s" % (name, text), val, n + 2
        return text, val, n


def _statements(rng: random.Random, count: int):
    g = _Gen(rng)
    return [g.statement() for _ in range(count)]


def _doc(name: str, kind: str, stmts, sep: str) -> Doc:
    text = sep.join(s for s, _v, _n in stmts)
    canonical = ";\n".join(s for s, _v, _n in stmts)
    tokens = sum(n for _s, _v, n in stmts) + len(stmts) - 1
    return Doc(name, kind, text, tokens, longest_line(text), [v for _s, v, _n in stmts],
               canonical)


def longest_line(text: str) -> int:
    return max(len(line) for line in text.split("\n"))


def line_corpus(seed: int, docs: int, smallest: int, largest: int) -> List[Doc]:
    """`docs` programs of one statement per line, sizes spread log-uniformly
    from `smallest` to `largest` statements.  The sizes are fixed; the seed
    chooses the statements and the order of the documents."""
    rng = random.Random(seed)
    sizes = [round(smallest * (largest / smallest) ** (i / max(docs - 1, 1)))
             for i in range(docs)]
    rng.shuffle(sizes)
    return [_doc("lines%03d" % i, "lines", _statements(rng, n), ";\n")
            for i, n in enumerate(sizes)]


def shape_corpus(seed: int, line_sizes, depths) -> List[Doc]:
    """Programs with every statement on one line, and single statements
    nested `depth` parentheses deep."""
    rng = random.Random(seed)
    out = [_doc("oneline%d" % n, "oneline", _statements(rng, n), "; ")
           for n in line_sizes]
    for d in depths:
        val = rng.randrange(1, 1000)
        name = "d%d" % rng.randrange(1000)
        text = "%s = %s%d%s" % (name, "(" * d, val, ")" * d)
        out.append(Doc("deep%d" % d, "deep", text, 2 * d + 3, len(text), [val], text))
    return out
