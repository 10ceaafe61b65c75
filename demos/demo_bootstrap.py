#!/usr/bin/env python3
"""Self-hosting: the metalanguage is described in itself.

grammars/meta.lang is a .lang file defining the .lang syntax. The parser
generated from it is committed as src/langcc/meta.clang, and it is the
parser every .lang file goes through, meta.lang included. Compiling
meta.lang afresh must reproduce that artifact byte for byte, and the fresh
parser must read meta.lang and every other grammar, structure for
structure, as the committed one does.
"""

import pathlib
import sys
from importlib import resources

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import langcc

GRAMMARS = pathlib.Path(__file__).resolve().parent.parent / "grammars"

if __name__ == "__main__":
    src = (GRAMMARS / "meta.lang").read_text()
    print("meta.lang:", len(src.splitlines()), "lines")

    result = langcc.compile_lang(src)
    print("compiled at k=%d, %d states, %d conflicts"
          % (result.k_used, len(result.tables.states), len(result.tables.conflicts)))
    committed = resources.files("langcc").joinpath("meta.clang").read_text(encoding="utf-8")
    print("fresh artifact equals the committed meta.clang:",
          result.compiled.to_json() == committed)

    ok, detail = langcc.bootstrap_check(src)
    print("bootstrap fixpoint:", ok, "(%s)" % detail)

    # the fresh parser reads every other fixture grammar as meta.clang does
    for name in ["calc.lang", "parens.lang", "sum_list.lang"]:
        other = (GRAMMARS / name).read_text()
        node = langcc.parse(result.compiled, other).result
        same = langcc.langspec_from_node(node, other) == langcc.parse_lang_spec(other)
        print("fresh parser agrees with meta.clang on %-14s %s" % (name, same))
