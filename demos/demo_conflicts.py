#!/usr/bin/env python3
"""What an LR conflict report looks like.

Compiles the calc grammar with its precedence stanza removed: the grammar
is ambiguous, and every conflict is explained by a shortest confusing input
pair instead of a raw shift/reduce dump.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import langcc

GRAMMARS = pathlib.Path(__file__).resolve().parent.parent / "grammars"

if __name__ == "__main__":
    result = langcc.compile_lang((GRAMMARS / "calc_noprec.lang").read_text())
    print("conflict-free:", result.ok)
    print("raw conflict sites:", len(result.tables.conflicts))
    print()
    exemplars = langcc.trace_all(result.tables)
    print(langcc.render_conflict_report(exemplars))
    print("With the prec stanza (grammars/calc.lang) the same grammar")
    print("compiles cleanly at k=1.")
