import contextlib
import pathlib
import sys

import pytest

from langcc import compile_lang

GRAMMARS = pathlib.Path(__file__).resolve().parent.parent / "grammars"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def load_grammar(name: str) -> str:
    return (GRAMMARS / name).read_text(encoding="utf-8")


@contextlib.contextmanager
def recursion_limit(limit):
    """Run the body at the given recursion limit, for the recursive
    references and dataclass equality on trees deeper than the default."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture(scope="session")
def calc():
    return compile_lang(load_grammar("calc.lang"))


@pytest.fixture(scope="session")
def calc_noprec():
    return compile_lang(load_grammar("calc_noprec.lang"))


@pytest.fixture(scope="session")
def ab_eps():
    return compile_lang(load_grammar("ab_eps.lang"))


@pytest.fixture(scope="session")
def parens():
    return compile_lang(load_grammar("parens.lang"))


@pytest.fixture(scope="session")
def sum_list():
    return compile_lang(load_grammar("sum_list.lang"))


@pytest.fixture(scope="session")
def calc_prog():
    return compile_lang(load_grammar("calc_prog.lang"))


@pytest.fixture(scope="session")
def meta():
    return compile_lang(load_grammar("meta.lang"))


@pytest.fixture(scope="session")
def rd_tiny():
    return compile_lang(load_grammar("rd_tiny.lang"))
