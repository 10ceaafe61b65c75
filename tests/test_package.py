"""The package namespace: names exported from one table and imported on
first use, so parsing with an artifact loads none of the generator."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import langcc
from langcc import datacc, derive_ast_schema

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# the modules that compile a `.lang` source, and the command-line drivers
GENERATOR = {"langcc.compiled", "langcc.grammar", "langcc.lr", "langcc.conflicts",
             "langcc.meta_frontend", "langcc.bootstrap", "langcc.cli"}


def _fresh_python(script: str, *args, cwd) -> str:
    """What a new interpreter running script prints, with this checkout's
    package on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True).stdout


_PARSE_WITH_ARTIFACT = r"""
import json, sys
import langcc
with open(sys.argv[1], encoding="utf-8") as f:
    compiled = langcc.CompiledLang.from_json(f.read())
with open(sys.argv[2], encoding="utf-8") as f:
    schema = langcc.parse_data_spec(f.read())
res = langcc.parse(compiled, "x = 1 + 2;\ny = x * 3")
print(json.dumps({
    "printed": langcc.pretty_print(compiled, res.result),
    "valid": langcc.validate_node(compiled, schema, res.result),
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "langcc"),
}))
"""


def test_parsing_with_an_artifact_loads_no_generator_module(calc_prog, tmp_path):
    clang, schema = tmp_path / "calc_prog.clang", tmp_path / "calc_prog.ast.schema"
    clang.write_text(calc_prog.compiled.to_json(), encoding="utf-8")
    schema.write_text(datacc.schema_render(derive_ast_schema(calc_prog.cfg)), encoding="utf-8")
    out = json.loads(_fresh_python(_PARSE_WITH_ARTIFACT, str(clang), str(schema), cwd=tmp_path))
    assert out["printed"] == "x = 1 + 2;\ny = x * 3"
    assert out["valid"] is True
    assert set(out["modules"]) & GENERATOR == set()
    assert set(out["modules"]) == {"langcc", "langcc.artifact", "langcc.runtime",
                                   "langcc.printer", "langcc.lexer", "langcc.datacc",
                                   "langcc.spec_ast"}


def test_import_langcc_imports_none_of_its_modules(tmp_path):
    out = _fresh_python("import sys, langcc\n"
                        "print(sorted(m for m in sys.modules if m.startswith('langcc.')))",
                        cwd=tmp_path)
    assert out == "[]\n"


def test_star_import_and_modules_resolve_in_a_fresh_interpreter(tmp_path):
    out = _fresh_python("import langcc\n"
                        "print(langcc.datacc.__name__, langcc.artifact.__name__)\n"
                        "names = {}\n"
                        "exec('from langcc import *', names)\n"
                        "print(sorted(set(names) - {'__builtins__'}) == sorted(langcc.__all__))",
                        cwd=tmp_path)
    assert out == "langcc.datacc langcc.artifact\nTrue\n"


def test_each_exported_name_is_its_modules_object():
    assert len(set(langcc.__all__)) == len(langcc.__all__)
    for name in langcc.__all__:
        module = importlib.import_module("langcc." + langcc._EXPORTS[name])
        assert getattr(langcc, name) is getattr(module, name), name
        assert name in dir(langcc)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        langcc.nope
    assert not hasattr(langcc, "Lexer")
