"""langcc: a parser-generator toolchain.

Compiles declarative `.lang` language specifications into lexer DFAs, LR(k)
parse tables, generic ASTs with source positions, and round-tripping
pretty-printers; explains LR conflicts with shortest confusing-input-pair
exemplars.  The companion datacc tool compiles `.data` algebraic datatype
specifications.

The exported names are imported from their modules on first use (PEP 562),
so loading an artifact and parsing with it imports none of the generator.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "artifact": ("CompiledLang",),
    "bootstrap": ("bootstrap_check",),
    "cli": ("run_compile_tests",),
    "compiled": ("CompileResult", "compile_lang"),
    "conflicts": ("ConflictExemplar", "render_conflict_report", "trace_all", "trace_conflict"),
    "datacc": ("DataValue", "DatatypeSchema", "conforms", "debug_print", "downcast", "make_value",
               "parse_data_spec", "schema_render", "substitute_field", "value_hash"),
    "grammar": ("Cfg", "derive_ast_schema", "dump_grammar", "expand_instances", "lower_grammar",
                "lower_precedence"),
    "lexer": ("CompiledLexer", "LexAmbiguity", "LexError", "compile_lexer", "lex",
              "token_bounds_to_linecol"),
    "lr": ("LrTables", "build_lr", "dump_lr", "first_k"),
    "meta_frontend": ("langspec_from_node", "parse_lang_spec", "validate_spec"),
    "printer": ("pretty_print", "roundtrip_check"),
    "runtime": ("Node", "ParseError", "ParseResult", "location_fmt_str", "node_downcast", "parse",
                "render_node", "validate_node"),
    "spec_ast": ("LangSpec", "SpecError", "render_spec"),
}.items() for name in names}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """An exported name, imported from its module and kept in the package
    on first use, or one of the package's modules, imported."""
    module = _EXPORTS.get(name)
    if module is not None:
        value = globals()[name] = getattr(importlib.import_module("." + module, __name__), name)
        return value
    if name in _EXPORTS.values():
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
