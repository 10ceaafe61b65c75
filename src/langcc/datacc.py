"""datacc: declarative algebraic datatypes with a value layer.

Parses `.data` specifications into a DatatypeSchema (named product and sum
types, enums as sums of empty products, type parameters) and provides
schema-checked immutable values with downcasting, field substitution,
deterministic debug printing, and cached value-based SHA-256 hashing.
Type expressions, schema bodies (Product, Sum) and values are spec_ast.Tree
types, so they compare, hash and print at any depth.

The `.data` surface syntax:

    data Color { Red; Green; Blue; }
    data Pair[T] { fst: T; snd: T; }
    data Expr {
        Lit { val: string; }
        Id { name: string; }
    }

Builtins: integer, string, boolean, [T] (sequence), T? (option).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .spec_ast import Loc, SpecError, Tree, joined, quote_text, render


# ---------------------------------------------------------------------------
# Schema model

class _TypeNode(Tree):
    """Type expressions print as their rendered text."""

    __slots__ = ()

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__name__, render_type(self))


@dataclass(frozen=True, eq=False, repr=False)
class TRef(_TypeNode):
    name: str
    args: Tuple["TypeExpr", ...] = ()


@dataclass(frozen=True, eq=False, repr=False)
class TSeq(_TypeNode):
    elem: "TypeExpr"


@dataclass(frozen=True, eq=False, repr=False)
class TOpt(_TypeNode):
    elem: "TypeExpr"


TypeExpr = Union[TRef, TSeq, TOpt]

BUILTINS = ("integer", "string", "boolean")


@dataclass(frozen=True, eq=False, repr=False)
class Product(Tree):
    fields: Tuple[Tuple[str, TypeExpr], ...]


@dataclass(frozen=True, eq=False, repr=False)
class Sum(Tree):
    cases: Tuple[Tuple[str, "TypeDef"], ...]

    def is_enum(self) -> bool:
        return all(isinstance(d, Product) and not d.fields for _n, d in self.cases)


TypeDef = Union[Product, Sum]


class DatatypeSchema(Tree):
    """The types of a schema in source order, each with its body, and the
    parameters of each.  Its lookups are built once, here: each type name's
    definition and parameters (the last definition and the first parameters
    of a repeated name, which only a schema built by hand can have), and
    the check plans that `conforms` fills in as it meets type paths.  It
    compares, hashes and prints by its types and parameters."""

    __slots__ = ("types", "type_params", "_defs", "_params", "_plans")
    COMPARED = ("types", "type_params")

    def __init__(self, types: Tuple[Tuple[str, TypeDef], ...],
                 type_params: Tuple[Tuple[str, Tuple[str, ...]], ...]):
        self.types = types
        self.type_params = type_params
        self._defs: Dict[str, TypeDef] = dict(types)
        self._params: Dict[str, Tuple[str, ...]] = dict(reversed(type_params))
        self._plans: dict = {}  # type path -> check plan, see _case_plan

    def type_map(self) -> Mapping[str, TypeDef]:
        return MappingProxyType(self._defs)

    def params_of(self, name: str) -> Tuple[str, ...]:
        return self._params.get(name, ())

    def resolve_path(self, path: Tuple[str, ...]) -> Optional[TypeDef]:
        """Resolve a dotted case path like ("Expr", "Lit", "Int_")."""
        node = self._defs.get(path[0]) if path else None
        for part in path[1:]:
            if not isinstance(node, Sum):
                return None
            node = next((cdef for cname, cdef in node.cases if cname == part), None)
        return node


# ---------------------------------------------------------------------------
# Parsing

_PUNCT = ["{", "}", "[", "]", ";", ":", ",", "?"]


def _scan_data(source: str):
    toks = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        loc = Loc(line, col)
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(("id", source[i:j], loc))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(("punct", ch, loc))
            col += 1
            i += 1
            continue
        raise SpecError("unexpected character %r in .data source" % ch, loc)
    toks.append(("eof", "", Loc(line, col)))
    return toks


class _DataParser:
    """Reads a `.data` source to its schema.  Each name is checked where it
    is declared and each type reference once all types are read, so a
    reference may name a type declared after it.  A syntax error is raised
    where it is met; of a source that parses, the first fault in source
    order is raised.  Each error carries the Loc of the token at fault."""

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0  # never past the eof token, which is never read
        self.fault: Optional[SpecError] = None  # of the faults noted, the first in the source
        # each type reference: its name token, its arguments (filled in as
        # they are read), the parameters in scope and the field it is in
        self.refs: list = []

    def at(self, punct: str) -> bool:
        """Whether the next token is `punct`; if it is, it is read."""
        if self.toks[self.pos][:2] == ("punct", punct):
            self.pos += 1
            return True
        return False

    def expect(self, kind, text=None):
        t = self.toks[self.pos]
        if t[0] != kind or (text is not None and t[1] != text):
            raise SpecError("expected %r, found %r" % (text or kind, t[1] or "<eof>"), t[2])
        self.pos += 1
        return t

    def note(self, message: str, loc: Loc):
        """A fault; the first in source order is the one kept."""
        if self.fault is None or (loc.line, loc.col) < (self.fault.loc.line, self.fault.loc.col):
            self.fault = SpecError(message, loc)

    def parse(self) -> DatatypeSchema:
        types, params, declared = [], [], set()
        while self.toks[self.pos][0] != "eof":
            t = self.expect("id")
            if t[1] != "data":
                raise SpecError("expected 'data', found %r" % t[1], t[2])
            t = self.expect("id")
            name = t[1]
            if name in declared:
                self.note("duplicate type name %r" % name, t[2])
            declared.add(name)
            ps: List[str] = []
            if self.at("["):
                while True:
                    t = self.expect("id")
                    if t[1] in ps:
                        self.note("duplicate type parameter %r in %s" % (t[1], name), t[2])
                    ps.append(t[1])
                    if not self.at(","):
                        break
                self.expect("punct", "]")
            types.append((name, self.parse_body(name, ps)))
            params.append((name, tuple(ps)))
        schema = DatatypeSchema(tuple(types), tuple(params))
        for t, args, ps, where in self.refs:
            name, n, want = t[1], len(args), schema._params.get(t[1])
            if name in ps:
                if n:
                    self.note("type parameter %r cannot take arguments (%s)" % (name, where), t[2])
            elif name in BUILTINS:
                if n:
                    self.note("builtin %r takes no arguments (%s)" % (name, where), t[2])
            elif want is None:
                self.note("unresolved type reference %r (%s)" % (name, where), t[2])
            elif n != len(want):
                self.note("type %r expects %d argument(s), got %d (%s)"
                          % (name, len(want), n, where), t[2])
        if self.fault is not None:
            raise self.fault
        return schema

    def parse_body(self, ctx_name, params) -> TypeDef:
        """A `{ ... }` body with case bodies nested to any depth, read with an
        explicit stack of the open bodies: each one's dotted name, the case
        name it is the body of, its fields and cases so far, and their
        names."""
        self.expect("punct", "{")
        open_bodies = [(ctx_name, None, [], [], set())]
        while True:
            ctx_name, case_name, fields, cases, names = open_bodies[-1]
            if self.at("}"):
                body = Sum(tuple(cases)) if cases else Product(tuple(fields))
                open_bodies.pop()
                if not open_bodies:
                    return body
                open_bodies[-1][3].append((case_name, body))
                continue
            t = self.expect("id")
            sep = self.toks[self.pos]
            if sep[:2] not in (("punct", ":"), ("punct", ";"), ("punct", "{")):
                raise SpecError("expected ';', '{' or ':' after %r" % t[1], sep[2])
            self.pos += 1
            is_field = sep[1] == ":"
            if cases if is_field else fields:
                self.note("type %s mixes fields and cases in one body" % ctx_name, t[2])
            elif t[1] in names:
                self.note("duplicate %s %r in %s" % ("field" if is_field else "case name",
                                                     t[1], ctx_name), t[2])
            names.add(t[1])
            if is_field:
                ty = self.parse_type(params, ctx_name + "." + t[1])
                self.expect("punct", ";")
                fields.append((t[1], ty))
            elif sep[1] == ";":
                cases.append((t[1], Product(())))
            else:
                open_bodies.append((ctx_name + "." + t[1], t[1], [], [], set()))

    def parse_type(self, params, where) -> TypeExpr:
        """A type expression of any depth, read with an explicit stack of
        its open brackets: None for a sequence's `[`, or the name and the
        arguments so far of a type's argument list.  Each reference is
        noted with the parameters in scope and `where`, its field."""
        open_brackets: list = []
        while True:
            # a type starts: sequence brackets open, then a name
            while self.at("["):
                open_brackets.append(None)
            t = self.expect("id")
            args: list = []
            self.refs.append((t, args, params, where))
            if self.at("["):
                open_brackets.append((t[1], args))
                continue
            ty: TypeExpr = TRef(t[1], ())
            # the type ends: `?`s apply, then it closes brackets or, after
            # a `,`, starts the next argument
            while True:
                while self.at("?"):
                    ty = TOpt(ty)
                if not open_brackets:
                    return ty
                top = open_brackets[-1]
                if top is not None:
                    top[1].append(ty)
                    if self.at(","):
                        break
                self.expect("punct", "]")
                open_brackets.pop()
                ty = TSeq(ty) if top is None else TRef(top[0], tuple(top[1]))


def parse_data_spec(source: str) -> DatatypeSchema:
    return _DataParser(_scan_data(source)).parse()


def _fold_type(te: TypeExpr, build):
    """build(t, the values of t's operands) for each node t of te, operands
    first, on an explicit stack: the value of te."""
    done: list = []
    todo: list = [te]
    while todo:
        t = todo.pop()
        if t.__class__ is tuple:  # (t,) once t's operands are done
            t = t[0]
            at = len(done) - (len(t.args) if t.__class__ is TRef else 1)
            value = build(t, done[at:])
            del done[at:]
            done.append(value)
        else:
            todo.append((t,))
            todo.extend(reversed(t.args) if t.__class__ is TRef else (t.elem,))
    return done[0]


def _render_node(te: TypeExpr, parts: list) -> str:
    if isinstance(te, TSeq):
        return "[%s]" % parts[0]
    if isinstance(te, TOpt):
        return "%s?" % parts[0]
    if parts:
        return "%s[%s]" % (te.name, ", ".join(parts))
    return te.name


def render_type(te: TypeExpr) -> str:
    return _fold_type(te, _render_node)


def schema_render(schema: DatatypeSchema) -> str:
    """Canonical textual serialization; parse_data_spec(schema_render(s)) == s.
    Each type's body is written by spec_ast.render, so case bodies of any
    depth render."""
    out = []
    for name, d in schema.types:
        ps = schema.params_of(name)
        head = name if not ps else "%s[%s]" % (name, ", ".join(ps))
        out.append("data %s {\n%s}\n" % (head, render((d, 1), _body_parts)))
    return "\n".join(out)


def _body_parts(d, indent: int):
    pad = "    " * indent
    if isinstance(d, Product):
        return "".join("%s%s: %s;\n" % (pad, fname, render_type(fty)) for fname, fty in d.fields)
    pieces = []
    for cname, cdef in d.cases:
        if isinstance(cdef, Product) and not cdef.fields:
            pieces.append("%s%s;\n" % (pad, cname))
        else:
            pieces += ("%s%s {\n" % (pad, cname), (cdef, indent + 1), "%s}\n" % pad)
    return pieces


# ---------------------------------------------------------------------------
# Value layer

_HASH_COMPUTATIONS = 0


def hash_computation_count() -> int:
    """Instrumentation: how many SHA-256 digests have been computed so far."""
    return _HASH_COMPUTATIONS


class DataValue(Tree):
    """Immutable value of a schema type.

    `type_path` is the full case path (e.g. ("Expr", "Lit", "Int_")); plain
    products use the bare type name.  Field values are DataValue, int, str,
    bool, tuple (sequence), or None / value (option absent / present).
    Construct via make_value so fields are stored in schema order.
    """

    __slots__ = ("type_path", "fields", "_hash")
    COMPARED = ("type_path", "fields")  # not the cached digest

    def __init__(self, type_path: Tuple[str, ...], fields: Tuple[Tuple[str, object], ...]):
        _SET_PATH(self, tuple(type_path))
        _SET_FIELDS(self, tuple(fields))
        _SET_HASH(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("DataValue is immutable")

    def field(self, name: str):
        for fname, v in self.fields:
            if fname == name:
                return v
        raise KeyError(name)

    def __hash__(self):
        return int.from_bytes(value_hash(self)[:8], "big")

    def __repr__(self):
        return "DataValue(%s)" % debug_print(self)


# the slot setters, which __setattr__ above refuses
_SET_PATH = DataValue.type_path.__set__
_SET_FIELDS = DataValue.fields.__set__
_SET_HASH = DataValue._hash.__set__



def make_value(schema: DatatypeSchema, path, fields: Optional[dict] = None) -> DataValue:
    """Build and shape-check a value of the case at `path` (dotted or tuple)."""
    if isinstance(path, str):
        path = tuple(path.split("::")) if "::" in path else tuple(path.split("."))
    d = schema.resolve_path(tuple(path))
    if d is None:
        raise SpecError("unknown type path %s" % "::".join(path))
    if isinstance(d, Sum):
        raise SpecError("%s is a sum type; construct one of its cases" % "::".join(path))
    fields = dict(fields or {})
    bindings = {p: None for p in schema.params_of(path[0])}
    ordered = []
    for fname, fty in d.fields:
        if fname not in fields:
            raise SpecError("missing field %r for %s" % (fname, "::".join(path)))
        v = fields.pop(fname)
        _check_values(schema, [(fty, v, bindings, (path, fname))])
        ordered.append((fname, v))
    if fields:
        raise SpecError("unknown field(s) %s for %s"
                        % (", ".join(sorted(fields)), "::".join(path)))
    return DataValue(tuple(path), tuple(ordered))


# The binding of an unbound type parameter, which any value matches: matched
# by identity, so that no type a `.data` source names is a wildcard.
_ANY = TRef("*")


def _subst(te: TypeExpr, bindings) -> TypeExpr:
    """te with each type parameter in bindings replaced by its binding."""
    def build(t, parts):
        if t.__class__ is TOpt:
            return TOpt(parts[0])
        if t.__class__ is TSeq:
            return TSeq(parts[0])
        if t.name in bindings:
            bound = bindings[t.name]
            return bound if bound is not None else _ANY
        return TRef(t.name, tuple(parts)) if parts else t
    return _fold_type(te, build)


_NO_BINDINGS: dict = {}  # shared, never written


def _where(where: tuple) -> str:
    """The text of a check position (type path, field name, sequence
    indexes...), formatted only for an error message."""
    return "%s.%s%s" % ("::".join(where[0]), where[1],
                        "".join("[%d]" % i for i in where[2:]))


def _case_plan(schema: DatatypeSchema, plans: dict, type_path: tuple):
    """The check plan of one concrete case, cached in `plans`: its field
    names, field types, type parameters and the check position of each
    field.  Raises SpecError if type_path names no concrete case."""
    d = schema.resolve_path(type_path)
    if d is None:
        raise SpecError("unknown type path %s" % "::".join(type_path))
    if isinstance(d, Sum):
        raise SpecError("%s is not a concrete case" % "::".join(type_path))
    names = tuple(f for f, _ in d.fields)
    plan = (names, tuple(t for _, t in d.fields), schema.params_of(type_path[0]),
            tuple((type_path, f) for f in names))
    plans[type_path] = plan
    return plan


def _check_values(schema: DatatypeSchema, todo: list):
    """Check each (type, value, bindings, position) on the stack `todo`;
    a type of None asks for `conforms(schema, value, bindings)`.  One
    explicit stack, popped in the order the checks would run as recursive
    calls, so the first failure found is the one recursion would find."""
    plans, params_of = schema._plans, schema._params
    while todo:
        te, v, bindings, where = todo.pop()
        while te is not None:  # check v against te
            cls = te.__class__
            if cls is TOpt:
                if v is None:
                    break
                te = te.elem
                continue
            if cls is TSeq:
                if not isinstance(v, tuple):
                    raise SpecError("%s: expected a tuple sequence" % _where(where))
                elem = te.elem
                for i in range(len(v) - 1, -1, -1):
                    todo.append((elem, v[i], bindings, where + (i,)))
                break
            if te is _ANY:
                break  # unbound type parameter: checked at instantiation sites
            name = te.name
            if name in bindings:
                bound = bindings[name]
                if bound is None:
                    break
                te, bindings = bound, _NO_BINDINGS
                continue
            if name == "string":
                if not isinstance(v, str):
                    raise SpecError("%s: expected string, got %r" % (_where(where), v))
                break
            if name == "integer":
                if not isinstance(v, int) or isinstance(v, bool):
                    raise SpecError("%s: expected integer, got %r" % (_where(where), v))
                break
            if name == "boolean":
                if not isinstance(v, bool):
                    raise SpecError("%s: expected boolean, got %r" % (_where(where), v))
                break
            if not isinstance(v, DataValue):
                raise SpecError("%s: expected a %s value, got %r" % (_where(where), name, v))
            if v.type_path[0] != name:
                raise SpecError("%s: expected %s, got %s"
                                % (_where(where), name, v.type_path[0]))
            params = params_of.get(name)
            if params:
                bindings = dict(zip(params, tuple(_subst(a, bindings) for a in te.args)))
            else:
                bindings = _NO_BINDINGS
            te = None
        else:
            # conforms(schema, v, bindings)
            type_path = v.type_path
            plan = plans.get(type_path)
            if plan is None:
                plan = _case_plan(schema, plans, type_path)
            names, types, params, wheres = plan
            if params:
                bindings = dict(bindings) if bindings else {}
                for p in params:
                    bindings.setdefault(p, None)
            elif not bindings:
                bindings = _NO_BINDINGS
            fields = v.fields
            n = len(names)
            if len(fields) != n:
                raise _fields_differ(v, names)
            for i in range(n - 1, -1, -1):
                fname, fv = fields[i]
                if fname != names[i]:
                    raise _fields_differ(v, names)
                todo.append((types[i], fv, bindings, wheres[i]))


def _fields_differ(v: DataValue, names: tuple) -> SpecError:
    return SpecError("fields of %s are %s, expected %s"
                     % ("::".join(v.type_path), [f for f, _ in v.fields], list(names)))


def conforms(schema: DatatypeSchema, v: DataValue, bindings: Optional[dict] = None):
    """Check that v's shape matches the schema; raises SpecError if not.

    For parameterized types, pass bindings like {"T": TRef("integer")} to
    check a particular instantiation; unbound parameters are wildcards.
    Values of any depth are checked, on an explicit stack.
    """
    _check_values(schema, [(None, v, dict(bindings) if bindings else None, None)])
    return True


def downcast(schema: DatatypeSchema, v: DataValue, case_path) -> Optional[DataValue]:
    """View v as the given case; present iff the case path prefixes v's path."""
    if isinstance(case_path, str):
        case_path = tuple(case_path.split("::"))
    case_path = tuple(case_path)
    if schema.resolve_path(case_path) is None:
        raise SpecError("unknown case path %s" % "::".join(case_path))
    if v.type_path[:len(case_path)] == case_path:
        return v
    return None


def substitute_field(schema: DatatypeSchema, v: DataValue, name: str, new) -> DataValue:
    """Copy of v with one field replaced; v itself is untouched."""
    d = schema.resolve_path(v.type_path)
    if d is None or isinstance(d, Sum):
        raise SpecError("cannot substitute into %s" % "::".join(v.type_path))
    fty = next((t for fname, t in d.fields if fname == name), None)
    if fty is None:
        raise SpecError("no field %r in %s" % (name, "::".join(v.type_path)))
    bindings = {p: None for p in schema.params_of(v.type_path[0])}
    _check_values(schema, [(fty, new, bindings, (v.type_path, name))])
    fields = tuple((fname, new if fname == name else old) for fname, old in v.fields)
    return DataValue(v.type_path, fields)


# ---------------------------------------------------------------------------
# Debug printing

def _print_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return quote_text(v)
    raise TypeError(v)


def debug_print(v: DataValue) -> str:
    """Deterministic rendering; injective on schema-conforming values.
    Written by spec_ast.render, so values of any depth print."""
    return render((v, None), _value_parts)


def _value_parts(x, _context):
    if isinstance(x, DataValue):
        head = "::".join(x.type_path)
        if not x.fields:
            return head
        pieces = [head + "("]
        sep = ""
        for f, fx in x.fields:
            if fx.__class__ is str:  # the commonest leaf, written in place
                pieces.append("%s%s: %s" % (sep, f, quote_text(fx)))
            else:
                pieces += ("%s%s: " % (sep, f), (fx, None))
            sep = ", "
        pieces.append(")")
        return pieces
    if isinstance(x, tuple):
        return ["[", *joined(", ", [(y, None) for y in x]), "]"]
    if x is None:
        return "none"
    return _print_scalar(x)


# ---------------------------------------------------------------------------
# Hashing

def _u32(n: int) -> bytes:
    return struct.pack(">I", n)


_CACHE_LIMIT = 4096  # entries per byte cache below; cleared when it grows past
_HEADERS: Dict[tuple, bytes] = {}  # type path -> b"V" + length + "::"-joined path
_NAMES: Dict[str, bytes] = {}  # field name -> length + name


def _header(type_path: tuple) -> bytes:
    path = "::".join(type_path).encode("utf-8")
    if len(_HEADERS) >= _CACHE_LIMIT:
        _HEADERS.clear()
    b = _HEADERS[type_path] = b"V" + _u32(len(path)) + path
    return b


def _name(fname: str) -> bytes:
    data = fname.encode("utf-8")  # as in the digest: a name that is not a str raises
    if len(_NAMES) >= _CACHE_LIMIT:
        _NAMES.clear()
    b = _NAMES[fname] = _u32(len(data)) + data
    return b


def value_hash(v: DataValue) -> bytes:
    """32-byte SHA-256 over the canonical serialization, memoized per node.

    Nested values contribute their own digests, so the cache composes and
    equal structures hash equal across runs and processes.  The walk keeps
    an explicit stack of the values (and sequences) whose fields are half
    serialized, and visits fields in the order a recursive walk would; the
    serialization of each type path and field name is cached.
    """
    cached = v._hash
    if cached is not None:
        return cached
    global _HASH_COMPUTATIONS
    _HASH_COMPUTATIONS += 1
    # the value being serialized (None while in one of its sequences), its
    # fields (or the sequence's items) still to do, whether they are
    # (name, value) pairs, and its serialization so far
    owner, it, named = v, iter(v.fields), True
    parts = [_HEADERS.get(v.type_path) or _header(v.type_path)]
    stack = []
    while True:
        for x in it:
            if named:
                fname, x = x
                parts.append(_NAMES.get(fname) or _name(fname))
            cls = x.__class__
            if cls is str:
                data = x.encode("utf-8")
                parts.append(b"S" + _u32(len(data)) + data)
            elif cls is DataValue or isinstance(x, DataValue):
                cached = x._hash
                if cached is not None:
                    parts.append(b"D" + cached)
                    continue
                _HASH_COMPUTATIONS += 1
                stack.append((owner, it, named, parts))
                owner, it, named = x, iter(x.fields), True
                parts = [_HEADERS.get(x.type_path) or _header(x.type_path)]
                break
            elif isinstance(x, bool):
                parts.append(b"B" + (b"\x01" if x else b"\x00"))
            elif isinstance(x, int):
                dec = str(x).encode("ascii")
                parts.append(b"I" + _u32(len(dec)) + dec)
            elif isinstance(x, str):
                data = x.encode("utf-8")
                parts.append(b"S" + _u32(len(data)) + data)
            elif isinstance(x, tuple):
                parts.append(b"L" + _u32(len(x)))
                stack.append((owner, it, named, parts))
                owner, it, named = None, iter(x), False
                break
            elif x is None:
                parts.append(b"N")
            else:
                raise TypeError(x)
        else:
            if owner is not None:
                digest = hashlib.sha256(b"".join(parts)).digest()
                _SET_HASH(owner, digest)
                if not stack:
                    return digest
                owner, it, named, parts = stack.pop()
                parts.append(b"D" + digest)
            else:
                owner, it, named, parts = stack.pop()
