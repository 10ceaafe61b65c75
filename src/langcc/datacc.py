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
from typing import Dict, List, Optional, Tuple, Union

from .spec_ast import Loc, SpecError, Tree


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


@dataclass(frozen=True)
class DatatypeSchema:
    types: Tuple[Tuple[str, TypeDef], ...]
    type_params: Tuple[Tuple[str, Tuple[str, ...]], ...]

    def type_map(self) -> Dict[str, TypeDef]:
        return dict(self.types)

    def _check_plans(self):
        """(type path -> check plan, type name -> parameters), kept on the
        schema for `conforms`; the plans fill in as type paths are met."""
        cached = self.__dict__.get("_plans")
        if cached is None:
            params = {}
            for n, ps in reversed(self.type_params):  # the first entry wins, as in params_of
                params[n] = ps
            cached = ({}, params)
            object.__setattr__(self, "_plans", cached)
        return cached

    def params_of(self, name: str) -> Tuple[str, ...]:
        for n, ps in self.type_params:
            if n == name:
                return ps
        return ()

    def resolve_path(self, path: Tuple[str, ...]) -> Optional[TypeDef]:
        """Resolve a dotted case path like ("Expr", "Lit", "Int_")."""
        tmap = self.type_map()
        if not path or path[0] not in tmap:
            return None
        node: TypeDef = tmap[path[0]]
        for part in path[1:]:
            if not isinstance(node, Sum):
                return None
            nxt = None
            for cname, cdef in node.cases:
                if cname == part:
                    nxt = cdef
                    break
            if nxt is None:
                return None
            node = nxt
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
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def expect(self, kind, text=None):
        t = self.peek()
        if t[0] != kind or (text is not None and t[1] != text):
            raise SpecError("expected %r, found %r" % (text or kind, t[1] or "<eof>"), t[2])
        return self.next()

    def parse(self) -> DatatypeSchema:
        types = []
        params = []
        while self.peek()[0] != "eof":
            t = self.expect("id")
            if t[1] != "data":
                raise SpecError("expected 'data', found %r" % t[1], t[2])
            name = self.expect("id")[1]
            ps: List[str] = []
            if self.peek()[:2] == ("punct", "["):
                self.next()
                ps.append(self.expect("id")[1])
                while self.peek()[:2] == ("punct", ","):
                    self.next()
                    ps.append(self.expect("id")[1])
                self.expect("punct", "]")
            body = self.parse_body(name)
            types.append((name, body))
            params.append((name, tuple(ps)))
        return DatatypeSchema(tuple(types), tuple(params))

    def parse_body(self, ctx_name) -> TypeDef:
        """A `{ ... }` body with case bodies nested to any depth, read with an
        explicit stack of the open bodies: each one's dotted name, the case
        name it is the body of, and its fields and cases so far."""
        self.expect("punct", "{")
        open_bodies = [(ctx_name, None, [], [])]
        while True:
            ctx_name, case_name, fields, cases = open_bodies[-1]
            if self.peek()[:2] == ("punct", "}"):
                self.next()
                if fields and cases:
                    raise SpecError("type %s mixes fields and cases in one body" % ctx_name)
                body = Sum(tuple(cases)) if cases else Product(tuple(fields))
                open_bodies.pop()
                if not open_bodies:
                    return body
                open_bodies[-1][3].append((case_name, body))
                continue
            t = self.expect("id")
            nxt = self.peek()
            if nxt[:2] == ("punct", ";"):
                self.next()
                cases.append((t[1], Product(())))
            elif nxt[:2] == ("punct", "{"):
                self.next()
                open_bodies.append((ctx_name + "." + t[1], t[1], [], []))
            elif nxt[:2] == ("punct", ":"):
                self.next()
                ty = self.parse_type()
                self.expect("punct", ";")
                fields.append((t[1], ty))
            else:
                raise SpecError("expected ';', '{' or ':' after %r" % t[1], nxt[2])

    def parse_type(self) -> TypeExpr:
        """A type expression of any depth, read with an explicit stack of
        its open brackets: None for a sequence's `[`, or the name and the
        arguments so far of a type's argument list."""
        open_brackets: list = []
        while True:
            # a type starts: sequence brackets open, then a name
            while self.peek()[:2] == ("punct", "["):
                self.next()
                open_brackets.append(None)
            name = self.expect("id")[1]
            if self.peek()[:2] == ("punct", "["):
                self.next()
                open_brackets.append((name, []))
                continue
            ty: TypeExpr = TRef(name, ())
            # the type ends: `?`s apply, then it closes brackets or, after
            # a `,`, starts the next argument
            while True:
                while self.peek()[:2] == ("punct", "?"):
                    self.next()
                    ty = TOpt(ty)
                if not open_brackets:
                    return ty
                top = open_brackets[-1]
                if top is not None:
                    top[1].append(ty)
                    if self.peek()[:2] == ("punct", ","):
                        self.next()
                        break
                self.expect("punct", "]")
                open_brackets.pop()
                ty = TSeq(ty) if top is None else TRef(top[0], tuple(top[1]))


def _check_texpr(schema: DatatypeSchema, tmap, te: TypeExpr, params, where):
    """Check that te's references resolve, each with its arity; in the
    order of a recursive walk, on an explicit stack."""
    todo = [te]
    while todo:
        te = todo.pop()
        if isinstance(te, (TSeq, TOpt)):
            todo.append(te.elem)
            continue
        if te.name in params:
            if te.args:
                raise SpecError("type parameter %r cannot take arguments (%s)"
                                % (te.name, where))
            continue
        if te.name in BUILTINS:
            if te.args:
                raise SpecError("builtin %r takes no arguments (%s)" % (te.name, where))
            continue
        if te.name not in tmap:
            raise SpecError("unresolved type reference %r (%s)" % (te.name, where))
        want = len(schema.params_of(te.name))
        if len(te.args) != want:
            raise SpecError("type %r expects %d argument(s), got %d (%s)"
                            % (te.name, want, len(te.args), where))
        todo.extend(reversed(te.args))


def _validate_schema(schema: DatatypeSchema):
    tmap = schema.type_map()
    if len(tmap) != len(schema.types):
        seen = set()
        for n, _ in schema.types:
            if n in seen:
                raise SpecError("duplicate type name %r" % n)
            seen.add(n)

    # Each type's body and the case bodies nested in it, in the order of a
    # recursive walk, on an explicit stack: a body with its dotted name, or a
    # case, whose name is checked against the names of the cases before it
    # (`seen`) as its turn comes and then its body.
    for name, d in schema.types:
        ps = schema.params_of(name)
        for i, p in enumerate(ps):
            if p in ps[:i]:
                raise SpecError("duplicate type parameter %r in %s" % (p, name))
        params = set(ps)
        todo: list = [(d, name, None, None)]
        while todo:
            d, where, cname, seen = todo.pop()
            if cname is not None:
                if cname in seen:
                    raise SpecError("duplicate case name %r in %s" % (cname, where))
                seen.add(cname)
                where += "." + cname
            if isinstance(d, Product):
                seen = set()
                for fname, fty in d.fields:
                    if fname in seen:
                        raise SpecError("duplicate field %r in %s" % (fname, where))
                    seen.add(fname)
                    _check_texpr(schema, tmap, fty, params, where + "." + fname)
            else:
                seen = set()
                todo.extend((cdef, where, cname, seen) for cname, cdef in reversed(d.cases))


def parse_data_spec(source: str) -> DatatypeSchema:
    schema = _DataParser(_scan_data(source)).parse()
    _validate_schema(schema)
    return schema


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
    Case bodies of any depth are written from an explicit stack of what is
    left to write: lines, and bodies with their indent."""
    out: List[str] = []
    for name, d in schema.types:
        ps = schema.params_of(name)
        head = name if not ps else "%s[%s]" % (name, ", ".join(ps))
        todo: list = ["", "}", (d, 1), "data %s {" % head]
        while todo:
            item = todo.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            d, indent = item
            pad = "    " * indent
            if isinstance(d, Product):
                for fname, fty in d.fields:
                    out.append("%s%s: %s;" % (pad, fname, render_type(fty)))
                continue
            later: list = []
            for cname, cdef in d.cases:
                if isinstance(cdef, Product) and not cdef.fields:
                    later.append("%s%s;" % (pad, cname))
                else:
                    later += ["%s%s {" % (pad, cname), (cdef, indent + 1), "%s}" % pad]
            todo.extend(reversed(later))
    return "\n".join(out)


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
    plans, params_of = schema._check_plans()
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
    fty = None
    for fname, t in d.fields:
        if fname == name:
            fty = t
            break
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
        return '"%s"' % v.replace("\\", "\\\\").replace('"', '\\"')
    raise TypeError(v)


def debug_print(v: DataValue) -> str:
    """Deterministic rendering; injective on schema-conforming values.
    Values of any depth print, from an explicit stack of (text, False) and
    (field value, True) items."""
    out: List[str] = []
    todo = [(v, True)]
    while todo:
        x, is_value = todo.pop()
        if not is_value:
            out.append(x)
        elif isinstance(x, DataValue):
            out.append("::".join(x.type_path))
            fields = x.fields
            if fields:
                todo.append((")", False))
                for i in range(len(fields) - 1, -1, -1):
                    f, fx = fields[i]
                    todo.append((fx, True))
                    todo.append(("%s: " % (f,) if i == 0 else ", %s: " % (f,), False))
                todo.append(("(", False))
        elif isinstance(x, tuple):
            todo.append(("]", False))
            for i in range(len(x) - 1, -1, -1):
                todo.append((x[i], True))
                if i:
                    todo.append((", ", False))
            todo.append(("[", False))
        elif x is None:
            out.append("none")
        else:
            out.append(_print_scalar(x))
    return "".join(out)


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
