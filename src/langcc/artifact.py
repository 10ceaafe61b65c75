"""The deployable artifact: CompiledLang, checked when it loads and written
as canonical JSON.

An artifact holds the compiled lexer, LR tables, assembly metadata, AST
field kinds and print templates as plain dicts and lists; compiled.flatten
builds one, with its action and goto lists as RawJson, their canonical
text written beforehand.  Loading (from_json) checks the tables and lexer
as it builds the parser's rows (_load_tables) and the CompiledLexer
(_lexer_from_json); flatten hands CompiledLang the rows and lexer the
builder made, which need no check.  Either way, CompiledLang checks the
kinds and templates and resolves each variant's into the one plan both
tree walks read (CompiledLang.plans, for runtime.node_to_data_value and
printer.pretty_print).  to_json writes the text of json.dumps(tree,
sort_keys=True, indent=1, separators=(",", ": "), ensure_ascii=False) and
a newline, once per CompiledLang, so artifacts are byte-identical across
runs and friendly to version control.  _canonical_json writes that text,
as json's C encoder does not indent and its pure-Python one is much slower;
it writes a RawJson as it stands, at the indent it was written for.

Parsing and printing with an artifact needs this module, runtime and
printer, and none of them imports the generator (compiled, grammar, lr,
meta_frontend).
"""

from __future__ import annotations

import contextlib
import gc
import json
import threading
from operator import itemgetter
from typing import Dict, Optional

from .lexer import EOF_TERMINAL, CompiledLexer, LexCompileError, ModeDfa
from .spec_ast import LEXER_OPS, LexerAction, Loc, SpecError

FORMAT_VERSION = 1


class CompiledLang:
    """Runtime-facing compiled language: everything the parser, printer, and
    validators need, with no references back to build-time structures."""

    def __init__(self, data: dict, prods: list, action_rows: list, goto_rows: list,
                 lexer: CompiledLexer, text: Optional[str] = None):
        """`data` is the artifact's JSON tree, which the other indexes are
        built from without changing it, and `text` the text it was decoded
        from, or None for a tree flatten built (whose action and goto lists
        are RawJson text, read by to_json alone).  to_json writes from the
        text if there is one (the tree is most of a loaded artifact's size),
        else from the tree, which a built artifact keeps until then.

        `prods`, `action_rows` and `goto_rows` are the parser's tables as
        the parse loop reads them, and `lexer` the compiled lexer, all of
        them the tree's: from_json builds them from the tree with
        _load_tables and _lexer_from_json, which check it, and flatten from
        the builder's products, which need no check."""
        self._source = data if text is None else text
        self._text: Optional[str] = None
        # prods[p]: (kind, rhs_len, lhs_ref, data), see P_USER and below.
        # action_rows[state]: lookahead -> action cell, keyed by the terminal
        # itself when k = 1 and by the k-tuple of terminals otherwise.  A cell
        # is an int: shift to state s is s, accept is -1, and reduce by
        # production p is -2 - p.  goto_rows[state]: nonterminal ref -> target
        self.prods, self.action_rows, self.goto_rows = prods, action_rows, goto_rows
        self.lexer = lexer
        self.k = data["k"]
        self.mains = list(data["mains"])
        self.digest = data["digest"]
        self.indent_unit = data["indent_unit"]
        self.starts = dict(data["starts"])
        # variant tuple -> (variant key, {field: field plan}, print entries
        # or None): the plan the tree walks read, for every variant that
        # has field kinds or a template
        self.plans: Dict[tuple, tuple] = {}
        ast, templates = data["ast"], data["templates"]
        # the parser's own variant tuples as keys: a walk's lookups match by identity
        variants = {"::".join(p[3][0]): p[3][0] for p in self.prods if p[0] == P_USER}
        for vk in sorted({*ast, *templates}):
            fields = {}
            for f in ast.get(vk, ()):
                if not (type(f) is list and len(f) == 2 and type(f[0]) is str):
                    raise _malformed("AST field %r is not [name, kind]" % (f,))
                fields[f[0]] = _field_plan(f[1], vk, f[0])
            tmpl = templates.get(vk)
            self.plans[variants.get(vk) or tuple(vk.split("::"))] = (
                vk, fields, None if tmpl is None else _entries(tmpl, fields=fields))
        self.variant_prefixes = {tuple(vk.split("::")[:i]) for vk in ast
                                 for i in range(1, vk.count("::") + 2)}

    @property
    def default_start(self) -> str:
        return self.mains[0]

    def to_json(self) -> str:
        """The canonical JSON text of the artifact: sorted keys, one-space
        indents, `,` and `: ` separators, non-ASCII text as it is, and a
        newline at the end.  The first call writes it with _canonical_json
        from the kept source, decoded first if it is a text, and keeps it
        in place of the source; later calls return the same str.  The
        write runs under collector_paused."""
        if self._text is None:
            with collector_paused:
                source = self._source
                self._text = _canonical_json(
                    json.loads(source) if type(source) is str else source) + "\n"
                self._source = None
        return self._text

    @classmethod
    def from_json(cls, text: str) -> "CompiledLang":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise SpecError("malformed artifact: " + e.msg, Loc(e.lineno, e.colno)) from e
        except (ValueError, RecursionError) as e:
            # an integer too long to convert, or nesting too deep to decode
            raise _malformed(str(e)) from e
        if type(data) is not dict:
            raise _malformed("not a JSON object")
        version = data.get("version")
        if type(version) is not int or version != FORMAT_VERSION:  # not True, not 1.0
            raise SpecError("unsupported artifact version %r" % (version,))
        if data.get("rd") is not False:
            raise SpecError("unsupported artifact: rd=%r (recursive-descent actions "
                            "are not supported)" % data.get("rd"))
        try:
            prods, action_rows, goto_rows = _load_tables(data)
            unit = data["indent_unit"]
            if type(unit) is not int or unit < 0:
                raise _malformed("indent_unit is %r, not a non-negative integer" % (unit,))
            lexer = _lexer_from_json(data["lexer"])
            return cls(data, prods, action_rows, goto_rows, lexer, text)
        except KeyError as e:
            raise SpecError("malformed artifact: missing key %r" % e.args[0]) from None
        except (TypeError, ValueError, AttributeError, IndexError, LexCompileError) as e:
            # a wrongly shaped part that _load_tables, _lexer_from_json and
            # _field_plan do not check by name
            raise SpecError("malformed artifact: %s" % e) from None

    def __eq__(self, other):
        return isinstance(other, CompiledLang) and self.to_json() == other.to_json()


def _malformed(what: str) -> SpecError:
    return SpecError("malformed artifact: " + what)


class _CollectorPause(contextlib.ContextDecorator):
    """`with collector_paused:`, or `@collector_paused` on a function, turns
    CPython's cyclic collector off for the block or call.  Trees, LR tables
    and artifacts hold no cycles, so reference counting frees them, and
    collector passes over the many objects their builds allocate (parse,
    compile_lang, to_json, the langcc command) would find nothing to free.
    The collector is process-wide and pauses may overlap, nested or in
    threads: the first of overlapping pauses notes whether the collector
    was on and turns it off, and the last to end turns it back on if it
    was."""

    def __init__(self):
        self._lock = threading.Lock()
        self._running = 0  # pauses running
        self._was_on = False  # whether the collector was on at the first

    def __enter__(self):
        with self._lock:
            if not self._running:
                self._was_on = gc.isenabled()
                gc.disable()
            self._running += 1

    def __exit__(self, exc_type, exc, tb):
        # nothing is allocated once the collector is back on: an allocation
        # then sets off a collection over all the pause let live, such as a
        # parse's whole tree (8-12 ms at 4,000 calc_prog statements).  So no
        # *exc, and no `with self._lock:`, whose exit takes an argument
        # tuple; release() takes none
        self._lock.acquire()
        try:
            self._running -= 1
            if not self._running and self._was_on:
                gc.enable()
        finally:
            self._lock.release()


collector_paused = _CollectorPause()


# ---------------------------------------------------------------------------
# Tree-walk plans: the AST field kinds and print templates, resolved once per
# variant when the artifact loads, so the walks over a tree index them
# instead of re-reading kinds.  A kind or template of the wrong shape is a
# malformed artifact, rejected by from_json.

K_NODE, K_TOKEN, K_ENUM, K_SEQ, K_OPT, K_BOOL = range(6)  # plan tags
_KIND_TAGS = {"node": K_NODE, "token": K_TOKEN, "enum": K_ENUM, "seq": K_SEQ,
              "opt": K_OPT, "bool": K_BOOL}
_KIND_LENGTHS = {K_NODE: 2, K_TOKEN: 2, K_ENUM: 2, K_SEQ: 6, K_OPT: 4, K_BOOL: 2}
F_LINE, F_BLOCK, F_BLOCK2, F_TOP, F_TOP2 = range(5)  # sequence flavors
_FLAVORS = {"L": F_LINE, "B": F_BLOCK, "B2": F_BLOCK2, "T": F_TOP, "T2": F_TOP2}
_TRAILING = ("none", "optional", "required")  # a sequence's trailing delimiter
CONTENT = object()  # the place of an option's content in its print entries


def _entries(tmpl, content=None, fields=None) -> tuple:
    """A print template as the reversed tuple of what pretty_print pushes:
    literal text as strings, adjacent ones joined, `content` where an
    option's template holds its content (no other template has one), and
    (field name, field plan) for a field of a node template, whose field
    plans are `fields`."""
    if type(tmpl) is not list:
        raise _malformed("print template %r is not a list" % (tmpl,))
    out = []
    for it in tmpl:
        tag = it[0] if type(it) is list and it else None
        if tag in ("verbatim", "lit") and len(it) == 2 and type(it[1]) is str:
            if out and type(out[-1]) is str:
                out[-1] += it[1]
            else:
                out.append(it[1])
        elif tag == "content" and len(it) == 1 and content is not None:
            out.append(content)
        elif tag == "field" and len(it) == 2 and fields is not None:
            plan = fields.get(it[1]) if type(it[1]) is str else None
            if plan is None:
                raise _malformed("print template field %r has no kind" % (it[1],))
            out.append((it[1], plan))
        else:
            raise _malformed("print template item %r is not literal text%s%s"
                             % (it, " or content" if content is not None else "",
                                " or a field" if fields is not None else ""))
    return tuple(reversed(out))


def _field_plan(kind, vk: str, name: str) -> tuple:
    """The plan of field `name` of variant vk, of AST kind `kind`: (tag,
    element plan, enum type name, field description), which
    node_to_data_value reads, then what pretty_print reads: a sequence's
    flavor, delimiter entries and trailing, an option's or a bool's entries,
    or an enum's {label: entries}.  A loop follows the kind's chain of
    sequences and options, so a kind of any depth resolves."""
    desc = "field %s.%s" % (vk, name)
    chain = []  # the sequences and options above `kind`, outermost first
    while True:
        tag = (_KIND_TAGS.get(kind[0]) if type(kind) is list and kind
               and type(kind[0]) is str else None)
        if tag is None or len(kind) != _KIND_LENGTHS[tag]:
            raise _malformed("AST field kind %r is not one of %s"
                             % (kind, ", ".join(_KIND_TAGS)))
        if tag != K_SEQ and tag != K_OPT:
            break
        chain.append(kind)
        kind = kind[1]
    if tag == K_ENUM:
        branches = {}
        for branch in kind[1]:
            if not (type(branch) is list and len(branch) == 2 and type(branch[0]) is str):
                raise _malformed("enum branch %r is not (label, template)" % (branch,))
            branches.setdefault(branch[0], _entries(branch[1]))  # the first one wins
        plan = (tag, None, "_".join(vk.split("::") + [name]), desc, branches)
    elif tag == K_BOOL:
        plan = (tag, None, None, desc, _entries(kind[1]))
    else:
        plan = (tag, None, None, desc)
    for kind in reversed(chain):
        if kind[0] == "opt":
            plan = (K_OPT, plan, None, desc, _entries(kind[2], CONTENT))
            continue
        _t, _elem, flavor, delim, trailing, _min = kind
        if type(flavor) is not str or flavor not in _FLAVORS:
            raise _malformed("sequence flavor %r is not one of %s"
                             % (flavor, ", ".join(_FLAVORS)))
        if trailing not in _TRAILING:
            raise _malformed("sequence trailing %r is not one of %s"
                             % (trailing, ", ".join(_TRAILING)))
        plan = (K_SEQ, plan, None, desc, _FLAVORS[flavor], _entries(delim), trailing)
    return plan


# CompiledLang.prods[p] is (kind, rhs_len, lhs_ref, data), kind one of:
# data: (variant tuple, field names, get, enums).  The names are a tuple
# shared by every production of the variant that has them.  get reads the
# fields' values off the top of the parse loop's value stack: an int offset
# from the end for one field, else a function of the stack returning their
# tuple (an itemgetter, which builds it in C, for two or more).  enums is
# ((field index, label), ...) for the fields that hold an inline enum's
# label, or None.
P_USER = 0
P_LIST_APPEND = 1  # data: (chain slot index, element slot index)
P_ENUM = 2  # data: the label
P_LIST_EMPTY = 3  # data: None
P_LIST_SINGLE = 4  # data: the element slot index
P_LIST_PAIR = 5  # data: (first element slot index, second element slot index)
P_LIST_PASS = 6  # data: the chain slot index
P_LIST_TRAIL = 7  # data: the chain slot index
P_OPT_NONE = 8  # data: the value, False for a bool field and None otherwise
P_OPT_SOME = 9  # data: the content slot index, or -1 for a bool field
P_START = 10  # data: None; never reduced (its state accepts instead)
_PROD_KINDS = {"user": P_USER, "list_append": P_LIST_APPEND, "enum": P_ENUM,
               "list_empty": P_LIST_EMPTY, "list_single": P_LIST_SINGLE,
               "list_pair": P_LIST_PAIR, "list_pass": P_LIST_PASS,
               "list_trail": P_LIST_TRAIL, "opt_none": P_OPT_NONE,
               "opt_some": P_OPT_SOME, "start": P_START}
_ACTION_ARG = {"shift": int, "reduce": int, "accept": str}


def _prod_tuple(p, interned: dict) -> tuple:
    """The (kind, rhs_len, lhs_ref, data) entry the parse loop reads for the
    artifact production p, which is ["start", 1, main],
    ["user", rhs_len, lhs_ref, variant_key, fields, display], or
    [kind, rhs_len, lhs_ref, assembly list, display].  Rejects a production
    that names a slot past its right-hand side.  `interned` holds the
    variant and names tuples built so far, each the one object of its
    value."""
    if not (type(p) is list and len(p) >= 3 and type(p[0]) is str
            and p[0] in _PROD_KINDS and type(p[1]) is int and p[1] >= 0
            and type(p[2]) is str):
        raise _malformed("production %r is not [kind, length, lhs, ...]" % (p,))
    kind, n = _PROD_KINDS[p[0]], p[1]

    def slot(i):
        if not (type(i) is int and 0 <= i < n):
            raise _malformed("production %r names slot %r of %d" % (p, i, n))
        return i

    if kind == P_START:
        return (kind, n, p[2], None)
    if kind == P_USER:
        if not (len(p) == 6 and type(p[3]) is str and type(p[4]) is list):
            raise _malformed("production %r has malformed fields" % (p,))
        names, slots, enums = [], [], []
        for f in p[4]:
            if not (type(f) is list and len(f) == 2 and type(f[0]) is str
                    and type(f[1]) is list and len(f[1]) >= 2
                    and f[1][0] in ("slot", "enum_inline")):
                raise _malformed("production %r has malformed fields" % (p,))
            name, src = f
            if src[0] != "slot":
                if not (len(src) == 3 and type(src[2]) is str):
                    raise _malformed("production %r has an enum field with no label" % (p,))
                enums.append((len(names), src[2]))
            names.append(name)
            slots.append(slot(src[1]) - n)
        get = slots[0] if len(slots) == 1 else itemgetter(*slots) if slots else _no_fields
        variant, names = tuple(p[3].split("::")), tuple(names)
        return (kind, n, p[2], (interned.setdefault(variant, variant),
                                interned.setdefault(names, names), get, tuple(enums) or None))
    if not (len(p) == 5 and type(p[3]) is list):
        raise _malformed("production %r has no assembly list" % (p,))
    asm = p[3]
    if kind == P_LIST_EMPTY:
        return (kind, n, p[2], None)
    if not asm:
        raise _malformed("production %r has an empty assembly list" % (p,))
    if kind == P_ENUM:
        if type(asm[0]) is not str:
            raise _malformed("production %r has no enum label" % (p,))
        return (kind, n, p[2], asm[0])
    if kind == P_OPT_NONE:
        return (kind, n, p[2], False if asm[0] == 1 else None)
    if kind == P_OPT_SOME and type(asm[0]) is int and asm[0] < 0:
        return (kind, n, p[2], -1)
    if kind in (P_LIST_PAIR, P_LIST_APPEND):
        if len(asm) != 2:
            raise _malformed("production %r has no two-slot assembly list" % (p,))
        return (kind, n, p[2], (slot(asm[0]), slot(asm[1])))
    return (kind, n, p[2], slot(asm[0]))


def _no_fields(_stack: list) -> tuple:
    return ()


def prod_tuples(entries: list) -> list:
    """_prod_tuple of each artifact production, with equal variant tuples
    and equal names tuples made one object each, so that every node of a
    variant shares them."""
    interned: dict = {}
    return [_prod_tuple(p, interned) for p in entries]


def _load_tables(d: dict):
    """Check the artifact's parser tables and build from them, in one pass
    over its action and goto lists, the prods, action_rows and goto_rows
    that CompiledLang holds.

    Rejects tables holding values of the wrong type or referring to states
    that do not exist, which would otherwise load and fail only when a
    parse reaches them.  Also rejects start states that are not one per
    main, a shift on the end of input, the reduce of a start production,
    and a reduce in some state of a production longer than the shortest
    path of shifts and gotos from a start state to it: the stack in that
    state can be that short, and in a valid automaton every path into a
    state that reduces p ends with p's right-hand side.  The number of
    states is one more than the largest state that has an action or a goto.
    (Messages are formatted only on failure: this runs on every load.)"""
    k = d["k"]
    if type(k) is not int or k < 1:
        raise _malformed("k is %r, not a positive integer" % (k,))
    mains = d["mains"]
    if type(mains) is not list or not mains or not all(type(m) is str for m in mains):
        raise _malformed("mains is %r, not a list of names" % (mains,))
    prods = prod_tuples(d["prods"])
    n_prods = len(prods)
    reduce_cells = [-2 - p for p in range(n_prods)]  # one int per production, not per cell
    last = -1  # the largest state with an entry
    lo = hi = 0  # the smallest and largest shift, goto or start target
    keys = {}  # lookahead -> its row key, for the lookaheads already checked
    rows = {}  # state -> action row
    for entry in d["action"]:
        if not (type(entry) is list and len(entry) == 3):
            raise _malformed("action entry %r is not [state, lookahead, action]" % (entry,))
        state, la, act = entry
        if not (type(state) is int and state >= 0 and type(la) is list):
            raise _malformed("action entry %r has no state or no lookahead" % (entry,))
        if state > last:
            last = state
        la = tuple(la)
        key = keys.get(la)
        if key is None:
            if not (len(la) == k and all(type(t) is str for t in la)):
                raise _malformed("action entry %r has no %d-token lookahead" % (entry, k))
            key = keys[la] = la[0] if k == 1 else la
        if not (type(act) is list and len(act) == 2 and type(act[0]) is str
                and _ACTION_ARG.get(act[0]) is type(act[1])):
            raise _malformed("action %r is not shift, reduce or accept" % (act,))
        tag, cell = act
        if tag == "shift":
            if la[0] == EOF_TERMINAL:
                raise _malformed("action entry %r shifts the end of input" % (entry,))
            if cell > hi:
                hi = cell
            elif cell < lo:
                lo = cell
        elif tag == "reduce":
            if not 0 <= cell < n_prods:
                raise _malformed("action %r reduces a production that does not exist"
                                 % (act,))
            if prods[cell][0] == P_START:
                raise _malformed("action %r reduces a start production" % (act,))
            cell = reduce_cells[cell]
        else:
            cell = -1
        row = rows.get(state)
        if row is None:
            row = rows[state] = {}
        elif key in row:
            raise _malformed("two actions for state %d on %s" % (state, " ".join(la)))
        row[key] = cell
    gotos = {}  # state -> goto row
    for entry in d["goto"]:
        if not (type(entry) is list and len(entry) == 4 and type(entry[0]) is int
                and entry[0] >= 0 and entry[1] in ("t", "n") and type(entry[2]) is str
                and type(entry[3]) is int):
            raise _malformed("goto entry %r is not [state, kind, symbol, target]" % (entry,))
        state, kind, ref, target = entry
        if state > last:
            last = state
        if target > hi:
            hi = target
        elif target < lo:
            lo = target
        if kind == "n":  # terminal gotos are the shift actions' targets
            row = gotos.get(state)
            if row is None:
                row = gotos[state] = {}
            elif ref in row:
                raise _malformed("two gotos for state %d on %s" % (state, ref))
            row[ref] = target
    starts = d["starts"]
    if type(starts) is not dict or not all(type(s) is int for s in starts.values()):
        raise _malformed("starts is %r, not a map of names to states" % (starts,))
    if starts.keys() != set(mains):
        raise _malformed("starts names %s, not the mains %s"
                         % (", ".join(sorted(starts)) or "nothing", ", ".join(mains)))
    n_states = last + 1
    # every state has an entry, so a larger number than there are entries
    # is no state (and would only make the rows huge)
    if n_states > len(d["action"]) + len(d["goto"]):
        raise _malformed("state %d is out of range" % last)
    firsts = set(starts.values())
    lo, hi = min([lo, *firsts]), max([hi, *firsts])
    if lo < 0 or hi >= n_states:
        raise _malformed("shift, goto or start target %d is not one of the %d states"
                         % (lo if lo < 0 else hi, n_states))
    action_rows = [rows.get(state) or {} for state in range(n_states)]
    goto_rows = [gotos.get(state) or {} for state in range(n_states)]
    # breadth first from the start states, `depth` stacked symbols deep: a
    # state first reached at that depth can be reached with no deeper stack
    seen = [False] * n_states
    for state in firsts:
        seen[state] = True
    frontier = list(firsts)
    depth = 0
    while frontier:
        reached = []
        for state in frontier:
            for cell in action_rows[state].values():
                if cell >= 0:
                    if not seen[cell]:
                        seen[cell] = True
                        reached.append(cell)
                elif cell < -1 and prods[-2 - cell][1] > depth:
                    raise _malformed("state %d reduces production %d of length %d, but "
                                     "can be reached with a stack of %d"
                                     % (state, -2 - cell, prods[-2 - cell][1], depth))
            for target in goto_rows[state].values():
                if not seen[target]:
                    seen[target] = True
                    reached.append(target)
        frontier = reached
        depth += 1
    return prods, action_rows, goto_rows


# ---------------------------------------------------------------------------
# Lexer (de)serialization

def _action_from_json(j) -> LexerAction:
    if not (type(j) is list and j and all(type(x) is str for x in j)
            and j[0] in LEXER_OPS and len(j) == 1 + LEXER_OPS[j[0]].takes_arg):
        raise _malformed("lexer action %r is not [op] or [op, argument] with one of "
                         "the ops %s" % (j, ", ".join(LEXER_OPS)))
    return LexerAction(*j)


def lexer_to_json(lx: CompiledLexer) -> dict:
    modes = {name: [[[list(t) for t in transitions], eof_target,
                     None if accept is None else list(accept)]
                    for transitions, eof_target, accept in lx.dfas[name].states]
             for name in sorted(lx.dfas)}
    actions = {m: [[[a.op] if a.arg is None else [a.op, a.arg] for a in rule]
                   for rule in rules]
               for m, rules in lx.mode_actions.items()}
    return {"main_mode": lx.main_mode, "modes": modes, "actions": actions,
            "emittable": sorted(lx.emittable)}


def _lexer_from_json(d: dict) -> CompiledLexer:
    actions = {m: tuple(tuple(_action_from_json(a) for a in rule) for rule in rules)
               for m, rules in d["actions"].items()}
    dfas = {}
    for name, states in d["modes"].items():
        n_rules = len(actions[name])
        rows = []
        for transitions, eof_target, accept in states:
            row = (tuple(tuple(t) for t in transitions), eof_target,
                   tuple(accept) if accept is not None else None)
            _check_dfa_row(name, len(rows), row, len(states), n_rules)
            rows.append(row)
        if not rows or rows[0][2] is not None:
            # a start state that accepts would match "" over and over
            raise _malformed("mode %s has no start state, or its start state accepts" % name)
        dfas[name] = ModeDfa(name, rows)
    if d["main_mode"] not in dfas:
        raise _malformed("main mode %r is not a mode" % (d["main_mode"],))
    return CompiledLexer(d["main_mode"], dfas, actions, frozenset(d["emittable"]))


def _check_dfa_row(mode: str, state: int, row, n_states: int, n_rules: int):
    """Reject a lexer DFA state whose transitions are not sorted disjoint
    [lo, hi, target] intervals over existing states, or whose accept is not
    null or [rule, token or null] naming one of the mode's rules."""
    transitions, eof_target, accept = row
    prev_hi = -1
    for t in transitions:
        if not (len(t) == 3 and all(type(x) is int for x in t)
                and prev_hi < t[0] <= t[1] and 0 <= t[2] < n_states):
            raise _malformed("mode %s state %d: transition %r is not an interval "
                             "after %d to one of %d states"
                             % (mode, state, list(t), prev_hi, n_states))
        prev_hi = t[1]
    if eof_target is not None and not (type(eof_target) is int
                                       and 0 <= eof_target < n_states):
        raise _malformed("mode %s state %d: eof target %r is not one of %d states"
                         % (mode, state, eof_target, n_states))
    if accept is not None and not (len(accept) == 2 and type(accept[0]) is int
                                   and 0 <= accept[0] < n_rules
                                   and (accept[1] is None or type(accept[1]) is str)):
        raise _malformed("mode %s state %d: accept %r is not null or [rule, token] "
                         "with one of %d rules" % (mode, state, list(accept), n_rules))


# ---------------------------------------------------------------------------
# Canonical JSON

_encode_str = json.encoder.encode_basestring
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode


class RawJson:
    """A value's canonical text, written for a place whose line has the
    indent of `newline` (a newline and that indent, as _canonical_json
    takes it): compiled.flatten writes the action and goto lists so."""

    __slots__ = ("text", "newline")

    def __init__(self, text: str, newline: str):
        self.text, self.newline = text, newline


def _canonical_json(v, newline: str = "\n") -> str:
    """json.dumps(v, sort_keys=True, indent=1, separators=(",", ": "),
    ensure_ascii=False) for a tree of str-keyed dicts, lists, str, int,
    float, bool and None (anything else, a tuple or a str subclass too, is a
    TypeError), one str.join per list or dict.  The tree may also hold
    RawJson pieces, written as they stand where their newline is that of
    their place and a ValueError anywhere else.  `newline` is a newline and
    the indent of v's own line.  A list item or dict value whose type is
    exactly str or int (so not a bool or an IntEnum) is encoded where it
    stands; the function calls itself only for the others, so once per
    list or dict and per float, bool, None or RawJson, not once per value.
    It calls itself from a plain loop, so it takes one frame per level of
    nesting: map or, before Python 3.12, a comprehension would add a level
    each."""
    t = type(v)
    if t is list:
        if not v:
            return "[]"
        inner = newline + " "
        items = []
        for x in v:
            tx = type(x)
            items.append(_encode_str(x) if tx is str else str(x) if tx is int
                         else _canonical_json(x, inner))
        return "[%s%s%s]" % (inner, ("," + inner).join(items), newline)
    if t is dict:
        if not v:
            return "{}"
        inner = newline + " "
        members = []
        for key in sorted(v):
            x = v[key]
            tx = type(x)
            members.append("%s: %s" % (_encode_str(key), _encode_str(x) if tx is str
                                       else str(x) if tx is int else _canonical_json(x, inner)))
        return "{%s%s%s}" % (inner, ("," + inner).join(members), newline)
    if t is str:
        return _encode_str(v)
    if t is int:
        return str(v)
    if t is float or t is bool or v is None:
        return _encode_scalar(v)
    if t is RawJson:
        if v.newline != newline:
            raise ValueError("JSON text rendered at indent %d placed at indent %d"
                             % (len(v.newline) - 1, len(newline) - 1))
        return v.text
    raise TypeError("%s is not a JSON value" % t.__name__)

