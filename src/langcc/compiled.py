"""The deployable artifact: CompiledLang.

Flattens the compiled lexer, LR tables, assembly metadata, AST field kinds,
and print templates into plain dict/list structures.  Serialization is
canonical JSON (sorted keys, versioned), so artifacts are byte-identical
across runs and friendly to version control.  CompiledLang also resolves
the field kinds and templates into the per-variant plans the tree walks
read (data_plan for runtime.node_to_data_value, print_plan for
printer.pretty_print), once per variant, when the variant is first met:
resolving every variant at load would add a few percent to loading.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional

from .grammar import Cfg, lower_grammar, lower_precedence
from .lexer import EOF_TERMINAL, CompiledLexer, ModeDfa, compile_lexer
from .lr import LrTables, build_lr
from .meta_frontend import parse_lang_spec
from .spec_ast import (
    AEmit, APass, APop, APopEmit, APopExtract, APush, LangSpec, SpecError,
)

FORMAT_VERSION = 1


def _untuple(x):
    """JSON round-trips tuples as lists; normalize kinds/templates to tuples."""
    if isinstance(x, list):
        return tuple(_untuple(i) for i in x)
    return x


class CompiledLang:
    """Runtime-facing compiled language: everything the parser, printer, and
    validators need, with no references back to build-time structures."""

    def __init__(self, data: dict, text: str):
        """`data` is the artifact's JSON tree and `text` a JSON text of it.
        The indexes are built from the tree, which is not kept: it is most
        of a loaded artifact's size.  to_json decodes the text again."""
        self._text = text
        self._build_indexes(data)

    def _build_indexes(self, d: dict):
        self.prods, self.action_rows, self.goto_rows = _load_tables(d)
        # prods[p]: (kind, rhs_len, lhs_ref, data), see P_USER and below.
        # action_rows[state]: lookahead -> action cell, keyed by the terminal
        # itself when k = 1 and by the k-tuple of terminals otherwise.  A cell
        # is an int: shift to state s is s, accept is -1, and reduce by
        # production p is -2 - p.  goto_rows[state]: nonterminal ref -> target
        self.k = d["k"]
        self.mains = list(d["mains"])
        self.digest = d["digest"]
        self.indent_unit = d["indent_unit"]
        self.starts = dict(d["starts"])
        self.ast_fields: Dict[str, list] = {}
        for vk in sorted(d["ast"]):
            self.ast_fields[vk] = [(f[0], _untuple(f[1])) for f in d["ast"][vk]]
        self.print_templates = {vk: _untuple(tmpl)
                                for vk, tmpl in d["templates"].items()}
        # variant tuple -> its plan for the tree walks, filled in by
        # data_plan and print_plan as variants are first met
        self.data_plans: Dict[tuple, tuple] = {}
        self.print_plans: Dict[tuple, tuple] = {}
        self.variant_prefixes = set()
        for vk in self.ast_fields:
            parts = tuple(vk.split("::"))
            for i in range(1, len(parts) + 1):
                self.variant_prefixes.add(parts[:i])
        self.lexer = _lexer_from_json(d["lexer"])

    @property
    def default_start(self) -> str:
        return self.mains[0]

    def data_plan(self, variant: tuple) -> tuple:
        """(variant key, {field: data plan}) of a node variant, which
        runtime.node_to_data_value reads: resolved from the AST field kinds
        the first time the variant is met, then kept in data_plans.  A
        variant the grammar does not have gets no fields (and is not kept),
        so each field of it is unknown."""
        vk = "::".join(variant)
        fields = self.ast_fields.get(vk)
        if fields is None:
            return (vk, {})
        plan = self.data_plans[variant] = (
            vk, {name: _data_plan(kind, vk, name) for name, kind in fields})
        return plan

    def print_plan(self, variant: tuple) -> Optional[tuple]:
        """(variant key, print entries) of a node variant, which
        printer.pretty_print reads: its template reversed, each entry
        literal text or (field name, print plan of its kind), resolved the
        first time the variant is met, then kept in print_plans.  None for a
        variant with no template."""
        vk = "::".join(variant)
        tmpl = self.print_templates.get(vk)
        if tmpl is None:
            return None
        plan = self.print_plans[variant] = (
            vk, _entries(tmpl, kinds=dict(self.ast_fields.get(vk, ()))))
        return plan

    def to_json(self) -> str:
        """The canonical JSON text of the artifact: sorted keys, one-space
        indents, a newline at the end.  Each top-level field is encoded on
        its own (see _compact_json) and indented one more step."""
        tree = json.loads(self._text)
        encode = json.JSONEncoder(sort_keys=True, indent=1, separators=(",", ": "),
                                  ensure_ascii=False).encode
        return "{\n%s\n}\n" % ",\n".join(
            " %s: %s" % (encode(key), encode(tree[key]).replace("\n", "\n "))
            for key in sorted(tree))

    @classmethod
    def from_json(cls, text: str) -> "CompiledLang":
        data = json.loads(text)
        if data.get("version") != FORMAT_VERSION:
            raise SpecError("unsupported artifact version %r" % data.get("version"))
        if data.get("rd") is not False:
            raise SpecError("unsupported artifact: rd=%r (recursive-descent actions "
                            "are not supported)" % data.get("rd"))
        try:
            return cls(data, text)
        except KeyError as e:
            raise SpecError("malformed artifact: missing key %r" % e.args[0]) from None
        except (TypeError, ValueError, AttributeError, IndexError) as e:
            # a wrongly shaped part that _check_tables does not inspect
            raise SpecError("malformed artifact: %s" % e) from None

    def __eq__(self, other):
        return isinstance(other, CompiledLang) and self.to_json() == other.to_json()


def _malformed(what: str) -> SpecError:
    return SpecError("malformed artifact: " + what)


# ---------------------------------------------------------------------------
# Tree-walk plans: the AST field kinds and print templates, resolved once per
# variant so the walks over a tree index them instead of re-reading kinds.
# A kind or template of the wrong shape is a malformed artifact, rejected
# when its variant is first met.

K_NODE, K_TOKEN, K_ENUM, K_SEQ, K_OPT, K_BOOL = range(6)  # plan tags
_KIND_TAGS = {"node": K_NODE, "token": K_TOKEN, "enum": K_ENUM, "seq": K_SEQ,
              "opt": K_OPT, "bool": K_BOOL}
_KIND_LENGTHS = {K_NODE: 2, K_TOKEN: 2, K_ENUM: 2, K_SEQ: 6, K_OPT: 4, K_BOOL: 2}
F_LINE, F_BLOCK, F_BLOCK2, F_TOP, F_TOP2 = range(5)  # sequence flavors
_FLAVORS = {"L": F_LINE, "B": F_BLOCK, "B2": F_BLOCK2, "T": F_TOP, "T2": F_TOP2}
CONTENT = object()  # the place of an option's content in its print entries


def _kind_tag(kind) -> int:
    tag = _KIND_TAGS.get(kind[0]) if type(kind) is tuple and kind else None
    if tag is None or len(kind) != _KIND_LENGTHS[tag]:
        raise _malformed("AST field kind %r is not one of %s" % (kind, ", ".join(_KIND_TAGS)))
    return tag


def _data_plan(kind, vk: str, name: str) -> tuple:
    """(tag, element plan, enum type name, field description) of the field
    `name` of variant vk: what node_to_data_value checks and builds.  The
    element plan is that of a sequence's items or an option's content."""
    tag = _kind_tag(kind)
    sub = _data_plan(kind[1], vk, name) if tag in (K_SEQ, K_OPT) else None
    enum_type = "_".join(vk.split("::") + [name]) if tag == K_ENUM else None
    return (tag, sub, enum_type, "field %s.%s" % (vk, name))


def _entries(tmpl, content=None, kinds=None) -> tuple:
    """A print template as the reversed tuple of what pretty_print pushes:
    literal text as strings, adjacent ones joined, `content` where an
    option's template holds its content (no other template has one), and
    (field name, print plan) for a field of a node template, whose field
    kinds are `kinds`."""
    if type(tmpl) is not tuple:
        raise _malformed("print template %r is not a list" % (tmpl,))
    out = []
    for it in tmpl:
        if type(it) is not tuple or not it:
            tag = None
        else:
            tag = it[0]
        if tag in ("verbatim", "lit") and len(it) == 2 and type(it[1]) is str:
            if out and type(out[-1]) is str:
                out[-1] += it[1]
            else:
                out.append(it[1])
        elif tag == "content" and len(it) == 1 and content is not None:
            out.append(content)
        elif tag == "field" and len(it) == 2 and kinds is not None:
            if it[1] not in kinds:
                raise _malformed("print template field %r has no kind" % (it[1],))
            out.append((it[1], _print_kind(kinds[it[1]])))
        else:
            raise _malformed("print template item %r is not literal text%s%s"
                             % (it, " or content" if content is not None else "",
                                " or a field" if kinds is not None else ""))
    return tuple(reversed(out))


def _print_kind(kind) -> tuple:
    """The print plan of an AST field kind: (K_NODE,), (K_TOKEN,),
    (K_SEQ, element plan, flavor, delimiter entries, trailing),
    (K_OPT, content plan, entries), (K_BOOL, entries) or
    (K_ENUM, {label: entries})."""
    tag = _kind_tag(kind)
    if tag in (K_NODE, K_TOKEN):
        return (tag,)
    if tag == K_SEQ:
        _t, elem, flavor, delim, trailing, _min = kind
        if flavor not in _FLAVORS:
            raise _malformed("sequence flavor %r is not one of %s"
                             % (flavor, ", ".join(_FLAVORS)))
        return (tag, _print_kind(elem), _FLAVORS[flavor], _entries(delim), trailing)
    if tag == K_OPT:
        return (tag, _print_kind(kind[1]), _entries(kind[2], CONTENT))
    if tag == K_BOOL:
        return (tag, _entries(kind[1]))
    branches = {}
    for branch in kind[1]:
        if not (type(branch) is tuple and len(branch) == 2 and type(branch[0]) is str):
            raise _malformed("enum branch %r is not (label, template)" % (branch,))
        branches.setdefault(branch[0], _entries(branch[1]))  # the first one wins
    return (tag, branches)


# CompiledLang.prods[p] is (kind, rhs_len, lhs_ref, data), kind one of:
P_USER = 0  # data: (variant tuple, ((field name, is_slot, slot index, label), ...))
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


def _prod_tuple(p) -> tuple:
    """The (kind, rhs_len, lhs_ref, data) entry the parse loop reads for the
    artifact production p, which is ["start", 1, main],
    ["user", rhs_len, lhs_ref, variant_key, fields, display], or
    [kind, rhs_len, lhs_ref, assembly list, display].  Rejects a production
    that names a slot past its right-hand side."""
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
        fields = []
        for f in p[4]:
            if not (type(f) is list and len(f) == 2 and type(f[0]) is str
                    and type(f[1]) is list and len(f[1]) >= 2
                    and f[1][0] in ("slot", "enum_inline")):
                raise _malformed("production %r has malformed fields" % (p,))
            name, src = f
            if src[0] == "slot":
                fields.append((name, True, slot(src[1]), None))
            elif len(src) == 3 and type(src[2]) is str:
                fields.append((name, False, slot(src[1]), src[2]))
            else:
                raise _malformed("production %r has an enum field with no label" % (p,))
        return (kind, n, p[2], (tuple(p[3].split("::")), tuple(fields)))
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


def _load_tables(d: dict):
    """Check the artifact's parser tables and build from them, in one pass
    over its action and goto lists, the prods, action_rows and goto_rows
    that CompiledLang holds.

    Rejects tables holding values of the wrong type or referring to states
    that do not exist, which would otherwise load and fail only when a
    parse reaches them.  Also rejects a shift on the end of input, the
    reduce of a start production, and a reduce in some state of a
    production longer than the shortest path of shifts and gotos from a
    start state to it: the stack in that state can be that short, and in a
    valid automaton every path into a state that reduces p ends with p's
    right-hand side.  The number of states is one more than the largest
    state that has an action or a goto.
    (Messages are formatted only on failure: this runs on every load.)"""
    k = d["k"]
    if type(k) is not int or k < 1:
        raise _malformed("k is %r, not a positive integer" % (k,))
    mains = d["mains"]
    if type(mains) is not list or not mains or not all(type(m) is str for m in mains):
        raise _malformed("mains is %r, not a list of names" % (mains,))
    prods = [_prod_tuple(p) for p in d["prods"]]
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
            row[ref] = target
    starts = d["starts"]
    if type(starts) is not dict or not all(type(s) is int for s in starts.values()):
        raise _malformed("starts is %r, not a map of names to states" % (starts,))
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

def _action_to_json(a):
    if isinstance(a, AEmit):
        return ["emit"]
    if isinstance(a, APass):
        return ["pass"]
    if isinstance(a, APush):
        return ["push", a.mode]
    if isinstance(a, APop):
        return ["pop"]
    if isinstance(a, APopExtract):
        return ["pop_extract"]
    if isinstance(a, APopEmit):
        return ["pop_emit", a.token]
    raise TypeError(a)


def _action_from_json(j):
    tag = j[0]
    if tag == "emit":
        return AEmit()
    if tag == "pass":
        return APass()
    if tag == "push":
        return APush(j[1])
    if tag == "pop":
        return APop()
    if tag == "pop_extract":
        return APopExtract()
    if tag == "pop_emit":
        return APopEmit(j[1])
    raise ValueError(j)


def _lexer_to_json(lx: CompiledLexer) -> dict:
    modes = {}
    for name in sorted(lx.dfas):
        dfa = lx.dfas[name]
        states = []
        for transitions, eof_target, accept in dfa.states:
            states.append([
                [list(t) for t in transitions],
                eof_target,
                list(accept) if accept is not None else None,
            ])
        modes[name] = states
    actions = {m: [[_action_to_json(a) for a in rule] for rule in rules]
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
        dfas[name] = ModeDfa(name, rows)
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
# Flattening build products into an artifact

def _decode_template(tmpl, lit_text):
    out = []
    for it in tmpl:
        if it[0] == "lit":
            out.append(["lit", lit_text(it[1])])
        elif it[0] == "verbatim":
            out.append(["verbatim", it[1]])
        elif it[0] == "content":
            out.append(["content"])
        else:
            raise AssertionError(it)
    return out


def _kind_to_json(kind, lit_text):
    tag = kind[0]
    if tag in ("token", "node"):
        return [tag, kind[1]]
    if tag == "seq":
        return ["seq", _kind_to_json(kind[1], lit_text),
                kind[2], _decode_template(kind[3], lit_text), kind[4], kind[5]]
    if tag == "opt":
        return ["opt", _kind_to_json(kind[1], lit_text),
                _decode_template(kind[2], lit_text), kind[3]]
    if tag == "bool":
        return ["bool", _decode_template(kind[1], lit_text)]
    if tag == "enum":
        return ["enum", [[label, _decode_template(t, lit_text)]
                         for label, t in kind[1]]]
    raise AssertionError(kind)


def flatten(spec: LangSpec, cfg: Cfg, lexer: CompiledLexer, tables: LrTables,
            digest: str) -> CompiledLang:
    from .meta_frontend import decode_backtick

    opaque = set(spec.opaque_names())

    def lit_text(term: str) -> str:
        if term in opaque:
            raise AssertionError("opaque token in a literal template: %r" % term)
        return decode_backtick(term)

    inst_index = {}

    def inst_ref(inst) -> str:
        if inst not in inst_index:
            inst_index[inst] = inst.mangled()
        return inst_index[inst]

    prods_json = []
    for p in tables.prods:
        if p["kind"] == "start":
            prods_json.append(["start", 1, p["main"]])
            continue
        base = p["iprod"].base
        lhs_ref = inst_ref(p["lhs"])
        display = tables.display_production(len(prods_json))
        if base.kind == "user":
            vk = "::".join((base.lhs,) + base.variant)
            fields = []
            for name, src in base.fields:
                if src[0] == "slot":
                    fields.append([name, ["slot", src[1]]])
                else:
                    _, idx, label, tmpl = src
                    fields.append([name, ["enum_inline", idx, label]])
            prods_json.append(["user", len(base.slots), lhs_ref, vk, fields, display])
        elif base.kind == "enum":
            prods_json.append(["enum", len(base.slots), lhs_ref,
                               [base.label], display])
        else:
            prods_json.append([base.kind, len(base.slots), lhs_ref,
                               list(base.asm), display])

    action_json = []
    for (state, la) in sorted(tables.action):
        acts = tables.action[(state, la)]
        if len(acts) != 1:
            raise SpecError("cannot flatten tables with conflicts")
        action_json.append([state, list(la), list(acts[0])])

    goto_json = []
    for (state, key) in sorted(tables.goto,
                               key=lambda sk: (sk[0], _goto_key_str(sk[1]))):
        target = tables.goto[(state, key)]
        if isinstance(key, tuple) and key[0] == "t":
            goto_json.append([state, "t", key[1], target])
        else:
            goto_json.append([state, "n", inst_ref(key), target])

    ast_json = {}
    templates_json = {}
    shape = cfg.ast_shape
    for nt in shape.variants:
        for path, fields in shape.variants[nt].items():
            vk = "::".join((nt,) + path)
            ast_json[vk] = [[name, _kind_to_json(kind, lit_text)]
                            for name, kind in fields]
    for p in cfg.productions:
        if p.kind != "user":
            continue
        vk = "::".join((p.lhs,) + p.variant)
        field_of_slot = {}
        for name, src in p.fields:
            if src[0] == "slot":
                field_of_slot[src[1]] = ("field", name)
            else:
                field_of_slot[src[1]] = ("field", name)
        items = []
        for it in p.template:
            if it[0] == "verbatim":
                items.append(["verbatim", it[1]])
            else:
                idx = it[1]
                if idx in field_of_slot:
                    items.append(["field", field_of_slot[idx][1]])
                else:
                    slot = p.slots[idx]
                    if not slot.is_terminal:
                        raise SpecError("unbound nonterminal slot %r in %s" % (slot, vk))
                    items.append(["lit", lit_text(slot.symbol)])
        templates_json[vk] = items

    data = {
        "version": FORMAT_VERSION,
        "digest": digest,
        "k": tables.k,
        "rd": False,  # no recursive-descent actions; the key keeps the format unchanged
        "mains": list(cfg.mains),
        "indent_unit": 4,
        "terminals": sorted(cfg.terminals),
        "lexer": _lexer_to_json(lexer),
        "action": action_json,
        "goto": goto_json,
        "starts": {m: s for m, s in sorted(tables.starts.items())},
        "prods": prods_json,
        "ast": ast_json,
        "templates": templates_json,
    }
    return CompiledLang(data, _compact_json(data))


def _compact_json(data: dict) -> str:
    """The artifact tree as compact JSON.  json.dumps keeps every small
    piece of its output until it joins them, several times the size of the
    text, so each list is encoded a slice at a time."""
    encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode
    fields = []
    for key, value in data.items():
        if type(value) is list:
            value = "[%s]" % ",".join(encode(value[i:i + 512])[1:-1]
                                      for i in range(0, len(value), 512))
        else:
            value = encode(value)
        fields.append("%s:%s" % (encode(key), value))
    return "{%s}" % ",".join(fields)


def _goto_key_str(key):
    if isinstance(key, tuple) and key and key[0] == "t":
        return "t:" + key[1]
    return "n:" + key.mangled()


# ---------------------------------------------------------------------------
# Compile pipeline

@dataclass
class CompileResult:
    ok: bool
    spec: LangSpec
    cfg: Optional[Cfg] = None
    lexer: Optional[CompiledLexer] = None
    tables: Optional[LrTables] = None
    k_used: Optional[int] = None
    compiled: Optional[CompiledLang] = None


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def compile_lang(source: str, max_k: int = 2, start_k: int = 1) -> CompileResult:
    """Full pipeline: frontend, lexer DFAs, lowering, LR(k) with k retry.

    On conflicts at every k up to max_k, returns ok=False with the tables of
    the first k attempted (their conflicts feed the exemplar tracer).
    """
    spec = parse_lang_spec(source)
    lexer = compile_lexer(spec)
    cfg, _shape = lower_grammar(spec)
    cfg = lower_precedence(spec, cfg)

    missing = sorted(t for t in cfg.terminals if t not in lexer.emittable)
    if missing:
        raise SpecError("parser uses terminal(s) the lexer never emits: %s"
                        % ", ".join(missing))

    first_tables = None
    for k in range(start_k, max_k + 1):
        tables = build_lr(cfg, k)
        if first_tables is None:
            first_tables = tables
        if not tables.conflicts:
            compiled = flatten(spec, cfg, lexer, tables, source_digest(source))
            return CompileResult(True, spec, cfg, lexer, tables, k, compiled)
    return CompileResult(False, spec, cfg, lexer, first_tables, start_k)
