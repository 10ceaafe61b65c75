"""Canonical LR(k) table construction.

States are closed sets of items (production, dot, k-lookahead); lookaheads
are part of state identity, so there is no LALR-style merging.  The grammar
fed to the construction is the constraint-instance expansion, so attribute
and precedence admissibility are already baked into which productions exist
for each nonterminal copy.  Every table cell holds Shift, Reduce or Accept
actions; a cell with more than one is a conflict.

Lookaheads are interned: each k-tuple met gets a bit, and a set of
lookaheads is an int bitmask over those bits.  FIRST_k has one engine for
every k, on triples (mask of the complete k-tuples, whether the empty
string is among the shorter prefixes, the other shorter prefixes): _cat
concatenates two, a fixpoint per nonterminal walks each production left to
right until its prefix can grow no more, and _tails gives each step's FIRST
right to left.  At k = 1 the third part is always empty, so FIRST costs
mask operations alone; each terminal gets its bit up front, in sorted order.

The state table is keyed by kernel, the frozenset of ((production, dot),
mask) pairs of its kernel items: a goto target is looked up by its kernel
and closed only when its turn comes.  The closure adds only dot-0 items of
non-start productions, which no kernel holds, so kernels and closed states
match one to one and the numbering is that of keying by closed sets.

The closure works per nonterminal, not per item.  Each nonterminal (as an
int) the kernel reaches collects the mask of lookaheads it is reached with;
a worklist passes only newly found bits (add & ~old) on to the nonterminals
that begin its productions, through FIRST of what follows them (lookahead
propagation in the style of DeRemer and Pennello).  Gotos and actions are
assembled per (production, dot) core with its mask.

The closed item sets, (production, 0, w) for every production of every
reached nonterminal and each of its lookaheads w beside the kernel items,
are built only when LrTables.states is read item by item (dump_lr, tests).
Compiling, tracing conflicts and counting states use the kernels, gotos and
actions alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Dict, List, Set, Tuple

from .grammar import Cfg, InstGrammar, expand_instances
from .lexer import EOF_TERMINAL


# ---------------------------------------------------------------------------
# FIRST_k

_NONE = frozenset()
_EPS = (0, True, _NONE)       # FIRST of the empty sequence
_NOTHING = (0, False, _NONE)  # FIRST of what derives no terminal string


def first_k(cfg: Cfg, symbols, k: int) -> Set[tuple]:
    """FIRST_k of a symbol sequence (names; default constraint instances):
    the k-tuples it can begin with, and the shorter strings it derives.
    Each nonterminal named is expanded as a main, so one need not be
    reachable from the grammar's mains."""
    if k < 1:
        raise ValueError("k must be >= 1")
    defined = {p.lhs for p in cfg.productions}
    for s in symbols:
        if s not in cfg.terminals and s != EOF_TERMINAL and s not in defined:
            raise ValueError("%r is not a terminal or a nonterminal with productions" % s)
    nonterms = tuple(s for s in symbols if s not in cfg.terminals and s != EOF_TERMINAL)
    b = _Builder(replace(cfg, mains=cfg.mains + nonterms), k)
    full, grows, rest = b._tails([("n", b.ig.start_insts[s]) if s in nonterms else ("t", s)
                                  for s in symbols])[0]
    return {b.lookaheads[bit] for bit in _bits(full)} | rest | ({()} if grows else set())


# ---------------------------------------------------------------------------
# Tables

@dataclass
class ConflictSite:
    state: int
    lookahead: tuple
    actions: Tuple[tuple, ...]


class _ClosedStates(Sequence):
    """LrTables.states: the closed item sets, expanded from the kernels all
    at once on the first access to one of them."""

    def __init__(self, kernels: List[frozenset], expand):
        self._kernels = kernels
        self._expand = expand
        self._sets = None

    def __len__(self):
        return len(self._kernels)

    def __getitem__(self, i):
        if self._sets is None:
            self._sets = [self._expand(kernel) for kernel in self._kernels]
        return self._sets[i]


@dataclass
class LrTables:
    """The canonical LR(k) automaton of a grammar.

    `states` holds each state's closed item set, a frozenset of (production,
    dot, lookahead), read-only and built on first access to an item set;
    len(states) is the state count and builds none.  Everything else is
    filled by the construction."""

    k: int
    ig: InstGrammar
    prods: List[dict]  # unified production table (iprods + starts)
    states: Sequence[frozenset]
    action: Dict[Tuple[int, tuple], Tuple[tuple, ...]]
    goto: Dict[Tuple[int, object], int]
    starts: Dict[str, int]
    conflicts: List[ConflictSite]

    def actions_at(self, state: int, la: tuple) -> Tuple[tuple, ...]:
        return self.action.get((state, la), ())

    def display_production(self, pi: int) -> str:
        p = self.prods[pi]
        if p["kind"] == "start":
            return "%s' -> %s" % (p["main"], p["main"])
        base = p["iprod"].base
        rhs = " ".join(s.symbol for s in base.slots)
        return "%s -> %s" % (base.lhs, rhs if base.slots else "%empty")

    def display_action(self, a: tuple) -> str:
        if a[0] == "shift":
            return "Shift"
        if a[0] == "reduce":
            return "Reduce(%s)" % self.display_production(a[1])
        if a[0] == "accept":
            return "Accept"
        raise ValueError(a)


class _Builder:
    def __init__(self, cfg: Cfg, k: int):
        self.cfg = cfg
        self.k = k
        self.ig = expand_instances(cfg)

        self.prods: List[dict] = []
        for ip in self.ig.iprods:
            self.prods.append({"kind": "prod", "lhs": ip.lhs, "rhs": ip.rhs, "iprod": ip})
        self.aug_of: Dict[str, int] = {}
        for m in cfg.mains:
            inst = self.ig.start_insts[m]
            self.aug_of[m] = len(self.prods)
            self.prods.append({"kind": "start", "lhs": None, "main": m,
                               "rhs": (("n", inst),)})

        # lookahead k-tuples, interned: bit b of a mask stands for lookaheads[b]
        self.lookaheads: List[tuple] = []
        self._bit_of: Dict[tuple, int] = {}
        self._ext_cache: Dict[Tuple[frozenset, int, frozenset], tuple] = {}

        # nonterminals as ints, with the productions of each
        self.nt_of = {inst: n for n, inst in enumerate(self.ig.insts)}
        self.prods_of = [[ip.ipid for ip in self.ig.by_lhs[inst]] for inst in self.ig.insts]
        # FIRST_k of each terminal and each nonterminal: see steps below
        self.term_first = {t: self._words([(t,)])
                           for t in sorted(cfg.terminals | {EOF_TERMINAL})}
        self.first = self._fixpoint()
        # goto keys (terminals and nonterminals) as ranks in goto order
        keys = {sym if sym[0] == "t" else sym[1] for p in self.prods for sym in p["rhs"]}
        self.keys = sorted(keys, key=_sym_sort_key)
        rank_of = {key: r for r, key in enumerate(self.keys)}

        # What the core (production, dot) does, per production and dot: None
        # at the end, where end_act[production] applies, and otherwise (next
        # core, goto rank, nonterminal or -1, FIRST).  FIRST is that of what
        # follows the nonterminal, or of the terminal and what follows it, as
        # (mask of its complete k-tuples, whether the empty prefix is among
        # the shorter ones, the other shorter ones).
        self.end_act: List[tuple] = []
        self.steps: List[List[tuple]] = []
        for pi, p in enumerate(self.prods):
            rhs = p["rhs"]
            self.end_act.append(("accept", p["main"]) if p["kind"] == "start"
                                else ("reduce", pi))
            tails = self._tails(rhs)
            row = []
            for dot, sym in enumerate(rhs):
                if sym[0] == "t":
                    key, n, tail = sym, -1, dot
                else:
                    key, n, tail = sym[1], self.nt_of[sym[1]], dot + 1
                row.append(((pi, dot + 1), rank_of[key], n, tails[tail]))
            row.append(None)
            self.steps.append(row)

        # For each nonterminal N, each nonterminal M that begins one of N's
        # productions, with FIRST of what follows M there: the closure passes
        # N's lookaheads on to M along these edges.
        self.corners = [[(step[2], step[3]) for step in (self.steps[pi][0] for pi in pis)
                         if step is not None and step[2] >= 0]
                        for pis in self.prods_of]

    # -- FIRST_k on lookahead masks -------------------------------------------

    def _mask(self, tuples) -> int:
        mask = 0
        for w in tuples:
            b = self._bit_of.get(w)
            if b is None:
                b = self._bit_of[w] = len(self.lookaheads)
                self.lookaheads.append(w)
            mask |= 1 << b
        return mask

    def _words(self, words) -> tuple:
        """The FIRST of non-empty terminal tuples no longer than k: those of
        length k as a mask, the shorter ones as they are."""
        k = self.k
        return (self._mask(w for w in words if len(w) == k), False,
                frozenset(w for w in words if len(w) < k))

    def _ext(self, rest: frozenset, mask: int, more: frozenset = _NONE) -> tuple:
        """The shorter prefixes rest, each followed by each lookahead in
        mask and by each shorter prefix in more, as a FIRST; cached per
        (rest, mask, more)."""
        key = (rest, mask, more)
        got = self._ext_cache.get(key)
        if got is None:
            las = self.lookaheads
            got = self._ext_cache[key] = self._words(
                _extend(rest, [las[b] for b in _bits(mask)] + list(more), self.k))
        return got

    def _cat(self, a: tuple, b: tuple) -> tuple:
        """The FIRST of a sequence with FIRST a followed by one with FIRST b."""
        full, grows, rest = a
        b_full, b_grows, b_rest = b
        out_full = full | b_full if grows else full
        out_rest = b_rest if grows else _NONE
        if rest:
            if b_grows:
                out_rest = out_rest | rest
            if b_full or b_rest:
                ext_full, _, ext_rest = self._ext(rest, b_full, b_rest)
                out_full |= ext_full
                out_rest = out_rest | ext_rest
        return out_full, grows and b_grows, out_rest

    def _after(self, first: tuple, mask: int) -> int:
        """The lookaheads of a FIRST followed by any lookahead in mask, the
        closure's case of _cat.  For k = 1, rest is always empty, so this
        is full | (mask if grows else 0)."""
        full, grows, rest = first
        if grows:
            full |= mask
        if rest:
            full |= self._ext(rest, mask)[0]
        return full

    def _fixpoint(self) -> List[tuple]:
        """FIRST_k of each nonterminal, by its number.  The productions are
        walked in turn until a pass changes nothing, each up to where its
        prefix can grow no more."""
        nt_of, cat = self.nt_of, self._cat
        # the FIRST of each nonterminal, then of each terminal; a production
        # as (lhs, rhs) with each symbol in rhs as its index here
        first = [_NOTHING] * len(nt_of) + list(self.term_first.values())
        term_at = {t: i for i, t in enumerate(self.term_first, len(nt_of))}
        rules = [(nt_of[ip.lhs], [term_at[sym[1]] if sym[0] == "t" else nt_of[sym[1]]
                                  for sym in ip.rhs])
                 for ip in self.ig.iprods]
        changed = True
        while changed:
            changed = False
            for lhs, rhs in rules:
                full, grows, rest = _EPS
                for x in rhs:
                    if rest:
                        full, grows, rest = cat((full, grows, rest), first[x])
                    else:  # of the shorter prefixes only the empty one is left
                        x_full, grows, rest = first[x]
                        full |= x_full
                    if not (grows or rest):
                        break
                old_full, old_grows, old_rest = first[lhs]
                if (full & ~old_full or grows and not old_grows
                        or rest and not rest <= old_rest):
                    first[lhs] = (full | old_full, grows or old_grows, rest | old_rest)
                    changed = True
        return first[:len(nt_of)]

    def _tails(self, rhs) -> List[tuple]:
        """FIRST_k of rhs[i:] for each i from 0 to len(rhs), as the
        left-to-right walk makes it.  _cat is associative except across a
        symbol that derives no terminal string: a prefix that reaches it
        dies there unless it is already complete.  So such a symbol starts
        the walk from the right over, and the tails left of it keep only
        their complete k-tuples."""
        tail, cut = _EPS, False
        tails = [tail]
        for sym in reversed(rhs):
            first = (self.term_first[sym[1]] if sym[0] == "t"
                     else self.first[self.nt_of[sym[1]]])
            if first == _NOTHING:
                tail, cut = _EPS, True
            else:
                tail = self._cat(first, tail)
            tails.append((tail[0], False, _NONE) if cut else tail)
        tails.reverse()
        return tails

    # -- closure --------------------------------------------------------------

    def _closure(self, kernel) -> Dict[int, int]:
        """The lookahead mask each nonterminal is reached with when closing
        kernel, a set of ((production, dot), mask)."""
        steps, corners, after = self.steps, self.corners, self._after
        las: Dict[int, int] = {}    # every lookahead each is reached with
        fresh: Dict[int, int] = {}  # those not yet passed on
        edges = []                  # (nonterminal, FIRST, mask) to feed
        for (pi, dot), mask in kernel:
            step = steps[pi][dot]
            if step is not None and step[2] >= 0:
                edges.append((step[2], step[3], mask))
        while True:
            for m, first, mask in edges:
                old = las.get(m, 0)
                new = after(first, mask) & ~old
                if new:
                    las[m] = old | new
                    fresh[m] = fresh.get(m, 0) | new
            if not fresh:
                return las
            n, mask = fresh.popitem()
            edges = [(m, first, mask) for m, first in corners[n]]

    def _items(self, kernel) -> frozenset:
        """The closed item set of kernel, as (production, dot, lookahead)."""
        las = self.lookaheads
        items = [(pi, dot, las[b]) for (pi, dot), mask in kernel for b in _bits(mask)]
        for n, mask in self._closure(kernel).items():
            ws = [las[b] for b in _bits(mask)]
            for cpi in self.prods_of[n]:
                items.extend([(cpi, 0, w) for w in ws])
        return frozenset(items)

    # -- main construction ------------------------------------------------------

    def build(self) -> LrTables:
        k = self.k
        steps, end_act, keys, prods_of = self.steps, self.end_act, self.keys, self.prods_of
        after, las = self._after, self.lookaheads
        kernels: List[frozenset] = []
        state_of: Dict[frozenset, int] = {}  # kernel -> state
        goto: Dict[Tuple[int, object], int] = {}
        action: Dict[Tuple[int, tuple], Tuple[tuple, ...]] = {}
        conflicts: List[ConflictSite] = []
        starts: Dict[str, int] = {}

        # states are numbered by kernel and closed when their turn comes
        def ensure_state(kernel: frozenset) -> int:
            got = state_of.get(kernel)
            if got is None:
                got = state_of[kernel] = len(kernels)
                kernels.append(kernel)
            return got

        eof = self._mask([(EOF_TERMINAL,) * k])
        for m in self.cfg.mains:
            starts[m] = ensure_state(frozenset([((self.aug_of[m], 0), eof)]))

        idx = 0
        while idx < len(kernels):
            kernel = kernels[idx]
            closed = list(kernel)
            for n, mask in self._closure(kernel).items():
                closed.extend([((cpi, 0), mask) for cpi in prods_of[n]])

            by_rank: Dict[int, list] = {}  # goto rank -> target kernel
            shifts: Dict[int, int] = {}    # terminal's goto rank -> lookaheads
            acts = []                      # (action, lookaheads)
            for (pi, dot), mask in closed:
                step = steps[pi][dot]
                if step is None:
                    acts.append((end_act[pi], mask))
                    continue
                nxt, rank, n, first = step
                by_rank.setdefault(rank, []).append((nxt, mask))
                if n < 0:
                    shifts[rank] = shifts.get(rank, 0) | after(first, mask)

            for rank in sorted(by_rank):
                goto[(idx, keys[rank])] = ensure_state(frozenset(by_rank[rank]))
            for rank, mask in shifts.items():
                acts.append((("shift", goto[(idx, keys[rank])]), mask))
            cells: Dict[int, list] = {}  # lookahead bit -> actions
            for act, mask in acts:
                for b in _bits(mask):
                    cells.setdefault(b, []).append(act)
            for b in sorted(cells, key=las.__getitem__):
                cell = cells[b]
                w = las[b]
                if len(cell) == 1:
                    action[(idx, w)] = tuple(cell)
                else:
                    distinct = tuple(sorted(cell, key=_act_sort_key))
                    action[(idx, w)] = distinct
                    conflicts.append(ConflictSite(idx, w, distinct))
            idx += 1

        return LrTables(k, self.ig, self.prods, _ClosedStates(kernels, self._items),
                        action, goto, starts, conflicts)


def _extend(partial: frozenset, las, k: int) -> Set[tuple]:
    """Each shorter FIRST prefix in partial followed by each of las, cut to
    length k."""
    return {(p + w)[:k] for p in partial for w in las}


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sym_sort_key(key):
    if isinstance(key, tuple) and key and key[0] == "t":
        return (0, key[1], "", 0)
    return (1, key.base, ",".join(sorted(key.reqs)), key.bound)


_ACT_ORDER = {"reduce": 0, "shift": 1, "accept": 2}


def _act_sort_key(a):
    return (_ACT_ORDER[a[0]],) + tuple(str(x) for x in a[1:])


def build_lr(cfg: Cfg, k: int) -> LrTables:
    """Build canonical LR(k) tables; conflicts are collected, not raised."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _Builder(cfg, k).build()


def run_compile_tests(spec, cfg: Cfg):
    """Evaluate the compile_test stanza: LR(k) passes iff conflict-free."""
    results = []
    for decl in spec.compile_tests:
        tables = build_lr(cfg, decl.k) if decl.k >= 1 else None
        ok = tables is not None and not tables.conflicts
        results.append((decl, ok == decl.expect_success))
    return results


# ---------------------------------------------------------------------------
# Dump

def dump_lr(tables: LrTables) -> str:
    out = ["LR(%d) automaton: %d states, %d conflicts" %
           (tables.k, len(tables.states), len(tables.conflicts))]
    start_of = {s: m for m, s in tables.starts.items()}
    cells: Dict[int, list] = {}
    for (st, la), actions in tables.action.items():
        cells.setdefault(st, []).append((la, actions))
    for idx, items in enumerate(tables.states):
        mark = "  (start %s)" % start_of[idx] if idx in start_of else ""
        out.append("state %d:%s" % (idx, mark))
        for pi, dot, la in sorted(items):
            p = tables.prods[pi]
            syms = [s[1] if s[0] == "t" else s[1].base for s in p["rhs"]]
            syms.insert(dot, ".")
            lhs = p["lhs"].base if p["lhs"] is not None else p["main"] + "'"
            out.append("    %s -> %s , %s" % (lhs, " ".join(syms), " ".join(la)))
        for la, actions in sorted(cells.get(idx, ())):
            for a in actions:
                out.append("    [%s] %s" % (" ".join(la), tables.display_action(a)))
    return "\n".join(out) + "\n"
