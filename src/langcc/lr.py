"""Canonical LR(k) table construction.

States are closed sets of items (production, dot, k-lookahead); lookaheads
are part of state identity, so there is no LALR-style merging.  The grammar
fed to the construction is the constraint-instance expansion, so attribute
and precedence admissibility are already baked into which productions exist
for each nonterminal copy.  Each state's actions are Shift, Reduce and
Accept, each with the mask of lookaheads it applies on; a lookahead in two
masks of one state is a conflict.

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
assembled per (production, dot) core with its mask: a kernel's cores one
by one, and each reached nonterminal's productions from a table of their
first steps made once per build.  A shift goes to the target its goto
found, and the actions are sorted by keys made once per action.

The closed item sets, (production, 0, w) for every production of every
reached nonterminal and each of its lookaheads w beside the kernel items,
are built only when LrTables.states is read item by item (dump_lr, tests).
Compiling, tracing conflicts and counting states use the kernels, gotos and
actions alone.  Actions stay masks too: the builder finds conflicts by
AND-ing each state's masks (looking further only where two clash), and the
conflict tracer tests a lookahead's bit in them.  LrTables.ranks gives the
ranks (places in lookahead order) of a mask's lookaheads, made once per
distinct mask, so expanding a state's masks in lookahead order takes one
sort of ints: flatten expands them so itself, and LrTables.cells does for
dump_lr, one state's per-lookahead cells at a time.  LrTables.action, a
view of every state's cells built on its first read, is read by nothing in
this package: it is kept for the tests (tests/oracle.py makes the
artifact's action list from it) and the benchmark's cell count.

LrTables is put in the instance grammar's own terms (IProd productions,
goto keys that are rhs symbols), so its readers take the tables alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, FrozenSet, List, Set, Tuple

from .grammar import Cfg, Inst, InstGrammar, IProd, Production, Slot, expand_instances
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

    `prods` is ig.iprods followed by one start production per main: an
    IProd whose lhs is None, whose rhs is the main's instance and whose
    base is a Production of kind "start" (pid -1) with the main as its lhs
    and its one slot.  A production number is an index into `prods`.

    `states` holds each state's closed item set, a frozenset of (production,
    dot, lookahead), read-only and built on first access to an item set;
    len(states) is the state count and builds none.

    `acts[state]` lists the state's (action, mask) pairs, sorted by action;
    bit b of a mask stands for the lookahead k-tuple `lookaheads[b]`.  Each
    of `conflicts` is a lookahead bit set in two masks of one state, with
    the actions of those masks.  `la_order` lists the lookahead bits in
    lookahead order, and `ranks[mask]` the ranks (places in la_order) of
    mask's lookaheads; flatten reads those.  cells(state) expands a state's
    masks into its cells, for dump_lr.  `action`, built from them on its
    first read, maps (state, lookahead) to the cell's actions, with its keys
    in sorted order: by state, then by lookahead; nothing in the package
    reads it, only the tests and the benchmark's cell count.  `goto` maps
    (state, symbol) to the target state, the symbol as in an IProd's rhs.
    `unproductive` holds the instances that derive no terminal string,
    which do not depend on k."""

    k: int
    ig: InstGrammar
    prods: List[IProd]
    states: Sequence[frozenset]
    lookaheads: List[tuple]
    acts: List[List[Tuple[tuple, int]]]
    goto: Dict[Tuple[int, tuple], int]
    starts: Dict[str, int]
    conflicts: List[ConflictSite]
    unproductive: FrozenSet[Inst]

    def cells(self, state: int) -> List[Tuple[int, Tuple[tuple, ...]]]:
        """The state's action cells in lookahead order: (lookahead bit, the
        actions whose masks hold it), one action unless the cell is a
        conflict, several in the order of acts."""
        acts, order, ranks = self.acts[state], self.la_order, self.ranks
        n = len(acts)
        cells: List[Tuple[int, Tuple[tuple, ...]]] = []
        last = -1  # the rank of the last cell
        for key in sorted([r * n + i for i, (_act, mask) in enumerate(acts)
                           for r in ranks[mask]]):
            r, i = divmod(key, n)
            if r == last:
                cells[-1] = (order[r], cells[-1][1] + (acts[i][0],))
            else:
                cells.append((order[r], (acts[i][0],)))
                last = r
        return cells

    @cached_property
    def la_order(self) -> List[int]:
        """The lookahead bits in lookahead order: la_order[r] is the bit of
        the lookahead of rank r."""
        return sorted(range(len(self.lookaheads)), key=self.lookaheads.__getitem__)

    @cached_property
    def ranks(self) -> Dict[int, List[int]]:
        """ranks[mask]: the ranks (places in la_order) of the lookaheads of
        a mask in acts, ascending, made once per distinct mask."""
        rank_of = [0] * len(self.la_order)  # lookahead bit -> its rank
        for r, b in enumerate(self.la_order):
            rank_of[b] = r
        masks = {mask for acts in self.acts for _act, mask in acts}
        return {mask: sorted([rank_of[b] for b in _bits(mask)]) for mask in masks}

    @cached_property
    def action(self) -> Dict[Tuple[int, tuple], Tuple[tuple, ...]]:
        las = self.lookaheads
        return {(state, las[b]): acts for state in range(len(self.acts))
                for b, acts in self.cells(state)}

    def display_production(self, pi: int) -> str:
        p = self.prods[pi]
        base = p.base
        rhs = " ".join(s.symbol for s in base.slots)
        return "%s%s -> %s" % (base.lhs, "'" if p.lhs is None else "",
                               rhs if base.slots else "%empty")

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
        self.k = k
        self.ig = expand_instances(cfg)

        self.prods = self.ig.iprods + [
            IProd(pi, None, (("n", self.ig.start_insts[m]),),
                  Production(-1, m, (Slot(m, False),), "start"))
            for pi, m in enumerate(cfg.mains, len(self.ig.iprods))]

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
        self.keys = sorted({sym for p in self.prods for sym in p.rhs}, key=_sym_sort_key)
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
            self.end_act.append(("accept", p.base.lhs) if p.lhs is None else ("reduce", pi))
            tails = self._tails(p.rhs)
            row = []
            for dot, sym in enumerate(p.rhs):
                n, tail = (-1, dot) if sym[0] == "t" else (self.nt_of[sym[1]], dot + 1)
                row.append(((pi, dot + 1), rank_of[sym], n, tails[tail]))
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
        steps = self.steps
        edges = []
        for (pi, dot), mask in kernel:
            step = steps[pi][dot]
            if step is not None and step[2] >= 0:
                edges.append((step[2], step[3], mask))
        return self._propagate(edges)

    def _propagate(self, edges: list) -> Dict[int, int]:
        """The closure from the kernel's (nonterminal, FIRST, mask) edges:
        the lookahead mask each nonterminal is reached with."""
        corners, after = self.corners, self._after
        las: Dict[int, int] = {}    # every lookahead each is reached with
        fresh: Dict[int, int] = {}  # those not yet passed on
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
        steps, end_act, keys = self.steps, self.end_act, self.keys
        after, las = self._after, self.lookaheads
        end_keys = [_act_sort_key(act) for act in end_act]
        shift_of: Dict[int, tuple] = {}  # target -> (sort key, action) of the shift to it
        # what each nonterminal's productions do at dot 0: the (goto rank,
        # next core) of each that begins with a symbol, the (goto rank,
        # FIRST) of each that begins with a terminal, and the (sort key,
        # action) of each empty one
        first_steps = []
        for pis in self.prods_of:
            rows = [steps[pi][0] for pi in pis]
            first_steps.append(([(step[1], step[0]) for step in rows if step is not None],
                                [(step[1], step[3]) for step in rows
                                 if step is not None and step[2] < 0],
                                [(end_keys[pi], end_act[pi])
                                 for pi, step in zip(pis, rows) if step is None]))
        kernels: List[frozenset] = []
        state_of: Dict[frozenset, int] = {}  # kernel -> state
        goto: Dict[Tuple[int, tuple], int] = {}
        state_acts: List[List[Tuple[tuple, int]]] = []
        conflicts: List[ConflictSite] = []
        starts: Dict[str, int] = {}

        eof = self._mask([(EOF_TERMINAL,) * k])
        for p in self.prods[len(self.ig.iprods):]:
            kernel = frozenset([((p.ipid, 0), eof)])
            starts[p.base.lhs] = state_of[kernel] = len(kernels)
            kernels.append(kernel)

        # states are numbered by kernel and closed when their turn comes
        idx = 0
        while idx < len(kernels):
            kernel = kernels[idx]
            by_rank: Dict[int, list] = {}  # goto rank -> target kernel
            shifts: Dict[int, int] = {}    # terminal's goto rank -> lookaheads
            keyed = {}                     # sort key -> (action, lookaheads)
            edges = []                     # the closure's, as _propagate takes them
            for (pi, dot), mask in kernel:
                step = steps[pi][dot]
                if step is None:
                    keyed[end_keys[pi]] = (end_act[pi], mask)
                    continue
                nxt, rank, n, first = step
                by_rank.setdefault(rank, []).append((nxt, mask))
                if n < 0:
                    shifts[rank] = shifts.get(rank, 0) | after(first, mask)
                else:
                    edges.append((n, first, mask))
            # most kernels have no item before a nonterminal: nothing to close
            for n, mask in (self._propagate(edges).items() if edges else ()):
                gotos, terms, ends = first_steps[n]
                for rank, nxt in gotos:
                    by_rank.setdefault(rank, []).append((nxt, mask))
                for rank, first in terms:
                    shifts[rank] = shifts.get(rank, 0) | after(first, mask)
                for key, act in ends:
                    keyed[key] = (act, mask)

            targets = {}  # goto rank -> target state
            for rank in sorted(by_rank):
                target_kernel = frozenset(by_rank[rank])
                target = state_of.get(target_kernel)
                if target is None:
                    target = state_of[target_kernel] = len(kernels)
                    kernels.append(target_kernel)
                goto[(idx, keys[rank])] = targets[rank] = target
            for rank, mask in shifts.items():
                target = targets[rank]
                shift = shift_of.get(target)
                if shift is None:
                    act = ("shift", target)
                    shift = shift_of[target] = (_act_sort_key(act), act)
                keyed[shift[0]] = (shift[1], mask)
            acts = [keyed[key] for key in sorted(keyed)]
            state_acts.append(acts)
            seen = clash = 0  # lookaheads of the masks so far, and those met twice
            for _act, mask in acts:
                clash |= seen & mask
                seen |= mask
            if clash:
                for b in sorted(_bits(clash), key=las.__getitem__):
                    conflicts.append(ConflictSite(
                        idx, las[b], tuple(act for act, mask in acts if mask >> b & 1)))
            idx += 1

        return LrTables(k, self.ig, self.prods, _ClosedStates(kernels, self._items),
                        las, state_acts, goto, starts, conflicts, _unproductive(self.ig))


def _unproductive(ig: InstGrammar) -> FrozenSet[Inst]:
    """The instances that derive no terminal string (FIRST_k cannot tell).
    An instance comes before those it reaches, so each pass walks back."""
    productive: Set[Inst] = set()
    size = -1
    while size < len(productive):
        size = len(productive)
        productive.update(ip.lhs for ip in reversed(ig.iprods) if ip.lhs not in productive
                          and all(sym[0] == "t" or sym[1] in productive for sym in ip.rhs))
    return frozenset(ig.insts) - productive


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


def _sym_sort_key(sym):
    if sym[0] == "t":
        return (0, sym[1], "", 0)
    inst = sym[1]
    return (1, inst.base, ",".join(sorted(inst.reqs)), inst.bound)


_ACT_ORDER = {"reduce": 0, "shift": 1, "accept": 2}


def _act_sort_key(a):
    return _ACT_ORDER[a[0]], str(a[1])


def build_lr(cfg: Cfg, k: int) -> LrTables:
    """Build canonical LR(k) tables; conflicts are collected, not raised."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _Builder(cfg, k).build()


# ---------------------------------------------------------------------------
# Dump

def dump_lr(tables: LrTables) -> str:
    out = ["LR(%d) automaton: %d states, %d conflicts" %
           (tables.k, len(tables.states), len(tables.conflicts))]
    start_of = {s: m for m, s in tables.starts.items()}
    las = tables.lookaheads
    for idx, items in enumerate(tables.states):
        mark = "  (start %s)" % start_of[idx] if idx in start_of else ""
        out.append("state %d:%s" % (idx, mark))
        for pi, dot, la in sorted(items):
            p = tables.prods[pi]
            syms = [s[1] if s[0] == "t" else s[1].base for s in p.rhs]
            syms.insert(dot, ".")
            lhs = p.lhs.base if p.lhs is not None else p.base.lhs + "'"
            out.append("    %s -> %s , %s" % (lhs, " ".join(syms), " ".join(la)))
        for b, actions in tables.cells(idx):
            for a in actions:
                out.append("    [%s] %s" % (" ".join(las[b]), tables.display_action(a)))
    return "\n".join(out) + "\n"
