"""Canonical LR(k) table construction.

States are closed sets of items (production, dot, k-lookahead); lookaheads
are part of state identity, so there is no LALR-style merging.  The grammar
fed to the construction is the constraint-instance expansion, so attribute
and precedence admissibility are already baked into which productions exist
for each nonterminal copy.  Every table cell holds Shift, Reduce or Accept
actions; a cell with more than one is a conflict.

The state table is keyed by kernel: a goto target is looked up by its kernel
items and closed only when it is new.  The closure adds only dot-0 items of
non-start productions, which no kernel holds, so kernels and closed states
match one to one and the numbering is that of keying by closed sets.

The closure works per nonterminal, not per item.  Each nonterminal the
kernel reaches collects the set of lookaheads it is reached with; a worklist
passes only newly found lookaheads on to the nonterminals that begin its
productions, through FIRST of what follows them (lookahead propagation in
the style of DeRemer and Pennello).  The closed state then holds
(production, 0, w) for every production of every reached nonterminal and
each of its lookaheads w.  Gotos and actions are assembled per (production,
dot) core with its lookahead set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from .grammar import Cfg, Inst, InstGrammar, IProd, expand_instances
from .lexer import EOF_TERMINAL


# ---------------------------------------------------------------------------
# FIRST_k over the instance grammar

class FirstK:
    def __init__(self, ig: InstGrammar, k: int):
        self.ig = ig
        self.k = k
        self.first: Dict[Inst, Set[tuple]] = {inst: set() for inst in ig.insts}
        self._fixpoint()

    def _seq_sets(self, syms) -> Set[tuple]:
        """All k-truncated terminal prefixes derivable from a symbol sequence.

        Tuples shorter than k mean the whole sequence can derive that short
        string (they still need extension by right context).
        """
        k = self.k
        cur = {()}
        for sym in syms:
            nxt = set()
            if sym[0] == "t":
                for p in cur:
                    nxt.add(p if len(p) == k else p + (sym[1],))
            else:
                fs = self.first[sym[1]]
                for p in cur:
                    if len(p) == k:
                        nxt.add(p)
                        continue
                    for w in fs:
                        nxt.add((p + w)[:k])
            cur = nxt
        return cur

    def _fixpoint(self):
        changed = True
        while changed:
            changed = False
            for ip in self.ig.iprods:
                target = self.first[ip.lhs]
                for w in self._seq_sets(ip.rhs):
                    if w not in target:
                        target.add(w)
                        changed = True

    def beta_first(self, syms) -> Tuple[frozenset, frozenset]:
        """Split FIRST prefixes of syms into (complete k-tuples, shorter ones)."""
        sets = self._seq_sets(syms)
        full = frozenset(w for w in sets if len(w) == self.k)
        partial = frozenset(w for w in sets if len(w) < self.k)
        return full, partial


def first_k(cfg: Cfg, symbols, k: int) -> Set[tuple]:
    """FIRST_k of a symbol sequence (names; default constraint instances)."""
    ig = expand_instances(cfg)
    fk = FirstK(ig, k)
    syms = []
    for s in symbols:
        if s in cfg.terminals or s == EOF_TERMINAL:
            syms.append(("t", s))
        else:
            inst = Inst(s, frozenset(), 0)
            if inst not in fk.first:
                # pull in nonterminals not reachable from the mains
                _extend_first(fk, ig, inst)
            syms.append(("n", inst))
    return fk._seq_sets(syms)


def _extend_first(fk: FirstK, ig: InstGrammar, inst: Inst):
    work = [inst]
    added = []
    while work:
        cur = work.pop()
        if cur in fk.first:
            continue
        fk.first[cur] = set()
        added.append(cur)
        for p in ig.admissible(cur):
            rhs = []
            for s in p.slots:
                if s.is_terminal:
                    rhs.append(("t", s.symbol))
                else:
                    child = Inst(s.symbol, s.attr_reqs, s.prec_bound)
                    work.append(child)
                    rhs.append(("n", child))
            ig.iprods.append(IProd(len(ig.iprods), cur, tuple(rhs), p))
    fk._fixpoint()


# ---------------------------------------------------------------------------
# Tables

@dataclass
class ConflictSite:
    state: int
    lookahead: tuple
    actions: Tuple[tuple, ...]


@dataclass
class LrTables:
    k: int
    ig: InstGrammar
    prods: List[dict]  # unified production table (iprods + starts)
    states: List[frozenset]
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
        self.fk = FirstK(self.ig, k)

        self.prods: List[dict] = []
        for ip in self.ig.iprods:
            self.prods.append({"kind": "prod", "lhs": ip.lhs, "rhs": ip.rhs, "iprod": ip})
        self.aug_of: Dict[str, int] = {}
        for m in cfg.mains:
            inst = self.ig.start_insts[m]
            self.aug_of[m] = len(self.prods)
            self.prods.append({"kind": "start", "lhs": None, "main": m,
                               "rhs": (("n", inst),)})

        self.by_lhs: Dict[Inst, List[int]] = {}
        for i, p in enumerate(self.prods):
            if p["kind"] == "prod":
                self.by_lhs.setdefault(p["lhs"], []).append(i)

        self._beta_cache: Dict[Tuple[int, int], Tuple[frozenset, frozenset]] = {}

        # For each nonterminal N and each nonterminal M that begins one of
        # N's productions: FIRST of what follows M there, split as in
        # beta_first and united over those productions.  The closure passes
        # N's lookaheads on to M along these edges.
        self.left_corners: Dict[Inst, List[Tuple[Inst, frozenset, frozenset]]] = {}
        for inst, pis in self.by_lhs.items():
            follow: Dict[Inst, Tuple[set, set]] = {}
            for pi in pis:
                rhs = self.prods[pi]["rhs"]
                if rhs and rhs[0][0] == "n":
                    full, partial = self.beta_first(pi, 1)
                    got = follow.setdefault(rhs[0][1], (set(), set()))
                    got[0].update(full)
                    got[1].update(partial)
            self.left_corners[inst] = [(m, frozenset(f), frozenset(p))
                                       for m, (f, p) in follow.items()]

    # -- item machinery -------------------------------------------------------

    def beta_first(self, pi: int, dot: int):
        key = (pi, dot)
        got = self._beta_cache.get(key)
        if got is None:
            got = self.fk.beta_first(self.prods[pi]["rhs"][dot:])
            self._beta_cache[key] = got
        return got

    def lookaheads_after(self, pi: int, dot: int, las) -> Set[tuple]:
        """k-lookaheads of rhs[dot:] followed by any lookahead in las."""
        full, partial = self.beta_first(pi, dot)
        return _extend(full, partial, las, self.k)

    def closure(self, cores: Dict[Tuple[int, int], Set[tuple]]) -> Dict[Inst, Set[tuple]]:
        """The lookaheads each nonterminal is reached with when closing the
        kernel cores ((production, dot) -> lookaheads)."""
        las: Dict[Inst, Set[tuple]] = {}    # every lookahead each is reached with
        fresh: Dict[Inst, Set[tuple]] = {}  # those not yet passed on
        for (pi, dot), ws in cores.items():
            rhs = self.prods[pi]["rhs"]
            if dot < len(rhs) and rhs[dot][0] == "n":
                _feed(las, fresh, rhs[dot][1], self.lookaheads_after(pi, dot + 1, ws))
        k = self.k
        while fresh:
            inst, ws = fresh.popitem()
            for m, full, partial in self.left_corners.get(inst, ()):
                _feed(las, fresh, m, _extend(full, partial, ws, k))
        return las

    # -- main construction ------------------------------------------------------

    def build(self) -> LrTables:
        k = self.k
        prods = self.prods
        kernels: List[frozenset] = []
        state_of: Dict[frozenset, int] = {}  # kernel -> state
        states: List[frozenset] = []
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

        eof_la = (EOF_TERMINAL,) * k
        for m in self.cfg.mains:
            starts[m] = ensure_state(frozenset([(self.aug_of[m], 0, eof_la)]))

        idx = 0
        while idx < len(kernels):
            cores: Dict[Tuple[int, int], Set[tuple]] = {}
            for pi, dot, la in kernels[idx]:
                cores.setdefault((pi, dot), set()).add(la)
            items = list(kernels[idx])
            for inst, ws in self.closure(cores).items():
                for cpi in self.by_lhs.get(inst, ()):
                    cores[(cpi, 0)] = ws
                    items.extend([(cpi, 0, w) for w in ws])
            states.append(frozenset(items))

            by_symbol: Dict[object, List[tuple]] = {}
            shifts = []
            cells: Dict[tuple, Set[tuple]] = {}  # lookahead -> actions
            for (pi, dot), ws in cores.items():
                prod = prods[pi]
                rhs = prod["rhs"]
                if dot == len(rhs):
                    if prod["kind"] == "start":
                        act = ("accept", prod["main"])
                    else:
                        act = ("reduce", pi)
                    for w in ws:
                        cells.setdefault(w, set()).add(act)
                    continue
                sym = rhs[dot]
                if sym[0] == "t":
                    shifts.append((sym, pi, dot, ws))
                    key = sym
                else:
                    key = sym[1]
                by_symbol.setdefault(key, []).extend([(pi, dot + 1, w) for w in ws])

            for key in sorted(by_symbol, key=_sym_sort_key):
                goto[(idx, key)] = ensure_state(frozenset(by_symbol[key]))
            for sym, pi, dot, ws in shifts:
                act = ("shift", goto[(idx, sym)])
                for w in self.lookaheads_after(pi, dot, ws):
                    cells.setdefault(w, set()).add(act)
            for w in sorted(cells):
                cell = cells[w]
                if len(cell) == 1:
                    action[(idx, w)] = tuple(cell)
                else:
                    distinct = tuple(sorted(cell, key=_act_sort_key))
                    action[(idx, w)] = distinct
                    conflicts.append(ConflictSite(idx, w, distinct))
            idx += 1

        return LrTables(k, self.ig, prods, states, action, goto, starts, conflicts)


def _extend(full: frozenset, partial: frozenset, las, k: int) -> Set[tuple]:
    """full, plus each shorter prefix in partial completed by each of las."""
    out = set(full)
    for p in partial:
        out.update([(p + w)[:k] for w in las])
    return out


def _feed(las, fresh, inst, ws: Set[tuple]):
    """Record lookaheads ws for inst; queue those it had not been reached with.

    A nonterminal is reached only with some lookahead: ws is empty after a
    nonterminal that derives no terminal string."""
    if not ws:
        return
    got = las.get(inst)
    if got is None:
        las[inst] = ws
        fresh[inst] = set(ws)
        return
    ws -= got
    if ws:
        got |= ws
        pending = fresh.get(inst)
        if pending is None:
            fresh[inst] = ws
        else:
            pending |= ws


def _sym_sort_key(key):
    if isinstance(key, tuple) and key and key[0] == "t":
        return (0, key[1], "", 0)
    return (1, key.base, ",".join(sorted(key.reqs)), key.bound)


def _act_sort_key(a):
    order = {"reduce": 0, "shift": 1, "accept": 2}
    return (order[a[0]],) + tuple(str(x) for x in a[1:])


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
    for idx, items in enumerate(tables.states):
        mark = ""
        for m, s in tables.starts.items():
            if s == idx:
                mark = "  (start %s)" % m
        out.append("state %d:%s" % (idx, mark))
        for pi, dot, la in sorted(items):
            p = tables.prods[pi]
            syms = [s[1] if s[0] == "t" else s[1].base for s in p["rhs"]]
            syms.insert(dot, ".")
            lhs = p["lhs"].base if p["lhs"] is not None else p["main"] + "'"
            out.append("    %s -> %s , %s" % (lhs, " ".join(syms), " ".join(la)))
        acts = sorted((la, a) for (st, la), a in tables.action.items() if st == idx)
        for la, actions in acts:
            for a in actions:
                out.append("    [%s] %s" % (" ".join(la), tables.display_action(a)))
    return "\n".join(out) + "\n"
