"""Conflict exemplars: shortest "confusing input pairs".

For a conflict site (state, lookahead, competing actions) we search the
automaton for the shortest viable prefix reaching the state (weighted by the
shortest sentence each grammar symbol can derive), expand each prefix symbol
to a concrete terminal exemplar, and then search forward for the shortest
completion under each competing action.  The rendered report shows the
symbol derivation next to the concrete tokens, the two actions, and one
completion per action, sharing the conflict lookahead.  Paths start at the
automaton's start states, and completions are simulated with its three action
kinds, Shift, Reduce and Accept.  The completion search appends a terminal
only where it leads to a lookahead the top state can act on, and its budget
counts the distinct configurations it pops; a search that runs out of
configurations without reaching Accept reports no completion, not an
exceeded budget.  A conflict in a state that no input reaches is reported
as such, without prefix or completions.  trace_all builds the shared
shortest-sentence and shortest-path tables once.

Everything here reads the tables alone: goto keys and production right-hand
sides are instance-grammar symbols, ("t", terminal) or ("n", Inst), and the
lowered grammar (for the display names of synthesized nonterminals) is
tables.ig.cfg.  Actions are read as the builder keeps them, each state's
(action, lookahead mask) pairs in tables.acts: a lookahead's actions are
those whose masks hold its bit, in the order of acts.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from .lexer import EOF_TERMINAL
from .lr import ConflictSite, LrTables, _bits


@dataclass
class ConflictExemplar:
    prefix_symbols: List[str]
    prefix_terminals: List[str]
    action_left: str
    action_right: str
    lookahead: Tuple[str, ...]
    completion_left: List[str]
    completion_right: List[str]
    budget_exceeded: bool = False
    state: int = -1
    unreachable: bool = False  # no input reaches the state


# ---------------------------------------------------------------------------
# Shortest sentences per symbol

def _min_sentences(tables: LrTables) -> Dict[tuple, Tuple[str, ...]]:
    """The shortest sentence of each symbol that derives one, the least
    among equally short ones; a terminal's is itself."""
    best: Dict[tuple, Tuple[str, ...]] = {
        sym: (sym[1],) for p in tables.prods for sym in p.rhs if sym[0] == "t"}

    def cand_key(words):
        return (len(words), words)

    changed = True
    while changed:
        changed = False
        for ip in tables.ig.iprods:
            words: List[str] = []
            ok = True
            for sym in ip.rhs:
                sub = best.get(sym)
                if sub is None:
                    ok = False
                    break
                words.extend(sub)
            if not ok:
                continue
            tup = tuple(words)
            lhs = ("n", ip.lhs)
            cur = best.get(lhs)
            if cur is None or cand_key(tup) < cand_key(cur):
                best[lhs] = tup
                changed = True
    return best


# ---------------------------------------------------------------------------
# Shortest viable prefix to a state

def _shortest_paths(tables: LrTables, sentences):
    """Dijkstra over goto edges from every start state.

    Returns per-state (cost, path) where path is a list of (symbol,
    from_state) edges and cost is (terminal count, symbol count, display
    tuple).
    """
    edges: Dict[int, List[Tuple[tuple, int]]] = {}
    for (state, key), target in tables.goto.items():
        edges.setdefault(state, []).append((key, target))
    for lst in edges.values():
        lst.sort(key=lambda e: _edge_display(e[0]))

    INF = (1 << 60, 0, ())
    dist: Dict[int, tuple] = {}
    back: Dict[int, Tuple[int, tuple]] = {}
    heap = []
    counter = 0
    for m, s in sorted(tables.starts.items()):
        dist[s] = (0, 0, ())
        heappush(heap, ((0, 0, ()), counter, s))
        counter += 1

    while heap:
        d, _c, state = heappop(heap)
        if dist.get(state, INF) < d:
            continue
        for key, target in edges.get(state, ()):
            sent = sentences.get(key)
            if sent is None:  # no input crosses this edge
                continue
            nd = (d[0] + len(sent), d[1] + 1, d[2] + (_edge_display(key),))
            if nd < dist.get(target, INF):
                dist[target] = nd
                back[target] = (state, key)
                heappush(heap, (nd, counter, target))
                counter += 1
    return dist, back


def _edge_display(sym) -> str:
    return sym[1] if sym[0] == "t" else sym[1].base


# ---------------------------------------------------------------------------
# Completion search

_NO_COMPLETION = ["<no completion>"]  # _complete's answer when no input reaches Accept


def _complete(ctx: _TraceContext, stack: tuple, queue: tuple,
              budget: int) -> Optional[List[str]]:
    """Shortest terminal suffix driving the configuration to Accept.

    `queue` holds committed upcoming terminals (what is left of the
    conflict lookahead); the returned list is what the search appended after
    them, $ padding removed.  A configuration whose queue is shorter than k
    is expanded only by the terminals that lead to a lookahead its top state
    has an action on (`_TraceContext.next_terminals`): any other choice
    would stop dead at the next pop.  `budget` bounds the distinct
    configurations popped; None when it runs out, and _NO_COMPLETION when
    every configuration is popped and none reaches Accept.

    Stacks are interned as ints, each the id of its top state on the stack
    below it, so a configuration holds one int however deep its stack.  Id 0
    is the empty stack: it lies below itself and has no top state (-1), so a
    reduce that pops past the bottom finds no goto.
    """
    tables = ctx.tables
    k = tables.k
    acts = tables.acts
    bit_of = ctx.bit_of
    goto = tables.goto
    rules = ctx.rules
    next_terminals = ctx.next_terminals
    pop, push = heappop, heappush
    ids: Dict[Tuple[int, int], int] = {}  # (top state, id below) -> id
    tops: List[int] = [-1]
    belows: List[int] = [0]

    def intern(top: int, below: int) -> int:
        sid = ids.get((top, below))
        if sid is None:
            sid = ids[(top, below)] = len(tops)
            tops.append(top)
            belows.append(below)
        return sid

    sid = 0
    for state in stack:
        sid = intern(state, sid)
    # entries are (cost, appended, counter, stack, queue); queues never
    # grow past k, so a full queue is the lookahead itself
    heap = [(0, (), 0, sid, queue)]
    counter = 1
    seen = set()
    while heap:
        cost, appended, _c, sid, q = pop(heap)
        if (sid, q) in seen:
            continue
        seen.add((sid, q))
        if len(seen) > budget:
            return None
        top = tops[sid]
        if len(q) < k:
            for t in next_terminals[top].get(q, ()):
                if t == EOF_TERMINAL:
                    push(heap, (cost, appended, counter, sid, q + (t,)))
                else:
                    push(heap, (cost + 1, appended + (t,), counter, sid, q + (t,)))
                counter += 1
            continue
        bit = bit_of.get(q, 0)  # 0 for a lookahead no state acts on
        for act, mask in acts[top]:
            if not mask & bit:
                continue
            tag = act[0]
            if tag == "shift":
                push(heap, (cost, appended, counter, intern(act[1], sid), q[1:]))
            elif tag == "reduce":
                n, lhs = rules[act[1]]
                rest = sid
                for _ in range(n):
                    rest = belows[rest]
                target = goto.get((tops[rest], lhs))
                if target is None:
                    continue
                push(heap, (cost, appended, counter, intern(target, rest), q))
            else:  # accept
                return list(appended)
            counter += 1
    return _NO_COMPLETION


class _NextTerminals(dict):
    """state -> {q: the terminals t, sorted with $ last, such that some
    action lookahead of the state starts with q + (t,)} for every q shorter
    than k, made for a state on its first lookup: the completion search
    asks about a few states of many.  Lookaheads are padded with $, so
    after a $ only $ follows."""

    def __init__(self, tables: LrTables):
        super().__init__()
        self.tables = tables

    def __missing__(self, state: int) -> Dict[tuple, Tuple[str, ...]]:
        k, las = self.tables.k, self.tables.lookaheads
        held = 0  # the lookaheads the state acts on
        for _act, mask in self.tables.acts[state]:
            held |= mask
        nexts: Dict[tuple, set] = {}
        for b in _bits(held):
            la = las[b]
            for i in range(k):
                nexts.setdefault(la[:i], set()).add(la[i])
        eof = (EOF_TERMINAL,)
        got = self[state] = {
            q: tuple(sorted(ts - {EOF_TERMINAL})) + (eof if EOF_TERMINAL in ts else ())
            for q, ts in nexts.items()}
        return got


# ---------------------------------------------------------------------------
# Tracing

class _TraceContext:
    """What every trace of one table set shares, built once per trace_all;
    a state's next terminals are made when the search first reaches it."""

    def __init__(self, tables: LrTables):
        self.tables = tables
        self.sentences = _min_sentences(tables)
        self.dist, self.back = _shortest_paths(tables, self.sentences)
        # production index -> (rhs length, lhs symbol) for the reduces of _complete
        self.rules = [(len(p.rhs), ("n", p.lhs)) for p in tables.prods]
        # lookahead -> its bit in the masks of tables.acts, as an int
        self.bit_of = {la: 1 << b for b, la in enumerate(tables.lookaheads)}
        self.next_terminals = _NextTerminals(tables)

    def path_keys(self, state: int):
        keys = []
        cur = state
        while cur in self.back:
            prev, key = self.back[cur]
            keys.append(key)
            cur = prev
        keys.reverse()
        return cur, keys

    def prefix_terminals(self, state: int) -> List[str]:
        _root, keys = self.path_keys(state)
        return [t for sym in keys for t in self.sentences.get(sym, ("?",))]


def trace_conflict(tables: LrTables, site: ConflictSite, budget: int = 100_000,
                   ctx: Optional[_TraceContext] = None) -> ConflictExemplar:
    ctx = ctx or _TraceContext(tables)
    synth_display = tables.ig.cfg.synth_display
    # every goto path to an unreachable state crosses a nonterminal that
    # derives no terminal string: it gets no prefix and no completions
    unreachable = site.state not in ctx.dist
    root, path_keys = ctx.path_keys(site.state)

    prefix_symbols = []
    prefix_terminals = []
    for sym in path_keys:
        disp = _edge_display(sym)
        if sym[0] == "n" and disp in synth_display:
            disp = "%s=%s" % (disp, synth_display[disp])
        prefix_symbols.append(disp)
        prefix_terminals.append(" ".join(ctx.sentences.get(sym, ("?",))))

    # stack of states along the path, for the completion simulation
    stack = [root]
    for key in path_keys:
        stack.append(tables.goto[(stack[-1], key)])
    stack = tuple(stack)

    actions = list(site.actions[:2])
    completions = []
    exceeded = False
    for act in actions:
        if unreachable:
            completions.append(["<unreachable>"])
            continue
        # the forced first step: a shift consumes a lookahead token, and a
        # reduce is unviable if the path is too short or has no goto
        if act[0] == "accept":
            completions.append([t for t in site.lookahead if t != EOF_TERMINAL])
            continue
        if act[0] == "shift":
            ns, queue = stack + (act[1],), site.lookahead[1:]
        else:
            n, lhs = ctx.rules[act[1]]
            target = tables.goto.get((stack[-n - 1], lhs)) if len(stack) > n else None
            if target is None:
                completions.append(["<unviable>"])
                continue
            ns, queue = stack[:len(stack) - n] + (target,), site.lookahead
        suffix = _complete(ctx, ns, queue, budget)
        if suffix is None:
            completions.append(["<budget exceeded>"])
            exceeded = True
        elif suffix is _NO_COMPLETION:
            completions.append(_NO_COMPLETION)
        else:
            la_shown = [t for t in site.lookahead if t != EOF_TERMINAL]
            completions.append(la_shown + suffix)

    return ConflictExemplar(
        prefix_symbols=prefix_symbols,
        prefix_terminals=prefix_terminals,
        action_left=tables.display_action(actions[0]),
        action_right=tables.display_action(actions[1]) if len(actions) > 1 else "",
        lookahead=site.lookahead,
        completion_left=completions[0],
        completion_right=completions[1] if len(completions) > 1 else [],
        budget_exceeded=exceeded,
        state=site.state,
        unreachable=unreachable,
    )


def dedup_sites(tables: LrTables, ctx: Optional[_TraceContext] = None) -> List[ConflictSite]:
    """One representative site per distinct competing-action pair.

    Raw sites repeat per state and lookahead; rendered as exemplars that is
    noise, not information.  The earliest state (BFS numbering, so shortest
    access path) represents each group; among its lookaheads, one already
    occurring in the access prefix reads best (id `+` id with lookahead `+`),
    falling back to the smallest.  ctx, the trace context of tables, is
    built here if not given."""
    by_pair: Dict[tuple, List[ConflictSite]] = {}
    for site in tables.conflicts:
        key = tuple(tables.display_action(a) for a in site.actions)
        by_pair.setdefault(key, []).append(site)
    if ctx is None:
        ctx = _TraceContext(tables)
    out = []
    for key in sorted(by_pair):
        sites = by_pair[key]
        state = min(s.state for s in sites)
        candidates = sorted((s.lookahead, s) for s in sites if s.state == state)
        chosen = candidates[0][1]
        if state in ctx.dist:
            prefix = set(ctx.prefix_terminals(state))
            for la, s in candidates:
                if la and la[0] in prefix:
                    chosen = s
                    break
        out.append(chosen)
    return out


def trace_all(tables: LrTables, budget: int = 100_000) -> List[ConflictExemplar]:
    ctx = _TraceContext(tables)
    return [trace_conflict(tables, site, budget, ctx) for site in dedup_sites(tables, ctx)]


# ---------------------------------------------------------------------------
# Rendering

def render_conflict_report(exemplars: List[ConflictExemplar]) -> str:
    if not exemplars:
        return ""
    out: List[str] = []
    n = len(exemplars)
    for i, ex in enumerate(exemplars, 1):
        out.append("===== LR conflict %d of %d" % (i, n))
        out.append("")
        sym_rows = ex.prefix_symbols
        term_rows = ex.prefix_terminals
        w1 = max([len(s) for s in sym_rows] + [4])
        w2 = max([len(t) for t in term_rows]
                 + [len(t) for t in ex.completion_left] + [4])
        for s, t in zip(sym_rows, term_rows):
            out.append(("%s    %s" % (s.rjust(w1), t.rjust(w2))).rstrip())
        out.append("")
        wa = w1 + 4 + w2
        out.append(("%s    %s" % (ex.action_left.rjust(wa), ex.action_right)).rstrip())
        out.append("")
        rows = max(len(ex.completion_left), len(ex.completion_right))
        for j in range(rows):
            left = ex.completion_left[j] if j < len(ex.completion_left) else ""
            right = ex.completion_right[j] if j < len(ex.completion_right) else ""
            out.append(("%s    %s" % (left.rjust(wa), right)).rstrip())
        if ex.budget_exceeded:
            out.append("")
            out.append("(completion search budget exceeded; trace is partial)")
        if ex.unreachable:
            out.append("")
            out.append("(no input reaches state %d: every path to it crosses a "
                       "nonterminal that derives no terminal string)" % ex.state)
        out.append("")
    return "\n".join(out)
