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
counts the distinct configurations it pops.  A conflict in a state that no
input reaches is reported as such, without prefix or completions.  trace_all
builds the shared shortest-sentence and shortest-path tables once.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from .grammar import Cfg, Inst
from .lexer import EOF_TERMINAL
from .lr import ConflictSite, LrTables


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
# Shortest sentences per instance

def _min_sentences(tables: LrTables) -> Dict[Inst, Tuple[str, ...]]:
    best: Dict[Inst, Tuple[str, ...]] = {}

    def cand_key(words):
        return (len(words), words)

    changed = True
    while changed:
        changed = False
        for ip in tables.ig.iprods:
            words: List[str] = []
            ok = True
            for sym in ip.rhs:
                if sym[0] == "t":
                    words.append(sym[1])
                else:
                    sub = best.get(sym[1])
                    if sub is None:
                        ok = False
                        break
                    words.extend(sub)
            if not ok:
                continue
            tup = tuple(words)
            cur = best.get(ip.lhs)
            if cur is None or cand_key(tup) < cand_key(cur):
                best[ip.lhs] = tup
                changed = True
    return best


# ---------------------------------------------------------------------------
# Shortest viable prefix to a state

def _shortest_paths(tables: LrTables, sentences):
    """Dijkstra over goto edges from every start state.

    Returns per-state (cost, path) where path is a list of (key, from_state)
    edges and cost is (terminal count, symbol count, display tuple).
    """
    edges: Dict[int, List[Tuple[object, int]]] = {}
    for (state, key), target in tables.goto.items():
        edges.setdefault(state, []).append((key, target))
    for lst in edges.values():
        lst.sort(key=lambda e: _edge_display(e[0]))

    INF = (1 << 60, 0, ())
    dist: Dict[int, tuple] = {}
    back: Dict[int, Tuple[int, object]] = {}
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
            w = _edge_weight(key, sentences)
            if w is None:
                continue
            nd = (d[0] + w, d[1] + 1, d[2] + (_edge_display(key),))
            if nd < dist.get(target, INF):
                dist[target] = nd
                back[target] = (state, key)
                heappush(heap, (nd, counter, target))
                counter += 1
    return dist, back


def _edge_weight(key, sentences) -> Optional[int]:
    if isinstance(key, tuple) and key[0] == "t":
        return 1
    sent = sentences.get(key)
    return None if sent is None else len(sent)


def _edge_display(key) -> str:
    if isinstance(key, tuple) and key[0] == "t":
        return key[1]
    return key.base


# ---------------------------------------------------------------------------
# Completion search

def _complete(ctx: _TraceContext, stack: tuple, queue: tuple,
              budget: int) -> Optional[List[str]]:
    """Shortest terminal suffix driving the configuration to Accept.

    `queue` holds committed upcoming terminals (what is left of the
    conflict lookahead); the returned list is what the search appended after
    them, $ padding removed.  A configuration whose queue is shorter than k
    is expanded only by the terminals that lead to a lookahead its top state
    has an action on (`_TraceContext.next_terminals`): any other choice
    would stop dead at the next pop.  `budget` bounds the distinct
    configurations popped; None when it runs out.
    """
    tables = ctx.tables
    k = tables.k
    action = tables.action
    goto = tables.goto
    rules = ctx.rules
    next_terminals = ctx.next_terminals
    pop, push = heappop, heappush
    # entries are (cost, appended, counter, stack, queue); queues never
    # grow past k, so a full queue is the lookahead itself
    heap = [(0, (), 0, stack, queue)]
    counter = 1
    seen = set()
    while heap:
        cost, appended, _c, st, q = pop(heap)
        if (st, q) in seen:
            continue
        seen.add((st, q))
        if len(seen) > budget:
            return None
        if len(q) < k:
            for t in next_terminals.get((st[-1], q), ()):
                if t == EOF_TERMINAL:
                    push(heap, (cost, appended, counter, st, q + (t,)))
                else:
                    push(heap, (cost + 1, appended + (t,), counter, st, q + (t,)))
                counter += 1
            continue
        for act in action.get((st[-1], q), ()):
            tag = act[0]
            if tag == "shift":
                push(heap, (cost, appended, counter, st + (act[1],), q[1:]))
            elif tag == "reduce":
                n, lhs = rules[act[1]]
                if len(st) <= n:
                    continue
                rest = st[: len(st) - n]
                target = goto.get((rest[-1], lhs))
                if target is None:
                    continue
                push(heap, (cost, appended, counter, rest + (target,), q))
            else:  # accept
                return list(appended)
            counter += 1
    return None


def _next_terminals(tables: LrTables) -> Dict[Tuple[int, tuple], Tuple[str, ...]]:
    """(state, q) -> the terminals t, sorted with $ last, such that some
    action lookahead of the state starts with q + (t,), for every q shorter
    than k.  Lookaheads are padded with $, so after a $ only $ follows."""
    nexts: Dict[Tuple[int, tuple], set] = {}
    for state, la in tables.action:
        for i in range(tables.k):
            nexts.setdefault((state, la[:i]), set()).add(la[i])
    eof = (EOF_TERMINAL,)
    return {key: tuple(sorted(ts - {EOF_TERMINAL})) + (eof if EOF_TERMINAL in ts else ())
            for key, ts in nexts.items()}


# ---------------------------------------------------------------------------
# Tracing

class _TraceContext:
    """What every trace of one table set shares, built once per trace_all."""

    def __init__(self, tables: LrTables, cfg: Cfg):
        self.tables = tables
        self.cfg = cfg
        self.sentences = _min_sentences(tables)
        self.dist, self.back = _shortest_paths(tables, self.sentences)
        # production index -> (rhs length, lhs) for the reduces of _complete
        self.rules = [(len(p["rhs"]), p["lhs"]) for p in tables.prods]
        self.next_terminals = _next_terminals(tables)

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
        out = []
        for key in keys:
            if isinstance(key, tuple) and key[0] == "t":
                out.append(key[1])
            else:
                out.extend(self.sentences.get(key, ("?",)))
        return out


def trace_conflict(tables: LrTables, cfg: Cfg, site: ConflictSite,
                   budget: int = 100_000,
                   ctx: Optional[_TraceContext] = None) -> ConflictExemplar:
    ctx = ctx or _TraceContext(tables, cfg)
    # every goto path to an unreachable state crosses a nonterminal that
    # derives no terminal string: it gets no prefix and no completions
    unreachable = site.state not in ctx.dist
    root, path_keys = ctx.path_keys(site.state)

    prefix_symbols = []
    prefix_terminals = []
    for key in path_keys:
        if isinstance(key, tuple) and key[0] == "t":
            prefix_symbols.append(key[1])
            prefix_terminals.append(key[1])
        else:
            disp = key.base
            if disp in cfg.synth_display:
                disp = "%s=%s" % (disp, cfg.synth_display[disp])
            prefix_symbols.append(disp)
            prefix_terminals.append(" ".join(ctx.sentences.get(key, ("?",))))

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


def dedup_sites(tables: LrTables, cfg: Cfg,
                ctx: Optional[_TraceContext] = None) -> List[ConflictSite]:
    """One representative site per distinct competing-action pair.

    Raw sites repeat per state and lookahead; rendered as exemplars that is
    noise, not information.  The earliest state (BFS numbering, so shortest
    access path) represents each group; among its lookaheads, one already
    occurring in the access prefix reads best (id `+` id with lookahead `+`),
    falling back to the smallest.  ctx, the trace context of tables and cfg,
    is built here if not given."""
    by_pair: Dict[tuple, List[ConflictSite]] = {}
    for site in tables.conflicts:
        key = tuple(tables.display_action(a) for a in site.actions)
        by_pair.setdefault(key, []).append(site)
    if ctx is None:
        ctx = _TraceContext(tables, cfg)
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


def trace_all(tables: LrTables, cfg: Cfg, budget: int = 100_000) -> List[ConflictExemplar]:
    ctx = _TraceContext(tables, cfg)
    return [trace_conflict(tables, cfg, site, budget, ctx)
            for site in dedup_sites(tables, cfg, ctx)]


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
