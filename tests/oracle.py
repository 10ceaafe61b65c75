"""Independent recognizers used as test oracles.

earley_accepts decides membership directly over the constraint-expanded
grammar, with none of the LR machinery; enumerate_trees builds every parse
tree of the *unconstrained* grammar so precedence filtering can be checked
as a pure admissibility predicate on top.

reference_lex is the lexer's mode-stack machine as a plain loop over the
spec's action objects, with no load-time compilation.

reference_complete is the conflict tracer's completion search as it was
before it learned to skip lookaheads no state acts on: it appends every
terminal and $, and lets the dead ends fail at the next pop.
"""

import heapq
from typing import List, Optional

from langcc.conflicts import _step
from langcc.grammar import Cfg, InstGrammar, expand_instances
from langcc.lexer import (
    ASCII_ROW, EOF_TERMINAL, CompiledLexer, Extract, LexError, LexOutput, ModeDfa, Token,
    _byte_offsets,
)
from langcc.lr import LrTables
from langcc.spec_ast import AEmit, APass, APopEmit, APopExtract, APush


def earley_accepts(ig: InstGrammar, start, tokens) -> bool:
    """Plain Earley recognition over the instance grammar.

    `start` is a main-nonterminal name or an Inst to recognize from."""
    if isinstance(start, str):
        start = ig.start_insts[start]
    n = len(tokens)
    # item: (iprod id, dot, origin)
    chart = [set() for _ in range(n + 1)]

    def predict_complete(i):
        changed = True
        while changed:
            changed = False
            for item in list(chart[i]):
                pid, dot, origin = item
                rhs = ig.iprods[pid].rhs
                if dot < len(rhs):
                    sym = rhs[dot]
                    if sym[0] == "n":
                        for ip in ig.by_lhs.get(sym[1], ()):
                            new = (ip.ipid, 0, i)
                            if new not in chart[i]:
                                chart[i].add(new)
                                changed = True
                else:
                    lhs = ig.iprods[pid].lhs
                    for prev in list(chart[origin]):
                        ppid, pdot, porigin = prev
                        prhs = ig.iprods[ppid].rhs
                        if pdot < len(prhs) and prhs[pdot] == ("n", lhs):
                            new = (ppid, pdot + 1, porigin)
                            if new not in chart[i]:
                                chart[i].add(new)
                                changed = True

    for ip in ig.by_lhs.get(start, ()):
        chart[0].add((ip.ipid, 0, 0))
    predict_complete(0)
    for i, tok in enumerate(tokens):
        for pid, dot, origin in chart[i]:
            rhs = ig.iprods[pid].rhs
            if dot < len(rhs) and rhs[dot] == ("t", tok):
                chart[i + 1].add((pid, dot + 1, origin))
        predict_complete(i + 1)
    for pid, dot, origin in chart[n]:
        ip = ig.iprods[pid]
        if origin == 0 and dot == len(ip.rhs) and ip.lhs == start:
            return True
    return False


def recognizer(cfg: Cfg, start_name: str):
    ig = expand_instances(cfg)
    return lambda tokens: earley_accepts(ig, start_name, tokens)


def enumerate_trees(cfg: Cfg, start: str, tokens):
    """Every parse tree of the unconstrained grammar (attributes and
    precedence ignored); a tree is (production id, child...) with terminal
    children as ("t", terminal).  Exponential; for short fixture inputs.
    Spans shorter than a symbol's minimal sentence are pruned, which also
    rules out unbounded recursion on empty spans."""
    prods_of = {}
    for p in cfg.productions:
        prods_of.setdefault(p.lhs, []).append(p)

    INF = 1 << 30
    min_len = {nt: INF for nt in prods_of}
    changed = True
    while changed:
        changed = False
        for p in cfg.productions:
            total = 0
            for s in p.slots:
                total += 1 if s.is_terminal else min_len.get(s.symbol, INF)
            if total < min_len[p.lhs]:
                min_len[p.lhs] = total
                changed = True

    def sym_min(slot):
        return 1 if slot.is_terminal else min_len.get(slot.symbol, INF)

    def derive(sym, i, j):
        if j - i < min_len.get(sym, INF):
            return
        for p in prods_of.get(sym, []):
            for split in splits(p.slots, 0, i, j):
                yield (p.pid,) + tuple(split)

    def splits(slots, idx, i, j):
        if idx == len(slots):
            if i == j:
                yield ()
            return
        slot = slots[idx]
        rest_min = sum(sym_min(s) for s in slots[idx + 1:])
        if slot.is_terminal:
            if i < j and tokens[i] == slot.symbol and j - (i + 1) >= rest_min:
                for rest in splits(slots, idx + 1, i + 1, j):
                    yield (("t", slot.symbol),) + rest
            return
        for mid in range(i + sym_min(slot), j - rest_min + 1):
            for sub in derive(slot.symbol, i, mid):
                for rest in splits(slots, idx + 1, mid, j):
                    yield (sub,) + rest

    return list(derive(start, 0, len(tokens)))


def admissible_tree(cfg: Cfg, tree, reqs=frozenset(), bound=0) -> bool:
    """Does the tree satisfy every attribute requirement and precedence
    bound along its nonterminal slots?"""
    pid = tree[0]
    p = cfg.productions[pid]
    if not reqs <= p.decl_attrs:
        return False
    if p.prec_level is not None and p.prec_level < bound:
        return False
    nt_children = [c for c in tree[1:] if c[0] != "t"]
    nt_slots = [s for s in p.slots if not s.is_terminal]
    assert len(nt_children) == len(nt_slots)
    for child, slot in zip(nt_children, nt_slots):
        if not admissible_tree(cfg, child, slot.attr_reqs, slot.prec_bound):
            return False
    return True


# ---------------------------------------------------------------------------
# Reference lexer

class _Frame:
    __slots__ = ("mode", "buffer", "start")

    def __init__(self, mode: str, start: int):
        self.mode = mode
        self.buffer: List[str] = []
        self.start = start


def _match(dfa: ModeDfa, codes, pos: int, n: int):
    """Maximal munch from pos over the codepoints `codes`; returns
    (end, accept) of the longest match, or None."""
    rows = dfa.ascii_rows
    accepts = dfa.accepts
    state = dfa.start
    best_acc = accepts[state]
    best_end = pos
    i = pos
    while i < n:
        cp = codes[i]
        state = rows[state][cp] if cp < ASCII_ROW else dfa.step(state, cp)
        if state < 0:
            break
        i += 1
        acc = accepts[state]
        if acc is not None:
            best_acc = acc
            best_end = i
    else:
        eof_state = dfa.eofs[state]
        if eof_state >= 0:
            acc = accepts[eof_state]
            if acc is not None:
                best_acc = acc
                best_end = i
    if best_acc is None:
        return None
    return best_end, best_acc


def reference_lex(compiled: CompiledLexer, text: str) -> LexOutput:
    """Run the mode-stack machine over text.

    Succeeds iff the mode stack first becomes empty exactly at end of input.
    An emit/pass action consumes the matched string (crediting the frame that
    is on top when the action runs); a match with no consuming action is left
    for the next mode on the stack to reprocess.
    """
    n = len(text)
    byte_of = _byte_offsets(text)
    codes = text.encode("ascii") if text.isascii() else [ord(ch) for ch in text]
    frames = [_Frame(compiled.main_mode, 0)]
    tokens: List[Token] = []
    extracts: List[Extract] = []
    pos = 0

    while frames:
        top = frames[-1]
        m = _match(compiled.dfas[top.mode], codes, pos, n)
        if m is None:
            if pos == n:
                raise LexError("stack_nonempty_at_eof", byte_of[pos], "mode %s" % top.mode)
            raise LexError("no_match", byte_of[pos], "mode %s" % top.mode)
        end, (rule_idx, emit_token) = m
        matched = text[pos:end]
        consumed = False
        for action in compiled.mode_actions[top.mode][rule_idx]:
            if isinstance(action, AEmit):
                tokens.append(Token(emit_token, matched, byte_of[pos], byte_of[end]))
                frames[-1].buffer.append(matched)
                consumed = True
            elif isinstance(action, APass):
                frames[-1].buffer.append(matched)
                consumed = True
            elif isinstance(action, APush):
                frames.append(_Frame(action.mode, pos))
            else:
                f = frames.pop()
                f_end = end if consumed else pos
                if isinstance(action, APopExtract):
                    extracts.append(Extract(f.mode, "".join(f.buffer),
                                            byte_of[f.start], byte_of[f_end]))
                elif isinstance(action, APopEmit):
                    tokens.append(Token(action.token, "".join(f.buffer),
                                        byte_of[f.start], byte_of[f_end]))
                if not frames:
                    break
        if consumed:
            pos = end
        if not frames and pos < n:
            raise LexError("premature_empty", byte_of[pos])
    return LexOutput(tokens, extracts)


# ---------------------------------------------------------------------------
# Reference completion search

def reference_complete(tables: LrTables, stack: tuple, queue: tuple, budget: int,
                       terminals: List[str]) -> Optional[List[str]]:
    """Shortest terminal suffix driving the configuration to Accept.

    `queue` holds committed upcoming terminals (the conflict lookahead);
    the returned list is queue plus whatever was appended, $ padding removed.
    """
    k = tables.k
    heap = []
    counter = 0
    start = (stack, queue)
    heapq.heappush(heap, (0, (), counter, start))
    counter += 1
    seen = set()
    popped = 0
    while heap:
        cost, appended, _c, (st, q) = heapq.heappop(heap)
        if (st, q) in seen:
            continue
        seen.add((st, q))
        popped += 1
        if popped > budget:
            return None
        if len(q) < k:
            if q and q[-1] == EOF_TERMINAL:
                choices = [EOF_TERMINAL]  # nothing follows end of input
            else:
                choices = list(terminals) + [EOF_TERMINAL]
            for t in choices:
                nq = q + (t,)
                c = cost + (0 if t == EOF_TERMINAL else 1)
                ap = appended if t == EOF_TERMINAL else appended + (t,)
                heapq.heappush(heap, (c, ap, counter, (st, nq)))
                counter += 1
            continue
        la = q[:k]
        for act in tables.actions_at(st[-1], la):
            ns, consumed, accepted = _step(tables, st, la, act)
            if accepted:
                return list(appended)
            if ns is None:
                continue
            nq = q[1:] if consumed else q
            heapq.heappush(heap, (cost, appended, counter, (ns, nq)))
            counter += 1
    return None
