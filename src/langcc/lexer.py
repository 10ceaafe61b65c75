"""Lexer compilation and execution.

Token patterns and mode rules compile to one DFA per lexer mode via Thompson
NFA construction and subset construction over codepoint intervals.  Rule
overlap is rejected at compile time: a DFA accept state must resolve to
exactly one action tag.  Two deliberate tie-breaks keep real grammars
writable without sacrificing determinism:

* within a single emit rule, an exact-literal constituent beats regex
  constituents accepting the same string (keywords vs. identifiers);
* a rule whose whole pattern is the bare wildcard `_` is the mode's default
  rule and yields to every other rule.

Everything else is a hard LexAmbiguity error.

At run time maximal munch walks the DFA of the mode on top of the mode
stack.  Each DFA state has a dense transition row for ASCII codepoints and
flat accept/eof lists, so an ASCII character costs one list index; other
codepoints bisect the state's sorted intervals.  When a CompiledLexer is
built (from a spec or from an artifact), each rule's action list becomes an
opcode: a plain `emit` or `pass` costs one int comparison, and any other
list runs its precompiled steps.  A frame keeps the text credited to it
only if its mode can be popped by `pop_extract` or `pop_emit`, which is
decided from the spec, conservatively, at the same time.  lex_lists returns
the tokens as parallel lists (terminals, texts, starts, ends), which the
parser indexes directly; lex builds Token values from them.  Tokens are
__slots__ values (SlotValue), not dataclasses.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .spec_ast import (
    AEmit, APass, APop, APopEmit, APopExtract, APush, LangSpec, RAlt, RConcat, REof,
    RLit, RRange, RRef, RStar, RWildcard, RegexExpr, quote_backtick,
)

MAX_CODEPOINT = 0x10FFFF
ASCII_ROW = 128  # codepoints below this have a dense transition row
EOF_TERMINAL = "$"


def literal_terminal(text: str) -> str:
    """Terminal id for a backtick literal; opaque tokens use their bare name."""
    return quote_backtick(text)


class LexCompileError(Exception):
    pass


class LexAmbiguity(LexCompileError):
    def __init__(self, mode: str, witness: str, tags):
        self.mode = mode
        self.witness = witness
        self.tags = tags
        desc = " vs ".join(sorted(_tag_desc(t) for t in tags))
        super().__init__("lexer ambiguity in mode %r on input %r: %s" % (mode, witness, desc))


class LexError(Exception):
    def __init__(self, kind: str, offset: int, detail: str = "", opened: int = 0):
        self.kind = kind  # no_match | premature_empty | stack_nonempty_at_eof | unencodable
        self.offset = offset
        self.detail = detail
        # where the innermost open mode was pushed (no_match, stack_nonempty_at_eof)
        self.opened = opened
        super().__init__("%s at offset %d%s" % (kind, offset, " (%s)" % detail if detail else ""))


@dataclass(frozen=True)
class Tag:
    rule_index: int
    token: Optional[str]  # terminal id emitted, if the rule emits
    is_literal: bool  # exact-literal constituent of an emit expansion
    is_default: bool  # tag of a bare-wildcard rule

    def key(self):
        return (self.rule_index, self.token)


def _tag_desc(t: Tag) -> str:
    if t.token is not None:
        return "rule %d emitting %s" % (t.rule_index, t.token)
    return "rule %d" % t.rule_index


class Nfa:
    """Thompson NFA over codepoint intervals with a virtual eof edge."""

    def __init__(self):
        self.eps: List[List[int]] = []
        self.edges: List[List[Tuple[int, int, int]]] = []  # (lo, hi, target)
        self.eof_edges: List[List[int]] = []
        self.accepts: Dict[int, Tag] = {}
        self.start = self.new_state()

    def new_state(self) -> int:
        self.eps.append([])
        self.edges.append([])
        self.eof_edges.append([])
        return len(self.eps) - 1

    def add_regex(self, e: RegexExpr, src: int) -> int:
        """Wire `e` starting at state src; returns the state reached on a match."""
        if isinstance(e, RLit):
            cur = src
            for ch in e.text:
                nxt = self.new_state()
                cp = ord(ch)
                self.edges[cur].append((cp, cp, nxt))
                cur = nxt
            return cur
        if isinstance(e, RRange):
            nxt = self.new_state()
            self.edges[src].append((ord(e.lo), ord(e.hi), nxt))
            return nxt
        if isinstance(e, RWildcard):
            nxt = self.new_state()
            self.edges[src].append((0, MAX_CODEPOINT, nxt))
            return nxt
        if isinstance(e, REof):
            nxt = self.new_state()
            self.eof_edges[src].append(nxt)
            return nxt
        if isinstance(e, RConcat):
            cur = src
            for p in e.parts:
                cur = self.add_regex(p, cur)
            return cur
        if isinstance(e, RAlt):
            out = self.new_state()
            for p in e.parts:
                entry = self.new_state()
                self.eps[src].append(entry)
                end = self.add_regex(p, entry)
                self.eps[end].append(out)
            return out
        if isinstance(e, RStar):
            hub = self.new_state()
            self.eps[src].append(hub)
            entry = self.new_state()
            self.eps[hub].append(entry)
            end = self.add_regex(e.inner, entry)
            self.eps[end].append(hub)
            return hub
        raise TypeError(e)

    def eps_closure(self, states) -> frozenset:
        seen = set(states)
        work = list(states)
        while work:
            s = work.pop()
            for t in self.eps[s]:
                if t not in seen:
                    seen.add(t)
                    work.append(t)
        return frozenset(seen)


class ModeDfa:
    """Deterministic automaton for one lexer mode.

    states[i] is (transitions, eof_target, accept) where transitions is a
    sorted tuple of (lo, hi, target) with disjoint intervals.  For the
    matching loop each state also has a dense row of ASCII_ROW targets
    (-1: no transition) in `ascii_rows`; codepoints past it go to `step`,
    which bisects the state's interval lows.  `accepts[i]` and `eofs[i]` (-1: no
    eof transition) flatten the other two columns.
    """

    def __init__(self, mode: str, states, start: int = 0):
        self.mode = mode
        self.states = states
        self.start = start
        self._lows = [[iv[0] for iv in st[0]] for st in states]
        self.ascii_rows = []
        for transitions, _eof, _acc in states:
            row = [-1] * ASCII_ROW
            for lo, hi, target in transitions:
                if lo >= ASCII_ROW:
                    break
                hi = min(hi, ASCII_ROW - 1)
                row[lo:hi + 1] = [target] * (hi + 1 - lo)
            self.ascii_rows.append(row)
        self.accepts = [st[2] for st in states]
        self.eofs = [-1 if st[1] is None else st[1] for st in states]

    def step(self, state: int, cp: int) -> int:
        transitions = self.states[state][0]
        idx = bisect.bisect_right(self._lows[state], cp) - 1
        if idx >= 0:
            lo, hi, target = transitions[idx]
            if lo <= cp <= hi:
                return target
        return -1

    def accept(self, state: int):
        return self.accepts[state]

    def dump(self) -> str:
        out = ["mode %s (%d states)" % (self.mode, len(self.states))]
        for i, (transitions, eof_target, accept) in enumerate(self.states):
            parts = []
            for lo, hi, target in transitions:
                if lo == hi:
                    parts.append("%s -> s%d" % (_cp_repr(lo), target))
                else:
                    parts.append("%s-%s -> s%d" % (_cp_repr(lo), _cp_repr(hi), target))
            if eof_target is not None:
                parts.append("eof -> s%d" % eof_target)
            acc = ""
            if accept is not None:
                rule, token = accept
                acc = "  accept(rule %d%s)" % (rule, ", emit %s" % token if token else "")
            out.append("  s%d: %s%s" % (i, "; ".join(parts) if parts else "-", acc))
        return "\n".join(out)


def _cp_repr(cp: int) -> str:
    ch = chr(cp)
    if ch in ("\n", "\t", "\r", " ", "\\") or not ch.isprintable():
        return "U+%04X" % cp
    return ch


class SlotValue:
    """Base of the small value records built per token and per reduction
    (Token here; Bounds, TokenLeaf, EnumVal, SeqVal in runtime): plain
    __slots__ classes, much cheaper to construct than frozen dataclasses,
    with the equality, hashing and repr a frozen dataclass would give them.
    Instances are not modified after construction."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__))


class Token(SlotValue):
    __slots__ = ("terminal", "text", "start", "end")

    def __init__(self, terminal: str, text: str, start: int, end: int):
        self.terminal = terminal
        self.text = text
        self.start = start  # byte offsets
        self.end = end


@dataclass(frozen=True)
class Extract:
    mode: str
    text: str
    start: int
    end: int


@dataclass
class LexOutput:
    tokens: List[Token]
    extracts: List[Extract]


# The load-time form of a rule's action list: a plain emit or pass is one
# opcode, anything else runs its list of (step, argument) pairs.
OP_EMIT, OP_PASS, OP_STEPS = range(3)
S_EMIT, S_PASS, S_PUSH, S_POP, S_POP_EXTRACT, S_POP_EMIT = range(6)


class CompiledLexer:
    def __init__(self, main_mode: str, dfas: Dict[str, ModeDfa], mode_actions, emittable):
        self.main_mode = main_mode
        self.dfas = dfas
        self.mode_actions = mode_actions  # mode -> tuple of action tuples, per rule
        self.emittable = emittable  # terminal ids the lexer can produce
        # programs[mode]: (ascii_rows, accepts, eofs, step, start, keeps),
        # what the matching loop reads for a frame in that mode: the DFA's
        # rows, with each accept compiled to (opcode, terminal, steps), and
        # whether the frame keeps the text credited to it
        keeping = _modes_keeping_text(mode_actions)
        self.programs = {}
        for mode, dfa in dfas.items():
            rules = [_rule_program(actions, dfas) for actions in mode_actions[mode]]
            accepts = [None if acc is None else (rules[acc[0]][0], acc[1], rules[acc[0]][1])
                       for acc in dfa.accepts]
            self.programs[mode] = (dfa.ascii_rows, accepts, dfa.eofs, dfa.step, dfa.start,
                                   mode in keeping)

    def dump(self) -> str:
        return "\n".join(self.dfas[m].dump() for m in sorted(self.dfas)) + "\n"


def _rule_program(actions, modes) -> Tuple[int, tuple]:
    """(opcode, steps) of one rule's action list."""
    if len(actions) == 1 and isinstance(actions[0], (AEmit, APass)):
        return (OP_EMIT if isinstance(actions[0], AEmit) else OP_PASS), ()
    steps = []
    for a in actions:
        if isinstance(a, AEmit):
            steps.append((S_EMIT, None))
        elif isinstance(a, APass):
            steps.append((S_PASS, None))
        elif isinstance(a, APush):
            if a.mode not in modes:
                raise ValueError("push to unknown lexer mode %r" % a.mode)
            steps.append((S_PUSH, a.mode))
        elif isinstance(a, APopExtract):
            steps.append((S_POP_EXTRACT, None))
        elif isinstance(a, APopEmit):
            steps.append((S_POP_EMIT, a.token))
        else:
            steps.append((S_POP, None))
    return OP_STEPS, tuple(steps)


def _modes_keeping_text(mode_actions) -> frozenset:
    """The modes whose frames must keep the text credited to them: those a
    pop_extract or pop_emit can pop.  Each rule's action list is run on a
    stack holding only the rule's own frame; a pop_extract or pop_emit
    below that frame, whose mode is not known here, makes every mode keep
    its text."""
    out = set()
    for mode, rules in mode_actions.items():
        for actions in rules:
            stack = [mode]
            for a in actions:
                if isinstance(a, APush):
                    stack.append(a.mode)
                elif isinstance(a, (APop, APopExtract, APopEmit)):
                    top = stack.pop() if stack else None
                    if isinstance(a, APop):
                        continue
                    if top is None:
                        return frozenset(mode_actions)
                    out.add(top)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Compilation

def _expand_aliases(e: RegexExpr, env: Dict[str, RegexExpr]) -> RegexExpr:
    if isinstance(e, RRef):
        if e.name not in env:
            raise LexCompileError("reference to unknown token %r" % e.name)
        return _expand_aliases(env[e.name], env)
    if isinstance(e, RConcat):
        return RConcat(tuple(_expand_aliases(p, env) for p in e.parts))
    if isinstance(e, RAlt):
        return RAlt(tuple(_expand_aliases(p, env) for p in e.parts))
    if isinstance(e, RStar):
        return RStar(_expand_aliases(e.inner, env))
    return e


def _nullable(e: RegexExpr) -> bool:
    if isinstance(e, RLit):
        return e.text == ""
    if isinstance(e, RConcat):
        return all(_nullable(p) for p in e.parts)
    if isinstance(e, RAlt):
        return any(_nullable(p) for p in e.parts)
    if isinstance(e, RStar):
        return True
    return False  # RRange, RWildcard, REof (refs are expanded before this)


def _contains_eof(e: RegexExpr) -> bool:
    if isinstance(e, REof):
        return True
    if isinstance(e, (RConcat, RAlt)):
        return any(_contains_eof(p) for p in e.parts)
    if isinstance(e, RStar):
        return _contains_eof(e.inner)
    return False


def emit_constituents(e: RegexExpr, decls, stack=()) -> List[Tuple[str, RegexExpr, bool]]:
    """Flatten an emit pattern into (terminal id, pattern, is_literal) constituents.

    An emit rule needs a token identity per accepted string: acceptable
    patterns are literals, opaque token references, and aliases whose bodies
    are alternations of such.
    """
    if isinstance(e, RLit):
        if e.text == "":
            raise LexCompileError("cannot emit the empty literal")
        return [(literal_terminal(e.text), e, True)]
    if isinstance(e, RRef):
        decl = decls.get(e.name)
        if decl is None:
            raise LexCompileError("emit pattern references unknown token %r" % e.name)
        if decl.kind == "opaque":
            return [(e.name, decl.pattern, False)]
        if e.name in stack:
            raise LexCompileError("cyclic alias %r in emit pattern" % e.name)
        return emit_constituents(decl.pattern, decls, stack + (e.name,))
    if isinstance(e, RAlt):
        out = []
        for p in e.parts:
            out.extend(emit_constituents(p, decls, stack))
        return out
    if isinstance(e, RConcat) and len(e.parts) == 1:
        return emit_constituents(e.parts[0], decls, stack)
    raise LexCompileError(
        "emit pattern has no token identity; use opaque tokens, literals, "
        "or an alias alternation over them")


def _subset_construct(mode: str, nfa: Nfa) -> ModeDfa:
    start_set = nfa.eps_closure([nfa.start])
    order: Dict[frozenset, int] = {start_set: 0}
    work = [start_set]
    rows = []
    witnesses = {start_set: ""}

    while work:
        cur = work.pop(0)
        # atomic interval partition of the outgoing labels
        points = set()
        for s in cur:
            for lo, hi, _t in nfa.edges[s]:
                points.add(lo)
                points.add(hi + 1)
        cuts = sorted(points)
        transitions = []
        for i in range(len(cuts) - 1):
            lo, nxt_cut = cuts[i], cuts[i + 1]
            hi = nxt_cut - 1
            move = set()
            for s in cur:
                for elo, ehi, t in nfa.edges[s]:
                    # cut points refine every edge, so overlap implies containment
                    if elo <= lo and hi <= ehi:
                        move.add(t)
            if not move:
                continue
            target = nfa.eps_closure(move)
            if target not in order:
                order[target] = len(order)
                work.append(target)
                witnesses[target] = witnesses[cur] + chr(lo)
            transitions.append((lo, hi, order[target]))
        eof_move = set()
        for s in cur:
            eof_move.update(nfa.eof_edges[s])
        eof_target = None
        if eof_move:
            target = nfa.eps_closure(eof_move)
            if target not in order:
                order[target] = len(order)
                work.append(target)
                witnesses[target] = witnesses[cur]  # eof adds no characters
            eof_target = order[target]
        rows.append((cur, tuple(transitions), eof_target))

    states = []
    for cur, transitions, eof_target in rows:
        tag = _resolve_accept(mode, cur, nfa, witnesses[cur])
        states.append((transitions, eof_target, tag))
    return ModeDfa(mode, states)


def _resolve_accept(mode: str, state_set, nfa: Nfa, witness: str):
    tags = {}
    for s in state_set:
        t = nfa.accepts.get(s)
        if t is not None:
            tags[t.key()] = t
    if not tags:
        return None
    candidates = list(tags.values())
    non_default = [t for t in candidates if not t.is_default]
    if non_default:
        candidates = non_default
    rules = {t.rule_index for t in candidates}
    if len(rules) == 1 and len(candidates) > 1:
        literals = [t for t in candidates if t.is_literal]
        if len(literals) == 1:
            candidates = literals
    if len(candidates) > 1:
        raise LexAmbiguity(mode, witness, candidates)
    t = candidates[0]
    return (t.rule_index, t.token)


def compile_lexer(spec: LangSpec) -> CompiledLexer:
    """Compile all lexer modes of a validated spec to DFAs."""
    decls = {d.name: d for d in spec.token_decls}
    env = {d.name: d.pattern for d in spec.token_decls}

    emittable = set()
    dfas = {}
    mode_actions = {}
    for mode_name, rules in spec.lexer.modes:
        nfa = Nfa()
        for idx, rule in enumerate(rules):
            has_emit = any(isinstance(a, AEmit) for a in rule.actions)
            if has_emit:
                for token_id, pattern, is_lit in emit_constituents(rule.pattern, decls):
                    expanded = _expand_aliases(pattern, env)
                    if _contains_eof(expanded):
                        raise LexCompileError("eof cannot appear inside an emitted pattern")
                    if _nullable(expanded):
                        raise LexCompileError(
                            "token %s matches the empty string" % token_id)
                    end = nfa.add_regex(expanded, nfa.start)
                    nfa.accepts[end] = Tag(idx, token_id, is_lit, False)
                    emittable.add(token_id)
            else:
                expanded = _expand_aliases(rule.pattern, env)
                is_default = isinstance(rule.pattern, RWildcard)
                if isinstance(expanded, REof):
                    pass  # bare eof rule
                elif _contains_eof(expanded):
                    raise LexCompileError(
                        "eof may only be used as a whole lexer-rule pattern")
                elif _nullable(expanded):
                    raise LexCompileError(
                        "lexer rule pattern in mode %r matches the empty string" % mode_name)
                end = nfa.add_regex(expanded, nfa.start)
                nfa.accepts[end] = Tag(idx, None, False, is_default)
            for a in rule.actions:
                if isinstance(a, APopEmit):
                    emittable.add(a.token)
        dfas[mode_name] = _subset_construct(mode_name, nfa)
        mode_actions[mode_name] = tuple(rule.actions for rule in rules)
    return CompiledLexer(spec.lexer.main_mode, dfas, mode_actions, frozenset(emittable))


# ---------------------------------------------------------------------------
# Execution

def lex(compiled: CompiledLexer, text: str) -> LexOutput:
    """lex_lists, with its tokens as Token values."""
    terminals, texts, starts, ends, extracts = lex_lists(compiled, text)
    return LexOutput(list(map(Token, terminals, texts, starts, ends)), extracts)


def lex_lists(compiled: CompiledLexer, text: str):
    """Run the mode-stack machine over text.  Returns the tokens as parallel
    lists (terminals, texts, starts, ends), offsets in UTF-8 bytes, and the
    list of extracts.

    Succeeds iff the mode stack first becomes empty exactly at end of input.
    An emit/pass action consumes the matched string (crediting the frame that
    is on top when the action runs); a match with no consuming action is left
    for the next mode on the stack to reprocess.
    """
    n = len(text)
    byte_of = _byte_offsets(text)
    ascii_text = text.isascii()
    codes = text.encode("ascii") if ascii_text else [ord(ch) for ch in text]
    programs = compiled.programs
    terminals: List[str] = []
    texts: List[str] = []
    starts: List[int] = []  # codepoint offsets until the end
    ends: List[int] = []
    extracts: List[Extract] = []
    below = []  # the frames under the top one, as (mode, buffer, start)
    # the top frame: its mode, its text if the mode keeps it (else None),
    # and where it began
    mode = compiled.main_mode
    rows, accepts, eofs, step, start_state, keeps = programs[mode]
    buf = [] if keeps else None
    fstart = 0
    pos = 0

    while True:
        # maximal munch from pos
        state = start_state
        best = accepts[state]
        best_end = i = pos
        while i < n:
            cp = codes[i]
            state = rows[state][cp] if cp < ASCII_ROW else step(state, cp)
            if state < 0:
                break
            i += 1
            acc = accepts[state]
            if acc is not None:
                best = acc
                best_end = i
        else:
            state = eofs[state]
            if state >= 0 and accepts[state] is not None:
                best = accepts[state]
                best_end = i
        if best is None:
            raise LexError("stack_nonempty_at_eof" if pos == n else "no_match",
                           byte_of[pos], "mode %s" % mode, byte_of[fstart])
        op, token, steps = best
        if op == OP_EMIT:
            matched = text[pos:best_end]
            terminals.append(token)
            texts.append(matched)
            starts.append(pos)
            ends.append(best_end)
            if buf is not None:
                buf.append(matched)
            pos = best_end
            continue
        if op == OP_PASS:
            if buf is not None:
                buf.append(text[pos:best_end])
            pos = best_end
            continue

        matched = text[pos:best_end]
        consumed = False
        for code, arg in steps:
            if code == S_EMIT:
                terminals.append(token)
                texts.append(matched)
                starts.append(pos)
                ends.append(best_end)
                if buf is not None:
                    buf.append(matched)
                consumed = True
            elif code == S_PASS:
                if buf is not None:
                    buf.append(matched)
                consumed = True
            elif code == S_PUSH:
                below.append((mode, buf, fstart))
                mode = arg
                buf = [] if programs[mode][5] else None
                fstart = pos
            else:
                f_end = best_end if consumed else pos
                if code == S_POP_EXTRACT:
                    extracts.append(Extract(mode, "".join(buf),
                                            byte_of[fstart], byte_of[f_end]))
                elif code == S_POP_EMIT:
                    terminals.append(arg)
                    texts.append("".join(buf))
                    starts.append(fstart)
                    ends.append(f_end)
                if not below:
                    mode = None
                    break
                mode, buf, fstart = below.pop()
        if consumed:
            pos = best_end
        if mode is None:
            if pos < n:
                raise LexError("premature_empty", byte_of[pos])
            break
        rows, accepts, eofs, step, start_state, keeps = programs[mode]

    if not ascii_text:
        starts = [byte_of[i] for i in starts]
        ends = [byte_of[i] for i in ends]
    return terminals, texts, starts, ends, extracts


# ---------------------------------------------------------------------------
# Positions

def _byte_offsets(text: str) -> Sequence[int]:
    if text.isascii():
        return range(len(text) + 1)
    offs = [0] * (len(text) + 1)
    total = 0
    try:
        for i, ch in enumerate(text):
            total += len(ch.encode("utf-8"))
            offs[i + 1] = total
    except UnicodeEncodeError:
        # a str may hold a lone surrogate, which has no UTF-8 encoding
        raise LexError("unencodable", total, "lone surrogate U+%04X" % ord(ch)) from None
    return offs


def token_bounds_to_linecol(text: str, byte_offset: int) -> Tuple[int, int]:
    """1-based (line, column) of a byte offset; columns count codepoints.
    A lone surrogate counts as the three bytes of its surrogatepass form."""
    data = text.encode("utf-8", "surrogatepass")
    if byte_offset > len(data):
        raise ValueError("offset %d beyond input length %d" % (byte_offset, len(data)))
    before = data[:byte_offset]
    line = before.count(b"\n") + 1
    nl = before.rfind(b"\n")
    col = len(before[nl + 1:].decode("utf-8", "surrogatepass")) + 1
    return (line, col)
