"""Lexer compilation and execution.

Token patterns and mode rules compile to one DFA per lexer mode via Thompson
NFA construction and subset construction over codepoint intervals.  Each
pattern reaches the NFA in one walk, on an explicit stack that expands alias
references as it meets them; whether it matches the empty string or holds
eof is read off the states it wired.  Rule overlap is rejected at compile
time: a DFA accept state must resolve to exactly one action tag.  Two
deliberate tie-breaks keep real grammars writable without sacrificing
determinism:

* within a single emit rule, an exact-literal constituent beats regex
  constituents accepting the same string (keywords vs. identifiers);
* a rule whose whole pattern is the bare wildcard `_` is the mode's default
  rule and yields to every other rule.

Everything else is a hard LexAmbiguity error.

At run time maximal munch walks the DFA of the mode on top of the mode
stack.  Each DFA state has a dense transition row for ASCII codepoints and
flat accept/eof lists, so an ASCII character costs one list index; other
codepoints bisect the state's sorted intervals.  An ASCII character that
matches alone (it leads from the start state to an accepting state with no
transitions and no eof transition) ends its match without a walk, read
from a table per mode, and a plain `pass` also passes the run of such
characters after it that match alone with a plain `pass` (spaces, comment
and string bodies).  Maximal munch runs in time linear in the input
(Reps, "Maximal-munch" tokenization in linear time, TOPLAS 1998): when a
walk reads past its last accept, the (state, position) pairs it passed
there are remembered, and a later walk of that mode that reaches one stops.
A walk that never reads past its last accept pays nothing for this.

When a CompiledLexer is built (from a spec or from an artifact), each
rule's action list must pass action_list_fault, the progress check
validate_spec also runs, and then becomes an opcode: a plain `emit` or
`pass` costs one int comparison, and any other list runs its precompiled
steps.  A frame keeps the text credited to it only if its mode can be
popped by `pop_extract` or `pop_emit`, which is decided from the spec,
conservatively, at the same time.  lex_lists returns the tokens as
parallel lists (terminals, texts, starts, ends), which the parser indexes
directly; lex builds TokenLeaf values from them, the one token class, which
the parse tree holds as its leaves.  Tokens are __slots__ values
(spec_ast.Tree), not dataclasses.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .spec_ast import (
    LEXER_OPS, LangSpec, RAlt, RConcat, REof, RLit, RRange, RRef, RStar, RWildcard,
    RegexExpr, TokenDecl, Tree, quote_backtick,
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

    def add_regex(self, e: RegexExpr, src: int, decls: Dict[str, TokenDecl]) -> int:
        """Wire `e` from state src, each token reference expanded from decls;
        returns the state reached on a match.  The stack holds patterns to
        wire from `end` and steps: ("branch", s) starts an alternative after
        s, ("join", s) links `end` to s, ("leave", name) ends an alias."""
        eps, edges = self.eps, self.edges
        end = src
        work = [e]
        expanding = set()
        while work:
            e = work.pop()
            if type(e) is tuple:
                step, arg = e
                if step == "branch":
                    end = self.new_state()
                    eps[arg].append(end)
                elif step == "join":
                    eps[end].append(arg)
                    end = arg
                else:
                    expanding.discard(arg)
            elif isinstance(e, RLit):
                for ch in e.text:
                    nxt = self.new_state()
                    edges[end].append((ord(ch), ord(ch), nxt))
                    end = nxt
            elif isinstance(e, (RRange, RWildcard)):
                nxt = self.new_state()
                edges[end].append((ord(e.lo), ord(e.hi), nxt) if isinstance(e, RRange)
                                  else (0, MAX_CODEPOINT, nxt))
                end = nxt
            elif isinstance(e, REof):
                nxt = self.new_state()
                self.eof_edges[end].append(nxt)
                end = nxt
            elif isinstance(e, RConcat):
                work.extend(reversed(e.parts))
            elif isinstance(e, RAlt):
                start, end = end, self.new_state()
                for p in reversed(e.parts):
                    work += [("join", end), p, ("branch", start)]
            elif isinstance(e, RStar):
                hub = self.new_state()
                eps[end].append(hub)
                end = self.new_state()
                eps[hub].append(end)
                work += [("join", hub), e.inner]
            elif isinstance(e, RRef):
                if e.name not in decls:
                    raise LexCompileError("reference to unknown token %r" % e.name)
                if e.name in expanding:
                    raise LexCompileError("cyclic alias %r" % e.name)
                expanding.add(e.name)
                work += [("leave", e.name), decls[e.name].pattern]
            else:
                raise TypeError(e)
        return end

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
    eof transition) flatten the other two columns.  State 0 is the start state.
    """

    def __init__(self, mode: str, states):
        self.mode = mode
        self.states = states
        self.start = 0
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


class TokenLeaf(Tree):
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
    tokens: List[TokenLeaf]
    extracts: List[Extract]


# The load-time form of a rule's action list: a plain emit or pass is one
# opcode, anything else runs its list of (step, argument) pairs.
OP_EMIT, OP_PASS, OP_STEPS = range(3)
# Each step's code is its op's place in LEXER_OPS.
S_EMIT, S_PASS, S_PUSH, S_POP, S_POP_EXTRACT, S_POP_EMIT = range(6)
STEP_CODES = {op: i for i, op in enumerate(LEXER_OPS)}


class CompiledLexer:
    def __init__(self, main_mode: str, dfas: Dict[str, ModeDfa], mode_actions, emittable):
        self.main_mode = main_mode
        self.dfas = dfas
        self.mode_actions = mode_actions  # mode -> tuple of action tuples, per rule
        self.emittable = emittable  # terminal ids the lexer can produce
        # programs[mode]: (ascii_rows, accepts, eofs, step, start, keeps,
        # singles, passes, base), what the matching loop reads for a frame
        # in that mode:
        # - the DFA's rows, with each accept compiled to (opcode, terminal,
        #   steps);
        # - keeps: whether the frame keeps the text credited to it;
        # - singles: per ASCII character, the compiled accept of its match
        #   if it matches alone (it leads from the start to an accepting
        #   state with no transitions and no eof transition), else None;
        #   one more None for ASCII_ROW, the code lex_lists puts past the
        #   end of the text;
        # - passes: the characters that match alone with a plain pass;
        # - base: where the mode's states begin among all modes' states,
        #   for the keys of the failure memo.
        keeping = _modes_keeping_text(mode_actions)
        self.programs = {}
        self.memo_width = 0  # DFA states over all modes
        for mode, dfa in dfas.items():
            # the rule matching eof from the start state has an empty match
            at_eof = dfa.eofs[dfa.start]
            eof_rule = dfa.accepts[at_eof][0] if at_eof >= 0 and dfa.accepts[at_eof] else None
            rules = [_rule_program(mode, actions, dfas, i == eof_rule)
                     for i, actions in enumerate(mode_actions[mode])]
            accepts = [None if acc is None else (rules[acc[0]][0], acc[1], rules[acc[0]][1])
                       for acc in dfa.accepts]
            singles = [None] * (ASCII_ROW + 1)
            passes = set()
            for lo, hi, t in dfa.states[dfa.start][0]:
                acc = accepts[t]
                if lo < ASCII_ROW and acc is not None and not dfa.states[t][0] and dfa.eofs[t] < 0:
                    hi = min(hi, ASCII_ROW - 1)
                    singles[lo:hi + 1] = [acc] * (hi + 1 - lo)
                    if acc[0] == OP_PASS:
                        passes.update(range(lo, hi + 1))
            self.programs[mode] = (dfa.ascii_rows, accepts, dfa.eofs, dfa.step, dfa.start,
                                   mode in keeping, singles, frozenset(passes),
                                   self.memo_width)
            self.memo_width += len(dfa.states)

    def dump(self) -> str:
        return "\n".join(self.dfas[m].dump() for m in sorted(self.dfas)) + "\n"


def action_list_fault(mode: str, actions, eof: bool = False) -> Optional[str]:
    """Why a rule of `mode` with this action list cannot make progress, or
    None if it can; `eof` says the rule matches eof, which is an empty
    match.  A rule makes progress by consuming a nonempty match or by
    changing the mode stack, or else the next match runs it again at the
    same place.  The list runs here on a stack holding only the rule's own
    frame.  A list that pops below that frame is passed, though whether it
    makes progress depends on the frames below: `pop; pop; push n; push m;`
    in mode m leaves a stack [.., n, m] as it found it."""
    consuming = sum(LEXER_OPS[a.op].consumes for a in actions)
    popped, stack = _run_on_own_frame(mode, actions)
    if consuming > 1:
        return "lexer rule in mode %r has more than one emit/pass action" % mode
    if not consuming and not popped:
        return ("lexer rule in mode %r neither consumes its match nor pops; it cannot "
                "make progress" % mode)
    if eof and not popped:
        return "eof rule in mode %r must pop" % mode
    if (eof or not consuming) and stack == [mode] and None not in (t for _, t in popped):
        return ("lexer rule in mode %r consumes nothing and leaves the mode stack as it "
                "found it; it cannot make progress" % mode)
    return None


def _run_on_own_frame(mode: str, actions):
    """Run the pushes and pops of an action list on a stack holding only
    the rule's own frame, in `mode`: ((op, mode it popped) for each popping
    action, with None for a frame below the rule's own; the final stack)."""
    stack, popped = [mode], []
    for a in actions:
        if a.op == "push":
            stack.append(a.arg)
        elif LEXER_OPS[a.op].pops:
            popped.append((a.op, stack.pop() if stack else None))
    return popped, stack


def _rule_program(mode: str, actions, modes, eof: bool) -> Tuple[int, tuple]:
    """(opcode, steps) of one rule's action list."""
    fault = action_list_fault(mode, actions, eof)
    if fault is not None:
        raise LexCompileError(fault)
    if len(actions) == 1 and actions[0].op in ("emit", "pass"):
        return (OP_EMIT if actions[0].op == "emit" else OP_PASS), ()
    for a in actions:
        if a.op == "push" and a.arg not in modes:
            raise LexCompileError("push to unknown lexer mode %r" % a.arg)
    return OP_STEPS, tuple((STEP_CODES[a.op], a.arg) for a in actions)


def _modes_keeping_text(mode_actions) -> frozenset:
    """The modes whose frames must keep the text credited to them: those a
    pop_extract or pop_emit can pop.  A pop_extract or pop_emit below the
    rule's own frame, whose mode is not known here, makes every mode keep
    its text."""
    out = set()
    for mode, rules in mode_actions.items():
        for actions in rules:
            kept = [top for op, top in _run_on_own_frame(mode, actions)[0] if op != "pop"]
            if None in kept:
                return frozenset(mode_actions)
            out.update(kept)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Compilation

def emit_constituents(e: RegexExpr, decls) -> List[Tuple[str, RegexExpr, bool]]:
    """Flatten an emit pattern into (terminal id, pattern, is_literal) constituents.

    An emit rule needs a token identity per accepted string: acceptable
    patterns are literals, opaque token references, and aliases whose bodies
    are alternations of such.  The stack holds (pattern, aliases expanded
    on the way to it).
    """
    out = []
    work = [(e, ())]
    while work:
        e, aliases = work.pop()
        if isinstance(e, RLit):
            if e.text == "":
                raise LexCompileError("cannot emit the empty literal")
            out.append((literal_terminal(e.text), e, True))
        elif isinstance(e, RRef):
            decl = decls.get(e.name)
            if decl is None:
                raise LexCompileError("emit pattern references unknown token %r" % e.name)
            if decl.kind == "opaque":
                out.append((e.name, decl.pattern, False))
            elif e.name in aliases:
                raise LexCompileError("cyclic alias %r in emit pattern" % e.name)
            else:
                work.append((decl.pattern, aliases + (e.name,)))
        elif isinstance(e, RAlt):
            work.extend((p, aliases) for p in reversed(e.parts))
        elif isinstance(e, RConcat) and len(e.parts) == 1:
            work.append((e.parts[0], aliases))
        else:
            raise LexCompileError(
                "emit pattern has no token identity; use opaque tokens, literals, "
                "or an alias alternation over them")
    return out


def _subset_construct(mode: str, nfa: Nfa) -> ModeDfa:
    """The DFA of one mode's NFA, states numbered breadth first from the
    ε-closure of the NFA's start.  A DFA state's outgoing NFA edges are
    collected once; their ends cut the codepoints into atomic intervals,
    and each edge adds its target to the intervals it covers, found by
    bisecting the cuts.  Neighbouring intervals often move to the same NFA
    states, so each move's ε-closure is computed once."""
    start_set = nfa.eps_closure([nfa.start])
    order: Dict[frozenset, int] = {start_set: 0}
    work = [start_set]  # the DFA states by number; work[idx] is closed next
    rows = []
    witnesses = {start_set: ""}
    closures: Dict[frozenset, frozenset] = {}  # NFA move -> its ε-closure

    idx = 0
    while idx < len(work):
        cur = work[idx]
        idx += 1
        edges = [e for s in cur for e in nfa.edges[s]]
        points = set()
        for lo, hi, _t in edges:
            points.add(lo)
            points.add(hi + 1)
        cuts = sorted(points)
        # moves[i]: the targets on the atomic interval [cuts[i], cuts[i + 1])
        moves = [set() for _ in range(len(cuts) - 1)]
        for lo, hi, t in edges:
            for i in range(bisect.bisect_left(cuts, lo), bisect.bisect_left(cuts, hi + 1)):
                moves[i].add(t)
        transitions = []
        for i, move in enumerate(moves):
            if not move:
                continue
            lo = cuts[i]
            move = frozenset(move)
            target = closures.get(move)
            if target is None:
                target = closures[move] = nfa.eps_closure(move)
            if target not in order:
                order[target] = len(order)
                work.append(target)
                witnesses[target] = witnesses[cur] + chr(lo)
            transitions.append((lo, cuts[i + 1] - 1, order[target]))
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


def alias_target(pattern: RegexExpr, decls) -> RegexExpr:
    """What `pattern` stands for once token references (name -> TokenDecl
    in decls) are followed, stopping at a cycle or an undeclared name."""
    seen = set()
    while isinstance(pattern, RRef) and pattern.name in decls and pattern.name not in seen:
        seen.add(pattern.name)
        pattern = decls[pattern.name].pattern
    return pattern


def _wire(nfa: Nfa, pattern: RegexExpr, decls) -> Tuple[int, bool, bool]:
    """Wire pattern from a new entry state, ε-joined to nfa's start.  Returns
    its end state, whether it holds eof (a state wired from entry has an
    eof edge) and whether it matches "" (end is in entry's ε-closure)."""
    entry = nfa.new_state()
    nfa.eps[nfa.start].append(entry)
    end = nfa.add_regex(pattern, entry, decls)
    return end, any(nfa.eof_edges[entry:]), end in nfa.eps_closure([entry])


def compile_lexer(spec: LangSpec) -> CompiledLexer:
    """Compile all lexer modes of a validated spec to DFAs."""
    decls = {d.name: d for d in spec.token_decls}

    emittable = set()
    dfas = {}
    mode_actions = {}
    for mode_name, rules in spec.lexer.modes:
        nfa = Nfa()
        for idx, rule in enumerate(rules):
            if any(a.op == "emit" for a in rule.actions):
                for token_id, pattern, is_lit in emit_constituents(rule.pattern, decls):
                    end, holds_eof, empty = _wire(nfa, pattern, decls)
                    if holds_eof:
                        raise LexCompileError("eof cannot appear inside an emitted pattern")
                    if empty:
                        raise LexCompileError(
                            "token %s matches the empty string" % token_id)
                    nfa.accepts[end] = Tag(idx, token_id, is_lit, False)
                    emittable.add(token_id)
            else:
                end, holds_eof, empty = _wire(nfa, rule.pattern, decls)
                if holds_eof and not isinstance(alias_target(rule.pattern, decls), REof):
                    raise LexCompileError(
                        "eof may only be used as a whole lexer-rule pattern")
                if empty:
                    raise LexCompileError(
                        "lexer rule pattern in mode %r matches the empty string" % mode_name)
                nfa.accepts[end] = Tag(idx, None, False, isinstance(rule.pattern, RWildcard))
            emittable.update(a.arg for a in rule.actions if a.op == "pop_emit")
        dfas[mode_name] = _subset_construct(mode_name, nfa)
        mode_actions[mode_name] = tuple(rule.actions for rule in rules)
    return CompiledLexer(spec.lexer.main_mode, dfas, mode_actions, frozenset(emittable))


# ---------------------------------------------------------------------------
# Execution

def lex(compiled: CompiledLexer, text: str) -> LexOutput:
    """lex_lists, with its tokens as TokenLeaf values."""
    terminals, texts, starts, ends, extracts = lex_lists(compiled, text)
    return LexOutput(list(map(TokenLeaf, terminals, texts, starts, ends)), extracts)


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
    # codes[n] is ASCII_ROW, which singles maps to None and passes lacks
    codes = (text.encode("ascii") + b"\x80" if ascii_text
             else [ord(ch) for ch in text] + [ASCII_ROW])
    programs = compiled.programs
    width = compiled.memo_width
    terminals: List[str] = []
    texts: List[str] = []
    starts: List[int] = []  # codepoint offsets until the end
    ends: List[int] = []
    extracts: List[Extract] = []
    below = []  # the frames under the top one, as (mode, buffer, start)
    # the top frame: its mode, its text if the mode keeps it (else None),
    # and where it began
    mode = compiled.main_mode
    rows, accepts, eofs, step, start_state, keeps, singles, passes, base = programs[mode]
    buf = [] if keeps else None
    fstart = 0
    pos = 0
    # Reps' failure memo: position * width + the state's place among all
    # modes' states, for each DFA state reached at a position from which no
    # accept is reachable.  A failure depends only on the mode's DFA and the
    # text after the position, so it holds whatever the frames below.
    failed = set()

    while True:
        cp = codes[pos]
        best = singles[cp] if cp <= ASCII_ROW else None
        if best is not None:
            best_end = pos + 1
        else:
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
                elif failed and i * width + base + state in failed:
                    break
            else:
                state = eofs[state]
                if state >= 0 and accepts[state] is not None:
                    best = accepts[state]
                    best_end = i
            if best is None:
                raise LexError("stack_nonempty_at_eof" if pos == n else "no_match",
                               byte_of[pos], "mode %s" % mode, byte_of[fstart])
            if i > best_end:
                # the walk read past its last accept: remember the states it
                # passed there, so that no later walk reads on from them
                state = start_state
                for j in range(pos, i):
                    cp = codes[j]
                    state = rows[state][cp] if cp < ASCII_ROW else step(state, cp)
                    if j >= best_end:
                        failed.add((j + 1) * width + base + state)
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
            # the characters after it that match alone with a plain pass
            # are passed with it
            while codes[best_end] in passes:
                best_end += 1
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
        rows, accepts, eofs, step, start_state, keeps, singles, passes, base = programs[mode]

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
