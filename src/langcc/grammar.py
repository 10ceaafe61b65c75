"""Lowering of parser rules to a plain context-free grammar.

Sugar (lists, optionals, alternations) becomes synthesized nonterminals with
deterministic names: X<n> for alternation enums, L<n> for lists, Q<n> for
optionals.  Singleton alternations (#Alt) add no grammar symbol at all; they
only shape the AST.  Pass strings and `_` become print directives attached to
the production template, never grammar symbols.

Rule-level precedence lowers to integer levels on productions plus minimum
level bounds on same-nonterminal slots; attributes lower to declared sets on
productions and required sets on slots.  `expand_instances` then compiles
both away entirely by splitting each nonterminal into one copy per
(requirements, bound) signature, which is what the LR construction and the
test oracles operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import datacc
from . import spec_ast as sa
from .lexer import literal_terminal
from .spec_ast import LangSpec, SpecError, quote_backtick


class LowerError(SpecError):
    pass


class NameStrictViolation(LowerError):
    pass


# ---------------------------------------------------------------------------
# Lowered grammar model

@dataclass(frozen=True)
class Slot:
    symbol: str
    is_terminal: bool
    attr_reqs: FrozenSet[str] = frozenset()
    prec_bound: int = 0
    pr_star: bool = False


# A user production's print template: ("field", name) | ("lit", text) |
# ("verbatim", text), with literal text decoded.
Template = Tuple[tuple, ...]

# AST field kinds, as the artifact holds them (JSON lists, literal text decoded):
#   ["token", terminal]
#   ["node", nonterm]
#   ["seq", elem_kind, flavor, delim_template, trailing, min_count]
#   ["opt", elem_kind, some_template, content_slot]
#   ["bool", true_template]
#   ["enum", [[label, branch_template], ...]]
# where a template is a list of ["lit", text], ["verbatim", text] and, in an
# option's template only, ["content"].


@dataclass(frozen=True)
class Production:
    pid: int
    lhs: str
    slots: Tuple[Slot, ...]
    kind: str  # user | enum | list_empty | list_single | list_pair | list_append |
               # list_pass | list_trail | opt_none | opt_some | start
    variant: Tuple[str, ...] = ()          # user
    fields: Tuple[tuple, ...] = ()         # user: (name, source); source = ("slot", i) | ("enum_inline", i, label)
    label: Optional[str] = None            # enum
    asm: Tuple[int, ...] = ()              # kind-specific slot indices
    template: Template = ()                # user
    decl_attrs: FrozenSet[str] = frozenset()
    prec_level: Optional[int] = None
    rule_path: Tuple[str, ...] = ()


@dataclass
class Cfg:
    terminals: set
    productions: List[Production]
    mains: Tuple[str, ...]
    # nonterm -> ordered {variant path tuple -> ((field, kind), ...)}
    ast_shape: Dict[str, Dict[Tuple[str, ...], Tuple[tuple, ...]]]
    synth_display: Dict[str, str]


# ---------------------------------------------------------------------------
# Lowering proper

class _FieldSource:
    """A slot (or inline labeled literal) that can feed an AST field of the
    given kind."""

    __slots__ = ("name", "slot_idx", "kind", "label")

    def __init__(self, slot_idx, kind, name=None, label=None):
        self.slot_idx = slot_idx
        self.kind = kind
        self.name = name
        self.label = label  # set for inline singleton-alt literals


class _RuleCtx:
    def __init__(self, rule):
        self.rule = rule
        self.slots: List[Slot] = []
        self.template: List[tuple] = []  # ("slot", idx) | ("verbatim", text)
        self.sources: List[_FieldSource] = []
        self.lits: Dict[int, str] = {}  # slot idx -> text of its backtick literal

    def add_slot(self, slot: Slot) -> int:
        idx = len(self.slots)
        self.slots.append(slot)
        self.template.append(("slot", idx))
        return idx


class _Lowerer:
    def __init__(self, spec: LangSpec):
        self.spec = spec
        self.counters = {"X": 0, "L": 0, "Q": 0}
        self.productions: List[Production] = []
        self.terminals = set()
        self.synth_display: Dict[str, str] = {}
        self.shape: Dict[str, Dict[Tuple[str, ...], Tuple[tuple, ...]]] = {
            r.lhs: {} for r in spec.parser.rules}

    def fresh(self, prefix: str) -> str:
        name = "%s%d" % (prefix, self.counters[prefix])
        self.counters[prefix] += 1
        return name

    def add_production(self, **kw) -> Production:
        p = Production(pid=len(self.productions), **kw)
        self.productions.append(p)
        return p

    def run(self) -> Cfg:
        for rule in self.spec.parser.rules:
            self.lower_rule(rule)
        cfg = Cfg(self.terminals, self.productions,
                  self.spec.parser.main_nonterms, self.shape, self.synth_display)
        self._check_attrs_declared(cfg)
        return cfg

    def _check_attrs_declared(self, cfg: Cfg):
        declared: Dict[str, set] = {}
        for p in cfg.productions:
            declared.setdefault(p.lhs, set()).update(p.decl_attrs)
        for p in cfg.productions:
            for s in p.slots:
                if s.is_terminal:
                    continue
                for a in s.attr_reqs:
                    if a not in declared.get(s.symbol, set()):
                        raise LowerError(
                            "attribute %r is required on %s but never declared by any "
                            "of its rules" % (a, s.symbol))

    # -- per-rule -----------------------------------------------------------

    def lower_rule(self, rule: sa.RuleDecl):
        ctx = _RuleCtx(rule)
        self.lower_expr(rule.rhs, ctx)

        fields = []
        variant_fields = []
        field_of_slot = {}
        seen_names = set()
        for src in ctx.sources:
            name = src.name
            if name is None:
                if self.spec.parser.name_strict:
                    raise NameStrictViolation(
                        "rule %s: unnamed field under name_strict" % rule.dotted, rule.loc)
                name = "_f%d" % src.slot_idx
            if name in seen_names:
                raise LowerError("rule %s: duplicate field name %r" % (rule.dotted, name),
                                 rule.loc)
            seen_names.add(name)
            field_of_slot[src.slot_idx] = name
            if src.label is not None:
                fields.append((name, ("enum_inline", src.slot_idx, src.label)))
            else:
                fields.append((name, ("slot", src.slot_idx)))
            variant_fields.append((name, src.kind))

        decl_attrs = set(rule.lhs_attrs)
        for al in self.spec.parser.attr_lines:
            if al.rule_path == rule.path and al.target_nonterm is None:
                decl_attrs.add(al.attr)
        slots = list(ctx.slots)
        for al in self.spec.parser.attr_lines:
            if al.rule_path == rule.path and al.target_nonterm is not None:
                for i, s in enumerate(slots):
                    if not s.is_terminal and s.symbol == al.target_nonterm:
                        slots[i] = replace(s, attr_reqs=s.attr_reqs | {al.attr})

        # a slot that feeds no field is a literal: every other slot has a source
        template = tuple(
            it if it[0] == "verbatim"
            else ("field", field_of_slot[it[1]]) if it[1] in field_of_slot
            else ("lit", ctx.lits[it[1]])
            for it in ctx.template)
        self.add_production(
            lhs=rule.lhs, slots=tuple(slots), kind="user", variant=rule.variant,
            fields=tuple(fields), template=template,
            decl_attrs=frozenset(decl_attrs), rule_path=rule.path)

        variants = self.shape[rule.lhs]
        if rule.variant in variants:
            raise LowerError("duplicate variant %s" % rule.dotted, rule.loc)
        variants[rule.variant] = tuple(variant_fields)

    # -- expressions ----------------------------------------------------------

    def lower_expr(self, e: sa.ParseExpr, ctx: _RuleCtx):
        rule = ctx.rule
        if isinstance(e, sa.TermLiteral):
            term = literal_terminal(e.text)
            self.terminals.add(term)
            ctx.lits[ctx.add_slot(Slot(term, True))] = e.text
            return
        if isinstance(e, sa.TokenRef):
            self.terminals.add(e.name)
            idx = ctx.add_slot(Slot(e.name, True))
            ctx.sources.append(_FieldSource(idx, ["token", e.name]))
            return
        if isinstance(e, (sa.NontermRef, sa.Unfold)):
            # `~Nt` is accepted and lowers exactly like `Nt`
            ref = e.inner if isinstance(e, sa.Unfold) else e
            if not isinstance(ref, sa.NontermRef):
                raise LowerError("~ applies only to nonterminal references", rule.loc)
            idx = ctx.add_slot(Slot(ref.name, False, frozenset(ref.attr_reqs),
                                    0, ref.pr_star))
            ctx.sources.append(_FieldSource(idx, ["node", ref.name]))
            return
        if isinstance(e, sa.Named):
            before = len(ctx.sources)
            before_slots = len(ctx.slots)
            self.lower_expr(e.inner, ctx)
            new_sources = ctx.sources[before:]
            if len(new_sources) == 1:
                new_sources[0].name = e.field_name
                return
            if len(new_sources) == 0:
                # naming a bare literal makes it a token field
                new_slots = ctx.slots[before_slots:]
                if len(new_slots) == 1 and new_slots[0].is_terminal:
                    ctx.sources.append(_FieldSource(
                        before_slots, ["token", new_slots[0].symbol], name=e.field_name))
                    return
                raise LowerError("rule %s: %r names an expression with no content"
                                 % (rule.dotted, e.field_name), rule.loc)
            raise LowerError("rule %s: %r names an expression with more than one field"
                             % (rule.dotted, e.field_name), rule.loc)
        if isinstance(e, sa.Seq):
            for part in e.items:
                self.lower_expr(part, ctx)
            return
        if isinstance(e, sa.Eps):
            return
        if isinstance(e, sa.SpaceShorthand):
            ctx.template.append(("verbatim", " "))
            return
        if isinstance(e, sa.PassString):
            ctx.template.append(("verbatim", e.text))
            return
        if isinstance(e, sa.SingletonAlt):
            sub = self._lower_sub(e.inner, rule)
            if sub.sources or len(sub.slots) != 1 or not sub.slots[0].is_terminal:
                raise LowerError("rule %s: #Alt body must be a single literal"
                                 % rule.dotted, rule.loc)
            idx = ctx.add_slot(sub.slots[0])
            kind = ["enum", [[e.label, _synth_tmpl(sub)]]]
            ctx.sources.append(_FieldSource(idx, kind, label=e.label))
            return
        # the rest stand for a synthesized nonterminal, one slot and field
        if isinstance(e, sa.AltBranches):
            name, kind = self._synth_enum(e, rule)
        elif isinstance(e, sa.Optional_):
            name, kind = self._synth_opt(e.inner, rule)
        elif isinstance(e, (sa.Star, sa.Plus)):
            min_count = 0 if isinstance(e, sa.Star) else 1
            name, kind = self._synth_list("L", e.inner, min_count, sa.Eps(), "none", rule)
        elif isinstance(e, sa.ListExpr):
            name, kind = self._synth_list(e.flavor, e.elem, e.min_count, e.delim,
                                          e.trailing, rule)
        else:
            raise LowerError("cannot lower %r" % (e,), rule.loc)
        ctx.sources.append(_FieldSource(ctx.add_slot(Slot(name, False)), kind))

    def _lower_sub(self, e: sa.ParseExpr, rule) -> _RuleCtx:
        sub = _RuleCtx(rule)
        self.lower_expr(e, sub)
        return sub

    def _synth_enum(self, e: sa.AltBranches, rule):
        branches = []
        for label, inner in e.branches:
            sub = self._lower_sub(inner, rule)
            if sub.sources:
                raise LowerError(
                    "rule %s: alternation branch %r must be content-free (use rule "
                    "variants for structured alternatives)" % (rule.dotted, label),
                    rule.loc)
            branches.append((label, sub))
        name = self.fresh("X")
        self.synth_display[name] = "(%s)" % " | ".join(
            _branch_display(sub) for _label, sub in branches)
        kind_branches = []
        for label, sub in branches:
            self.add_production(lhs=name, slots=tuple(sub.slots), kind="enum",
                                label=label)
            kind_branches.append([label, _synth_tmpl(sub)])
        return name, ["enum", kind_branches]

    def _synth_opt(self, inner: sa.ParseExpr, rule):
        sub = self._lower_sub(inner, rule)
        if len(sub.sources) > 1:
            raise LowerError("rule %s: optional expression has more than one field"
                             % rule.dotted, rule.loc)
        if sub.sources and sub.sources[0].label is not None:
            raise LowerError("rule %s: an #Alt cannot be optional" % rule.dotted, rule.loc)
        name = self.fresh("Q")
        tmpl = _synth_tmpl(sub)
        is_bool = not sub.sources
        self.add_production(lhs=name, slots=(), kind="opt_none",
                            asm=(1 if is_bool else 0,))
        if is_bool:
            self.add_production(lhs=name, slots=tuple(sub.slots), kind="opt_some",
                                asm=(-1,))
            kind = ["bool", tmpl]
        else:
            content = sub.sources[0].slot_idx
            self.add_production(lhs=name, slots=tuple(sub.slots), kind="opt_some",
                                asm=(content,))
            kind = ["opt", sub.sources[0].kind, tmpl, content]
        return name, kind

    def _synth_list(self, flavor, elem, min_count, delim, trailing, rule):
        if isinstance(elem, sa.Named):
            raise LowerError("rule %s: list element must not carry a field name"
                             % rule.dotted, rule.loc)
        esub = self._lower_sub(elem, rule)
        if len(esub.sources) != 1 or len(esub.slots) != 1:
            raise LowerError("rule %s: list element must be a single content "
                             "expression" % rule.dotted, rule.loc)
        if esub.sources[0].label is not None:
            raise LowerError("rule %s: list element must not be an #Alt" % rule.dotted,
                             rule.loc)
        elem_slot = esub.slots[0]
        elem_kind = esub.sources[0].kind

        dsub = self._lower_sub(delim, rule)
        if dsub.sources:
            raise LowerError("rule %s: list delimiter must be content-free"
                             % rule.dotted, rule.loc)
        delim_slots = tuple(dsub.slots)
        delim_tmpl = _synth_tmpl(dsub)

        outer = self.fresh("L")
        # chain of one-or-more (or two-or-more) elements
        chain = self.fresh("L")
        if min_count <= 1:
            self.add_production(lhs=chain, slots=(elem_slot,), kind="list_single",
                                asm=(0,))
        else:
            slots = (elem_slot,) + delim_slots + (elem_slot,)
            self.add_production(lhs=chain, slots=slots, kind="list_pair",
                                asm=(0, len(slots) - 1))
        append_slots = (Slot(chain, False),) + delim_slots + (elem_slot,)
        self.add_production(lhs=chain, slots=append_slots, kind="list_append",
                            asm=(0, len(append_slots) - 1))

        trail_slots = (Slot(chain, False),) + delim_slots
        if min_count == 0:
            self.add_production(lhs=outer, slots=(), kind="list_empty")
        if trailing in ("none", "optional"):
            self.add_production(lhs=outer, slots=(Slot(chain, False),), kind="list_pass",
                                asm=(0,))
        if trailing in ("required", "optional"):
            self.add_production(lhs=outer, slots=trail_slots, kind="list_trail",
                                asm=(0,))
        kind = ["seq", elem_kind, flavor, delim_tmpl, trailing, min_count]
        return outer, kind


def _branch_display(sub: _RuleCtx) -> str:
    parts = []
    for it in sub.template:
        if it[0] == "slot":
            parts.append(sub.slots[it[1]].symbol)
        elif it[0] == "verbatim":
            parts.append("@(%s)" % quote_backtick(it[1]))
    return " ".join(parts) if parts else "eps"


def _synth_tmpl(sub: _RuleCtx) -> list:
    """The print template of a kind, as the artifact holds it: a slot
    becomes ["content"] if it feeds a field, else its literal text."""
    content = {s.slot_idx for s in sub.sources}
    return [["verbatim", it[1]] if it[0] == "verbatim"
            else ["content"] if it[1] in content else ["lit", sub.lits[it[1]]]
            for it in sub.template]


def lower_grammar(spec: LangSpec) -> Cfg:
    """Desugar all rules; the returned Cfg carries no precedence levels yet."""
    return _Lowerer(spec).run()


# ---------------------------------------------------------------------------
# Precedence lowering

def lower_precedence(spec: LangSpec, cfg: Cfg) -> Cfg:
    """Assign production levels and slot bounds from the prec stanza.

    Line i of the stanza (0-based from the top) is level i; later lines bind
    tighter.  Within a leveled production, slots of the production's own
    nonterminal default to a bound of the production's level ("highest
    precedence" for the atoms line); assoc tags override:

      assoc_left:  first own-slot >= i, later own-slots >= i + 1
      assoc_right: last own-slot >= i, earlier own-slots >= i + 1
      prefix:      trailing operand >= i, earlier own-slots >= i + 1
      postfix:     leading operand >= i, later own-slots >= i + 1

    Prefix thus bounds a production's own-slots as assoc_right does, and
    postfix as assoc_left does.  pr=* forces a bound of 0 regardless.
    """
    level: Dict[Tuple[str, ...], int] = {}
    tag_of: Dict[Tuple[str, ...], Optional[str]] = {}
    for i, line in enumerate(spec.parser.prec_lines):
        for path in line.rule_paths:
            level[path] = i
            tag_of[path] = line.tag

    new_prods = []
    for p in cfg.productions:
        if p.kind != "user" or p.rule_path not in level:
            new_prods.append(p)
            continue
        lvl = level[p.rule_path]
        tag = tag_of[p.rule_path]
        own = [i for i, s in enumerate(p.slots)
               if not s.is_terminal and s.symbol == p.lhs]
        bounds = {i: lvl for i in own}
        if tag in ("assoc_left", "postfix"):
            for i in own[1:]:
                bounds[i] = lvl + 1
        elif tag in ("assoc_right", "prefix"):
            for i in own[:-1]:
                bounds[i] = lvl + 1
        slots = tuple(
            replace(s, prec_bound=0 if s.pr_star else bounds.get(i, s.prec_bound))
            for i, s in enumerate(p.slots))
        new_prods.append(replace(p, slots=slots, prec_level=lvl))
    return Cfg(cfg.terminals, new_prods, cfg.mains, cfg.ast_shape, cfg.synth_display)


# ---------------------------------------------------------------------------
# Constraint-instance expansion

@dataclass(frozen=True)
class Inst:
    """A nonterminal copy specialized to the constraints of the slots using it."""
    base: str
    reqs: FrozenSet[str]
    bound: int

    def mangled(self) -> str:
        parts = [self.base]
        if self.reqs:
            parts.append("req=" + ",".join(sorted(self.reqs)))
        if self.bound:
            parts.append("pr>=%d" % self.bound)
        return parts[0] if len(parts) == 1 else "%s{%s}" % (parts[0], ";".join(parts[1:]))


# instance-grammar symbols: ("t", terminal) | ("n", Inst)

@dataclass(frozen=True)
class IProd:
    ipid: int
    lhs: Optional[Inst]  # None only for lr's start productions
    rhs: Tuple[tuple, ...]
    base: Production


@dataclass
class InstGrammar:
    cfg: Cfg
    insts: List[Inst]
    iprods: List[IProd]
    by_lhs: Dict[Inst, List[IProd]]
    start_insts: Dict[str, Inst]  # main nonterm -> its default instance


def expand_instances(cfg: Cfg) -> InstGrammar:
    insts: List[Inst] = []
    seen: Dict[Inst, None] = {}
    iprods: List[IProd] = []
    by_lhs: Dict[Inst, List[IProd]] = {}
    start_insts = {}

    work: List[Inst] = []

    def ensure(inst: Inst):
        if inst not in seen:
            seen[inst] = None
            insts.append(inst)
            work.append(inst)

    for m in cfg.mains:
        inst = Inst(m, frozenset(), 0)
        start_insts[m] = inst
        ensure(inst)

    prods_by_lhs: Dict[str, List[Production]] = {}
    for p in cfg.productions:
        prods_by_lhs.setdefault(p.lhs, []).append(p)

    while work:
        inst = work.pop(0)
        rows = []
        for p in prods_by_lhs.get(inst.base, []):
            if not inst.reqs <= p.decl_attrs:
                continue
            if p.prec_level is not None and p.prec_level < inst.bound:
                continue
            rhs = []
            for s in p.slots:
                if s.is_terminal:
                    rhs.append(("t", s.symbol))
                else:
                    child = Inst(s.symbol, s.attr_reqs, s.prec_bound)
                    ensure(child)
                    rhs.append(("n", child))
            ip = IProd(len(iprods), inst, tuple(rhs), p)
            iprods.append(ip)
            rows.append(ip)
        by_lhs[inst] = rows
    return InstGrammar(cfg, insts, iprods, by_lhs, start_insts)


# ---------------------------------------------------------------------------
# AST schema derivation (consumable by the datatype layer)

def derive_ast_schema(cfg: Cfg):
    """Express the AST shape as a datatype schema: a sum per nonterminal,
    a product per variant, and a synthesized enum per labeled alternation."""
    types: Dict[str, datacc.TypeDef] = {}

    def kind_to_texpr(nt, variant, fname, kind):
        if kind[0] == "token":
            return datacc.TRef("string", ())
        if kind[0] == "node":
            return datacc.TRef(kind[1], ())
        if kind[0] == "seq":
            return datacc.TSeq(kind_to_texpr(nt, variant, fname, kind[1]))
        if kind[0] == "opt":
            return datacc.TOpt(kind_to_texpr(nt, variant, fname, kind[1]))
        if kind[0] == "bool":
            return datacc.TRef("boolean", ())
        if kind[0] == "enum":
            name = "_".join((nt,) + variant + (fname,))
            if name not in types:
                cases = tuple((label, datacc.Product(())) for label, _t in kind[1])
                types[name] = datacc.Sum(cases)
            return datacc.TRef(name, ())
        raise AssertionError(kind)

    for nt, variants in cfg.ast_shape.items():

        def build(prefix, variants=variants, nt=nt):
            is_leaf = prefix in variants
            children = sorted({p[:len(prefix) + 1] for p in variants
                               if len(p) > len(prefix) and p[:len(prefix)] == prefix})
            if is_leaf and children:
                raise LowerError("variant %s is both a rule and a parent of other "
                                 "variants" % ".".join((nt,) + prefix))
            if is_leaf:
                return datacc.Product(tuple(
                    (fname, kind_to_texpr(nt, prefix, fname, kind))
                    for fname, kind in variants[prefix]))
            return datacc.Sum(tuple((c[-1], build(c)) for c in children))

        types[nt] = build(())
    return datacc.DatatypeSchema(tuple((n, types[n]) for n in types),
                                 tuple((n, ()) for n in types))


# ---------------------------------------------------------------------------
# Dump

def dump_grammar(cfg: Cfg) -> str:
    out = []
    out.append("terminals: %s" % " ".join(sorted(cfg.terminals)))
    out.append("mains: %s" % " ".join(cfg.mains))
    for p in cfg.productions:
        parts = []
        for s in p.slots:
            t = s.symbol
            ann = []
            if s.attr_reqs:
                ann.extend(sorted(s.attr_reqs))
            if s.pr_star:
                ann.append("pr=*")
            elif s.prec_bound:
                ann.append("pr>=%d" % s.prec_bound)
            if ann:
                t += "[%s]" % ",".join(ann)
            parts.append(t)
        head = p.lhs
        if p.variant:
            head = ".".join((p.lhs,) + p.variant)
        meta = []
        if p.decl_attrs:
            meta.append("attrs=" + ",".join(sorted(p.decl_attrs)))
        if p.prec_level is not None:
            meta.append("level=%d" % p.prec_level)
        if p.kind != "user":
            meta.append(p.kind)
        out.append("p%-3d %s -> %s%s" % (
            p.pid, head, " ".join(parts) if parts else "%empty",
            ("   [" + " ".join(meta) + "]") if meta else ""))
    return "\n".join(out) + "\n"
