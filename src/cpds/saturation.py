"""Backward saturation: computing pre* for a single-stack system.

Starting from a P-automaton for the target set, the saturation function
adds long-form transitions derived from the system's rules until nothing
changes; the fixpoint accepts exactly the configurations with a run into
the target set.  Consuming rules contribute transitions built from chains
already in the automaton; generating rules rewrite an existing long-form
transition of the head control, possibly merging in set-form transitions
(the copy and push cases).

One saturation pass gathers every candidate a step derives from its input
automaton (plain rules and, when the rule source has them, extended rules),
then inserts them in ``lf_key`` order.  :func:`satstep` writes the pass
into a copy, so iterating it reproduces the A_{i+1} = step(A_i) sequence;
:func:`prestar` writes it back into its input until a pass adds nothing,
which reaches the same fixpoint without the copies.

Additions are restricted to top-order target sets of size at most one
whenever the initial automaton is non-alternating at the top order, which
holds for every automaton this package constructs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import LongForm, StackAutomaton, lf_key
from .errors import BudgetExceeded
from .stacks import BOTTOM
from .systems import Rule

__all__ = [
    "auxsat_consuming",
    "auxsat_generating",
    "satstep",
    "prestar",
    "SaturationStats",
    "exp_tower",
    "non_alternating_top",
    "ExplicitRules",
]


def exp_tower(levels: int, x: int, clamp: int = 10 ** 9) -> int:
    """``exp_0(x) = x`` and ``exp_{i+1}(x) = 2^{exp_i(x)}``, clamped."""
    v = x
    for _ in range(levels):
        if v >= 64:
            return clamp
        v = 2 ** v
    return min(v, clamp)


def saturation_cap(order: int, aut: StackAutomaton, rules_hint: int) -> int:
    """Generous hard cap on added transitions, shaped like the known bound."""
    base = aut.state_count() + len(aut.alphabet) + rules_hint + 8
    return exp_tower(max(order - 1, 1), base ** 3)


def non_alternating_top(aut: StackAutomaton) -> bool:
    """Operational stand-in for "non-alternating at the top order".

    Every top-order transition has at most one target and no annotation
    obligation sits at the top order: a top-order branch set would be
    merged into top-order target sets by the push case, creating the very
    alternation the optimised mode forbids.
    """
    n = aut.order
    for (_src, targets) in aut.delta_high.get(n, {}) if n >= 2 else ():
        if len(targets) > 1:
            return False
    if n == 1:
        for _src, slots in aut.delta1.items():
            for (_l, _b, targets) in slots:
                if len(targets) > 1:
                    return False
    for _src, slots in aut.delta1.items():
        for (_l, branch, _t) in slots:
            if branch and next(iter(branch)).order == n:
                return False
    return True


# ---------------------------------------------------------------------------
# Auxiliary saturation function
# ---------------------------------------------------------------------------


def auxsat_consuming(rule: Rule, aut: StackAutomaton, layer: int | None = None):
    """Long-form transitions contributed by a pop or collapse rule.

    Rules that can never fire because of the bottom-symbol conventions
    (popping or collapsing the bottom itself) contribute nothing.
    """
    n = aut.order
    op = rule.op
    if rule.letter == BOTTOM and (op.kind == "collapse" or (op.kind == "pop" and op.k == 1)):
        return []
    src = aut.peek_control(rule.src, layer)
    dst = aut.peek_control(rule.dst, layer)
    out = []
    empty = frozenset()
    if op.kind == "pop":
        k = op.k
        for label, sets in aut.k_prefixes(dst, k):
            targets = (empty,) * (k - 1) + (frozenset([label]),) + sets
            out.append(LongForm(src, rule.letter, empty, targets))
    elif op.kind == "collapse":
        k = op.k
        if k == n:
            out.append(LongForm(src, rule.letter, frozenset([dst]), (empty,) * n))
        else:
            for label, sets in aut.k_prefixes(dst, k):
                targets = (empty,) * k + sets
                out.append(LongForm(src, rule.letter, frozenset([label]), targets))
    else:
        raise ValueError(f"rule {rule!r} is not consuming")
    return out


def auxsat_generating(rule: Rule, t: LongForm, aut: StackAutomaton,
                      layer: int | None = None):
    """Long-form transitions contributed by a generating rule seen through ``t``.

    ``t`` must be headed by the rule's destination control; it need not be a
    transition of ``aut`` (the transition-automaton construction feeds
    candidates from outside), but the set-form transitions consulted for the
    copy and push cases always come from ``aut``.
    """
    n = aut.order
    op = rule.op
    src = aut.peek_control(rule.src, layer)
    out = []
    if op.kind == "noop":
        if t.letter == rule.letter:
            out.append(LongForm(src, rule.letter, t.branch, t.targets))
    elif op.kind == "rew":
        if rule.letter == BOTTOM:
            return out  # the bottom symbol is never rewritten
        if t.letter == op.letter:
            out.append(LongForm(src, rule.letter, t.branch, t.targets))
    elif op.kind == "copy":
        k = op.k
        if t.letter != rule.letter:
            return out
        for letter, branch2, tg2 in aut.set_form_chains(t.targets[k - 1], k):
            if letter != rule.letter:
                continue
            branch = t.branch | branch2
            orders = {b.order for b in branch}
            if len(orders) > 1:
                continue
            targets = tuple(t.targets[i] | tg2[i] for i in range(k - 1))
            targets += (tg2[k - 1],) + t.targets[k:]
            out.append(LongForm(src, rule.letter, branch, targets))
    elif op.kind == "push":
        k = op.k
        if t.letter != op.letter:
            return out
        if k == 1:
            if t.branch:
                return out
        elif t.branch and next(iter(t.branch)).order != k:
            return out
        for letter, branch2, tg2 in aut.set_form_chains(t.targets[0], 1):
            if letter != rule.letter:
                continue
            if k == 1:
                targets = (tg2[0],) + t.targets[1:]
            else:
                targets = (tg2[0],) + t.targets[1:k - 1]
                targets += (t.targets[k - 1] | t.branch,) + t.targets[k:]
            out.append(LongForm(src, rule.letter, branch2, targets))
    else:
        raise ValueError(f"rule {rule!r} is not generating")
    return out


# ---------------------------------------------------------------------------
# Rule sources
# ---------------------------------------------------------------------------


class ExplicitRules:
    """Rule source backed by explicit lists, indexed by destination control."""

    def __init__(self, rules, ext_rules=(), controls=()):
        rules, ext_rules = sorted(rules), list(ext_rules)
        self._by_dst = {}
        for r in rules:
            self._by_dst.setdefault(r.dst, []).append(r)
        self._ext_by_dst = {}
        for er in ext_rules:
            self._ext_by_dst.setdefault(er.dst, []).append(er)
        self.extended = bool(ext_rules)
        self.controls = list(controls)
        self.rule_count = len(rules) + len(ext_rules)

    def rules_into(self, dst):
        return self._by_dst.get(dst, ())

    def ext_rules_into(self, dst):
        return self._ext_by_dst.get(dst, ())

    def seed_controls(self):
        return list(self.controls)


@dataclass
class SaturationStats:
    iterations: int = 0
    transitions_added: int = 0
    optimized: bool = False
    extended_queries: int = 0


# ---------------------------------------------------------------------------
# The saturation pass, its single step and its fixpoint
# ---------------------------------------------------------------------------


def _saturation_pass(source, read: StackAutomaton, write: StackAutomaton, *,
                     optimized: bool, layer: int | None,
                     stats: SaturationStats) -> int:
    """Insert into ``write`` what one saturation step derives from ``read``.

    Every candidate is gathered before the first insertion, so ``write`` may
    be ``read`` itself.  Returns the number of transitions added.
    """
    active = read.control_states(layer)
    cand = []
    for c in active:
        for r in source.rules_into(c):
            if r.consuming:
                for t in auxsat_consuming(r, read, layer):
                    cand.append((r.src, r.dst, t))
            else:
                head = read.peek_control(r.dst, layer)
                for t0 in read.long_forms_from(head):
                    for t in auxsat_generating(r, t0, read, layer):
                        cand.append((r.src, r.dst, t))
    if source.extended:
        for c in active:
            for er in source.ext_rules_into(c):
                head_dst = read.peek_control(er.dst, layer)
                src = read.peek_control(er.src, layer)
                for t2 in read.long_forms_from(head_dst):
                    stats.extended_queries += 1
                    for t in er.lang.initials(read, t2):
                        if t.head == src and t.letter == er.letter:
                            cand.append((er.src, er.dst, t))
    added = 0
    for src_c, dst_c, t in sorted(cand, key=lambda c: lf_key(c[2])):
        if optimized and len(t.targets[-1]) > 1:
            continue
        write.control_state(src_c, layer)
        write.control_state(dst_c, layer)
        if write.add_long_form(t):
            added += 1
    return added


def satstep(source, aut: StackAutomaton, *, optimized: bool = False,
            layer: int | None = None,
            stats: SaturationStats | None = None) -> tuple[StackAutomaton, int]:
    """One application of the saturation function: a new automaton.

    Iterating ``satstep`` reproduces the A_{i+1} = step(A_i) sequence
    exactly; it is the reference for :func:`prestar`.
    """
    nxt = aut.copy()
    added = _saturation_pass(source, aut, nxt, optimized=optimized, layer=layer,
                             stats=stats or SaturationStats())
    return nxt, added


def prestar(sys_or_rules, a0: StackAutomaton, *, layer: int | None = None,
            check: bool = True,
            max_transitions: int | None = None) -> tuple[StackAutomaton, SaturationStats]:
    """Least saturation fixpoint over ``a0``.

    ``sys_or_rules`` is a single-stack system, an explicit rule list, or any
    object with ``rules_into``, ``seed_controls``, ``rule_count`` and
    ``extended`` (and ``ext_rules_into`` when ``extended`` is true).  The
    returned automaton accepts pre* of ``L(a0)``, extended rules included.
    """
    source = _as_source(sys_or_rules)
    stats = SaturationStats(optimized=non_alternating_top(a0))
    cap = max_transitions or saturation_cap(a0.order, a0, source.rule_count)
    aut = a0.copy()
    for c in source.seed_controls():
        aut.control_state(c, layer)
    if check:
        aut.check_saturation_preconditions(
            [aut.require_control(c, layer) for c in aut.control_states(layer)]
        )
    while True:
        stats.iterations += 1
        added = _saturation_pass(source, aut, aut, optimized=stats.optimized,
                                 layer=layer, stats=stats)
        stats.transitions_added += added
        if stats.transitions_added > cap:
            raise BudgetExceeded(
                f"saturation transition cap exceeded: "
                f"{stats.transitions_added} transitions added, limit {cap}"
            )
        if added == 0:
            return aut, stats


def prestar_eager(sys_or_rules, a0: StackAutomaton, *, optimized: bool | None = None,
                  layer: int | None = None,
                  max_transitions: int | None = None) -> StackAutomaton:
    """Alternative strategy: additions become visible within the pass.

    Reaches the same fixpoint as :func:`prestar`; kept as an oracle for the
    order-independence of the chaotic iteration.
    """
    source = _as_source(sys_or_rules)
    optimized = non_alternating_top(a0) if optimized is None else optimized
    aut = a0.copy()
    for c in source.seed_controls():
        aut.control_state(c, layer)
    cap = max_transitions or saturation_cap(a0.order, a0, 64)
    total = 0
    changed = True
    while changed:
        changed = False
        for c in list(aut.control_states(layer)):
            for r in source.rules_into(c):
                if r.consuming:
                    cand = auxsat_consuming(r, aut, layer)
                else:
                    head = aut.peek_control(r.dst, layer)
                    cand = []
                    for t in aut.long_forms_from(head):
                        cand.extend(auxsat_generating(r, t, aut, layer))
                for t in sorted(cand, key=lf_key):
                    if optimized and len(t.targets[-1]) > 1:
                        continue
                    aut.control_state(r.src, layer)
                    if aut.add_long_form(t):
                        total += 1
                        if total > cap:
                            raise BudgetExceeded(
                                f"eager saturation transition cap exceeded: "
                                f"{total} transitions added, limit {cap}"
                            )
                        changed = True
    return aut


def _as_source(sys_or_rules):
    if hasattr(sys_or_rules, "rules_into"):
        return sys_or_rules
    if hasattr(sys_or_rules, "rule_sets"):
        sys = sys_or_rules
        if sys.stacks != 1:
            raise ValueError("prestar saturates single-stack systems")
        return ExplicitRules(sys.rule_sets[0], sys.ext_rule_sets[0], sys.controls)
    return ExplicitRules(sys_or_rules)
