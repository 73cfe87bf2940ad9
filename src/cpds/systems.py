"""System descriptions and concrete semantics.

A collapsible pushdown system is a finite control with rules
``(src, letter, op, dst)``; a rule fires on a stack whose top character is
``letter``, applying ``op``.  Multi-stack systems carry one rule set per
stack.  A rule is *consuming* when its operation pops or collapses,
*generating* otherwise.  The run restrictions studied here:

* ``ordered``  -- a consuming rule on stack i fires only when all stacks
  j < i are empty;
* ``phase(z)`` -- the run splits into at most z segments, each consuming
  from a single stack;
* ``scope(zeta)`` -- runs are round-partitionable and never pop or collapse
  material created more than ``zeta`` rounds earlier.

Extended systems additionally carry rules whose effect is any chained word
of generating rules drawn from an attached language.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import stacks as ST
from .errors import (
    ArityMismatch,
    NotNormalized,
    NotRoundPartitionable,
    OrderMismatch,
    UndefinedOperation,
    UndefinedTop,
)
from .stacks import BOTTOM, Op

__all__ = [
    "Rule",
    "ExtRule",
    "Mcpds",
    "Cpds",
    "Configuration",
    "Run",
    "initial_configuration",
    "step",
    "ecpds_step",
    "validate_ordered",
    "partition_rounds",
    "validate_scope",
    "validate_phase",
    "normalize_ordered",
    "add_clearing_rules",
]


@dataclass(frozen=True)
class Rule:
    src: object
    letter: str
    op: Op
    dst: object

    def __repr__(self):
        return f"({self.src} {self.letter} {self.op!r} {self.dst})"

    def __lt__(self, other):
        return self.key < other.key

    _key = None  # shadowed per instance on first use, as on State

    @property
    def key(self) -> str:
        key = self._key
        if key is None:
            from .automata import flat_key

            key = flat_key((self.src, self.letter, repr(self.op), self.dst))
            object.__setattr__(self, "_key", key)
        return key

    @property
    def consuming(self) -> bool:
        return self.op.consuming


@dataclass(frozen=True)
class ExtRule:
    """``(src, letter, lang, dst)``: applies a word of generating rules.

    ``lang`` is a language handle; words must chain (dst of one rule is the
    src of the next).  The control moves from ``src`` to ``dst`` regardless
    of the word's internal controls.
    """

    src: object
    letter: str
    lang: object
    dst: object

    def __repr__(self):
        return f"({self.src} {self.letter} <{self.lang}> {self.dst})"


@dataclass(frozen=True)
class Configuration:
    control: object
    stacks: tuple

    def __repr__(self):
        return f"<{self.control}; " + " | ".join(map(repr, self.stacks)) + ">"


@dataclass
class Run:
    """A start configuration plus the fired (rule, stack index, result) steps."""

    start: Configuration
    steps: list = field(default_factory=list)

    @property
    def final(self) -> Configuration:
        return self.steps[-1][2] if self.steps else self.start

    def stack_indices(self):
        return [i for (_r, i, _c) in self.steps]


class Mcpds:
    """A multi-stack system description; ``mode`` picks the run restriction.

    ``mode`` is one of ``"single"``, ``"unrestricted"``, ``"ordered"``,
    ``("phase", z)`` or ``("scope", zeta)``.  Extended rules (per stack) are
    permitted in single-stack systems only.
    """

    def __init__(self, order, alphabet, controls, rule_sets, mode="single",
                 ext_rule_sets=None):
        self.order = order
        self.alphabet = tuple(sorted(set(alphabet) | {BOTTOM}))
        self.controls = tuple(dict.fromkeys(controls))
        self.rule_sets = tuple(tuple(sorted(rs)) for rs in rule_sets)
        self.ext_rule_sets = tuple(
            tuple(rs) for rs in (ext_rule_sets or [()] * len(self.rule_sets))
        )
        self.mode = mode
        if len(self.ext_rule_sets) != len(self.rule_sets):
            raise ArityMismatch("one extended rule set per stack expected")
        if not (mode in ("single", "unrestricted", "ordered")
                or isinstance(mode, tuple) and mode[0] in ("phase", "scope")):
            raise ArityMismatch(f"unknown mode {mode!r}")
        if any(self.ext_rule_sets[i] for i in range(self.stacks)) and self.stacks > 1:
            raise ArityMismatch("extended rules are single-stack only")
        self._validate()

    @property
    def stacks(self) -> int:
        return len(self.rule_sets)

    def _validate(self):
        ctl = set(self.controls)
        alpha = set(self.alphabet)
        ops = set()
        for rs in self.rule_sets:
            for r in rs:
                if r.src not in ctl or r.dst not in ctl:
                    raise ArityMismatch(f"rule {r!r} uses undeclared controls")
                if r.letter not in alpha:
                    raise ArityMismatch(f"rule {r!r} uses an undeclared letter")
                ops.add(r.op)
        for op in ops:
            if op.kind in ("pop", "copy", "collapse", "push") and not (
                1 <= op.k <= self.order
            ):
                raise OrderMismatch(f"operation {op!r} outside order {self.order}")
            if op.kind in ("push", "rew") and op.letter == BOTTOM:
                raise ArityMismatch("rules may not push or write the bottom symbol")
            if op.kind in ("copy",) and op.k < 2:
                raise OrderMismatch("copy is defined for orders >= 2")

    def with_mode(self, mode) -> "Mcpds":
        return Mcpds(self.order, self.alphabet, self.controls, self.rule_sets,
                     mode, self.ext_rule_sets)


def Cpds(order, alphabet, controls, rules, ext_rules=()):
    """Single-stack system; extended rules allowed."""
    return Mcpds(order, alphabet, controls, [rules], "single", [tuple(ext_rules)])


def initial_configuration(sys: Mcpds) -> Configuration:
    return Configuration(sys.controls[0], tuple(ST.bottom(sys.order) for _ in range(sys.stacks)))


# ---------------------------------------------------------------------------
# Concrete step relation
# ---------------------------------------------------------------------------


def _stack_empty(w) -> bool:
    return w == ST.bottom(w.order)


def rule_applies(sys: Mcpds, c: Configuration, i: int, r: Rule) -> bool:
    if r.consuming and sys.mode == "ordered":
        if any(not _stack_empty(c.stacks[j]) for j in range(i)):
            return False
    return ST.top1(c.stacks[i]) == r.letter


def apply_rule(c: Configuration, i: int, r: Rule) -> Configuration | None:
    try:
        w = ST.apply_op(r.op, c.stacks[i])
    except (UndefinedOperation, UndefinedTop):
        return None
    stacks = c.stacks[:i] + (w,) + c.stacks[i + 1:]
    return Configuration(r.dst, stacks)


def step(sys: Mcpds, c: Configuration):
    """All successors ``(rule, stack index, configuration)`` of ``c``.

    The ordered filter is applied inline; scope and phase restrictions are
    run-level and enforced by the validators and the oracle's bookkeeping.
    """
    out = []
    for i in range(sys.stacks):
        for r in sys.rule_sets[i]:
            if r.src != c.control or not rule_applies(sys, c, i, r):
                continue
            nxt = apply_rule(c, i, r)
            if nxt is not None:
                out.append((r, i, nxt))
    return out


def apply_word(stack, word):
    """Apply a chained word of generating rules to a single stack.

    Returns the final stack or None when some letter guard or operation
    fails along the way.
    """
    cur = stack
    prev_dst = None
    for r in word:
        if r.consuming:
            return None
        if prev_dst is not None and r.src != prev_dst:
            return None
        if ST.top1(cur) != r.letter:
            return None
        try:
            cur = ST.apply_op(r.op, cur)
        except (UndefinedOperation, UndefinedTop):
            return None
        prev_dst = r.dst
    return cur


def ecpds_step(sys: Mcpds, c: Configuration):
    """Successors including extended rules (single-stack systems).

    Extended rules need language handles supporting finite enumeration via
    ``words()``.
    """
    out = list(step(sys, c))
    for i in range(sys.stacks):
        for er in sys.ext_rule_sets[i]:
            if er.src != c.control or ST.top1(c.stacks[i]) != er.letter:
                continue
            results = {}
            for word in er.lang.words():
                w = apply_word(c.stacks[i], word)
                if w is not None:
                    results[w] = None
            for w in results:
                stacks = c.stacks[:i] + (w,) + c.stacks[i + 1:]
                out.append((er, i, Configuration(er.dst, stacks)))
    return out


# ---------------------------------------------------------------------------
# Run validators
# ---------------------------------------------------------------------------


def replay(sys: Mcpds, run: Run) -> bool:
    """Check that every step follows from its predecessor by the step rules."""
    cur = run.start
    for (r, i, c) in run.steps:
        if isinstance(r, ExtRule):
            succs = ecpds_step(sys, cur)
        else:
            succs = step(sys, cur)
        if not any(rr == r and ii == i and cc == c for (rr, ii, cc) in succs):
            return False
        cur = c
    return True


def validate_ordered(run: Run) -> bool:
    """Every consuming step on stack i sees stacks j < i empty."""
    cur = run.start
    for (r, i, c) in run.steps:
        if isinstance(r, Rule) and r.consuming:
            if any(not _stack_empty(cur.stacks[j]) for j in range(i)):
                return False
        cur = c
    return True


def partition_rounds(run: Run):
    """Greedy coarsest round partition of the step indices.

    Returns a list of rounds, each a list of step positions; a new round
    starts exactly when the touched stack index decreases.
    """
    rounds = []
    cur = []
    cur_stack = 0
    for pos, i in enumerate(run.stack_indices()):
        if i < cur_stack:
            rounds.append(cur)
            cur = []
        cur.append(pos)
        cur_stack = i
    if cur or not rounds:
        rounds.append(cur)
    return rounds


def validate_scope(run: Run, zeta: int) -> bool:
    """Replay with round tags and check the pop/collapse age bounds."""
    rounds = partition_rounds(run)
    round_of = {}
    for z, members in enumerate(rounds, start=1):
        for pos in members:
            round_of[pos] = z
    if len(round_of) != len(run.steps):
        raise NotRoundPartitionable("round partition does not cover the run")
    tagged = [ST.tag_rounds(w, 0) for w in run.start.stacks]
    for pos, (r, i, _c) in enumerate(run.steps):
        z = round_of[pos]
        w = tagged[i]
        op = r.op
        if op.kind == "pop":
            if op.k == 1:
                c = ST.top1_char(w)
                if c is None or z - zeta > c.pr:
                    return False
            else:
                u = ST.split(op.k, w)
                if u is None or z - zeta > u[0].pr:
                    return False
        elif op.kind == "collapse":
            c = ST.top1_char(w)
            if c is None or z - zeta > c.cr:
                return False
        tagged[i] = ST.apply_op_rounded(op, w, z)
    return True


def minimal_phases(run: Run) -> int:
    """Fewest segments with consuming steps confined to one stack each."""
    phases = 1
    current = None
    for (r, i, _c) in run.steps:
        if isinstance(r, Rule) and r.consuming:
            if current is None:
                current = i
            elif current != i:
                phases += 1
                current = i
    return phases


def validate_phase(run: Run, z: int) -> bool:
    return minimal_phases(run) <= z


# ---------------------------------------------------------------------------
# Ordered-mode normalisation
# ---------------------------------------------------------------------------


def bottom_rule_ok(r: Rule, stack_index: int, last_stack: int, order: int) -> bool:
    """Is a rule in the ordered bottom normal form?

    Rules of the last stack are unrestricted.  For earlier stacks a rule on
    the bottom symbol must either push at the top order (opening a
    non-empty segment) or be undefined on the empty stack (pop, collapse
    and rewrite can never fire on a bare bottom), so that no rule of an
    earlier stack fires while all earlier stacks are empty.
    """
    if stack_index == last_stack or r.letter != BOTTOM:
        return True
    if r.op.kind == "push":
        return r.op.k == order
    return r.op.kind in ("pop", "collapse", "rew")


def normalize_ordered(sys: Mcpds) -> Mcpds:
    """Rewrite an ordered system so earlier-stack bottom rules are push-only.

    A ``noop`` rule on the bottom symbol of stack 1 is simulated by pushing
    a scratch letter and popping it again (pop1 on stack 1 is never blocked
    by the ordered discipline).  Anything else that could fire on an empty
    earlier stack has no sound local rewrite and is rejected.
    """
    if sys.mode != "ordered":
        raise NotNormalized("normalisation applies to ordered systems")
    m = sys.stacks
    last = m - 1
    scratch = _fresh_letter(sys.alphabet)
    new_sets = [list(rs) for rs in sys.rule_sets]
    controls = list(sys.controls)
    need_scratch = False
    for i in range(m):
        kept = []
        for r in sys.rule_sets[i]:
            if bottom_rule_ok(r, i, last, sys.order):
                kept.append(r)
            elif r.op.kind == "noop" and i == 0:
                mid = ("n", r.src, r.dst, len(controls))
                controls.append(mid)
                kept.append(Rule(r.src, BOTTOM, ST.push(scratch, sys.order), mid))
                kept.append(Rule(mid, scratch, ST.pop(1), r.dst))
                need_scratch = True
            elif r.op.kind == "push":
                raise NotNormalized(
                    f"bottom push below the top order on stack {i + 1}: {r!r}"
                )
            else:
                raise NotNormalized(f"no sound rewrite for bottom rule {r!r} on stack {i + 1}")
        new_sets[i] = kept
    alphabet = set(sys.alphabet) | ({scratch} if need_scratch else set())
    return Mcpds(sys.order, alphabet, controls, new_sets, "ordered", sys.ext_rule_sets)


def _fresh_letter(alphabet) -> str:
    i = 0
    while f"zz{i}" in alphabet:
        i += 1
    return f"zz{i}"


def add_clearing_rules(sys: Mcpds, target_control):
    """Reduce control reachability to reaching the all-empty configuration.

    Adds fresh controls ``clear_1 .. clear_m`` and a final control; stack i
    is emptied by nondeterministic pops while all progression rules live on
    the last stack, so the added rules respect the ordered discipline and
    bottom-rule normal form.  Returns ``(system, final_control)``.
    """
    m = sys.stacks
    order = sys.order
    clear = [("clear", i) for i in range(1, m + 1)]
    fin = ("cleared",)
    controls = list(sys.controls) + clear + [fin]
    new_sets = [list(rs) for rs in sys.rule_sets]
    letters = list(sys.alphabet)
    # entry and progression rules on the last stack: always fireable, and
    # premature firing only strands material that then fails the final test
    for a in letters:
        new_sets[m - 1].append(Rule(target_control, a, ST.noop(), clear[0]))
        for i in range(m - 1):
            new_sets[m - 1].append(Rule(clear[i], a, ST.noop(), clear[i + 1]))
        new_sets[m - 1].append(Rule(clear[m - 1], a, ST.noop(), fin))
    for i in range(m):
        for a in letters:
            for k in range(1, order + 1):
                new_sets[i].append(Rule(clear[i], a, ST.pop(k), clear[i]))
    out = Mcpds(order, sys.alphabet, controls, new_sets, sys.mode, sys.ext_rule_sets)
    return out, fin


# ---------------------------------------------------------------------------
# Verdict slicing
# ---------------------------------------------------------------------------


def _fireable(sys: Mcpds, q_in) -> Mcpds:
    """``sys`` with only the rules that a run from ``q_in``, all stacks
    empty, can fire.

    Over-approximates with a set C of controls, from ``{q_in}``, and per
    stack a set L_i of letters, from ``{BOTTOM}``: a rule of stack i can
    fire when its source is in C and its letter is in L_i; firing adds its
    target to C, and a pushed or written letter to L_i.  Pop, collapse and
    copy expose only letters already on the stack, and the run restriction
    is ignored, so every run from the start fires only kept rules and
    verdicts from ``q_in`` stay the same.  Controls, alphabet, mode and the
    rule order are kept.
    """
    reached = {q_in}
    letters = [{BOTTOM} for _ in sys.rule_sets]
    kept = [[False] * len(rs) for rs in sys.rule_sets]
    grown = True
    while grown:
        grown = False
        for i, rs in enumerate(sys.rule_sets):
            for n, r in enumerate(rs):
                if kept[i][n] or r.src not in reached or r.letter not in letters[i]:
                    continue
                kept[i][n] = grown = True
                reached.add(r.dst)
                if r.op.kind in ("push", "rew"):
                    letters[i].add(r.op.letter)
    rule_sets = [[r for r, k in zip(rs, ks) if k]
                 for rs, ks in zip(sys.rule_sets, kept)]
    return Mcpds(sys.order, sys.alphabet, sys.controls, rule_sets, sys.mode,
                 sys.ext_rule_sets)
