"""Reachability for ordered multi-stack systems.

The ordered discipline lets stack i consume only while all stacks j < i
are empty, which makes runs decompose around the moments the first m-1
stacks are simultaneously empty.  The solver follows that decomposition:

* a *left automaton* (an input-reading system over the first m-1 stacks)
  replays the segments where some earlier stack is non-empty, tracking the
  top character of the last stack in its control and emitting the
  generating effects on the last stack as input letters;
* a *right system* (single-stack, extended) models the last stack
  faithfully and swallows each such segment as one extended rule whose
  language is the left automaton's emission language for the segment;
* the extended saturation's language queries -- does the emission language
  meet the transition automaton between two candidate long-form
  transitions -- reduce to ordered reachability of a *product* of the left
  automaton with the transition automaton, one stack fewer, closing the
  recursion over the stack count.

Control-state reachability is first reduced to reaching the all-empty
configuration by appending nondeterministic clearing rules.  The global
solver descends once more: each (exit control, final transition) guess
spawns a product that tracks the last stack's transition automaton in the
control, whose recursive global solution is spliced back stack by stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import stacks as ST
from .automata import (
    LongForm,
    StackAutomaton,
    State,
    exact_stack_automaton,
    flat_key,
    lf_key,
)
from .errors import BudgetExceeded, LanguageQueryFailure, NotNormalized
from .extended import prestar_extended, state_control, ta_predecessors
from .regular import RegTuple, RegularConfigSet
from .saturation import prestar
from .stacks import BOTTOM
from .systems import (
    Configuration,
    ExtRule,
    Mcpds,
    Rule,
    add_clearing_rules,
    bottom_rule_ok,
    normalize_ordered,
)

__all__ = [
    "CpdaRule",
    "LeftCpda",
    "CpdaLang",
    "build_leftcpda",
    "build_rightcpds",
    "build_langcheckcpds",
    "ordered_reachability",
    "ordered_global",
]

# product controls one langcheck product may materialise
_MAX_PRODUCT_CONTROLS = 4000


@dataclass(frozen=True)
class CpdaRule:
    """An input-reading rule: fires like a plain rule, emitting ``inp``."""

    src: object
    letter: str
    inp: Rule
    op: ST.Op
    dst: object

    def __post_init__(self):
        object.__setattr__(self, "_key", flat_key(
            (self.src, self.letter, repr(self.inp), repr(self.op), self.dst)
        ))

    def __lt__(self, other):
        return self._key < other._key


class LeftCpda:
    """The (m-1)-stack automaton tracking the last stack's top character.

    Controls are pairs ``(control, letter)``; the input alphabet is the set
    of generating rules of the original system.  Rules of earlier stacks
    are lifted with a no-effect input recording the control change; rules
    of the last stack become pure control moves emitting themselves.

    ``gset_memo`` holds the global solutions of the products of this
    automaton with transition automata (see ``OrderedSolver``), so it lives
    exactly as long as the automaton.
    """

    def __init__(self, order, alphabet, rule_sets):
        self.order = order
        self.alphabet = alphabet
        self.rule_sets = rule_sets  # per remaining stack: list of CpdaRule
        self._into = []
        for rs in rule_sets:
            idx = {}
            for r in rs:
                idx.setdefault(r.dst, []).append(r)
            self._into.append(idx)
        self.gset_memo = {}

    @property
    def stacks(self):
        return len(self.rule_sets)

    def rules_into_pair(self, stack_index, dst_pair):
        return self._into[stack_index].get(dst_pair, ())


def build_leftcpda(sys: Mcpds) -> LeftCpda:
    """Mirror of the defining rule families; requires the bottom normal form."""
    _require_normalized(sys)
    m = sys.stacks
    letters = list(sys.alphabet)
    rule_sets = [[] for _ in range(m - 1)]
    # earlier-stack rules: lifted pointwise, input records the control change
    for i in range(m - 1):
        for r in sys.rule_sets[i]:
            for a in letters:
                inp = Rule(r.src, a, ST.noop(), r.dst)
                rule_sets[i].append(
                    CpdaRule((r.src, a), r.letter, inp, r.op, (r.dst, a))
                )
    # last-stack generating rules: control moves updating the tracked letter
    for r in sys.rule_sets[m - 1]:
        if r.consuming:
            continue
        if r.op.kind == "rew":
            tracked = r.op.letter
        elif r.op.kind == "push":
            tracked = r.op.letter
        else:  # copy or noop keep the top character
            tracked = r.letter
        for b in letters:
            rule_sets[0].append(CpdaRule((r.src, r.letter), b, r, ST.noop(), (r.dst, tracked)))
    for rs in rule_sets:
        rs.sort()
    return LeftCpda(sys.order, sys.alphabet, rule_sets)


def _require_normalized(sys: Mcpds):
    for i, rs in enumerate(sys.rule_sets):
        for r in rs:
            if not bottom_rule_ok(r, i, sys.stacks - 1, sys.order):
                raise NotNormalized(f"bottom rule {r!r} on stack {i + 1}")


# ---------------------------------------------------------------------------
# The product of the left automaton with a transition automaton
# ---------------------------------------------------------------------------


def _product_rules(left: LeftCpda, aut: StackAutomaton, dst):
    """The langcheck product's ``(stack_index, Rule)`` pairs into ``dst``.

    Controls are ``(control, long-form)`` pairs; the product steps
    simultaneously in the left automaton (its tracked letter is the
    long-form's letter) and in the transition automaton over ``aut``.
    """
    out = []
    if _is_product_control(dst):
        q2, t2 = dst
        for j in range(left.stacks):
            for cr in left.rules_into_pair(j, (q2, t2.letter)):
                for t1 in ta_predecessors(cr.inp, t2, aut):
                    src = (cr.src[0], t1)
                    out.append((j, Rule(src, cr.letter, cr.op, dst)))
    return out


def _is_product_control(ctl) -> bool:
    """Is ``ctl`` a product control ``(control, long-form)``?"""
    return isinstance(ctl, tuple) and len(ctl) == 2 and isinstance(ctl[1], LongForm)


def _materialize(rules_into, order, alphabet, stacks, seeds) -> Mcpds:
    """Backward closure of a lazy multi-stack rule source into an Mcpds.

    ``rules_into(dst)`` lists the ``(stack_index, Rule)`` pairs into
    ``dst``.  Controls are keyed by themselves: product controls are tuples
    of strings, states and long forms, whose equality is content equality.
    """
    controls = dict.fromkeys(seeds)
    queue = list(seeds)
    rule_sets = [[] for _ in range(stacks)]
    while queue:
        dst = queue.pop(0)
        for (j, rule) in rules_into(dst):
            rule_sets[j].append(rule)
            if rule.src not in controls:
                if len(controls) >= _MAX_PRODUCT_CONTROLS:
                    raise BudgetExceeded("product control budget",
                                         len(controls) + 1, "controls",
                                         _MAX_PRODUCT_CONTROLS)
                controls[rule.src] = None
                queue.append(rule.src)
    return Mcpds(order, alphabet, list(controls),
                 [set(rs) for rs in rule_sets], "ordered")


def build_langcheckcpds(left: LeftCpda, aut: StackAutomaton, t: LongForm,
                        tprime: LongForm, push_letter: str, stack_index: int):
    """The entry/exit product for one emptiness query.

    Entry pushes the segment's bottom push onto the chosen stack and moves
    to ``(q1, t)``; exit steps from ``(q2, t')`` to the exit sentinel.  The
    exit is restricted to the query's final transition ``t'``.  Returns
    ``(system, enter, exit)`` with the product materialised backward from
    the exit.
    """
    q1 = state_control(t.head)
    q2 = state_control(tprime.head)
    enter, leave = ("enter",), ("exit",)
    sentinels = {
        leave: [(stack_index, Rule((q2, tprime), BOTTOM, ST.noop(), leave))],
        (q1, t): [(stack_index,
                   Rule(enter, BOTTOM, ST.push(push_letter, left.order), (q1, t)))],
    }

    def rules_into(dst):
        return sentinels.get(dst, []) + _product_rules(left, aut, dst)

    sysm = _materialize(rules_into, left.order, left.alphabet, left.stacks, [leave])
    return sysm, enter, leave


class CpdaLang:
    """Language handle for one segment family of the right system.

    Stands for the words emitted by the left automaton from
    ``((q1, a), push at stack i)`` to ``((q2, _), all empty)``, prefixed by
    the no-effect rule recording the original bottom push's control change.
    Decisions and batch queries go through the product construction and the
    recursive ordered solver.
    """

    def __init__(self, solver, left: LeftCpda, prefix: Rule, q1, a, q2, b, i):
        self.solver = solver
        self.left = left
        self.prefix = prefix
        self.q1, self.a, self.q2, self.b, self.i = q1, a, q2, b, i

    def __repr__(self):
        return f"L[{self.q1},{self.a}->{self.q2};push {self.b}@{self.i + 1}]"

    def words(self):
        raise LanguageQueryFailure("segment languages are not enumerable")

    def initials(self, aut: StackAutomaton, t2: LongForm):
        out = {}
        for x in self.solver.langcheck_batch(self.left, aut, self.q1, self.a,
                                             t2, self.b, self.i):
            for t in ta_predecessors(self.prefix, x, aut):
                out[t.key] = t
        return [out[k] for k in sorted(out)]


def build_rightcpds(sys: Mcpds, solver: "OrderedSolver | None" = None,
                    left: LeftCpda | None = None):
    """Single-stack extended system over the last stack.

    Plain rules are the last stack's rules verbatim; for every bottom push
    opening a segment on an earlier stack, one extended rule per top letter
    and exit control carries the corresponding segment language.  ``left``
    is ``build_leftcpda(sys)``, built here when not given.
    """
    solver = solver or OrderedSolver()
    _require_normalized(sys)
    m = sys.stacks
    if left is None:
        left = build_leftcpda(sys)
    ext = []
    letters = list(sys.alphabet)
    for i in range(m - 1):
        for r in sys.rule_sets[i]:
            if r.letter != BOTTOM or r.op.kind != "push":
                continue
            for a in letters:
                for q2 in sys.controls:
                    prefix = Rule(r.src, a, ST.noop(), r.dst)
                    lang = CpdaLang(solver, left, prefix, r.dst, a, q2,
                                    r.op.letter, i)
                    ext.append(ExtRule(r.src, a, lang, q2))
    return Mcpds(sys.order, sys.alphabet, sys.controls,
                 [sys.rule_sets[m - 1]], "single", [tuple(ext)])


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------


class OrderedSolver:
    """The stack-count induction, with its sub-solves memoised.

    ``empty_global`` is a function of the system, the target and the depth
    alone, so its results are kept per solver under a content key; the
    memo dies with the solver.  ``stats`` counts, deterministically,
    saturations, batch queries, product solves, and the calls to
    ``empty_global`` (``global_calls``) against the ones that solved
    (``global_solves``).
    """

    def __init__(self):
        self.stats = {"saturations": 0, "batch_queries": 0,
                      "product_solves": 0, "global_calls": 0,
                      "global_solves": 0}
        self._global_memo = {}

    # -- language queries ---------------------------------------------------

    def _product_global(self, left: LeftCpda, aut: StackAutomaton,
                        tprime: LongForm) -> RegularConfigSet:
        """Global solution of the product, memoised per (automaton, t').

        Every language handle over the same final transition shares this
        solve, and so does the global descent once the saturation is done;
        the handle-specific entry control, letter, and pushed stack are
        membership filters on the result.  The memo lives on ``left`` and
        is keyed by the automaton's revision.
        """
        key = (aut.uid, aut.revision, tprime.key)
        hit = left.gset_memo.get(key)
        if hit is not None:
            return hit
        self.stats["product_solves"] += 1
        q2 = state_control(tprime.head)
        target = (q2, tprime)
        sysm = _materialize(partial(_product_rules, left, aut), left.order,
                            left.alphabet, left.stacks, [target])
        if sysm.stacks > 1:
            sysm = normalize_ordered(sysm)
        gset = left.gset_memo[key] = self.empty_global(sysm, target,
                                                       depth=left.stacks)
        return gset

    def langcheck_batch(self, left: LeftCpda, aut: StackAutomaton, q1, a,
                        tprime: LongForm, push_letter: str, stack_index: int):
        """All TA-initial transitions t with head control q1 and letter ``a``
        whose product with the left automaton reaches the exit."""
        self.stats["batch_queries"] += 1
        gset = self._product_global(left, aut, tprime)
        entry = tuple(
            ST.apply_op(ST.push(push_letter, left.order), ST.bottom(left.order))
            if j == stack_index else ST.bottom(left.order)
            for j in range(left.stacks)
        )
        out = []
        for ctl in gset.controls():
            if not _is_product_control(ctl):
                continue
            if ctl[0] != q1 or ctl[1].letter != a:
                continue
            if gset.member(Configuration(ctl, entry)):
                out.append(ctl[1])
        out.sort(key=lf_key)
        return out

    # -- global solver ------------------------------------------------------

    def empty_global(self, sys: Mcpds, target_control, depth) -> RegularConfigSet:
        """Tuples covering every configuration reaching ``(target, all-empty)``.

        ``sys`` must be ordered and bottom-normalized.  Controls introduced
        by normalisation of inner products are kept in the result; callers
        filter to the controls they care about.  Results are shared between
        calls with content-equal arguments and must not be mutated.
        ``depth``, the stack count of ``sys``, is part of the memo key only.
        """
        self.stats["global_calls"] += 1
        key = (sys.order, sys.alphabet, sys.controls, sys.rule_sets,
               sys.ext_rule_sets, sys.mode, target_control, depth)
        hit = self._global_memo.get(key)
        if hit is None:
            self.stats["global_solves"] += 1
            hit = self._global_memo[key] = self._solve_global(
                sys, target_control)
        return hit

    def _prestar_last(self, sys: Mcpds, target_control,
                      left: LeftCpda | None = None) -> StackAutomaton:
        """Saturation of ``(target, all-empty)`` over the last stack.

        A single-stack system is saturated as it is; otherwise the right
        system over ``left`` (built when not given) swallows the segments
        on the earlier stacks.
        """
        n = sys.order
        a0 = exact_stack_automaton(n, sys.alphabet,
                                   {target_control: [ST.bottom(n)]})
        if sys.stacks == 1:
            single = Mcpds(n, sys.alphabet, sys.controls, sys.rule_sets, "single")
            b, _ = prestar(single, a0)
        else:
            b, _ = prestar_extended(build_rightcpds(sys, self, left), a0)
        self.stats["saturations"] += 1
        return b

    def _solve_global(self, sys: Mcpds, target_control) -> RegularConfigSet:
        m = sys.stacks
        n = sys.order
        out = RegularConfigSet(n, m)
        if m == 1:
            b = self._prestar_last(sys, target_control)
            for q in sys.controls:
                out.add(RegTuple(q, (b,), (b.require_control(q),)))
            return out
        left = build_leftcpda(sys)
        bm = self._prestar_last(sys, target_control, left)
        bot_aut = exact_stack_automaton(n, sys.alphabet, {"root": [ST.bottom(n)]})
        bot_init = bot_aut.require_control("root")
        for q in sys.controls:
            out.add(RegTuple(
                q,
                (bot_aut,) * (m - 1) + (bm,),
                (bot_init,) * (m - 1) + (bm.require_control(q),),
            ))
        # descend: guess the exit control and final transition of the last
        # stack; the product over the remaining stacks that tracks its
        # transition automaton in the control is the one the language
        # queries solve, so its memoised solution is spliced back
        spliced = {}  # x -> bm re-rooted at x, shared by every tuple ending in x
        for q2 in sys.controls:
            for tprime in bm.long_forms_from(bm.require_control(q2)):
                sub = self._product_global(left, bm, tprime)
                for tup in sub.tuples:
                    ctl = tup.control
                    if not _is_product_control(ctl):
                        continue
                    q, x = ctl
                    if x not in spliced:
                        spliced[x] = self._splice(bm, x)
                    aut, init = spliced[x]
                    out.add(RegTuple(q, tup.autos + (aut,), tup.initials + (init,)))
        return out

    @staticmethod
    def _splice(bm: StackAutomaton, x: LongForm):
        """``bm`` with ``x`` re-rooted at a fresh designated initial state."""
        a = bm.copy()
        s = a.add_state(State(a.order, ("splice", x.key)))
        a.add_long_form(x.rehead(s))
        return a, s


def _prepare(sys: Mcpds):
    if sys.mode != "ordered":
        raise NotNormalized("ordered solver expects an ordered-mode system")
    return normalize_ordered(sys)


def ordered_reachability(sys: Mcpds, q_in, q_out) -> bool:
    """Can the all-empty configuration at ``q_in`` reach control ``q_out``?"""
    cleared, fin = add_clearing_rules(_prepare(sys), q_out)
    b = OrderedSolver()._prestar_last(cleared, fin)
    return b.has_control(q_in) and b.member(q_in, ST.bottom(cleared.order))


def ordered_global(sys: Mcpds, q_out) -> RegularConfigSet:
    """All configurations (over the declared controls) that can reach ``q_out``."""
    cleared, fin = add_clearing_rules(_prepare(sys), q_out)
    full = OrderedSolver().empty_global(cleared, fin, depth=cleared.stacks)
    out = RegularConfigSet(sys.order, sys.stacks)
    declared = set(sys.controls)
    for t in full.tuples:
        if t.control in declared:
            out.add(t)
    return out
