"""Order-n alternating stack automata.

A stack automaton has disjoint state sets per order.  At orders k >= 2 a
transition ``(q, q', Q)`` reads the top order-(k-1) stack from ``q'`` and the
remainder of the order-k sequence from every state of ``Q``; the rule that a
pair ``(q, Q)`` determines at most one label ``q'`` is built into the
representation.  At order 1 a transition ``(q, a, B, Q)`` consumes the top
character ``a``, requires the annotation to be accepted from every state of
the branch set ``B`` (all of one order), and the rest of the order-1 stack
from every state of ``Q``.  An empty order-k stack is accepted exactly by
the order-k final states, and a transition to the empty set is distinct
from having no transition.

The unit manipulated by saturation is the *long-form transition*

    ``q --a,B--> (Q_1, ..., Q_n)``

denoting a chain of underlying transitions from an order-n state down to a
single order-1 step.  :meth:`StackAutomaton.add_long_form` materialises such
a chain, reusing the unique intermediate label for an existing ``(q, Q)``
pair and inventing a fresh one otherwise, so repeated insertion is
idempotent.

Membership runs bottom-up over the (hash-consed) stack tree with
memoisation, computing for every substack the full set of accepting states.
Emptiness works over *sets* of states (joint acceptance), which is what the
alternating semantics requires.  It is a goal-directed Horn solve: a query
explores only the subqueries reachable from it, and a subquery that becomes
true re-evaluates only the queries that asked for it.  The answers and their
justifications are kept for the rest of the automaton's revision, so later
queries extend the same table; a witness stack is reconstructed from the
justification choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import stacks as ST
from .errors import OrderMismatch, PreconditionViolation, UnknownControl

__all__ = [
    "State",
    "LongForm",
    "StackAutomaton",
    "state_key",
    "flat_key",
    "exact_stack_automaton",
    "accept_all_automaton",
    "union",
    "intersect",
]


@dataclass(frozen=True)
class State:
    """An automaton state; ``name`` is a structured, sortable identifier.

    ``name_key``, the :func:`flat_key` of the name, and ``key``, the
    :func:`flat_key` of the state, are computed on first use and then kept
    on the state.
    """

    order: int
    name: tuple

    def __post_init__(self):
        object.__setattr__(self, "_h", hash((self.order, self.name)))

    def __hash__(self):
        return self._h

    # Shadowed per instance on first use.  Neither a __getattr__ hook nor a
    # write through __dict__: either would slow every later attribute read
    # on states, __hash__'s too.
    _name_key = None
    _key = None

    @property
    def name_key(self) -> str:
        key = self._name_key
        if key is None:
            key = flat_key(self.name)
            object.__setattr__(self, "_name_key", key)
        return key

    @property
    def key(self) -> str:
        key = self._key
        if key is None:
            key = f"S{self.order:03d}({self.name_key})"
            object.__setattr__(self, "_key", key)
        return key

    def __repr__(self):
        return f"S{self.order}:" + ".".join(str(p) for p in self.name)


def flat_key(x) -> str:
    """Deterministic total order key for mixed structured values."""
    if isinstance(x, (State, LongForm)):
        return x.key
    if isinstance(x, bool):
        return f"b{int(x)}"
    if isinstance(x, int):
        return f"i{x:012d}"
    if isinstance(x, str):
        return "s" + x
    if isinstance(x, (tuple, list)):
        return "(" + ",".join([flat_key(p) for p in x]) + ")"
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted([flat_key(p) for p in x])) + "}"
    return "r" + repr(x)


def state_key(s: State) -> tuple:
    return (s.order, s.name_key)


def _set_key(qs) -> str:
    return "{" + ",".join(sorted(q.key for q in qs)) + "}"


def sorted_states(qs):
    return sorted(qs, key=state_key)


@dataclass(frozen=True)
class LongForm:
    """``head --letter,branch--> targets`` with ``targets[i]`` at order i+1."""

    head: State
    letter: str
    branch: frozenset
    targets: tuple

    def __post_init__(self):
        orders = {b.order for b in self.branch}
        if len(orders) > 1:
            raise OrderMismatch("branch set must be order-homogeneous")
        object.__setattr__(
            self, "_h", hash((self.head, self.letter, self.branch, self.targets))
        )

    def __hash__(self):
        return self._h

    _key = None  # shadowed per instance on first use, as on State

    @property
    def key(self) -> str:
        key = self._key
        if key is None:
            key = "T[{};{};{};{}]".format(
                self.head.key,
                self.letter,
                _set_key(self.branch),
                ";".join(_set_key(s) for s in self.targets),
            )
            object.__setattr__(self, "_key", key)
        return key

    @property
    def order(self) -> int:
        return len(self.targets)

    def rehead(self, head: State) -> "LongForm":
        return LongForm(head, self.letter, self.branch, self.targets)

    def __repr__(self):
        tg = ",".join("{" + ",".join(map(str, sorted_states(s))) + "}" for s in self.targets)
        br = "{" + ",".join(map(str, sorted_states(self.branch))) + "}"
        return f"{self.head} --{self.letter},{br}--> ({tg})"


def lf_key(t: LongForm) -> str:
    return t.key


class _Options:
    """Each state's transitions in the order the emptiness solver tries them.

    Built per solve, and per state on first use.
    """

    def __init__(self, aut: "StackAutomaton"):
        self.high_from = aut.high_from
        self.delta1 = aut.delta1
        self._high: dict = {}
        self._low: dict = {}

    def high(self, q: State) -> list:
        """``(label, targets)`` out of an order >= 2 state, sorted."""
        hit = self._high.get(q)
        if hit is None:
            hit = self._high[q] = sorted(
                self.high_from(q), key=lambda p: (p[0].key, _set_key(p[1]))
            )
        return hit

    def low(self, q: State) -> dict:
        """``letter -> [(branch, targets)]`` out of an order-1 state, sorted."""
        hit = self._low.get(q)
        if hit is None:
            hit = self._low[q] = {}
            for letter, branch, targets in sorted(
                self.delta1.get(q, ()),
                key=lambda s: (s[0], _set_key(s[1]), _set_key(s[2])),
            ):
                hit.setdefault(letter, []).append((branch, targets))
        return hit


class StackAutomaton:
    """Mutable builder for an order-n stack automaton.

    Mutation is meant to be single-writer (the saturation loop); queries
    memoise and are safe between mutations.  Membership and emptiness
    answers are kept for one revision.  A chain enumeration depends only on
    the transitions at or below its state, so it is kept until a transition
    is added out of that state or out of a state below it.
    """

    def __init__(self, order: int, alphabet):
        self.order = order
        self.alphabet = frozenset(alphabet) | {ST.BOTTOM}
        # per order: insertion-ordered state set
        self.states = {k: {} for k in range(1, order + 1)}
        self.finals = {k: {} for k in range(1, order + 1)}
        # delta_high[k][(src, frozenset targets)] = label state (order k-1)
        self.delta_high = {k: {} for k in range(2, order + 1)}
        # delta1[src][(letter, branch, targets)] = None  (ordered set)
        self.delta1 = {}
        # the high transitions by source, in insertion order:
        # _high_out[src] = [(label, targets)]; and _high_in[label] = {src}
        self._high_out = {}
        self._high_in = {}
        self.controls = {}
        self.layer_controls = {}
        self.layers = {}
        self._fresh = 0
        self.revision = 0
        self._accept_memo = {}
        self._chain_memo = {}
        self._sf_keys = {}  # state -> the set_form_chains keys naming it
        self._emptiness = None
        self._unregistered = {}  # control key -> state, see peek_control
        StackAutomaton._uid_counter += 1
        self.uid = StackAutomaton._uid_counter

    _uid_counter = 0

    # -- construction ------------------------------------------------------

    def copy(self) -> "StackAutomaton":
        a = StackAutomaton(self.order, self.alphabet)
        a.states = {k: dict(v) for k, v in self.states.items()}
        a.finals = {k: dict(v) for k, v in self.finals.items()}
        a.delta_high = {k: dict(v) for k, v in self.delta_high.items()}
        a.delta1 = {q: dict(v) for q, v in self.delta1.items()}
        a._high_out = {q: list(v) for q, v in self._high_out.items()}
        a._high_in = {q: set(v) for q, v in self._high_in.items()}
        a.controls = dict(self.controls)
        a.layer_controls = dict(self.layer_controls)
        a.layers = dict(self.layers)
        a._fresh = self._fresh
        return a

    def _touch(self):
        self.revision += 1
        self._accept_memo.clear()

    def _forget_chains(self, state: State):
        """Drop the memoised chain enumerations that read ``state``'s
        transitions: those of ``state`` and of every state above it, and
        the set forms naming one of them.  Each step up raises the order,
        so the walk ends."""
        memo = self._chain_memo
        work = [state]
        while work:
            s = work.pop()
            memo.pop(s, None)
            memo.pop(("lf", s), None)
            for key in self._sf_keys.pop(s, ()):
                memo.pop(key, None)
            work.extend(self._high_in.get(s, ()))

    def add_state(self, s: State, final: bool = False, layer: int | None = None) -> State:
        if not 1 <= s.order <= self.order:
            raise OrderMismatch(f"state order {s.order} outside 1..{self.order}")
        if s not in self.states[s.order]:
            self.states[s.order][s] = None
            self._touch()
        if final and s not in self.finals[s.order]:
            self.finals[s.order][s] = None
            self._touch()
        if layer is not None and self.layers.get(s) != layer:
            self.layers[s] = layer
            self._touch()
        return s

    def fresh_state(self, order: int, layer: int | None = None) -> State:
        self._fresh += 1
        s = State(order, ("m", self._fresh))
        return self.add_state(s, layer=layer)

    def control_state(self, control, layer: int | None = None) -> State:
        """The designated order-n state of a control (P-automaton mapping)."""
        table = self.controls if layer is None else self.layer_controls
        key = control if layer is None else (control, layer)
        s = table.get(key)
        if s is None:
            s = self.peek_control(control, layer)
            self.add_state(s, layer=layer)
            table[key] = s
            self._touch()
        return s

    def peek_control(self, control, layer: int | None = None) -> State:
        """The state a control resolves to, without registering anything.

        An unregistered control resolves to one state object per automaton,
        so that its sort keys are computed once.
        """
        table = self.controls if layer is None else self.layer_controls
        key = control if layer is None else (control, layer)
        s = table.get(key) or self._unregistered.get(key)
        if s is None:
            name = ("q", control) if layer is None else ("q", control, layer)
            s = self._unregistered[key] = State(self.order, name)
        return s

    def remap_control(self, control, state: State, layer: int | None = None):
        """Point a control at a (fresh) state; used by staged constructions."""
        table = self.controls if layer is None else self.layer_controls
        key = control if layer is None else (control, layer)
        self.add_state(state, layer=layer)
        table[key] = state
        self._touch()

    def has_control(self, control, layer: int | None = None) -> bool:
        if layer is None:
            return control in self.controls
        return (control, layer) in self.layer_controls

    def require_control(self, control, layer: int | None = None) -> State:
        table = self.controls if layer is None else self.layer_controls
        key = control if layer is None else (control, layer)
        if key not in table:
            raise UnknownControl(f"no automaton state for control {control!r}")
        return table[key]

    def control_states(self, layer: int | None = None):
        """Controls mapped at the given layer, in insertion order."""
        if layer is None:
            return list(self.controls)
        return [c for (c, l) in self.layer_controls if l == layer]

    def add_high_transition(self, src: State, targets, label: State | None = None) -> State:
        """Ensure a (src, label, targets) transition at ``src.order``.

        Returns the (unique) label for ``(src, targets)``; creates a fresh
        intermediate state when the pair is new.
        """
        k = src.order
        if k < 2:
            raise OrderMismatch("high transitions live at orders >= 2")
        targets = frozenset(targets)
        for t in targets:
            if t.order != k:
                raise OrderMismatch("target set must match the source order")
        key = (src, targets)
        existing = self.delta_high[k].get(key)
        if existing is not None:
            return existing
        if label is None:
            label = self.fresh_state(k - 1, layer=self.layers.get(src))
        else:
            self.add_state(label)
        for t in targets:
            self.add_state(t)
        self.delta_high[k][key] = label
        self._high_out.setdefault(src, []).append((label, targets))
        self._high_in.setdefault(label, set()).add(src)
        self._forget_chains(src)
        self._touch()
        return label

    def add_delta1(self, src: State, letter: str, branch, targets) -> bool:
        if src.order != 1:
            raise OrderMismatch("delta1 sources are order-1 states")
        branch = frozenset(branch)
        targets = frozenset(targets)
        for t in targets:
            if t.order != 1:
                raise OrderMismatch("delta1 targets are order-1 states")
        orders = {b.order for b in branch}
        if len(orders) > 1:
            raise OrderMismatch("branch set must be order-homogeneous")
        self.add_state(src)
        slot = self.delta1.setdefault(src, {})
        key = (letter, branch, targets)
        if key in slot:
            return False
        for s in branch | targets:
            self.add_state(s)
        slot[key] = None
        self._forget_chains(src)
        self._touch()
        return True

    def add_long_form(self, t: LongForm) -> bool:
        """Materialise a long-form transition; returns False when present."""
        if t.order != self.order or t.head.order != self.order:
            raise OrderMismatch("long-form transition order mismatch")
        cur = t.head
        self.add_state(cur)
        for k in range(self.order, 1, -1):
            cur = self.add_high_transition(cur, t.targets[k - 1])
        return self.add_delta1(cur, t.letter, t.branch, t.targets[0])

    def pending_entry(self, t: LongForm):
        """The order-1 transition :meth:`add_long_form` would add for ``t``.

        None when ``t`` is present.  Otherwise a key naming that transition:
        the last state of ``t``'s chain already in the automaton, with the
        rest of ``t`` below it.  Every state the insertion would invent
        below that point is fresh, so two long forms get the same key
        exactly when inserting both adds one transition.  Mutates nothing.
        """
        cur = t.head
        if cur in self.states[self.order]:
            for k in range(self.order, 1, -1):
                nxt = self.delta_high[k].get((cur, t.targets[k - 1]))
                if nxt is None:
                    break
                cur = nxt
            else:
                if (t.letter, t.branch, t.targets[0]) in self.delta1.get(cur, ()):
                    return None
        return (cur, t.letter, t.branch, t.targets[:cur.order])

    # -- chain enumeration -------------------------------------------------

    def delta1_from(self, src: State):
        for (letter, branch, targets) in self.delta1.get(src, {}):
            yield letter, branch, targets

    def high_from(self, src: State):
        yield from self._high_out.get(src, ())

    def chains_from(self, src: State):
        """All complete long-form chains out of ``src`` (at ``src.order``).

        Yields ``(letter, branch, targets)`` with ``targets`` a tuple of
        length ``src.order`` (index i holds the order-(i+1) set).
        """
        memo = self._chain_memo
        hit = memo.get(src)
        if hit is not None:
            return hit
        out = []
        if src.order == 1:
            for letter, branch, targets in self.delta1_from(src):
                out.append((letter, branch, (targets,)))
        else:
            for label, targets in self.high_from(src):
                for letter, branch, sub in self.chains_from(label):
                    out.append((letter, branch, sub + (targets,)))
        out.sort(key=lambda c: (c[0], _set_key(c[1]), tuple(_set_key(s) for s in c[2])))
        memo[src] = out
        return out

    def long_forms_from(self, head: State) -> tuple:
        """The long-form transitions out of ``head``, in chain order.

        Memoised like :meth:`chains_from`; the tuple and its long forms
        (with their cached keys) are shared between callers.
        """
        memo = self._chain_memo
        hit = memo.get(("lf", head))
        if hit is None:
            hit = memo[("lf", head)] = tuple(
                LongForm(head, letter, branch, targets)
                for letter, branch, targets in self.chains_from(head))
        return hit

    def k_prefixes(self, src: State, k: int):
        """Chains of high transitions from ``src`` down to an order-k label.

        Yields ``(label, (Q_{k+1}, ..., Q_n))``; for ``k == order`` the
        trivial prefix ``(src, ())``.
        """
        if k == src.order:
            return [(src, ())]
        out = []
        for label, targets in self.high_from(src):
            for deep, sets in self.k_prefixes(label, k):
                out.append((deep, sets + (targets,)))
        out.sort(key=lambda p: (state_key(p[0]), tuple(_set_key(s) for s in p[1])))
        return out

    def set_form_chains(self, qs, upto: int):
        """Set-form transitions of a state set at order ``upto``.

        For each way of choosing one chain per member, yields the merged
        ``(letter, branch, targets)`` with unions taken pointwise; the merge
        is dropped when branch sets mix orders.  The empty set contributes
        one all-empty merge per alphabet letter.  Memoised as a shared
        tuple until a member's chains change.
        """
        qs = frozenset(qs)
        memo_key = ("sf", qs, upto)
        hit = self._chain_memo.get(memo_key)
        if hit is None:
            hit = self._chain_memo[memo_key] = tuple(self._merges(qs, upto))
            for q in qs:
                self._sf_keys.setdefault(q, set()).add(memo_key)
        return hit

    def _merges(self, qs, upto: int):
        """The distinct merges of :meth:`set_form_chains`, first seen first."""
        if not qs:
            return [(a, frozenset(), (frozenset(),) * upto)
                    for a in sorted(self.alphabet)]
        combos = [(None, frozenset(), (frozenset(),) * upto)]
        for q in sorted_states(qs):
            nxt = []
            for letter, branch, targets in self.chains_from(q):
                for (cl, cb, ct) in combos:
                    if cl is not None and cl != letter:
                        continue
                    orders = {b.order for b in cb | branch}
                    if len(orders) > 1:
                        continue
                    merged = tuple(ct[i] | targets[i] for i in range(upto))
                    nxt.append((letter, cb | branch, merged))
            combos = nxt
            if not combos:
                return ()
        return dict.fromkeys(combos)

    # -- membership --------------------------------------------------------

    def accept_states(self, w) -> frozenset:
        """The set of order-``w.order`` states accepting stack ``w``."""
        memo = self._accept_memo
        hit = memo.get(w)
        if hit is not None:
            return hit
        k = w.order
        if k == 1:
            cur = frozenset(self.finals[1])
            for c in reversed(w.entries):
                cur = self._accept_char(c, cur)
        else:
            cur = frozenset(self.finals[k])
            for u in reversed(w.entries):
                head = self.accept_states(u)
                nxt = set()
                for (src, targets), label in self.delta_high[k].items():
                    if label in head and targets <= cur:
                        nxt.add(src)
                cur = frozenset(nxt)
        memo[w] = cur
        return cur

    def _accept_char(self, c, tail: frozenset) -> frozenset:
        ann_states = None
        out = set()
        for src, slots in self.delta1.items():
            for (letter, branch, targets) in slots:
                if letter != c.letter or not targets <= tail:
                    continue
                if branch:
                    if c.ann is None:
                        continue
                    order = next(iter(branch)).order
                    if c.ann.order != order:
                        continue
                    if ann_states is None:
                        ann_states = self.accept_states(c.ann)
                    if not branch <= ann_states:
                        continue
                out.add(src)
        return frozenset(out)

    def accepts(self, state: State, w) -> bool:
        if state.order != w.order:
            raise OrderMismatch(
                f"state of order {state.order} cannot read an order-{w.order} stack"
            )
        return state in self.accept_states(w)

    def member(self, control, w, layer: int | None = None) -> bool:
        """P-automaton acceptance of the configuration ``(control, w)``."""
        return self.accepts(self.require_control(control, layer), w)

    # -- joint emptiness ---------------------------------------------------

    def nonempty(self, qs, order: int | None = None) -> bool:
        return self._ne_solve(self._ne_query(qs, order))

    def _ne_query(self, qs, order):
        qs = frozenset(qs)
        if order is None:
            if not qs:
                raise OrderMismatch("order required for an empty query set")
            order = next(iter(qs)).order
        return (order, qs)

    def _ne_table(self):
        """``(true, explored)`` of the current revision.

        ``true`` maps each query found nonempty to its justification;
        every query in ``explored`` is at its least fixpoint.
        """
        t = self._emptiness
        if t is None or t[0] != self.revision:
            t = self._emptiness = (self.revision, {}, set())
        return t[1], t[2]

    def _ne_solve(self, goal) -> bool:
        """Least fixpoint of joint nonemptiness over the queries below ``goal``.

        A worklist explores the subqueries reachable from ``goal``; a query
        that becomes true re-queues only the queries that asked for it.  On
        return every explored query is at its least fixpoint, so the table
        keeps the answers (and the justification of each true query, for
        witness extraction) for the rest of the revision.
        """
        true, explored = self._ne_table()
        if goal in explored:
            return goal in true
        # queries join ``explored`` only when the solve completes, so an
        # interrupted call leaves none marked as settled short of its fixpoint
        reached = {goal}
        waiting: dict = {}  # subquery -> queries whose evaluation it blocked
        options = _Options(self)
        work = [goal]
        while work:
            query = work.pop()
            if query in true:
                continue
            reason, blocked = self._ne_eval(query, true, options)
            if reason is not None:
                true[query] = reason
                work.extend(waiting.pop(query, ()))
                continue
            for sub in blocked:
                waiting.setdefault(sub, {})[query] = None
                if sub not in reached and sub not in explored:
                    reached.add(sub)
                    work.append(sub)
        explored |= reached
        return goal in true

    def _ne_eval(self, query, true: dict, options: _Options):
        """Justify ``query`` from the current true set, first choice in order.

        Returns ``(reason, blocked)``: the justification or None, and the
        subqueries not yet true that the choices examined asked for.
        """
        order, qs = query
        blocked = []
        if all(q in self.finals[order] for q in qs):
            return ("empty",), blocked
        states = sorted(qs, key=flat_key)
        if order >= 2:
            per_state = []
            for q in states:
                opts = options.high(q)
                if not opts:
                    return None, blocked
                per_state.append(opts)
            for choice in product(*per_state):
                q1 = (order - 1, frozenset(l for l, _ in choice))
                q2 = (order, frozenset().union(*[tg for _, tg in choice]))
                ok = True
                for q in (q1, q2):
                    if q not in true:
                        blocked.append(q)
                        ok = False
                if ok:
                    return ("step", q1, q2), blocked
            return None, blocked
        # order 1: all chosen transitions must share a letter
        lows = [options.low(q) for q in states]
        if not all(lows):
            return None, blocked
        for letter in sorted(set(lows[0]).intersection(*lows[1:])):
            for choice in product(*[low[letter] for low in lows]):
                branch = frozenset().union(*[b for b, _ in choice])
                orders = {b.order for b in branch}
                if len(orders) > 1:
                    continue
                q2 = (1, frozenset().union(*[tg for _, tg in choice]))
                subqueries = [q2]
                if branch:
                    subqueries.append((next(iter(orders)), branch))
                ok = True
                for q in subqueries:
                    if q not in true:
                        blocked.append(q)
                        ok = False
                if ok:
                    return ("char", letter, branch, q2), blocked
        return None, blocked

    def witness(self, qs, order: int | None = None):
        """A stack jointly accepted from ``qs``; None when empty."""
        query = self._ne_query(qs, order)
        if not self._ne_solve(query):
            return None
        return self._build_witness(query, self._ne_table()[0])

    def _build_witness(self, query, just):
        order, _qs = query
        reason = just[query]
        if reason[0] == "empty":
            return ST.mk_stack(order, ())
        if reason[0] == "step":
            _, q1, q2 = reason
            head = self._build_witness(q1, just)
            tail = self._build_witness(q2, just)
            return ST.mk_stack(order, (head,) + tail.entries)
        _, letter, branch, q2 = reason
        ann = (self._build_witness((next(iter(branch)).order, branch), just)
               if branch else None)
        tail = self._build_witness(q2, just)
        return ST.mk_stack(1, (ST.mk_char(letter, ann),) + tail.entries)

    # -- invariants ---------------------------------------------------------

    def check_invariants(self, layered: bool = False, max_top_set: int | None = None):
        """Raise on any structural violation; cheap enough to run in tests."""
        for k in range(2, self.order + 1):
            for (src, targets), label in self.delta_high[k].items():
                if src.order != k or label.order != k - 1:
                    raise OrderMismatch(f"order skew in delta_{k}")
                for t in targets:
                    if t.order != k:
                        raise OrderMismatch(f"target order skew in delta_{k}")
                if max_top_set is not None and k == self.order and len(targets) > max_top_set:
                    raise PreconditionViolation("top-order target set exceeds bound")
                if layered:
                    lsrc = self.layers.get(src)
                    if lsrc is None:
                        raise PreconditionViolation(f"unlayered state {src}")
                    if self.layers.get(label) != lsrc:
                        raise PreconditionViolation("label layer differs from head")
                    for t in targets:
                        if self.layers.get(t, lsrc) < lsrc:
                            raise PreconditionViolation("transition into a lower layer")
        for src, slots in self.delta1.items():
            for (letter, branch, targets) in slots:
                if letter not in self.alphabet:
                    raise OrderMismatch(f"undeclared letter {letter!r} in delta1")
                orders = {b.order for b in branch}
                if len(orders) > 1:
                    raise OrderMismatch("mixed-order branch set")
                if layered:
                    lsrc = self.layers.get(src)
                    for t in branch | targets:
                        if self.layers.get(t, lsrc) < lsrc:
                            raise PreconditionViolation("delta1 into a lower layer")

    def check_saturation_preconditions(self, initials=None):
        """Designated control states must be non-final with no incoming arcs."""
        if initials is None:
            initials = set(self.controls.values()) | set(self.layer_controls.values())
        else:
            initials = set(initials)
        for s in initials:
            if s in self.finals[self.order]:
                raise PreconditionViolation(f"initial state {s} is final")
        for k in range(2, self.order + 1):
            for (_src, targets) in self.delta_high[k]:
                bad = initials & targets
                if bad:
                    raise PreconditionViolation(f"incoming transition to initial {bad}")
        for src, slots in self.delta1.items():
            for (_letter, branch, targets) in slots:
                bad = initials & (branch | targets)
                if bad:
                    raise PreconditionViolation(f"incoming transition to initial {bad}")

    # -- canonical form ------------------------------------------------------

    def canonical_key(self):
        """A renaming-invariant fingerprint of the reachable structure.

        Anonymous intermediate states are renamed by their unique
        ``(source, target-set)`` signature, which is well defined because
        intermediates are only ever created by :meth:`add_long_form`.
        Cached per revision: solver outputs are canonicalised repeatedly.
        """
        cached = getattr(self, "_canon_cache", None)
        if cached is not None and cached[0] == self.revision:
            return cached[1]
        canon: dict[State, str] = {}
        for k in range(self.order, 0, -1):
            for s in self.states[k]:
                if s.name and s.name[0] != "m":
                    canon[s] = s.name_key
        for k in range(self.order, 1, -1):
            items = sorted(
                self.delta_high[k].items(),
                key=lambda kv: (canon.get(kv[0][0], kv[0][0].name_key),
                                _set_key(kv[0][1])),
            )
            for (src, targets), label in items:
                sig = "L[{}|{}]".format(
                    canon.get(src, src.name_key),
                    ",".join(sorted(canon.get(t, t.name_key) for t in targets)),
                )
                if label not in canon or sig < canon[label]:
                    canon[label] = sig
        def cn(s):
            return canon.get(s, s.name_key)
        high = []
        for k in range(2, self.order + 1):
            for (src, targets), label in self.delta_high[k].items():
                high.append((k, cn(src), tuple(sorted(cn(t) for t in targets)), cn(label)))
        low = []
        for src, slots in self.delta1.items():
            for (letter, branch, targets) in slots:
                low.append(
                    (cn(src), letter,
                     tuple(sorted(cn(b) for b in branch)),
                     tuple(sorted(cn(t) for t in targets)))
                )
        fin = [
            (k, tuple(sorted(cn(s) for s in self.finals[k])))
            for k in range(1, self.order + 1)
        ]
        ctl = tuple(sorted((flat_key(c), cn(s)) for c, s in self.controls.items()))
        lctl = tuple(sorted((flat_key(c), cn(s)) for c, s in self.layer_controls.items()))
        lay = ()
        if self.layers:
            # a layer counts only on a state that something else mentions
            used = {*self.controls.values(), *self.layer_controls.values()}
            for k in range(1, self.order + 1):
                used.update(self.finals[k])
            for k in range(2, self.order + 1):
                for (src, targets), label in self.delta_high[k].items():
                    used.add(src)
                    used.add(label)
                    used.update(targets)
            for src, slots in self.delta1.items():
                used.add(src)
                for (_l, branch, targets) in slots:
                    used.update(branch)
                    used.update(targets)
            lay = tuple(sorted((cn(s), l) for s, l in self.layers.items() if s in used))
        out = (tuple(sorted(high)), tuple(sorted(low)), tuple(fin), ctl, lctl, lay)
        self._canon_cache = (self.revision, out)
        return out

    def active_states(self, kept=None) -> set:
        """The states some run from a top-order state can consult.

        A state is active when it is an order-n state, or a chain label, a
        target-set member or a branch member of an active state's
        transition.  With ``kept`` (a container of states), only kept
        states count, and only transitions whose states are all kept: the
        active states of the image that keeps just those.
        """
        consulted = {}  # state -> labels, targets and branch members it reads
        for k in range(2, self.order + 1):
            for (src, targets), label in self.delta_high[k].items():
                parts = (label, *targets)
                if kept is None or (src in kept and all(p in kept for p in parts)):
                    consulted.setdefault(src, []).extend(parts)
        for src, slots in self.delta1.items():
            for (_l, branch, targets) in slots:
                parts = (*branch, *targets)
                if kept is None or (src in kept and all(p in kept for p in parts)):
                    consulted.setdefault(src, []).extend(parts)
        active = {s for s in self.states[self.order] if kept is None or s in kept}
        work = list(active)
        while work:
            for t in consulted.get(work.pop(), ()):
                if t not in active:
                    active.add(t)
                    work.append(t)
        return active

    def pruned(self) -> "StackAutomaton":
        """Copy without the states that are not active.

        Dropping them is language-preserving for every designated state and
        keeps canonical keys free of orphaned fresh names.
        """
        active = self.active_states()
        out = StackAutomaton(self.order, self.alphabet)
        copy_into(out, self, lambda s: s if s in active else None)
        out.controls = dict(self.controls)
        out.layer_controls = dict(self.layer_controls)
        out._fresh = self._fresh
        return out

    def state_count(self) -> int:
        return sum(len(v) for v in self.states.values())

    def transition_count(self) -> int:
        return sum(len(v) for v in self.delta_high.values()) + sum(
            len(v) for v in self.delta1.values()
        )

    # -- export --------------------------------------------------------------

    def to_dot(self, name: str = "stack_automaton") -> str:
        """Graphviz rendering: one cluster per order, alternation via dots."""
        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        sid = {}
        for k in range(self.order, 0, -1):
            lines.append(f"  subgraph cluster_order{k} {{")
            lines.append(f'    label="order {k}";')
            for s in sorted_states(self.states[k]):
                sid[s] = f"n{len(sid)}"
                shape = "doublecircle" if s in self.finals[k] else "circle"
                label = str(s).replace('"', "'")
                lines.append(f'    {sid[s]} [shape={shape} label="{label}"];')
            lines.append("  }")
        tcount = 0
        for k in range(2, self.order + 1):
            for (src, targets), label in sorted(
                self.delta_high[k].items(),
                key=lambda kv: (state_key(kv[0][0]), _set_key(kv[0][1])),
            ):
                mid = f"t{tcount}"
                tcount += 1
                lines.append(f"  {mid} [shape=point];")
                lines.append(f"  {sid[src]} -> {mid};")
                lines.append(f"  {mid} -> {sid[label]} [style=bold];")
                for t in sorted_states(targets):
                    lines.append(f"  {mid} -> {sid[t]} [style=dashed];")
        for src in sorted_states(self.delta1):
            for (letter, branch, targets) in self.delta1[src]:
                mid = f"t{tcount}"
                tcount += 1
                lines.append(f'  {mid} [shape=point label=""];')
                lines.append(f'  {sid[src]} -> {mid} [label="{letter}"];')
                for t in sorted_states(targets):
                    lines.append(f"  {mid} -> {sid[t]} [style=dashed];")
                for b in sorted_states(branch):
                    lines.append(f"  {mid} -> {sid[b]} [style=dotted];")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """The automaton as JSON data; each state's entry is one tuple,
        built once per call and repeated wherever the state occurs."""
        entries = {}

        def st(s):
            e = entries.get(s)
            if e is None:
                e = entries[s] = (s.order, _jsonable(s.name))
            return e
        return {
            "order": self.order,
            "alphabet": sorted(self.alphabet),
            "states": {
                str(k): [st(s) for s in sorted_states(self.states[k])]
                for k in range(1, self.order + 1)
            },
            "finals": {
                str(k): [st(s) for s in sorted_states(self.finals[k])]
                for k in range(1, self.order + 1)
            },
            "delta_high": [
                [k, st(src), [st(t) for t in sorted_states(tg)], st(label)]
                for k in range(2, self.order + 1)
                for (src, tg), label in sorted(
                    self.delta_high[k].items(),
                    key=lambda kv: (state_key(kv[0][0]), _set_key(kv[0][1])),
                )
            ],
            "delta1": [
                [st(src), letter, [st(b) for b in sorted_states(br)],
                 [st(t) for t in sorted_states(tg)]]
                for src in sorted_states(self.delta1)
                for (letter, br, tg) in sorted(
                    self.delta1[src],
                    key=lambda s: (s[0], _set_key(s[1]), _set_key(s[2])),
                )
            ],
            "controls": [
                [_jsonable(c), st(s)]
                for c, s in sorted(self.controls.items(), key=lambda kv: flat_key(kv[0]))
            ],
            "layers": [
                [st(s), l]
                for s, l in sorted(self.layers.items(), key=lambda kv: state_key(kv[0]))
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "StackAutomaton":
        a = cls(doc["order"], doc["alphabet"])
        def st(j):
            return State(j[0], _unjsonable(j[1]))
        for k, ss in doc["states"].items():
            for j in ss:
                a.add_state(st(j))
        for k, ss in doc["finals"].items():
            for j in ss:
                a.add_state(st(j), final=True)
        for k, src, tg, label in doc["delta_high"]:
            a.add_high_transition(st(src), [st(t) for t in tg], label=st(label))
        for src, letter, br, tg in doc["delta1"]:
            a.add_delta1(st(src), letter, [st(b) for b in br], [st(t) for t in tg])
        for c, s in doc.get("controls", []):
            a.remap_control(_unjsonable(c), st(s))
        for s, l in doc.get("layers", []):
            s = a.add_state(st(s), layer=l)
            # layer controls are not written: a layered control state keeps
            # the name ("q", control, layer) of its recorded layer
            name = s.name
            if (s.order == a.order and len(name) == 3 and name[0] == "q"
                    and name[2] == l):
                a.remap_control(name[1], s, l)
        return a


def _jsonable(x):
    """JSON data for a name or control, with immutable tuples for arrays."""
    if isinstance(x, tuple):
        return ("t", *map(_jsonable, x))
    if isinstance(x, LongForm):
        # serialised sets only need a stable token, not the live object
        return ("lf", x.key)
    if x is None or isinstance(x, (str, int, bool)):
        return x
    return ("r", repr(x))


def _unjsonable(x):
    """Inverse of :func:`_jsonable`; arrays may be lists (parsed text) or
    tuples (``to_json`` output)."""
    if isinstance(x, (list, tuple)):
        if x and x[0] == "t":
            return tuple(_unjsonable(p) for p in x[1:])
        return tuple(x)
    return x


# ---------------------------------------------------------------------------
# Stock automata
# ---------------------------------------------------------------------------


def exact_stack_automaton(order: int, alphabet, targets: dict) -> StackAutomaton:
    """P-automaton accepting the given stacks per control.

    ``targets`` maps a control to the list of stacks accepted for it.  States
    are keyed by the residual language they accept, so shared suffixes share
    states and the at-most-one-label rule holds by construction.  Characters
    carrying no annotation are encoded with an empty branch set, which the
    automaton model reads as "any annotation": acceptance is exact up to
    annotations sitting on such characters.  Targets whose only unannotated
    character is the bottom symbol (bottom is never annotated) are accepted
    exactly.
    """
    a = StackAutomaton(order, alphabet)

    def seq_groups(k, seqs):
        groups = {}
        if k >= 2:
            for seq in seqs:
                if seq:
                    groups.setdefault(seq[1:], set()).add(seq[0])
            return sorted(groups.items(), key=lambda kv: _seqs_name([kv[0]]))
        for seq in seqs:
            if seq:
                c = seq[0]
                groups.setdefault((c.letter, c.ann, seq[1:]), None)
        return sorted(
            groups,
            key=lambda g: (g[0], _seqs_name([g[2]]),
                           "" if g[1] is None else ST.encode_full(g[1])),
        )

    def attach(src: State, k: int, seqs: frozenset) -> None:
        """Give ``src`` the transitions accepting exactly ``seqs`` at order k.

        Every intermediate label is created fresh via add_high_transition, so
        labels stay in bijection with their (source, target-set) pair and
        never gain a second role; shared semantic states appear only in
        target and branch positions, where incoming transitions are fine.
        """
        if k >= 2:
            for rest, heads in seq_groups(k, seqs):
                label = a.add_high_transition(src, [tail_state(k, rest)])
                attach(label, k - 1, frozenset(w.entries for w in heads))
        else:
            for (letter, ann, rest) in seq_groups(1, seqs):
                branch = [] if ann is None else [ann_root(ann)]
                a.add_delta1(src, letter, branch, [tail_state(1, rest)])

    built = set()

    def tail_state(k: int, rest: tuple) -> State:
        s = a.add_state(State(k, ("seq", k, _seqs_name([rest]))))
        if not rest:
            a.add_state(s, final=True)
            return s
        if s not in built:
            built.add(s)
            attach(s, k, frozenset([rest]))
        return s

    def ann_root(ann) -> State:
        s = a.add_state(
            State(ann.order, ("ann", ann.order, _seqs_name([ann.entries]))),
            final=not ann.entries,
        )
        if s not in built:
            built.add(s)
            attach(s, ann.order, frozenset([ann.entries]))
        return s

    for control, stacks_ in sorted(targets.items(), key=lambda kv: flat_key(kv[0])):
        src = a.control_state(control)
        for w in stacks_:
            if w.order != order:
                raise OrderMismatch("target stack order mismatch")
        if stacks_:
            attach(src, order, frozenset(w.entries for w in stacks_))
    return a


def _seqs_name(seqs) -> str:
    parts = []
    for seq in seqs:
        toks = []
        for e in seq:
            if isinstance(e, ST.Char):
                toks.append(e.letter if e.ann is None else f"{e.letter}^{ST.encode_full(e.ann)}")
            else:
                toks.append(ST.encode_full(e))
        parts.append(" ".join(toks))
    return "|".join(sorted(parts))


def accept_all_automaton(order: int, alphabet, controls, accepting) -> StackAutomaton:
    """P-automaton accepting every stack with a defined top character.

    Controls in ``accepting`` accept everything; the rest accept nothing.
    Encoded with explicit transitions only (no final states), so the
    designated states satisfy the saturation preconditions.
    """
    a = StackAutomaton(order, alphabet)
    for c in controls:
        a.control_state(c)
    for c in accepting:
        src = a.control_state(c)
        empty = (frozenset(),) * order
        for letter in sorted(a.alphabet):
            a.add_long_form(LongForm(src, letter, frozenset(), empty))
    return a


# ---------------------------------------------------------------------------
# Boolean combinations
# ---------------------------------------------------------------------------


def copy_into(dst: StackAutomaton, src: StackAutomaton, rename, lift: int = 0) -> dict:
    """Add the image of ``src`` under ``rename`` to ``dst``.

    ``rename`` sends a state of ``src`` to its state in ``dst``, or to None
    to drop it.  Kept states keep their final flag, and their layer raised
    by ``lift``; a transition is kept when its source, label, targets and
    branch states all are.  Returns the map of the kept states.
    """
    mapping = {}
    for k in range(1, src.order + 1):
        for s in src.states[k]:
            t = rename(s)
            if t is not None:
                layer = src.layers.get(s)
                mapping[s] = dst.add_state(
                    t, final=s in src.finals[k],
                    layer=None if layer is None else layer + lift,
                )
    m = mapping.get
    for k in range(2, src.order + 1):
        for (s, targets), label in src.delta_high[k].items():
            head, image = m(s), [m(t) for t in targets]
            if head is not None and m(label) is not None and None not in image:
                dst.add_high_transition(head, image, label=mapping[label])
    for s, slots in src.delta1.items():
        head = m(s)
        if head is None:
            continue
        for (letter, branch, targets) in slots:
            b_image = [m(b) for b in branch]
            t_image = [m(t) for t in targets]
            if None not in b_image and None not in t_image:
                dst.add_delta1(head, letter, b_image, t_image)
    return mapping


def _import_into(dst: StackAutomaton, src: StackAutomaton, tag: str):
    return copy_into(dst, src, lambda s: State(s.order, (tag,) + s.name))


def union(a: StackAutomaton, b: StackAutomaton, pairs):
    """Disjoint union with fresh states realising per-pair language union.

    ``pairs`` lists ``(state_of_a, state_of_b)`` at the top order; returns
    ``(c, mapping)`` where mapping sends each pair to its union state.
    """
    if a.order != b.order:
        raise OrderMismatch("union of automata of different orders")
    c = StackAutomaton(a.order, a.alphabet | b.alphabet)
    ma = _import_into(c, a, "L")
    mb = _import_into(c, b, "R")
    out = {}
    for qa, qb in pairs:
        u = c.add_state(
            State(a.order, ("U", qa.name, qb.name)),
            final=(qa in a.finals[a.order]) or (qb in b.finals[b.order]),
        )
        for side, q, m in (("L", qa, ma), ("R", qb, mb)):
            srcaut = a if side == "L" else b
            if a.order >= 2:
                for label, tg in srcaut.high_from(q):
                    c.add_high_transition(u, [m[t] for t in tg], label=m[label])
            else:
                for letter, br, tg in srcaut.delta1_from(q):
                    c.add_delta1(u, letter, [m[x] for x in br], [m[t] for t in tg])
        out[(qa, qb)] = u
    return c, out


def intersect(a: StackAutomaton, b: StackAutomaton, pairs):
    """Conjunction of designated top-order states via obligation union."""
    if a.order != b.order:
        raise OrderMismatch("intersection of automata of different orders")
    c = StackAutomaton(a.order, a.alphabet | b.alphabet)
    ma = _import_into(c, a, "L")
    mb = _import_into(c, b, "R")
    out = {}
    for qa, qb in pairs:
        u = c.add_state(
            State(a.order, ("I", qa.name, qb.name)),
            final=(qa in a.finals[a.order]) and (qb in b.finals[b.order]),
        )
        for ta in a.long_forms_from(qa):
            for tb in b.long_forms_from(qb):
                if ta.letter != tb.letter:
                    continue
                branch = frozenset(ma[x] for x in ta.branch) | frozenset(
                    mb[x] for x in tb.branch
                )
                orders = {s.order for s in branch}
                if len(orders) > 1:
                    continue
                targets = tuple(
                    frozenset(ma[x] for x in ta.targets[i])
                    | frozenset(mb[x] for x in tb.targets[i])
                    for i in range(a.order)
                )
                c.add_long_form(LongForm(u, ta.letter, branch, targets))
        out[(qa, qb)] = u
    return c, out
