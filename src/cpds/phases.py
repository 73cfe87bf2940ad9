"""Phase-bounded reachability.

A run of a phase-bounded system splits into at most z segments, each
consuming from a single stack.  A plan guesses the boundary controls and
the per-phase popping stacks; the phases are walked backward from the
target.  One per-stack automaton tracks the possible stack contents at each
phase boundary: the automaton of the popping stack advances by saturating a
product system that models that stack faithfully while tracking, in its
control, one transition-automaton state per other stack; the remaining
automata advance by splicing in a guessed long-form transition whose
admissible values are read off the product solve rather than enumerated
blindly.

The product does not read the control the phase enters at, so its
saturations serve every choice of it.  A verdict walks the plan suffixes
depth-first from the target, so plans sharing a suffix share its frontier
and an empty frontier prunes them all.  A global set walks each plan in
plan order, which fixes the names of the fresh states that reach its
documents; only the first step back, which every plan takes from the same
seed automata, shares its saturations across plans.
"""

from __future__ import annotations

from itertools import product, tee

from . import stacks as ST
from .automata import StackAutomaton, State, accept_all_automaton, flat_key
from .errors import BudgetExceeded, NotSupported
from .extended import ta_predecessors
from .regular import RegTuple, RegularConfigSet
from .saturation import prestar
from .systems import Mcpds, Rule

__all__ = [
    "build_pbcpds",
    "phase_reachability",
    "phase_global",
]

# transitions one phase product's saturation may add, and branches one step
# back may open, before the solve stops
_MAX_PRODUCT_TRANSITIONS = 4000
_MAX_BRANCHES = 512


def _is_product_control(ctl) -> bool:
    """Is ``ctl`` a product control ``(control, ta)``?"""
    return isinstance(ctl, tuple) and len(ctl) == 2 and isinstance(ctl[1], tuple)


class _PbSource:
    """Lazy single-stack rule source for one phase of the product system.

    Controls: the phase's boundary controls plus pairs ``(control, ta)``
    where ``ta`` maps each non-popping stack index to a long-form
    transition over that stack's current automaton.
    """

    extended = False

    def __init__(self, sys: Mcpds, s: int, autos: dict, tprimes: dict, q_cur):
        self.sys = sys
        self.s = s
        self.autos = autos  # stack index -> StackAutomaton (j != s)
        self.tprimes = tprimes  # stack index -> LongForm (j != s)
        self.q_cur = q_cur
        self.rule_count = sum(len(rs) for rs in sys.rule_sets) + 2
        self._into_s = {}
        for r in sys.rule_sets[s]:
            self._into_s.setdefault(r.dst, []).append(r)
        self._into_other = {}
        for j in range(sys.stacks):
            if j == s:
                continue
            for r in sys.rule_sets[j]:
                if r.consuming:
                    continue  # other stacks only generate during the phase
                self._into_other.setdefault(r.dst, []).append((j, r))

    def seed_controls(self):
        return [self.q_cur]

    def _noop_preds(self, q, ta):
        """Simultaneous no-effect moves of all tracked components into ``ta``.

        Every tracked transition of a product control ``(q2, ta)`` is headed
        at its automaton's state for ``q2``, so each component's one
        no-effect predecessor is the transition re-headed at ``q``.
        """
        return tuple((j, t.rehead(self.autos[j].peek_control(q))) for j, t in ta)

    def rules_into(self, dst):
        out = []
        letters = list(self.sys.alphabet)
        if dst == self.q_cur:
            src = (self.q_cur, tuple(sorted(self.tprimes.items())))
            for a in letters:
                out.append(Rule(src, a, ST.noop(), self.q_cur))
            return out
        if not _is_product_control(dst):
            return out
        q2, ta2 = dst
        # rules of the popping stack: apply for real, others move by noop
        for r in self._into_s.get(q2, ()):
            out.append(Rule((r.src, self._noop_preds(r.src, ta2)), r.letter,
                            r.op, dst))
        # generating rules of other stacks: pure control moves
        for (j, r) in self._into_other.get(q2, ()):
            for t1 in ta_predecessors(r, dict(ta2)[j], self.autos[j]):
                rest = tuple((jj, tt) for (jj, tt) in ta2 if jj != j)
                ta1 = self._noop_preds(r.src, rest)
                merged = tuple(sorted(ta1 + ((j, t1),)))
                for a in letters:
                    out.append(Rule((r.src, merged), a, ST.noop(), dst))
        return out


def build_pbcpds(sys: Mcpds, s: int, autos: dict, tprimes: dict, q_cur):
    """The product system for one phase; see :class:`_PbSource`.

    ``autos`` and ``tprimes`` map every non-popping stack index to its
    current automaton and guessed final transition.  Returned as a lazy
    rule source consumable by the saturation engine.
    """
    return _PbSource(sys, s, autos, tprimes, q_cur)


class _PhaseSolver:
    def __init__(self, sys: Mcpds, z: int):
        if not (isinstance(sys.mode, tuple) and sys.mode[0] == "phase"):
            sys = sys.with_mode(("phase", z))
        self.sys = sys
        self.z = z
        self._fresh = 0

    def seed_autos(self, q_last):
        a = accept_all_automaton(self.sys.order, self.sys.alphabet,
                                 self.sys.controls, [q_last])
        return {j: a.copy() for j in range(self.sys.stacks)}

    def _clean_copy(self, aut: StackAutomaton) -> StackAutomaton:
        """Copy with control mappings restricted to the declared controls.

        Product controls of an earlier phase's solve must not leak into the
        next product's rule enumeration.
        """
        a = aut.copy()
        keep = set(self.sys.controls)
        a.controls = {k: v for k, v in a.controls.items() if k in keep}
        return a

    def _fresh_ctl(self, aut: StackAutomaton, control) -> State:
        self._fresh += 1
        s = State(aut.order, ("q", control, ("g", self._fresh)))
        aut.remap_control(control, s)
        return s

    def step_back(self, autos: dict, q_prev, q_cur, s: int):
        """All per-stack automata vectors one phase earlier.

        Yields dictionaries mapping stack index to its new automaton; the
        branching covers the guessed final transitions of the non-popping
        stacks and the admissible entry vectors of the product solve.
        """
        yield from self._entries(autos, self._saturations(autos, q_cur, s),
                                 q_prev, s)

    def _saturations(self, autos: dict, q_cur, s: int):
        """One product saturation per guess of the non-popping stacks' final
        transitions.  The product does not read the previous boundary
        control, so every choice of it can share these."""
        others = [j for j in range(self.sys.stacks) if j != s]
        tprime_options = [autos[j].long_forms_from(autos[j].peek_control(q_cur))
                          for j in others]
        for choice in product(*tprime_options):
            tprimes = dict(zip(others, choice))
            source = build_pbcpds(self.sys, s, autos, tprimes, q_cur)
            base = self._clean_copy(autos[s])
            sat, _ = prestar(source, base, check=False,
                             max_transitions=_MAX_PRODUCT_TRANSITIONS)
            yield sat

    def _entries(self, autos: dict, sats, q_prev, s: int):
        """The vectors entering the phase at ``q_prev``, read off ``sats``."""
        count = 0
        for sat in sats:
            for ta in self._admissible_entries(sat, q_prev):
                count += 1
                if count > _MAX_BRANCHES:
                    raise BudgetExceeded("phase branching budget", count,
                                         "branches", _MAX_BRANCHES)
                new_autos = {}
                # popping stack: re-root on the entry vector's product state
                entry_state = sat.require_control((q_prev, ta))
                spliced = self._clean_copy(sat)
                root = self._fresh_ctl(spliced, q_prev)
                for t in sat.long_forms_from(entry_state):
                    spliced.add_long_form(t.rehead(root))
                new_autos[s] = spliced
                # other stacks: splice the guessed initial transition
                for (j, x) in ta:
                    a2 = self._clean_copy(autos[j])
                    root_j = self._fresh_ctl(a2, q_prev)
                    a2.add_long_form(x.rehead(root_j))
                    new_autos[j] = a2
                yield new_autos

    def _admissible_entries(self, sat: StackAutomaton, q_prev):
        out = []
        for key, state in sat.controls.items():
            if not _is_product_control(key):
                continue
            if key[0] != q_prev:
                continue
            if sat.long_forms_from(state):
                out.append(key[1])
        out.sort(key=flat_key)
        return out

    def reach(self, q_in, q_out) -> bool:
        """Walk the plan suffixes depth-first back from ``q_out``.

        Each level saturates once per frontier element and popping stack,
        then branches on the boundary control the phase enters at, so plans
        sharing a suffix share its frontier and an empty frontier prunes
        every plan extending it.
        """
        m = self.sys.stacks
        bot = ST.bottom(self.sys.order)

        def walk(frontier, i, q_cur):
            for s in range(m):
                sats = [(autos, list(self._saturations(autos, q_cur, s)))
                        for autos in frontier]
                for q_prev in (self.sys.controls if i > 1 else [q_in]):
                    nxt = [new for autos, ss in sats
                           for new in self._entries(autos, ss, q_prev, s)]
                    if i > 1:
                        if nxt and walk(nxt, i - 1, q_prev):
                            return True
                    elif any(all(autos[j].member(q_in, bot) for j in range(m))
                             for autos in nxt):
                        return True
            return False

        return walk([self.seed_autos(q_out)], self.z, q_out)

    def solve(self, q_out) -> RegularConfigSet:
        """Walk every plan back from ``q_out``; collect the entry tuples.

        The first step back of every plan leaves the seed automata at
        ``q_out``, so its saturations depend on the popping stack alone;
        each is filled lazily, as the first plan popping that stack reads
        it, and replayed for every later one.
        """
        m = self.sys.stacks
        results = RegularConfigSet(self.sys.order, m)
        seed = self.seed_autos(q_out)
        seed_sats = {}
        for bounds, pops in self._plans(q_out):
            s = pops[-1]
            if s not in seed_sats:
                seed_sats[s] = self._saturations(seed, q_out, s)
            seed_sats[s], sats = tee(seed_sats[s])
            frontier = list(self._entries(seed, sats, bounds[-2], s))
            for i in range(self.z - 1, 0, -1):
                if not frontier:
                    break
                q_prev, q_cur = bounds[i - 1], bounds[i]
                s = pops[i - 1]
                frontier = [new for autos in frontier
                            for new in self.step_back(autos, q_prev, q_cur, s)]
            q0 = bounds[0]
            for autos in frontier:
                results.add(RegTuple(
                    q0,
                    tuple(autos[j] for j in range(m)),
                    tuple(autos[j].require_control(q0) for j in range(m)),
                ))
        return results

    def _plans(self, q_out):
        """Each plan: boundary controls q^0..q^z, popping stacks s_1..s_z."""
        controls = list(self.sys.controls)
        for q0 in controls:
            for mids in product(controls, repeat=self.z - 1):
                bounds = (q0,) + mids + (q_out,)
                for pops in product(range(self.sys.stacks), repeat=self.z):
                    yield bounds, pops


def phase_reachability(sys: Mcpds, z: int, q_in, q_out) -> bool:
    """Is ``q_out`` reachable from the all-empty configuration at ``q_in``
    within ``z`` phases?"""
    if q_in == q_out:
        return True
    if z < 1:
        return False
    return _PhaseSolver(sys, z).reach(q_in, q_out)


def phase_global(sys: Mcpds, z: int, q_out) -> RegularConfigSet:
    """Tuples covering every configuration reaching ``q_out`` in <= z phases."""
    if z < 1:
        raise NotSupported(f"the phase solver needs a bound of at least 1, "
                           f"got {z}")
    return _PhaseSolver(sys, z).solve(q_out)
