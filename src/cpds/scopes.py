"""Scope-bounded reachability.

Runs are round-partitionable (one context per stack per round, in stack
order) and may only pop or collapse material created at most zeta rounds
earlier.  The solver is a backward analysis over *layered* automata: the
top-order states carry a layer 1..zeta recording in how many rounds the
material read through them is removed.  One round is prepended by the
predecessor pipeline

    saturate_j( envmove( shift(A), q^1, q'^2 ) )

where shift moves every layer up by one and deletes whatever would leave
the window, envmove bridges the control change effected by the other
stacks between the two rounds, and the saturation runs the stack's own
rules against the layer-1 states.  A finite reachability graph over
tuples of boundary controls and per-stack layered automata then decides
reachability; its vertices are deduplicated by a canonical renaming of
the automata.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import stacks as ST
from .automata import LongForm, StackAutomaton, State, flat_key
from .errors import NotSupported, VertexBudgetExceeded
from .regular import RegTuple, RegularConfigSet
from .saturation import ExplicitRules, prestar
from .systems import Mcpds

__all__ = [
    "shift",
    "envmove",
    "saturate_layer",
    "predecessor",
    "initial_vertices",
    "scope_reachability",
    "scope_global",
    "sbmax",
    "layered_seed",
    "ScopeLimits",
    "ReachVertex",
]


@dataclass
class ScopeLimits:
    max_vertices: int = 4000
    max_transitions: int = 40000


def sbmax(zeta: int, controls: int, order: int, clamp: int = 10 ** 9) -> int:
    """Generous ceiling on layered-automaton states, tower-shaped.

    Follows the counting argument: c = zeta * |Q| top-order states, then at
    most c * (c + 1) at the next order (each top state has one transition
    per possible singleton-or-empty target set), then an exponential per
    further level; summed over levels with margin.
    """
    c = max((zeta + 1) * controls, 1)
    sizes = [c]
    cur = c * (c + 1)
    for _ in range(order - 1):
        sizes.append(min(cur, clamp))
        cur = min(cur * (2 ** min(cur, 40) + 1), clamp)
    return min(sum(sizes) + 8, clamp)


def layered_seed(sys: Mcpds, window: int, accept_control) -> StackAutomaton:
    """Layered automaton accepting every ``(accept_control, w)`` at layer 1.

    ``window`` is the number of layers kept (scope bound plus one: material
    popped exactly zeta rounds after creation must survive zeta shifts).
    All final sets stay empty throughout the pipeline; acceptance of
    arbitrary stacks is encoded with explicit transitions, so only stacks
    with a defined top character are accepted (all reachable ones are).
    """
    a = StackAutomaton(sys.order, sys.alphabet)
    for q in sys.controls:
        for layer in range(1, window + 1):
            a.control_state(q, layer)
    src = a.control_state(accept_control, 1)
    empty = (frozenset(),) * sys.order
    for letter in sorted(a.alphabet):
        a.add_long_form(LongForm(src, letter, frozenset(), empty))
    return a


def shift(a: StackAutomaton, window: int) -> StackAutomaton:
    """Move every layer up by one; drop whatever touches the last layer.

    Top-order states are renamed to their next layer; lower-order states
    keep their identity but inherit the shifted layer of their chains.
    Transitions from, into, or labelled by deleted states disappear.
    Cached on ``a`` per revision and window; a cached result is returned
    only while its own revision is the one it was built with.
    """
    cached = getattr(a, "_shift_cache", None)
    if cached is None or cached[0] != a.revision:
        cached = a._shift_cache = (a.revision, {})
    hit = cached[1].get(window)
    if hit is not None and hit[0].revision == hit[1]:
        return hit[0]
    out = _shift(a, window)
    cached[1][window] = (out, out.revision)
    return out


def _shift(a: StackAutomaton, window: int) -> StackAutomaton:
    out = StackAutomaton(a.order, a.alphabet)
    n = a.order

    def shift_state(s: State):
        layer = a.layers.get(s)
        if layer is None or layer >= window:
            return None
        if s.order == n:
            renamed = State(n, s.name[:2] + (layer + 1,) + s.name[3:]) \
                if _is_layer_name(s) else State(n, ("sh", s.name, layer + 1))
            return renamed
        return s

    mapped = {}
    for k in range(1, n + 1):
        for s in a.states[k]:
            t = shift_state(s)
            if t is not None:
                mapped[s] = t

    def reg(s: State) -> State:
        t = mapped[s]
        out.add_state(t, layer=a.layers.get(s, 0) + 1)
        return t

    # register only what surviving transitions or mappings actually use,
    # so unreferenced states do not pile up across rounds
    for k in range(2, n + 1):
        for (src, targets), label in a.delta_high[k].items():
            if src not in mapped or label not in mapped:
                continue
            if any(t not in mapped for t in targets):
                continue
            out.add_high_transition(
                reg(src), [reg(t) for t in targets], label=reg(label)
            )
    for src, slots in a.delta1.items():
        if src not in mapped:
            continue
        for (letter, branch, targets) in slots:
            if any(x not in mapped for x in branch | targets):
                continue
            out.add_delta1(
                reg(src), letter,
                [reg(b) for b in branch], [reg(t) for t in targets],
            )
    for (control, layer), s in a.layer_controls.items():
        if layer < window and s in mapped:
            out.remap_control(control, reg(s), layer + 1)
    out._fresh = a._fresh
    return out.pruned()


def _is_layer_name(s: State) -> bool:
    return (
        len(s.name) >= 3
        and s.name[0] == "q"
        and isinstance(s.name[2], int)
    )


def envmove(a: StackAutomaton, control_from, control_to) -> StackAutomaton:
    """Bridge the other stacks' control change between two rounds.

    For every long-form transition of the layer-2 state of ``control_to``,
    add the identically shaped transition from the layer-1 state of
    ``control_from`` (the shape a rewrite-to-itself rule would copy).
    """
    out = a.copy()
    src = out.add_state(out.control_state(control_from, 1), layer=1)
    if not a.has_control(control_to, 2):
        return out
    head = a.require_control(control_to, 2)
    for t in a.long_forms_from(head):
        out.add_long_form(t.rehead(src))
    return out


def saturate_layer(j: int, sys: Mcpds, a: StackAutomaton,
                   max_transitions: int | None = None) -> StackAutomaton:
    """Saturate with stack j's rules against the layer-1 control states."""
    for q in sys.controls:
        a.control_state(q, 1)
    sat, _ = prestar(ExplicitRules(sys.rule_sets[j], (), sys.controls), a,
                     layer=1, check=False, max_transitions=max_transitions)
    return sat


def predecessor(j: int, sys: Mcpds, a: StackAutomaton, window: int,
                control_end, control_next,
                max_transitions: int | None = None) -> StackAutomaton:
    """Prepend one round for stack j: shift, bridge, then saturate.

    ``control_end`` is the control closing stack j's segment in the new
    round; ``control_next`` opens its segment in the following round.
    ``window`` is the retained layer count (scope bound plus one).
    """
    return saturate_layer(
        j, sys, envmove(shift(a, window), control_end, control_next),
        max_transitions,
    )


def surface(a: StackAutomaton, window: int) -> StackAutomaton:
    """Drop transitions touching the deepest layer.

    Material of a run's first configuration carries pop-round zero, so a
    pop separated by more than the scope bound from the run's start is
    inadmissible; the deepest layer serves only the saturation of the round
    being prepended and must not appear in accepting runs of path-initial
    stacks.
    """
    out = StackAutomaton(a.order, a.alphabet)

    def deep(s: State) -> bool:
        return a.layers.get(s, 1) >= window

    for k in range(1, a.order + 1):
        for s in a.states[k]:
            if not deep(s):
                out.add_state(s, final=s in a.finals[k], layer=a.layers.get(s))
    for k in range(2, a.order + 1):
        for (src, targets), label in a.delta_high[k].items():
            if deep(src) or deep(label) or any(deep(t) for t in targets):
                continue
            out.add_high_transition(src, targets, label=label)
    for src, slots in a.delta1.items():
        if deep(src):
            continue
        for (letter, branch, targets) in slots:
            if any(deep(x) for x in branch | targets):
                continue
            out.add_delta1(src, letter, branch, targets)
    out.controls = dict(a.controls)
    out.layer_controls = {
        k: v for k, v in a.layer_controls.items() if not deep(v)
    }
    for s in out.layer_controls.values():
        out.add_state(s, layer=a.layers.get(s))
    out._fresh = a._fresh
    return out


@dataclass(frozen=True)
class ReachVertex:
    """Boundary controls interleaved with per-stack layered automata."""

    controls: tuple  # q_0 .. q_m
    autos: tuple     # A_1 .. A_m

    def key(self):
        return (
            tuple(flat_key(c) for c in self.controls),
            tuple(a.canonical_key() for a in self.autos),
        )


def _admissible(vertex: ReachVertex) -> bool:
    """Each automaton accepts some stack at its segment-opening state."""
    for i, a in enumerate(vertex.autos):
        q = vertex.controls[i]
        if not a.has_control(q, 1):
            return False
        if not a.nonempty([a.require_control(q, 1)]):
            return False
    return True


def initial_vertices(sys: Mcpds, zeta: int, q_out,
                     limits: ScopeLimits | None = None):
    """Vertices modelling a run's final round, ending at ``q_out``."""
    limits = limits or ScopeLimits()
    window = zeta + 1
    m = sys.stacks
    sat_memo = {}

    def saturated(j, q_end):
        key = (j, q_end)
        if key not in sat_memo:
            sat_memo[key] = saturate_layer(
                j, sys, layered_seed(sys, window, q_end), limits.max_transitions
            )
        return sat_memo[key]

    out = []
    for qs in product(*[sys.controls] * m, [q_out]):
        autos = tuple(saturated(j, qs[j + 1]) for j in range(m))
        v = ReachVertex(qs, autos)
        if _admissible(v):
            out.append(v)
    return out


class _Graph:
    def __init__(self, sys: Mcpds, zeta: int, limits: ScopeLimits):
        self.sys = sys
        self.zeta = zeta
        self.window = zeta + 1
        self.limits = limits
        self.bound = sbmax(zeta, len(sys.controls), sys.order)
        self.pred_memo = {}
        self.stats = {"vertices": 0, "edges": 0}

    def predecessors(self, v: ReachVertex):
        """Source vertices of edges into ``v`` (one round earlier)."""
        m = self.sys.stacks
        for qs in product(*[self.sys.controls] * m, [v.controls[0]]):
            autos = []
            for j in range(m):
                key = (v.autos[j].uid, v.autos[j].revision, qs[j + 1],
                       v.controls[j])
                aut = self.pred_memo.get(key)
                if aut is None:
                    aut = predecessor(j, self.sys, v.autos[j], self.window,
                                      qs[j + 1], v.controls[j],
                                      self.limits.max_transitions)
                    self.pred_memo[key] = aut
                if aut.state_count() > self.bound:
                    raise VertexBudgetExceeded(
                        f"layered-automaton state ceiling exceeded: "
                        f"{aut.state_count()} states, limit {self.bound}"
                    )
                autos.append(aut)
            cand = ReachVertex(qs, tuple(autos))
            if _admissible(cand):
                yield cand

    def search(self, q_in, q_out, want_global: bool):
        seen = {}
        frontier = []
        hit = False
        results = []
        for v in initial_vertices(self.sys, self.zeta, q_out, self.limits):
            k = v.key()
            if k not in seen:
                seen[k] = v
                frontier.append(v)
        while frontier:
            nxt = []
            for v in frontier:
                if self._accepts_empty(v, q_in):
                    hit = True
                    if not want_global:
                        return True, results
                if want_global:
                    results.append(v)
                for p in self.predecessors(v):
                    k = p.key()
                    if k in seen:
                        continue
                    if len(seen) >= self.limits.max_vertices:
                        raise VertexBudgetExceeded(
                            f"reachability graph budget exceeded: "
                            f"{len(seen) + 1} vertices, "
                            f"limit {self.limits.max_vertices}"
                        )
                    seen[k] = p
                    nxt.append(p)
            frontier = nxt
        self.stats["vertices"] = len(seen)
        return hit, results

    def _accepts_empty(self, v: ReachVertex, q_in) -> bool:
        if q_in is not None and v.controls[0] != q_in:
            return False
        bot = ST.bottom(self.sys.order)
        for i, a in enumerate(v.autos):
            s = surface(a, self.window)
            if not (s.has_control(v.controls[i], 1)
                    and s.member(v.controls[i], bot, layer=1)):
                return False
        return True


def scope_reachability(sys: Mcpds, zeta: int, q_in, q_out,
                       limits: ScopeLimits | None = None) -> bool:
    """Is ``q_out`` reachable from all-empty at ``q_in`` under scope zeta?"""
    if q_in == q_out:
        return True
    if zeta < 1:
        raise NotSupported("the scope solver needs a bound of at least 1; "
                           "only the run validator handles a zero bound")
    g = _Graph(sys, zeta, limits or ScopeLimits())
    hit, _ = g.search(q_in, q_out, want_global=False)
    return hit


def reachability_graph_dot(sys: Mcpds, zeta: int, q_out,
                           limits: ScopeLimits | None = None) -> str:
    """DOT rendering of the explored reachability graph."""
    g = _Graph(sys, zeta, limits or ScopeLimits())
    _, vertices = g.search(None, q_out, want_global=True)
    index = {v.key(): i for i, v in enumerate(vertices)}
    lines = ["digraph scope_reachability {", "  rankdir=LR;"]
    for i, v in enumerate(vertices):
        label = " ".join(str(c) for c in v.controls)
        lines.append(f'  v{i} [shape=box label="{label}"];')
    for v in vertices:
        for p in g.predecessors(v):
            j = index.get(p.key())
            if j is not None:
                lines.append(f"  v{j} -> v{index[v.key()]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def scope_global(sys: Mcpds, zeta: int, q_out,
                 limits: ScopeLimits | None = None) -> RegularConfigSet:
    """Tuples covering the configurations with a scope-bounded run to ``q_out``.

    Every reached vertex contributes the tuple of its automata, each
    restricted to the layer-1 state of its segment-opening control.
    """
    g = _Graph(sys, zeta, limits or ScopeLimits())
    _, vertices = g.search(None, q_out, want_global=True)
    out = RegularConfigSet(sys.order, sys.stacks)
    for v in vertices:
        autos = []
        inits = []
        ok = True
        for i, a in enumerate(v.autos):
            s = surface(a, g.window)
            if not s.has_control(v.controls[i], 1):
                ok = False
                break
            autos.append(s)
            inits.append(s.require_control(v.controls[i], 1))
        if ok:
            out.add(RegTuple(v.controls[0], tuple(autos), tuple(inits)))
    return out
