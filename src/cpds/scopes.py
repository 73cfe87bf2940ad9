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
tuples of boundary controls and per-stack layered automata, its vertices
deduplicated by a canonical renaming of the automata, is walked as one
breadth-first vertex stream: verdicts, global sets and the DOT graph all
read it, and only global sets surface the automata.  Stack j's new round
depends only on the control opening its next segment, and it is admissible
when it accepts some stack at its own opening control, so a vertex's
predecessors are enumerated as admissible control chains, last stack
first, building only the rounds that some admissible suffix needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import stacks as ST
from .automata import LongForm, StackAutomaton, State, copy_into, flat_key
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
    "ReachVertex",
]

# vertices the reachability graph may hold, and transitions one round's
# saturation may add
_MAX_VERTICES = 4000
_MAX_TRANSITIONS = 40000


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
    """The shifted image of ``a``, built pruned in one copy."""
    n = a.order
    image = {}
    for k in range(1, n + 1):
        for s in a.states[k]:
            layer = a.layers.get(s)
            if layer is None or layer >= window:
                continue
            if s.order < n:
                image[s] = s
            else:  # a layered control state ("q", control, layer)
                # a's own state of the next layer comes with its keys cached
                up = a.layer_controls.get((s.name[1], layer + 1))
                image[s] = up if up is not None else State(
                    n, s.name[:2] + (layer + 1,))
    active = a.active_states(image)
    out = StackAutomaton(n, a.alphabet)
    mapped = copy_into(out, a, lambda s: image[s] if s in active else None,
                       lift=1)
    for (control, layer), s in a.layer_controls.items():
        if layer < window and s in mapped:
            out.remap_control(control, mapped[s], layer + 1)
    out._fresh = a._fresh
    return out


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


def saturate_layer(j: int, sys: Mcpds, a: StackAutomaton) -> StackAutomaton:
    """Saturate with stack j's rules against the layer-1 control states.

    ``prestar`` registers those states on its own copy; ``a`` is unchanged.
    """
    sat, _ = prestar(ExplicitRules(sys.rule_sets[j], (), sys.controls), a,
                     layer=1, check=False, max_transitions=_MAX_TRANSITIONS)
    return sat


def predecessor(j: int, sys: Mcpds, a: StackAutomaton, window: int,
                control_end, control_next) -> StackAutomaton:
    """Prepend one round for stack j: shift, bridge, then saturate.

    ``control_end`` is the control closing stack j's segment in the new
    round; ``control_next`` opens its segment in the following round.
    ``window`` is the retained layer count (scope bound plus one).
    """
    return saturate_layer(
        j, sys, envmove(shift(a, window), control_end, control_next))


def surface(a: StackAutomaton, window: int) -> StackAutomaton:
    """Drop transitions touching the deepest layer.

    Material of a run's first configuration carries pop-round zero, so a
    pop separated by more than the scope bound from the run's start is
    inadmissible; the deepest layer serves only the saturation of the round
    being prepended and must not appear in accepting runs of path-initial
    stacks.
    """
    out = StackAutomaton(a.order, a.alphabet)
    kept = copy_into(out, a, lambda s: s if a.layers.get(s, 1) < window else None)
    out.controls = dict(a.controls)
    out.layer_controls = {k: v for k, v in a.layer_controls.items() if v in kept}
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


def _chains(controls, q_last, stacks: int, component):
    """The admissible vertices ``q_0 .. q_m`` with ``q_m = q_last``.

    ``component(j, q_next)`` is stack j's automaton when ``q_next`` opens
    its following segment; it admits ``q_j`` when it accepts some stack at
    the layer-1 state of ``q_j``.  The chains are built from the last stack
    back to the first: stack j's component is built only for the controls
    that open an admissible suffix, and asked once per control whether it
    admits it.  The vertices come in the lexicographic order of
    ``controls^m x {q_last}``, ``q_0`` outermost.
    """
    # the admissible (q_j .. q_m, A_j .. A_m-1) by q_j, all in order
    suffixes = {q_last: [((q_last,), ())]}
    for j in range(stacks - 1, -1, -1):
        longer = {}
        for q_next, tails in suffixes.items():
            a = component(j, q_next)
            for q in controls:
                if a.nonempty([a.require_control(q, 1)]):
                    longer.setdefault(q, []).extend(
                        ((q,) + qs, (a,) + autos) for qs, autos in tails)
        suffixes = {q: longer[q] for q in controls if q in longer}
    return [ReachVertex(qs, autos)
            for tails in suffixes.values() for qs, autos in tails]


def initial_vertices(sys: Mcpds, zeta: int, q_out):
    """Vertices modelling a run's final round, ending at ``q_out``."""
    window = zeta + 1
    return _chains(sys.controls, q_out, sys.stacks,
                   lambda j, q_next: saturate_layer(
                       j, sys, layered_seed(sys, window, q_next)))


class _Graph:
    def __init__(self, sys: Mcpds, zeta: int):
        if zeta < 1:
            raise NotSupported("the scope solver needs a bound of at least 1; "
                               "only the run validator handles a zero bound")
        self.sys = sys
        self.zeta = zeta
        self.window = zeta + 1
        self.bound = sbmax(zeta, len(sys.controls), sys.order)
        self.pred_memo = {}
        self.edges = []  # (predecessor key, vertex key), as the walk admits them

    def predecessors(self, v: ReachVertex):
        """Source vertices of edges into ``v`` (one round earlier).

        Stack j's new round depends only on the control opening its next
        segment, so the candidates are built as chains, last stack first.
        """
        def component(j, q_next):
            key = (j, v.autos[j].uid, v.autos[j].revision, q_next,
                   v.controls[j])
            aut = self.pred_memo.get(key)
            if aut is None:
                aut = predecessor(j, self.sys, v.autos[j], self.window,
                                  q_next, v.controls[j])
                self.pred_memo[key] = aut
            if aut.state_count() > self.bound:
                raise VertexBudgetExceeded(
                    "layered-automaton state ceiling", aut.state_count(),
                    "states", self.bound)
            return aut

        return _chains(self.sys.controls, v.controls[0], self.sys.stacks,
                       component)

    def vertices(self, q_out):
        """The graph's vertices into ``q_out``, breadth first.

        Each vertex is yielded before its predecessors are computed, so a
        consumer that stops early builds no more of the graph.  Every
        predecessor found is recorded in ``edges``.
        """
        seen = set()
        queue = []
        for v in initial_vertices(self.sys, self.zeta, q_out):
            k = v.key()
            if k not in seen:
                seen.add(k)
                queue.append((k, v))
        # the queue grows while it is walked
        for k, v in queue:
            yield v
            for p in self.predecessors(v):
                pk = p.key()
                self.edges.append((pk, k))
                if pk in seen:
                    continue
                if len(seen) >= _MAX_VERTICES:
                    raise VertexBudgetExceeded(
                        "reachability graph budget", len(seen) + 1,
                        "vertices", _MAX_VERTICES)
                seen.add(pk)
                queue.append((pk, p))


def _accepts_empty(v: ReachVertex, q_in) -> bool:
    """Does ``v`` accept the all-empty configuration at ``q_in``?

    The automata are read as they are, not surfaced.  A run accepting the
    empty stack from a layer-1 control state visits only chain labels,
    which carry their head's layer, and empty target sets, since layered
    automata have no final states.  ``surface`` keeps every layer below
    the window (at least 2), so it would keep the whole run.
    """
    bot = ST.bottom(v.autos[0].order)
    return v.controls[0] == q_in and all(
        a.member(q, bot, layer=1) for q, a in zip(v.controls, v.autos))


def scope_reachability(sys: Mcpds, zeta: int, q_in, q_out) -> bool:
    """Is ``q_out`` reachable from all-empty at ``q_in`` under scope zeta?"""
    if q_in == q_out:
        return True
    g = _Graph(sys, zeta)
    return any(_accepts_empty(v, q_in) for v in g.vertices(q_out))


def reachability_graph_dot(sys: Mcpds, zeta: int, q_out) -> str:
    """DOT rendering of the explored reachability graph."""
    g = _Graph(sys, zeta)
    vertices = list(g.vertices(q_out))
    index = {v.key(): i for i, v in enumerate(vertices)}
    lines = ["digraph scope_reachability {", "  rankdir=LR;"]
    for i, v in enumerate(vertices):
        label = " ".join(str(c) for c in v.controls)
        lines.append(f'  v{i} [shape=box label="{label}"];')
    for pk, k in g.edges:
        lines.append(f"  v{index[pk]} -> v{index[k]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def scope_global(sys: Mcpds, zeta: int, q_out) -> RegularConfigSet:
    """Tuples covering the configurations with a scope-bounded run to ``q_out``.

    Every reached vertex contributes the tuple of its automata, each
    surfaced (once per distinct automaton) and restricted to the layer-1
    state of its segment-opening control.
    """
    g = _Graph(sys, zeta)
    out = RegularConfigSet(sys.order, sys.stacks)
    surfaced = {}
    for v in g.vertices(q_out):
        autos = []
        for a in v.autos:
            key = (a.uid, a.revision)
            if key not in surfaced:
                surfaced[key] = surface(a, g.window)
            autos.append(surfaced[key])
        inits = [s.require_control(q, 1) for q, s in zip(v.controls, autos)]
        out.add(RegTuple(v.controls[0], tuple(autos), tuple(inits)))
    return out
