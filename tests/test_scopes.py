import hashlib
from itertools import product

import pytest

import cpds.scopes
from cpds import (
    Configuration,
    LongForm,
    Mcpds,
    NotSupported,
    Rule,
    StackAutomaton,
    State,
    VertexBudgetExceeded,
    bottom,
    envmove,
    initial_vertices,
    predecessor,
    sbmax,
    scope_global,
    scope_reachability,
    shift,
)
from cpds.oracle import (
    ExploreBounds,
    RandomProfile,
    control_reachability_oracle,
    enumerate_stacks,
    explore,
    gen_random_system,
)
from cpds.automata import copy_into
from cpds.scopes import layered_seed, reachability_graph_dot, saturate_layer, surface

from conftest import ask_in_shuffled_order, fix_sc, three_stack


WINDOW = 3  # scope bound 2 keeps three layers


def test_layered_seed_accepts_everything_at_layer1():
    sysd = fix_sc()
    a = layered_seed(sysd, WINDOW, "c5")
    for w in enumerate_stacks(2, sysd.alphabet, 6)[:30]:
        assert a.member("c5", w, layer=1)
        assert not a.member("c0", w, layer=1)
    a.check_invariants(layered=True)


def test_shift_renames_and_deletes():
    sysd = fix_sc()
    a = layered_seed(sysd, WINDOW, "c5")
    s1 = shift(a, WINDOW)
    # layer-1 content moved to layer 2
    for w in enumerate_stacks(2, sysd.alphabet, 5)[:10]:
        assert s1.member("c5", w, layer=2)
    assert not any(l == 1 for (_c, l) in s1.layer_controls)
    # shifting out of the window deletes everything
    s_all = a
    for _ in range(WINDOW):
        s_all = shift(s_all, WINDOW)
    assert s_all.transition_count() == 0
    s1.check_invariants(layered=True)


def test_envmove_is_a_head_copy_and_idempotent():
    sysd = fix_sc()
    a = shift(layered_seed(sysd, WINDOW, "c5"), WINDOW)
    b = envmove(a, "c4", "c5")
    head = b.require_control("c4", 1)
    lfs = b.long_forms_from(head)
    assert lfs and all(t.head == head for t in lfs)
    src_lfs = a.long_forms_from(a.require_control("c5", 2))
    assert {t.rehead(head).key for t in src_lfs} == {t.key for t in lfs}
    c = envmove(b, "c4", "c5")
    assert c.canonical_key() == b.canonical_key()
    # no source transitions: identity on languages
    d = envmove(a, "c0", "c1")
    assert not d.long_forms_from(d.require_control("c0", 1))


def test_saturate_layer_empty_rules_is_identity_on_lfs():
    sysd = Mcpds(2, {"a"}, ["x"], [[], []], ("scope", 1))
    a = layered_seed(sysd, 2, "x")
    before = a.canonical_key()
    out = saturate_layer(1, sysd, a.copy())
    assert out.canonical_key() == before


def test_predecessor_composition_matches_hand_expansion():
    sysd = fix_sc()
    a = layered_seed(sysd, WINDOW, "c5")
    sat = saturate_layer(0, sysd, a.copy())
    byhand = saturate_layer(0, sysd, envmove(shift(sat, WINDOW), "c2", "c4"))
    viaop = predecessor(0, sysd, sat, WINDOW, "c2", "c4")
    assert byhand.canonical_key() == viaop.canonical_key()
    byhand.check_invariants(layered=True)


def test_shift_is_cached_per_revision():
    sysd = fix_sc()
    a = saturate_layer(0, sysd, layered_seed(sysd, WINDOW, "c5"))
    first = shift(a, WINDOW)
    assert shift(a, WINDOW) is first
    assert first.canonical_key() == shift(a.copy(), WINDOW).canonical_key()
    # a caller writing into the result does not leak into the next call
    first.add_long_form(LongForm(first.control_state("c0", 1), "a",
                                 frozenset(), (frozenset(), frozenset())))
    again = shift(a, WINDOW)
    assert again is not first
    assert again.canonical_key() == shift(a.copy(), WINDOW).canonical_key()
    assert again.canonical_key() != first.canonical_key()
    # a new revision of the input is shifted afresh
    a.add_long_form(LongForm(a.control_state("c1", 1), "b",
                             frozenset(), (frozenset(), frozenset())))
    assert shift(a, WINDOW).canonical_key() == shift(a.copy(), WINDOW).canonical_key()
    assert shift(a, WINDOW).canonical_key() != again.canonical_key()


def shift_image(a, window):
    """The rename's image of ``a`` under the shift, before any pruning."""
    n = a.order

    def rename(s):
        layer = a.layers.get(s)
        if layer is None or layer >= window:
            return None
        if s.order < n:
            return s
        if len(s.name) >= 3 and s.name[0] == "q" and isinstance(s.name[2], int):
            return State(n, s.name[:2] + (layer + 1,) + s.name[3:])
        return State(n, ("sh", s.name, layer + 1))

    out = StackAutomaton(n, a.alphabet)
    mapped = copy_into(out, a, rename, lift=1)
    for (control, layer), s in a.layer_controls.items():
        if layer < window and s in mapped:
            out.remap_control(control, mapped[s], layer + 1)
    out._fresh = a._fresh
    return out


def layout(a):
    """Everything of ``a`` with its insertion orders."""
    return ([list(a.states[k]) for k in a.states],
            [list(a.finals[k]) for k in a.finals],
            [list(a.delta_high[k].items()) for k in a.delta_high],
            [(s, list(slots)) for s, slots in a.delta1.items()],
            list(a.controls.items()), list(a.layer_controls.items()),
            list(a.layers.items()), a._fresh)


def test_shift_builds_the_pruned_image_in_one_copy(monkeypatch):
    inputs = []
    real = cpds.scopes._shift

    def record(a, window):
        inputs.append((a.copy(), window))
        return real(a, window)

    monkeypatch.setattr(cpds.scopes, "_shift", record)
    scope_reachability(fix_sc(), 2, "c0", "c5")
    prof = RandomProfile(order=2, controls=3, letters=2, stacks=2, rules=6)
    for seed in (1, 2):
        sysd = gen_random_system(seed, prof)
        scope_global(sysd, 2, sysd.controls[-1])
    assert len(inputs) >= 40
    pruned_away = 0
    for a, window in inputs:
        got, image = real(a, window), shift_image(a, window)
        assert layout(got) == layout(image.pruned())
        pruned_away += image.state_count() - got.state_count()
    assert pruned_away > 0


def test_nonempty_on_layered_automata_does_not_depend_on_query_order():
    sysd = fix_sc()
    autos = [a for v in initial_vertices(sysd, 2, "c5") for a in v.autos][:4]
    autos += [predecessor(j, sysd, a, WINDOW, q_end, q_next)
              for j, a in enumerate(autos[:2])
              for q_end, q_next in (("c2", "c4"), ("c1", "c2"), ("c3", "c3"))]
    totals = [0, 0]
    for seed, a in enumerate(autos):
        for i, n in enumerate(ask_in_shuffled_order(a, seed)):
            totals[i] += n
    assert all(totals), totals


def test_initial_vertices_admissibility():
    sysd = fix_sc()
    vs = initial_vertices(sysd, 2, "c5")
    assert vs
    for v in vs:
        assert v.controls[-1] == "c5"
        for i, a in enumerate(v.autos):
            assert a.nonempty([a.require_control(v.controls[i], 1)])
    # a control with no incoming rules cannot close the final segment
    assert not any(v.controls[0] == "c5" and v.controls[1] == "c0" for v in vs)


def test_fix_sc_threshold():
    sysd = fix_sc()
    assert scope_reachability(sysd, 1, "c0", "c5") is False
    assert scope_reachability(sysd, 2, "c0", "c5") is True
    assert scope_reachability(sysd, 3, "c0", "c5") is True


def test_scope_random_differential_and_monotone():
    decided = 0
    for seed in range(10):
        prof = RandomProfile(order=2, controls=3, letters=2, stacks=2,
                             rules=6, mode="unrestricted")
        sysd = gen_random_system(seed, prof)
        q_in, q_out = sysd.controls[0], sysd.controls[-1]
        prev = False
        for zeta in (1, 2, 3):
            v = control_reachability_oracle(
                sysd.with_mode(("scope", zeta)), q_in, q_out,
                ExploreBounds(40, 60, 30000),
            )
            if v.kind == "unreachable-within-bounds":
                continue
            got = scope_reachability(sysd, zeta, q_in, q_out)
            assert got == v.definitely_reachable, (seed, zeta)
            assert not (prev and not got), (seed, zeta, "monotonicity")
            prev = got
            decided += 1
    assert decided >= 24


def test_scope_global_membership():
    sysd = fix_sc()
    gset = scope_global(sysd, 2, "c5")
    bot = bottom(2)
    assert gset.member(Configuration("c0", (bot, bot)))
    pool = enumerate_stacks(2, {"a", "b"}, 6)
    for q in sysd.controls:
        for w1 in pool[:10]:
            for w2 in pool[:10]:
                cfg = Configuration(q, (w1, w2))
                res = explore(sysd.with_mode(("scope", 2)), cfg,
                              ExploreBounds(30, 50, 8000))
                if not res.closed:
                    continue
                assert gset.member(cfg) == res.reachable("c5"), cfg


def test_layering_preserved_along_pipeline():
    sysd = fix_sc()
    vs = initial_vertices(sysd, 2, "c5")
    v = vs[0]
    for i, a in enumerate(v.autos):
        a.check_invariants(layered=True)
        p = predecessor(i, sysd, a, WINDOW, "c3", v.controls[i])
        p.check_invariants(layered=True)
        surface(p, WINDOW).check_invariants(layered=True)


def test_sbmax_shape_and_ceiling():
    assert sbmax(1, 1, 2) >= 1
    c = (2 + 1) * 3
    assert sbmax(2, 3, 2) >= c + c * (c + 1)
    sysd = fix_sc()
    bound = sbmax(2, len(sysd.controls), 2)
    for v in initial_vertices(sysd, 2, "c5"):
        for a in v.autos:
            assert a.state_count() <= bound
            p = predecessor(0, sysd, a, WINDOW, "c1", "c2")
            assert p.state_count() <= bound


def test_scope_bound_zero_is_not_supported():
    sysd = fix_sc().with_mode(("scope", 0))
    assert scope_reachability(sysd, 0, "c5", "c5") is True  # the empty run
    with pytest.raises(NotSupported):
        scope_reachability(sysd, 0, "c0", "c5")
    with pytest.raises(NotSupported):
        scope_global(sysd, 0, "c5")
    with pytest.raises(NotSupported):
        reachability_graph_dot(sysd, 0, "c5")


def test_vertex_budget_names_limit_and_count(monkeypatch):
    monkeypatch.setattr(cpds.scopes, "_MAX_VERTICES", 3)
    with pytest.raises(VertexBudgetExceeded,
                       match=r"graph budget exceeded: 4 vertices, limit 3") as e:
        scope_global(fix_sc(), 2, "c5")
    assert (e.value.count, e.value.limit) == (4, 3)


def test_state_ceiling_names_limit_and_count(monkeypatch):
    monkeypatch.setattr(cpds.scopes, "sbmax", lambda *args: 1)
    with pytest.raises(VertexBudgetExceeded,
                       match=r"^layered-automaton state ceiling exceeded: "
                             r"\d+ states, limit 1$") as e:
        scope_global(fix_sc(), 2, "c5")
    assert e.value.limit == 1 and e.value.count > 1
    assert f": {e.value.count} states," in str(e.value)


def test_reachability_graph_dot():
    dot = reachability_graph_dot(fix_sc(), 2, "c5")
    assert dot.startswith("digraph") and "->" in dot


def vertex_automata(sysd, zeta, q_out):
    """Each distinct automaton of the graph's vertices into ``q_out``."""
    autos = {}
    for v in cpds.scopes._Graph(sysd, zeta).vertices(q_out):
        for a in v.autos:
            autos.setdefault((a.uid, a.revision), a)
    return list(autos.values())


def test_verdicts_need_no_surface():
    # the argument of _accepts_empty: no finals, labels on their head's
    # layer, so an accepting run of the empty stack stays below the window
    prof = RandomProfile(order=2, controls=3, letters=2, stacks=2, rules=6,
                         mode="unrestricted")
    systems = [(fix_sc(), "c5")]
    systems += [(s, s.controls[-1]) for s in
                (gen_random_system(seed, prof) for seed in (1, 2))]
    bot = bottom(2)
    checked = accepted = trimmed = 0
    for sysd, q_out in systems:
        for zeta in (1, 2, 3):
            for a in vertex_automata(sysd, zeta, q_out):
                assert not any(a.finals[k] for k in a.finals)
                a.check_invariants(layered=True)
                s = surface(a, zeta + 1)
                trimmed += s.transition_count() < a.transition_count()
                for q in a.control_states(1):
                    got = a.member(q, bot, layer=1)
                    assert got == s.member(q, bot, layer=1), (q, zeta)
                    accepted += got
                checked += 1
    assert checked >= 100 and accepted and trimmed


def count_surface_calls(monkeypatch):
    calls = []
    real = cpds.scopes.surface
    monkeypatch.setattr(cpds.scopes, "surface",
                        lambda a, window: calls.append(a) or real(a, window))
    return calls


def test_scope_verdicts_do_not_surface(monkeypatch):
    calls = count_surface_calls(monkeypatch)
    assert scope_reachability(fix_sc(), 2, "c0", "c5") is True
    assert calls == []


def test_scope_global_surfaces_each_vertex_automaton_once(monkeypatch):
    calls = count_surface_calls(monkeypatch)
    scope_global(fix_sc(), 2, "c5")
    assert len(calls) == 26
    assert len({(a.uid, a.revision) for a in calls}) == 26


def test_saturate_layer_and_predecessor_leave_their_input_alone():
    sysd = fix_sc()
    # no layer-1 controls: the saturation registers them on its own copy
    a = shift(layered_seed(sysd, WINDOW, "c5"), WINDOW)
    revision = a.revision
    sat = saturate_layer(0, sysd, a)
    assert a.revision == revision and not a.control_states(1)
    assert sat.control_states(1) == list(sysd.controls)
    revision = sat.revision
    predecessor(1, sysd, sat, WINDOW, "c2", "c4")
    assert sat.revision == revision


def test_layered_automata_keep_their_construction_invariants(monkeypatch):
    # every top-order state is a layered control state ("q", c, layer), so
    # the shift renames it to ("q", c, layer + 1); every saturate_layer
    # output registers every control at layer 1, so admissibility may
    # require its segment-opening state
    sats, shifted = [], []
    real_sat, real_shift = cpds.scopes.saturate_layer, cpds.scopes._shift
    monkeypatch.setattr(cpds.scopes, "saturate_layer",
                        lambda *args: sats.append(real_sat(*args)) or sats[-1])
    monkeypatch.setattr(cpds.scopes, "_shift",
                        lambda a, window: shifted.append(a) or real_shift(a, window))
    prof = RandomProfile(order=2, controls=3, letters=2, stacks=2, rules=6,
                         mode="unrestricted")
    systems = [(fix_sc(), fix_sc().controls)]
    systems += [(s, s.controls[-1:]) for s in
                (gen_random_system(seed, prof) for seed in (1, 2))]
    checked = 0
    for sysd, targets in systems:
        for zeta in (1, 2, 3):
            for q_out in targets:
                sats.clear()
                shifted.clear()
                autos = vertex_automata(sysd, zeta, q_out)
                for a in sats:
                    assert set(a.control_states(1)) == set(sysd.controls)
                for a in autos + shifted:
                    for s in a.states[a.order]:
                        q, c, layer = s.name
                        assert q == "q" and c in sysd.controls
                        assert layer == a.layers[s]
                        assert a.layer_controls[(c, layer)] == s
                    checked += 1
    assert checked >= 1000


def test_predecessor_memo_keeps_stack_positions_apart():
    # one automaton at both positions of a vertex whose two segment
    # controls agree: the memo must not hand stack 1's round to stack 2
    sysd = fix_sc()
    g = cpds.scopes._Graph(sysd, 2)
    a = saturate_layer(0, sysd, layered_seed(sysd, g.window, "c5"))
    checked = shared = 0
    for c in sysd.controls:
        v = cpds.scopes.ReachVertex((c, c, "c5"), (a, a))
        for p in g.predecessors(v):
            for j in range(2):
                want = predecessor(j, sysd, a, g.window, p.controls[j + 1], c)
                assert p.autos[j].canonical_key() == want.canonical_key(), (
                    p.controls, j)
                checked += 1
            shared += p.controls[1] == c
    assert checked and shared


def test_graph_dot_draws_the_walk_edges(monkeypatch):
    calls = []
    real = cpds.scopes._Graph.predecessors
    monkeypatch.setattr(cpds.scopes._Graph, "predecessors",
                        lambda self, v: calls.append(v) or real(self, v))
    dot = reachability_graph_dot(fix_sc(), 2, "c5")
    vertices = dot.count("[shape=box")
    assert len(calls) == vertices > 1
    assert len({id(v) for v in calls}) == vertices


def product_candidates(controls, q_last, stacks, component):
    """Admissible vertices by the full product ``controls^m x {q_last}``."""
    out = []
    for qs in product(*[controls] * stacks, [q_last]):
        autos = tuple(component(j, qs[j + 1]) for j in range(stacks))
        if all(a.nonempty([a.require_control(q, 1)])
               for q, a in zip(qs, autos)):
            out.append(cpds.scopes.ReachVertex(qs, autos))
    return out


def listing(vertices):
    return [(v.controls, tuple(a.canonical_key() for a in v.autos))
            for v in vertices]


def test_chains_list_the_product_candidates_in_order():
    prof = RandomProfile(order=2, controls=3, letters=2, stacks=2, rules=6,
                         mode="unrestricted")
    # in seed 12 and the three-stack seed 1, a later q_{j+1} admits a q_j
    # that comes earlier in control order: the chains must be put in order
    three = RandomProfile(order=2, controls=3, letters=2, stacks=3, rules=6,
                          mode="unrestricted")
    systems = [(fix_sc(), "c5"), (three_stack("q5"), "q6")]
    systems += [(s, s.controls[-1]) for s in
                [gen_random_system(seed, prof) for seed in (*range(1, 9), 12)]
                + [gen_random_system(1, three)]]
    compared = candidates = 0
    for sysd, q_out in systems:
        for zeta in (1, 2, 3):
            window = zeta + 1
            want = product_candidates(
                sysd.controls, q_out, sysd.stacks,
                lambda j, q: saturate_layer(j, sysd,
                                            layered_seed(sysd, window, q)))
            assert listing(initial_vertices(sysd, zeta, q_out)) == listing(want)
            g = cpds.scopes._Graph(sysd, zeta)
            memo = {}
            for v in list(g.vertices(q_out)):
                def component(j, q_next, v=v):
                    a = v.autos[j]
                    key = (j, a.uid, a.revision, q_next, v.controls[j])
                    if key not in memo:
                        memo[key] = predecessor(j, sysd, a, window, q_next,
                                                v.controls[j])
                    return memo[key]

                want = product_candidates(sysd.controls, v.controls[0],
                                          sysd.stacks, component)
                got = listing(g.predecessors(v))
                assert got == listing(want), (q_out, zeta, v.controls)
                compared += 1
                candidates += len(got)
    assert compared >= 300 and candidates >= 1000


def test_unreachable_query_bounds_its_predecessor_computations(monkeypatch):
    # criterion 5's profile, seed 1: the full product of candidates made
    # 320 predecessor computations, the chains, last stack first, make 200
    prof = RandomProfile(order=2, controls=3, letters=2, stacks=2, rules=6,
                         mode="unrestricted")
    sysd = gen_random_system(1, prof)
    calls = []
    real = cpds.scopes.predecessor
    monkeypatch.setattr(cpds.scopes, "predecessor",
                        lambda *args: calls.append(args) or real(*args))
    # unsliced: from q0 no rule of this system can fire, and the sliced
    # verdict's walk makes 8
    assert cpds.scopes._reach(sysd, 3, "q0", "q2") is False
    assert len(calls) == 200


def test_graph_dot_text_is_pinned():
    # the edges follow the candidate order; digests of the full product walk
    want = {
        2: "9641a9b3bd4bdeb86ebd6f8087b70f4e6d2b50fc23237df995e4c32646d04081",
        3: "164482d152eb64bf8351ed0b7cbcec6fcbda68f0da644170e38fa89f5a1a9968",
    }
    for zeta, digest in want.items():
        dot = reachability_graph_dot(fix_sc(), zeta, "c5")
        assert hashlib.sha256(dot.encode()).hexdigest() == digest, zeta
