from cpds import (
    Configuration,
    LongForm,
    Mcpds,
    Rule,
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
from cpds.scopes import layered_seed, reachability_graph_dot, saturate_layer, surface

from conftest import ask_in_shuffled_order, fix_sc


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


def test_reachability_graph_dot():
    dot = reachability_graph_dot(fix_sc(), 2, "c5")
    assert dot.startswith("digraph") and "->" in dot
