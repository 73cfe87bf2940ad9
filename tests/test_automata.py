import json
import random

import pytest

from cpds import (
    LongForm,
    OrderMismatch,
    StackAutomaton,
    State,
    accept_all_automaton,
    bottom,
    exact_stack_automaton,
    intersect,
    mk_char,
    mk_stack,
    prestar,
    union,
)
from cpds import saturation
from cpds.automata import copy_into
from cpds.oracle import RandomProfile, enumerate_stacks, gen_random_system
from cpds.scopes import layered_seed

from conftest import ask_in_shuffled_order, fix_sc, s1, s2


def lf(head, letter, branch=(), targets=((), ())):
    return LongForm(head, letter, frozenset(branch),
                    tuple(frozenset(t) for t in targets))


def test_accepts_empty_stack_iff_final():
    a = StackAutomaton(2, {"a"})
    q = a.add_state(State(2, ("x",)))
    assert not a.accepts(q, mk_stack(2, ()))
    a.add_state(q, final=True)
    assert a.accepts(q, mk_stack(2, ()))


def test_transition_to_empty_set_differs_from_no_transition():
    a = StackAutomaton(1, {"a"})
    q = a.add_state(State(1, ("q",)))
    r = a.add_state(State(1, ("r",)))
    a.add_delta1(q, "a", [], [])
    assert a.accepts(q, mk_stack(1, (mk_char("a"),)))
    assert not a.accepts(r, mk_stack(1, (mk_char("a"),)))


def test_exact_automaton_bottom_target(fix1):
    a = exact_stack_automaton(2, {"a"}, {"q": [bottom(2)]})
    assert a.member("q", bottom(2))
    for w in enumerate_stacks(2, {"a"}, 7):
        assert a.member("q", w) == (w == bottom(2))


def test_exact_automaton_annotated_targets():
    u = s2(s1("b", "_"))
    w = s2(s1(("a", u), "_"))
    a = exact_stack_automaton(2, {"a", "b"}, {"q": [w]})
    assert a.member("q", w)
    assert not a.member("q", s2(s1("a", "_")))  # missing annotation constraint fails
    wrong_ann = s2(s1(("a", s2(s1("a", "_"))), "_"))
    assert not a.member("q", wrong_ann)


def test_add_long_form_idempotent_and_shared():
    a = StackAutomaton(2, {"a"})
    q = a.control_state("p")
    t1 = lf(q, "a", targets=((), ()))
    assert a.add_long_form(t1)
    n_states = a.state_count()
    assert not a.add_long_form(t1)
    assert a.state_count() == n_states
    # same order-2 target set shares the intermediate state
    t2 = LongForm(q, "a", frozenset(), (frozenset([a.add_state(State(1, ("z",)))]),
                                        frozenset()))
    a.add_long_form(t2)
    labels = {label for (src, _tg), label in a.delta_high[2].items() if src == q}
    assert len(labels) == 1


def test_chain_memos_follow_the_revision():
    a = exact_stack_automaton(2, {"a", "b"}, {"q": [s2(s1("a"))]})
    q = a.require_control("q")
    qs = frozenset([q])
    lfs, merges = a.long_forms_from(q), a.set_form_chains(qs, 2)
    # shared, so immutable
    assert isinstance(lfs, tuple) and isinstance(merges, tuple)
    assert a.long_forms_from(q) is lfs and a.set_form_chains(qs, 2) is merges
    b = a.copy()
    assert b.long_forms_from(q) == lfs and b.long_forms_from(q) is not lfs
    t = lf(q, "b")
    assert a.add_long_form(t)
    assert t in a.long_forms_from(q) and t not in lfs
    chain = ("b", frozenset(), (frozenset(), frozenset()))
    assert chain in a.set_form_chains(qs, 2) and chain not in merges
    # the copy keeps its own memo and its own transitions
    assert b.long_forms_from(q) == lfs and b.set_form_chains(qs, 2) == merges
    u = lf(q, "a", targets=((), (q,)))
    assert b.add_long_form(u)
    assert u in b.long_forms_from(q) and u not in a.long_forms_from(q)


def _memo_matches_a_fresh_copy(a) -> int:
    """Check every memoised chain enumeration of ``a`` against a fresh copy,
    which has no memo; returns the number of answers checked."""
    fresh = a.copy()
    for key, hit in list(a._chain_memo.items()):
        if isinstance(key, State):
            want = fresh.chains_from(key)
        elif key[0] == "lf":
            want = fresh.long_forms_from(key[1])
        else:
            want = fresh.set_form_chains(key[1], key[2])
        assert hit == want, key
    return len(a._chain_memo)


def test_chain_memos_match_a_fresh_copy_after_each_pass(monkeypatch):
    checked = []
    real_pass = saturation._saturation_pass

    def checked_pass(source, read, write, **kw):
        added = real_pass(source, read, write, **kw)
        checked.append((added, _memo_matches_a_fresh_copy(write)))
        return added

    monkeypatch.setattr(saturation, "_saturation_pass", checked_pass)
    for order in (2, 3):
        prof = RandomProfile(order=order, controls=8, letters=3, stacks=1, rules=30)
        for seed in range(20):
            sysd = gen_random_system(seed, prof)
            a0 = accept_all_automaton(order, sysd.alphabet, sysd.controls,
                                      [sysd.controls[-1]])
            prestar(sysd, a0)
    # checked after passes that add transitions, too
    assert sum(n for added, n in checked if added) > 1000


def test_chain_memos_follow_a_label_with_two_sources():
    a = exact_stack_automaton(3, {"a", "b"}, {"q": [bottom(3)]})
    b = exact_stack_automaton(3, {"a", "b"}, {"p": [bottom(3)]})
    qa, qb = a.require_control("q"), b.require_control("p")
    c, pairs = union(a, b, [(qa, qb)])
    u = pairs[(qa, qb)]
    (label2, _), = a.high_from(qa)
    (label1, _), = a.high_from(label2)
    shared, left = State(2, ("L",) + label2.name), State(3, ("L",) + qa.name)
    sources = [s for s in c.states[3] if shared in {l for l, _ in c.high_from(s)}]
    assert sorted(sources, key=repr) == sorted([u, left], key=repr)
    below = State(1, ("L",) + label1.name)
    # below the shared label, then at it
    for insert, chains in ((lambda: c.add_delta1(below, "a", [], []), 2),
                           (lambda: c.add_high_transition(shared, [], label=below), 4)):
        for s in sources:
            c.long_forms_from(s)
        c.set_form_chains(sources, 3)
        c.set_form_chains([u], 3)
        insert()
        assert _memo_matches_a_fresh_copy(c)
        assert len(c.long_forms_from(left)) == chains
        assert {t.rehead(u) for t in c.long_forms_from(left)} <= set(c.long_forms_from(u))


def test_insertion_keeps_the_chains_it_does_not_reach():
    a = exact_stack_automaton(2, {"a", "b"}, {"q": [s2(s1("a"))], "p": [s2(s1("b"))]})
    q, p = a.require_control("q"), a.require_control("p")
    lfs, merges = a.long_forms_from(p), a.set_form_chains([p], 2)
    q_merges = a.set_form_chains([p, q], 2)
    assert a.add_long_form(lf(q, "b"))
    assert a.long_forms_from(p) is lfs and a.set_form_chains([p], 2) is merges
    assert a.set_form_chains([p, q], 2) is not q_merges


def test_set_form_that_stopped_early_survives_insertions_below_later_members():
    a = StackAutomaton(2, {"a", "b"})
    x, y, z = (a.control_state(c) for c in "xyz")
    for head, letter in ((x, "a"), (y, "b"), (z, "a")):
        a.add_long_form(lf(head, letter))
    (below_x, _), = a.high_from(x)
    (below_z, _), = a.high_from(z)
    members = [x, y, z]
    # x and y share no letter, so the merge stops before z's chains
    assert a.set_form_chains(members, 2) == ()
    assert below_z not in a._chain_memo
    # below the later member the walk stops at once; the merge stays empty
    assert a.add_delta1(below_z, "b", [], [])
    assert ("sf", frozenset(members), 2) in a._chain_memo
    assert _memo_matches_a_fresh_copy(a)
    # below the first member it reaches the set form, which now reads z
    assert a.add_delta1(below_x, "b", [], [])
    assert _memo_matches_a_fresh_copy(a) and x not in a._chain_memo
    merged = a.set_form_chains(members, 2)
    assert merged == a.copy().set_form_chains(members, 2)
    assert [letter for letter, _, _ in merged] == ["b"]


def test_determinism_at_high_orders_enforced():
    a = StackAutomaton(2, {"a"})
    q = a.control_state("p")
    l1 = a.add_high_transition(q, [])
    l2 = a.add_high_transition(q, [])
    assert l1 is l2
    # delta_high maps each (source, targets) to one label, so a new label
    # for a present pair is never stored
    assert a.add_high_transition(q, [], label=State(1, ("other",))) is l1
    assert list(a.delta_high[2].values()) == [l1]
    a.check_invariants()


def test_accept_all_accepts_everything():
    a = accept_all_automaton(2, {"a", "b"}, ["p", "q"], ["q"])
    for w in enumerate_stacks(2, {"a", "b"}, 6)[:40]:
        assert a.member("q", w)
        assert not a.member("p", w)


def test_monotone_under_extension():
    rng = random.Random(2)
    pool = enumerate_stacks(2, {"a"}, 7)
    a = exact_stack_automaton(2, {"a"}, {"q": [bottom(2)]})
    before = {w for w in pool if a.member("q", w)}
    q = a.require_control("q")
    a.add_long_form(lf(q, "a", targets=((), ())))
    after = {w for w in pool if a.member("q", w)}
    assert before <= after and len(after) > len(before)


def test_nonempty_and_witness():
    a = exact_stack_automaton(2, {"a", "b"}, {"q": [s2(s1(("a", s2(s1("b", "_"))), "_"))]})
    q = a.require_control("q")
    assert a.nonempty([q])
    w = a.witness([q])
    assert a.accepts(q, w)


def test_nonempty_vacuous_branch():
    a = StackAutomaton(1, {"a"})
    q = a.add_state(State(1, ("q",)))
    a.add_delta1(q, "a", [], [])
    assert a.nonempty([q])
    assert a.witness([q]) == mk_stack(1, (mk_char("a"),))
    dead = a.add_state(State(1, ("dead",)))
    assert not a.nonempty([dead])


def test_joint_nonempty_is_not_pairwise():
    # L(q1) = {[a]}, L(q2) = {[b]}: both nonempty, jointly empty
    a = StackAutomaton(1, {"a", "b"})
    q1 = a.add_state(State(1, ("q1",)))
    q2 = a.add_state(State(1, ("q2",)))
    f = a.add_state(State(1, ("f",)), final=True)
    a.add_delta1(q1, "a", [], [f])
    a.add_delta1(q2, "b", [], [f])
    assert a.nonempty([q1]) and a.nonempty([q2])
    assert not a.nonempty([q1, q2])


def test_nonempty_agrees_with_enumeration():
    rng = random.Random(9)
    pool = enumerate_stacks(2, {"a"}, 8)
    for seed in range(8):
        rng2 = random.Random(seed)
        tgt = {"q": rng2.sample(pool, 2)}
        a = exact_stack_automaton(2, {"a"}, tgt)
        for k in (1, 2):
            for s in list(a.states[k]):
                claimed = a.nonempty([s])
                found = any(a.accepts(s, w) for w in enumerate_stacks(2, {"a"}, 10)
                            if w.order == k) if k == 2 else any(
                    a.accepts(s, w) for w in enumerate_stacks(1, {"a"}, 8))
                if found:
                    assert claimed, (seed, s)
                if claimed:
                    w = a.witness([s])
                    assert a.accepts(s, w)


def test_nonempty_answers_do_not_depend_on_query_order():
    pool = enumerate_stacks(2, {"a"}, 8)
    totals = [0, 0]
    for seed in range(8):
        rng2 = random.Random(seed)
        a = exact_stack_automaton(2, {"a"}, {"q": rng2.sample(pool, 2)})
        for i, n in enumerate(ask_in_shuffled_order(a, seed)):
            totals[i] += n
    assert all(totals), totals


def test_nonempty_follows_revision():
    a = StackAutomaton(1, {"a"})
    q = a.add_state(State(1, ("q",)))
    assert not a.nonempty([q]) and a.witness([q]) is None
    before = a.revision
    a.add_delta1(q, "a", [], [])
    assert a.revision > before
    assert a.nonempty([q])
    assert a.witness([q]) == mk_stack(1, (mk_char("a"),))


def test_union_intersect_membership_laws():
    rng = random.Random(13)
    pool = enumerate_stacks(2, {"a", "b"}, 7)
    t1 = {"q": rng.sample(pool, 3)}
    t2 = {"q": rng.sample(pool, 3)}
    a = exact_stack_automaton(2, {"a", "b"}, t1)
    b = exact_stack_automaton(2, {"a", "b"}, t2)
    qa, qb = a.require_control("q"), b.require_control("q")
    u, mu = union(a, b, [(qa, qb)])
    i, mi = intersect(a, b, [(qa, qb)])
    su, si = mu[(qa, qb)], mi[(qa, qb)]
    for w in rng.sample(pool, 100):
        assert u.accepts(su, w) == (a.member("q", w) or b.member("q", w))
        assert i.accepts(si, w) == (a.member("q", w) and b.member("q", w))


def test_intersect_with_accept_all_is_identity():
    rng = random.Random(17)
    pool = enumerate_stacks(2, {"a"}, 7)
    a = exact_stack_automaton(2, {"a"}, {"q": rng.sample(pool, 2)})
    allq = accept_all_automaton(2, {"a"}, ["q"], ["q"])
    i, mi = intersect(a, allq, [(a.require_control("q"), allq.require_control("q"))])
    s = mi[(a.require_control("q"), allq.require_control("q"))]
    for w in rng.sample(pool, min(60, len(pool))):
        assert i.accepts(s, w) == a.member("q", w)


def test_union_order_mismatch():
    a = StackAutomaton(2, {"a"})
    b = StackAutomaton(1, {"a"})
    with pytest.raises(OrderMismatch):
        union(a, b, [])


def test_json_roundtrip():
    a = exact_stack_automaton(2, {"a", "b"}, {"q": [bottom(2), s2(s1("a", "_"))]})
    doc = json.loads(json.dumps(a.to_json()))
    b = StackAutomaton.from_json(doc)
    for w in enumerate_stacks(2, {"a", "b"}, 6):
        assert a.member("q", w) == b.member("q", w)
    for aut in (a, layered_seed(fix_sc(), 3, "c5")):
        # through text, and straight from to_json's tuples
        for doc in (json.loads(json.dumps(aut.to_json())), aut.to_json()):
            back = StackAutomaton.from_json(doc)
            assert back.controls == aut.controls and back.layers == aut.layers
            assert back.to_json() == aut.to_json()


def test_json_roundtrip_keeps_layer_controls():
    a = layered_seed(fix_sc(), 3, "c5")
    back = StackAutomaton.from_json(json.loads(json.dumps(a.to_json())))
    assert len(a.layer_controls) == 18
    assert back.layer_controls == a.layer_controls
    for w in enumerate_stacks(2, {"a", "b"}, 5):
        for c in fix_sc().controls:
            assert back.member(c, w, layer=1) == a.member(c, w, layer=1)


def test_dot_export_mentions_states():
    a = exact_stack_automaton(2, {"a"}, {"q": [bottom(2)]})
    dot = a.to_dot()
    assert dot.startswith("digraph") and "order 2" in dot and "order 1" in dot


def test_canonical_key_ignores_fresh_numbering():
    def build(waste):
        a = StackAutomaton(2, {"a"})
        q = a.control_state("p")
        for _ in range(waste):
            a.fresh_state(1)
        a.add_long_form(lf(q, "a", targets=((), ())))
        return a

    assert build(0).canonical_key() == build(5).canonical_key()


def test_saturation_preconditions():
    from cpds import PreconditionViolation

    a = exact_stack_automaton(2, {"a"}, {"q": [bottom(2)]})
    a.check_saturation_preconditions()
    bad = a.copy()
    bad.add_state(bad.require_control("q"), final=True)
    with pytest.raises(PreconditionViolation):
        bad.check_saturation_preconditions()


def _hand_built():
    """Order 2: ``p`` reads ``r`` and ``r`` reads the final ``f``; the
    order-1 label of ``p`` needs an annotation accepted from ``b``, which
    nothing else reaches; ``o1 --a--> o2`` is an orphaned chain."""
    a = StackAutomaton(2, {"a"})
    p, r, f = (State(2, (n,)) for n in "prf")
    lp, lr, x, b, o1, o2 = (State(1, (n,)) for n in ("lp", "lr", "x", "b", "o1", "o2"))
    a.remap_control("p", p, layer=1)
    a.add_state(r, layer=2)
    a.add_state(f, final=True)
    a.add_state(x, final=True)
    a.add_state(o2, final=True, layer=1)
    a.add_high_transition(p, [r], label=a.add_state(lp, layer=1))
    a.add_high_transition(r, [f], label=a.add_state(lr, layer=2))
    a.add_delta1(lp, "a", [b], [x])
    a.add_delta1(lr, "a", [], [x])
    a.add_delta1(b, "a", [], [x])
    a.add_delta1(o1, "a", [], [o2])
    return a


def _transitions(a):
    """Each transition with the states it names: source, label or
    branch members, and targets."""
    out = {}
    for k in range(2, a.order + 1):
        for (src, targets), label in a.delta_high[k].items():
            out[(src, targets, label)] = {src, label, *targets}
    for src, slots in a.delta1.items():
        for (letter, branch, targets) in slots:
            out[(src, letter, branch, targets)] = {src, *branch, *targets}
    return out


def _all_states(a):
    return {s for k in a.states for s in a.states[k]}


def test_copy_into_drops_exactly_what_names_a_dropped_state():
    a = _hand_built()
    for drop in _all_states(a):
        out = StackAutomaton(2, a.alphabet)
        kept = copy_into(out, a, lambda s: None if s == drop else s)
        assert set(kept) == _all_states(out) == _all_states(a) - {drop}
        assert set(_transitions(out)) == {
            t for t, named in _transitions(a).items() if drop not in named
        }


def test_copy_into_keeps_finals_and_lifts_layers():
    a = _hand_built()
    out = StackAutomaton(2, a.alphabet)
    kept = copy_into(out, a, lambda s: State(s.order, ("c",) + s.name), lift=1)
    assert set(kept) == _all_states(a)
    for s, t in kept.items():
        assert t.name == ("c",) + s.name
        assert (t in out.finals[t.order]) == (s in a.finals[s.order])
        assert out.layers.get(t) == (None if s not in a.layers else a.layers[s] + 1)
    assert len(_transitions(out)) == len(_transitions(a))


def test_pruned_keeps_what_top_order_states_reach():
    a = _hand_built()
    out = a.pruned()
    names = {s.name[0] for s in _all_states(out)}
    # b is reached only through lp's branch set; o1 and o2 are orphaned
    assert names == {"p", "r", "f", "lp", "lr", "x", "b"}
    assert set(_transitions(out)) == {
        t for t, named in _transitions(a).items() if State(1, ("o1",)) not in named
    }
    assert out.layer_controls == a.layer_controls
    # the annotation of the top character is read from b
    for w, want in ((s2(s1(("a", s1("a"))), s1("a")), True),
                    (s2(s1("a"), s1("a")), False)):
        assert out.member("p", w, layer=1) == a.member("p", w, layer=1) == want
