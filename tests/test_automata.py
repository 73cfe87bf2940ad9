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
    union,
)
from cpds.automata import bottom_automaton
from cpds.oracle import enumerate_stacks
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


def test_determinism_at_high_orders_enforced():
    a = StackAutomaton(2, {"a"})
    q = a.control_state("p")
    l1 = a.add_high_transition(q, [])
    l2 = a.add_high_transition(q, [])
    assert l1 is l2
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
        back = StackAutomaton.from_json(json.loads(json.dumps(aut.to_json())))
        assert back.controls == aut.controls and back.layers == aut.layers


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

    a = bottom_automaton(2, {"a"}, ["q"])
    a.check_saturation_preconditions()
    bad = a.copy()
    bad.add_state(bad.require_control("q"), final=True)
    with pytest.raises(PreconditionViolation):
        bad.check_saturation_preconditions()
