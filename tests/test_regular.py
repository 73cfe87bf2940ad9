import json
import random

import pytest

from cpds import (
    ArityMismatch,
    Configuration,
    NotSupported,
    RegTuple,
    RegularConfigSet,
    accept_all_automaton,
    bottom,
    exact_stack_automaton,
)
from cpds.oracle import enumerate_stacks


def _singleton_set(order, alphabet, control, stacks_):
    autos = []
    inits = []
    for w in stacks_:
        a = exact_stack_automaton(order, alphabet, {"s": [w]})
        autos.append(a)
        inits.append(a.require_control("s"))
    return RegularConfigSet(order, len(stacks_),
                            [RegTuple(control, tuple(autos), tuple(inits))])


def _random_set(rng, pool, controls, stacks=2, tuples=2):
    out = RegularConfigSet(2, stacks)
    for _ in range(tuples):
        q = rng.choice(controls)
        autos, inits = [], []
        for _ in range(stacks):
            ws = rng.sample(pool, rng.randrange(1, 3))
            a = exact_stack_automaton(2, {"a", "b"}, {"s": ws})
            autos.append(a)
            inits.append(a.require_control("s"))
        out.add(RegTuple(q, tuple(autos), tuple(inits)))
    return out


def test_member_empty_and_universal():
    empty = RegularConfigSet(2, 2)
    bot = bottom(2)
    assert not empty.member(Configuration("q", (bot, bot)))
    alla = accept_all_automaton(2, {"a"}, ["s"], ["s"])
    uni = RegularConfigSet(2, 2, [RegTuple(
        "q", (alla, alla), (alla.require_control("s"),) * 2)])
    assert uni.member(Configuration("q", (bot, bot)))
    assert not uni.member(Configuration("r", (bot, bot)))


def test_arity_checks():
    s = RegularConfigSet(2, 2)
    with pytest.raises(ArityMismatch):
        s.member(Configuration("q", (bottom(2),)))
    with pytest.raises(ArityMismatch):
        s.union(RegularConfigSet(2, 1))


def test_union_intersect_laws_on_samples():
    rng = random.Random(23)
    pool = enumerate_stacks(2, {"a", "b"}, 6)
    controls = ["p", "q"]
    s1 = _random_set(rng, pool, controls)
    s2 = _random_set(rng, pool, controls)
    u = s1.union(s2)
    i = s1.intersect(s2)
    for _ in range(200):
        cfg = Configuration(rng.choice(controls),
                            (rng.choice(pool), rng.choice(pool)))
        assert u.member(cfg) == (s1.member(cfg) or s2.member(cfg))
        assert i.member(cfg) == (s1.member(cfg) and s2.member(cfg))
    assert all(s1.union(RegularConfigSet(2, 2)).member(c) == s1.member(c)
               for c in [Configuration("p", (pool[0], pool[1]))])


def test_emptiness_and_witness():
    rng = random.Random(29)
    pool = enumerate_stacks(2, {"a", "b"}, 6)
    for seed in range(10):
        rng2 = random.Random(seed)
        s = _random_set(rng2, pool, ["p", "q"])
        w = s.witness()
        assert (w is None) == s.is_empty()
        if w is not None:
            assert s.member(w)
    assert RegularConfigSet(2, 2).is_empty()


def test_empty_language_tuple_contributes_nothing():
    # an automaton with an isolated initial state accepts nothing
    a = exact_stack_automaton(2, {"a"}, {"s": [bottom(2)]})
    from cpds import State

    dead = a.copy()
    iso = dead.add_state(State(2, ("iso",)))
    s = RegularConfigSet(2, 1, [RegTuple("q", (dead,), (iso,))])
    assert s.is_empty()


def test_complement_not_supported():
    with pytest.raises(NotSupported):
        RegularConfigSet(2, 1).complement()


def test_json_roundtrip_member_agrees():
    rng = random.Random(31)
    pool = enumerate_stacks(2, {"a", "b"}, 6)
    s = _random_set(rng, pool, ["p", "q"])
    # through text, and straight from to_json's tuples
    for doc in (json.loads(json.dumps(s.to_json())), s.to_json()):
        back = RegularConfigSet.from_json(doc)
        for _ in range(100):
            cfg = Configuration(rng.choice(["p", "q"]),
                                (rng.choice(pool), rng.choice(pool)))
            assert s.member(cfg) == back.member(cfg)
