import pytest

import cpds.stacks as ST
from cpds import (
    Mcpds,
    Rule,
    bottom,
    gen_random_system,
    validate_ordered,
    validate_phase,
    validate_scope,
)
from cpds.oracle import (
    ExploreBounds,
    RandomProfile,
    control_reachability_oracle,
    enumerate_stacks,
    explore,
)
from cpds.systems import replay

from conftest import fix3, fix_ph, fix_sc


def test_explore_zero_steps_is_reachable():
    sysd = fix3()
    res = explore(sysd, bounds=ExploreBounds(0, 10, 10))
    assert res.reachable("q0")
    assert res.witnesses["q0"].steps == []


def test_fix3_closed_and_witnessed():
    sysd = fix3()
    res = explore(sysd, bounds=ExploreBounds(40, 60, 20000))
    assert res.closed
    assert res.reachable("q7")
    run = res.witnesses["q7"]
    assert replay(sysd, run) and validate_ordered(run)
    v = control_reachability_oracle(sysd, "q0", "q7")
    assert v.definitely_reachable
    dead = control_reachability_oracle(sysd, "q7", "q0")
    assert dead.definitely_unreachable


def test_budget_exhaustion_is_not_a_negative():
    # a pure pusher never closes under a small budget
    rules = [Rule("p", "_", ST.push("a", 2), "p"), Rule("p", "a", ST.push("a", 2), "p")]
    sysd = Mcpds(2, {"a"}, ["p", "z"], [rules], "single")
    v = control_reachability_oracle(sysd, "p", "z", ExploreBounds(5, 10, 50))
    assert v.kind == "unreachable-within-bounds"
    assert not v.definitely_unreachable


def _two_stack_pusher():
    rules = [Rule("p", "_", ST.push("a", 2), "p"), Rule("p", "a", ST.push("a", 2), "p"),
             Rule("p", "a", ST.pop(1), "q")]
    return Mcpds(2, {"a"}, ["p", "q"], [list(rules), list(rules)], "unrestricted")


@pytest.mark.parametrize("mode, valid", [
    ("unrestricted", lambda run: True),
    (("scope", 2), lambda run: validate_scope(run, 2)),
    (("phase", 2), lambda run: validate_phase(run, 2)),
], ids=["unrestricted", "scope", "phase"])
def test_budget_stop_in_every_mode(mode, valid):
    sysd = _two_stack_pusher()
    res = explore(sysd.with_mode(mode), bounds=ExploreBounds(40, 60, 25))
    assert not res.closed
    assert res.visited == 25
    assert set(res.witnesses) == {"p", "q"}
    for run in res.witnesses.values():
        assert replay(sysd, run) and valid(run)


@pytest.mark.parametrize("mode, name", [
    ("unrestricted", "apply_op"),
    (("scope", 2), "apply_op_rounded"),
], ids=["unrestricted", "scope"])
def test_programming_errors_are_not_a_blocked_rule(monkeypatch, mode, name):
    def broken(*args):
        raise TypeError("broken operation")

    monkeypatch.setattr(ST, name, broken)
    with pytest.raises(TypeError):
        explore(_two_stack_pusher().with_mode(mode), bounds=ExploreBounds(5, 20, 50))


def test_scope_oracle_matches_validator():
    sysd = fix_sc()
    for zeta in (1, 2, 3):
        res = explore(sysd.with_mode(("scope", zeta)), bounds=ExploreBounds(30, 50, 10000))
        reach = res.reachable("c5")
        assert reach == (zeta >= 2)
        if reach:
            run = res.witnesses["c5"]
            assert replay(sysd.with_mode("unrestricted"), run)
            assert validate_scope(run, zeta)


def test_phase_oracle_matches_validator():
    sysd = fix_ph()
    for z in (1, 2, 3):
        res = explore(sysd.with_mode(("phase", z)), bounds=ExploreBounds(30, 50, 10000))
        reach = res.reachable("p4")
        assert reach == (z >= 2)
        if reach:
            run = res.witnesses["p4"]
            assert replay(sysd.with_mode("unrestricted"), run)
            assert validate_phase(run, z)


def test_witnesses_replay_and_validate_random():
    for seed in range(10):
        prof = RandomProfile(order=2, controls=3, letters=2, stacks=2, rules=6,
                             mode="ordered")
        sysd = gen_random_system(seed, prof)
        res = explore(sysd, bounds=ExploreBounds(30, 50, 10000))
        for control, run in res.witnesses.items():
            assert replay(sysd, run), (seed, control)
            assert validate_ordered(run), (seed, control)


def test_generator_deterministic():
    prof = RandomProfile(order=2, controls=4, letters=3, stacks=2, rules=8,
                         mode="ordered")
    a = gen_random_system(42, prof)
    b = gen_random_system(42, prof)
    assert a.rule_sets == b.rule_sets and a.controls == b.controls
    c = gen_random_system(43, prof)
    assert a.rule_sets != c.rule_sets or a.controls != c.controls


def test_generator_closes_often():
    closed = 0
    total = 60
    for seed in range(total):
        prof = RandomProfile(order=2, controls=3, letters=2, stacks=1, rules=7)
        sysd = gen_random_system(seed, prof)
        res = explore(sysd, bounds=ExploreBounds(60, 80, 40000))
        closed += res.closed
    assert closed / total >= 0.8


def test_enumerate_stacks_disciplined_and_sized():
    import cpds.stacks as STK

    pool = enumerate_stacks(2, {"a", "b"}, 7)
    assert bottom(2) in pool
    for w in pool:
        assert STK.bottom_disciplined(w)
        assert STK.tree_size(w) <= 7
    assert len(set(pool)) == len(pool)
