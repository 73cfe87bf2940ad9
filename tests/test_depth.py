"""Higher-order and higher-stack-count coverage.

The randomized suites run at order 2 with two stacks; these tests push the
general-order code paths (middle-order collapse and push) and the
stack-count induction one level deeper.
"""

import cpds.phases
import cpds.stacks as ST
from cpds import (
    BudgetExceeded,
    apply_op,
    bottom,
    exact_stack_automaton,
    mk_char,
    mk_stack,
    ordered_reachability,
    prestar,
)
from cpds.oracle import (
    ExploreBounds,
    RandomProfile,
    control_reachability_oracle,
    gen_random_system,
    prestar_oracle,
)

from conftest import three_stack


def _o3(*cols):
    return mk_stack(3, tuple(
        mk_stack(2, tuple(mk_stack(1, tuple(mk_char(c) for c in col_part))
                          for col_part in col))
        for col in cols
    ))


def test_order3_push_copy_collapse_top():
    w = _o3((("a",),), (("b",),))
    w1 = apply_op(ST.push("c", 3), w)
    assert ST.top1_char(w1).ann == _o3((("b",),))
    w3 = apply_op(ST.collapse(3), apply_op(ST.copy(3), w1))
    assert w3 == _o3((("b",),))


def test_order3_middle_order_collapse():
    w = _o3((("a",), ("x",)), (("b",),))
    w4 = apply_op(ST.push("c", 2), w)
    assert ST.top1_char(w4).ann == mk_stack(2, (mk_stack(1, (mk_char("x"),)),))
    w5 = apply_op(ST.collapse(2), apply_op(ST.copy(2), w4))
    assert w5 == _o3((("x",),), (("b",),))


def test_order3_singleton_context_collapse_refused():
    import pytest
    from cpds import UndefinedOperation

    # a push whose order-2 context is empty leaves a dead link behind
    w = _o3((("a",),), (("b",),))
    w4 = apply_op(ST.push("c", 2), w)
    with pytest.raises(UndefinedOperation):
        apply_op(ST.collapse(2), w4)


def test_order3_prestar_differential():
    checked = 0
    for seed in range(30):
        prof = RandomProfile(order=3, controls=3, letters=2, stacks=1, rules=7)
        sysd = gen_random_system(seed, prof)
        a0 = exact_stack_automaton(3, sysd.alphabet,
                                   {sysd.controls[-1]: [bottom(3)]})
        try:
            sat, _ = prestar(sysd, a0)
        except BudgetExceeded:
            continue
        members, indefinite = prestar_oracle(sysd, a0, max_size=7)
        if indefinite:
            continue
        checked += 1
        for cfg, want in members.items():
            assert sat.member(cfg.control, cfg.stacks[0]) == want, (seed, cfg)
    assert checked >= 20


def test_three_stack_ordered_reachable_slow():
    sysd = three_stack("q5")
    v = control_reachability_oracle(sysd, "q0", "q6")
    assert v.definitely_reachable
    assert ordered_reachability(sysd, "q0", "q6") is True


def test_three_stack_ordered_blocked_slow():
    sysd = three_stack("q3")  # pops stack 3 while stacks 1 and 2 are full
    v = control_reachability_oracle(sysd, "q0", "q6")
    assert v.definitely_unreachable
    assert ordered_reachability(sysd, "q0", "q6") is False


def test_three_stack_scope_and_phase():
    from cpds import phase_reachability, scope_reachability

    sysd = three_stack("q5").with_mode(("phase", 3))
    for z in (1, 2, 3, 4):
        want = control_reachability_oracle(
            sysd.with_mode(("phase", z)), "q0", "q6",
            ExploreBounds(40, 60, 30000))
        got = phase_reachability(sysd, z, "q0", "q6")
        assert got == want.definitely_reachable, z
    szd = three_stack("q5").with_mode(("scope", 2))
    for zeta in (1, 2):
        want = control_reachability_oracle(
            szd.with_mode(("scope", zeta)), "q0", "q6",
            ExploreBounds(40, 60, 30000))
        got = scope_reachability(szd, zeta, "q0", "q6")
        assert got == want.definitely_reachable, zeta


def test_three_stack_phase_walk_shares_saturations(monkeypatch):
    # unreachable at z=2, so the walk visits every plan suffix; walking each
    # plan on its own took 1,488 product saturations here
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return prestar(*args, **kw)

    monkeypatch.setattr(cpds.phases, "prestar", counted)
    sysd = three_stack("q5")
    assert cpds.phases.phase_reachability(sysd, 2, "q0", "q6") is False
    assert len(calls) <= 528
