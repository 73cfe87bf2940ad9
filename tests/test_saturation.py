import pytest

import cpds.stacks as ST
from cpds import (
    BudgetExceeded,
    LongForm,
    Rule,
    auxsat_consuming,
    auxsat_generating,
    bottom,
    exact_stack_automaton,
    exp_tower,
    non_alternating_top,
    prestar,
    prestar_eager,
    satstep,
)
from cpds.oracle import RandomProfile, enumerate_stacks, gen_random_system, prestar_oracle
from cpds.saturation import ExplicitRules, saturation_cap

from conftest import s1, s2


def a0_bottom(order, alphabet, control):
    return exact_stack_automaton(order, alphabet, {control: [bottom(order)]})


def test_auxsat_pop1_shape(fix1):
    a0 = a0_bottom(2, {"a"}, "q")
    rule = fix1.rule_sets[0][0]
    out = auxsat_consuming(rule, a0)
    assert len(out) == 1
    t = out[0]
    assert t.head == a0.peek_control("p") and t.letter == "a"
    assert t.branch == frozenset()
    # order-1 component is the singleton chain label, order-2 the chain sets
    (lab, sets), = a0.k_prefixes(a0.require_control("q"), 1)
    assert t.targets == (frozenset([lab]),) + sets


def test_auxsat_collapse_top_is_unconditional():
    a = exact_stack_automaton(2, {"a"}, {})
    rule = Rule("p", "a", ST.collapse(2), "q")
    out = auxsat_consuming(rule, a)
    assert len(out) == 1
    t = out[0]
    assert t.branch == frozenset([a.peek_control("q")])
    assert all(not s for s in t.targets)
    # lower-order collapse needs a chain; none here
    assert auxsat_consuming(Rule("p", "a", ST.collapse(1), "q"), a) == []


def test_auxsat_rew_and_noop_relabel():
    a = exact_stack_automaton(2, {"a", "b"}, {})
    q = a.peek_control("q")
    t = LongForm(q, "b", frozenset(), (frozenset(), frozenset()))
    out = auxsat_generating(Rule("p", "a", ST.rew("b"), "q"), t, a)
    assert out == [LongForm(a.peek_control("p"), "a", t.branch, t.targets)]
    out2 = auxsat_generating(Rule("p", "b", ST.noop(), "q"), t, a)
    assert out2 and out2[0].letter == "b"
    # letter mismatch contributes nothing
    assert auxsat_generating(Rule("p", "a", ST.rew("c"), "q"), t, a) == []


def test_satstep_idempotent_at_fixpoint(fix1):
    a0 = a0_bottom(2, {"a"}, "q")
    sat, _ = prestar(fix1, a0)
    src = ExplicitRules(fix1.rule_sets[0], (), fix1.controls)
    again, added = satstep(src, sat)
    assert added == 0
    # no rules: satstep is the identity
    none_src = ExplicitRules([], (), ["p"])
    _, added = satstep(none_src, a0)
    assert added == 0


def test_iterated_satstep_reaches_prestar():
    # prestar writes each pass back into its input; iterating satstep, which
    # writes into a copy, must reach the same automaton in as many passes
    for order in (2, 3):
        for seed in range(12):
            prof = RandomProfile(order=order, controls=3, letters=2, stacks=1, rules=7)
            sysd = gen_random_system(seed, prof)
            a0 = a0_bottom(order, sysd.alphabet, sysd.controls[-1])
            sat, stats = prestar(sysd, a0)
            src = ExplicitRules(sysd.rule_sets[0], (), sysd.controls)
            a = a0.copy()
            for c in src.seed_controls():
                a.control_state(c)
            steps, added = 0, None
            while added != 0:
                a, added = satstep(src, a, optimized=non_alternating_top(a0))
                steps += 1
            assert a.canonical_key() == sat.canonical_key(), (order, seed)
            assert steps == stats.iterations, (order, seed)


def test_explicit_rules_count_a_generator_once(fix2):
    rules = fix2.rule_sets[0]
    from_list = ExplicitRules(list(rules))
    from_gen = ExplicitRules(r for r in rules)
    assert from_gen.rule_count == from_list.rule_count == len(rules)
    assert [from_gen.rules_into(c) for c in fix2.controls] == \
        [from_list.rules_into(c) for c in fix2.controls]


def test_saturation_cap_message_names_limit_and_count(fix2):
    a0 = exact_stack_automaton(2, {"a", "b", "c"}, {"p3": [s2(s1("b"))]})
    with pytest.raises(BudgetExceeded,
                       match=r"^saturation transition cap exceeded: "
                             r"\d+ transitions added, limit 1$"):
        prestar(fix2, a0, max_transitions=1)


def test_eager_saturation_cap_message_names_limit_and_count(fix2):
    a0 = exact_stack_automaton(2, {"a", "b", "c"}, {"p3": [s2(s1("b"))]})
    with pytest.raises(BudgetExceeded,
                       match=r"^eager saturation transition cap exceeded: "
                             r"\d+ transitions added, limit 1$"):
        prestar_eager(fix2, a0, max_transitions=1)


def test_prestar_fix1(fix1):
    a0 = a0_bottom(2, {"a"}, "q")
    sat, stats = prestar(fix1, a0)
    w = s2(s1("a", "_"))
    assert sat.member("p", w)
    assert sat.member("q", bottom(2))
    assert not sat.member("q", w)
    assert stats.optimized and stats.transitions_added == 1
    assert sat.member("q", bottom(2))  # reflexivity: L(A0) kept


def test_prestar_worked_chain(fix2):
    target = s2(s1("b"))
    a0 = exact_stack_automaton(2, {"a", "b", "c"}, {"p3": [target]})
    sat, _ = prestar(fix2, a0)
    assert sat.member("p0", s2(s1("a"), s1("b")))
    assert not sat.member("p0", target)


def test_strategies_reach_same_language():
    for seed in range(12):
        prof = RandomProfile(order=2, controls=3, letters=2, stacks=1, rules=7)
        sysd = gen_random_system(seed, prof)
        a0 = a0_bottom(2, sysd.alphabet, sysd.controls[-1])
        try:
            r1, _ = prestar(sysd, a0)
            r2 = prestar_eager(sysd, a0)
        except BudgetExceeded:
            continue
        for q in sysd.controls:
            for w in enumerate_stacks(2, sysd.alphabet, 6)[:30]:
                assert r1.member(q, w) == r2.member(q, w), (seed, q)


def test_optimized_mode_structural_cap():
    for seed in range(10):
        prof = RandomProfile(order=2, controls=3, letters=2, stacks=1, rules=7)
        sysd = gen_random_system(seed, prof)
        a0 = a0_bottom(2, sysd.alphabet, sysd.controls[-1])
        assert non_alternating_top(a0)
        try:
            sat, stats = prestar(sysd, a0)
        except BudgetExceeded:
            continue
        assert stats.optimized
        sat.check_invariants(max_top_set=1)


def test_exp_tower_and_cap():
    assert exp_tower(0, 7) == 7
    assert exp_tower(1, 4) == 16
    assert exp_tower(3, 2) == 65536
    assert exp_tower(2, 100) == 10 ** 9  # clamped
    a0 = a0_bottom(2, {"a"}, "q")
    assert saturation_cap(2, a0, 5) >= 10 ** 6


def test_prestar_differential_small():
    checked = 0
    for seed in range(30):
        for order in (1, 2):
            prof = RandomProfile(order=order, controls=3, letters=2, stacks=1, rules=7)
            sysd = gen_random_system(seed, prof)
            a0 = a0_bottom(order, sysd.alphabet, sysd.controls[-1])
            try:
                sat, _ = prestar(sysd, a0)
            except BudgetExceeded:
                continue
            members, indefinite = prestar_oracle(sysd, a0, max_size=5)
            for cfg, want in members.items():
                got = sat.member(cfg.control, cfg.stacks[0])
                if indefinite:
                    assert got or not want, (seed, cfg)
                else:
                    assert got == want, (seed, cfg)
            checked += 1
    assert checked >= 40
