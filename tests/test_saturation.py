import pytest

import cpds.stacks as ST
from cpds import (
    BudgetExceeded,
    LongForm,
    Rule,
    StackAutomaton,
    State,
    accept_all_automaton,
    auxsat_consuming,
    auxsat_generating,
    bottom,
    exact_stack_automaton,
    exp_tower,
    non_alternating_top,
    prestar,
    satstep,
)
from cpds.automata import lf_key
from cpds.oracle import RandomProfile, enumerate_stacks, gen_random_system, prestar_oracle
from cpds.saturation import ExplicitRules, saturation_cap

from conftest import benchmark_workloads, s1, s2


def prestar_eager(sysd, a0, *, max_transitions=None):
    """Reference saturation whose additions become visible within the pass.

    Reaches the same fixpoint as :func:`prestar`; kept as an oracle for the
    order-independence of the chaotic iteration.
    """
    source = ExplicitRules(sysd.rule_sets[0], sysd.ext_rule_sets[0], sysd.controls)
    optimized = non_alternating_top(a0)
    aut = a0.copy()
    for c in source.seed_controls():
        aut.control_state(c)
    cap = max_transitions or saturation_cap(a0.order, a0, 64)
    total = 0
    changed = True
    while changed:
        changed = False
        for c in list(aut.control_states()):
            for r in source.rules_into(c):
                if r.consuming:
                    cand = auxsat_consuming(r, aut)
                else:
                    head = aut.peek_control(r.dst)
                    cand = []
                    for t in aut.long_forms_from(head):
                        cand.extend(auxsat_generating(r, t, aut))
                for t in sorted(cand, key=lf_key):
                    if optimized and len(t.targets[-1]) > 1:
                        continue
                    aut.control_state(r.src)
                    if aut.add_long_form(t):
                        total += 1
                        if total > cap:
                            raise BudgetExceeded(
                                "eager saturation transition cap", total,
                                "transitions added", cap)
                        changed = True
    return aut


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


def test_present_candidate_still_registers_its_controls():
    # the long form the rule derives for p is already in the automaton, but
    # p is not a control yet: saturation must still register it
    a0 = exact_stack_automaton(2, {"a"}, {"q": [s2(s1("a"))]})
    t, = a0.long_forms_from(a0.require_control("q"))
    a0.add_long_form(t.rehead(State(2, ("q", "p"))))
    assert not a0.has_control("p")
    rule = Rule("p", "a", ST.noop(), "q")
    sat, _ = prestar([rule], a0)
    assert sat.has_control("p")
    nxt, _ = satstep(ExplicitRules([rule]), a0)
    assert nxt.has_control("p")


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
                             r"\d+ transitions added, limit 1$") as e:
        prestar(fix2, a0, max_transitions=1)
    assert e.value.limit == 1 and e.value.count > 1
    assert f": {e.value.count} transitions added," in str(e.value)


def cap_differential(sysd, a0):
    """Every cap below the uncapped total stops one transition past it;
    every other cap gives the uncapped result.  Returns the total."""
    full, stats = prestar(sysd, a0)
    total = stats.transitions_added
    for cap in range(total):
        with pytest.raises(BudgetExceeded) as e:
            prestar(sysd, a0, max_transitions=cap)
        assert (e.value.count, e.value.limit) == (cap + 1, cap)
    for cap in (total, total + 1, total + 10):
        sat, _ = prestar(sysd, a0, max_transitions=cap)
        assert sat.to_json() == full.to_json()
    return total


def test_cap_stops_one_transition_past_the_cap(fix2):
    a0 = exact_stack_automaton(2, {"a", "b", "c"}, {"p3": [s2(s1("b"))]})
    assert cap_differential(fix2, a0) > 1
    totals = []
    for order in (2, 3):
        for seed in range(1, 7):
            prof = RandomProfile(order=order, controls=5, letters=2, stacks=1,
                                 rules=14)
            sysd = gen_random_system(seed, prof)
            targets = enumerate_stacks(order, sysd.alphabet, 5)[:6]
            a0 = exact_stack_automaton(order, sysd.alphabet,
                                       {sysd.controls[-1]: targets})
            totals.append(cap_differential(sysd, a0))
    assert sum(totals) >= 80


def test_cap_counts_one_transition_for_candidates_sharing_a_label():
    # p and q read their order-1 stack from one label, so the two long
    # forms the rules derive add a single order-1 transition between them
    a0 = StackAutomaton(2, {"a"})
    p, q, r = (a0.control_state(c) for c in "pqr")
    label = State(1, ("l",))
    a0.add_high_transition(p, (), label=label)
    a0.add_high_transition(q, (), label=label)
    empty = frozenset()
    a0.add_long_form(LongForm(r, "a", empty, (empty, empty)))
    rules = [Rule("p", "a", ST.noop(), "r"), Rule("q", "a", ST.noop(), "r")]
    assert cap_differential(rules, a0) == 1


def test_benchmark_budget_stops_stop_one_past_the_cap():
    # the single workload's pinned stops, read from the benchmark's files
    workloads, pins = benchmark_workloads()
    stops = pins["single"]["undecided"]
    assert sorted(stops) == ["prestar:32", "prestar:61"]
    cap = workloads.SINGLE_MAX_TRANSITIONS
    assert cap == 4000
    for qid, error in stops.items():
        sysd = gen_random_system(int(qid.split(":")[1]), workloads.SINGLE_PROFILE)
        a0 = accept_all_automaton(sysd.order, sysd.alphabet, sysd.controls,
                                  [sysd.controls[-1]])
        with pytest.raises(BudgetExceeded) as e:
            prestar(sysd, a0, max_transitions=cap)
        assert type(e.value).__name__ == error
        assert (e.value.count, e.value.limit) == (cap + 1, cap), qid


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
