import pytest

import cpds.phases
import cpds.stacks as ST
from cpds import (
    BudgetExceeded,
    Configuration,
    Mcpds,
    NotSupported,
    Rule,
    StackAutomaton,
    bottom,
    build_pbcpds,
    phase_global,
    phase_reachability,
    prestar,
)
from cpds.extended import ta_predecessors
from cpds.oracle import (
    ExploreBounds,
    RandomProfile,
    control_reachability_oracle,
    enumerate_stacks,
    explore,
    gen_random_system,
)

from conftest import fix_ph


def test_fix_ph_threshold():
    sysd = fix_ph()
    assert phase_reachability(sysd, 1, "p0", "p4") is False
    assert phase_reachability(sysd, 2, "p0", "p4") is True
    assert phase_reachability(sysd, 3, "p0", "p4") is True


def test_zero_length_run():
    sysd = fix_ph()
    assert phase_reachability(sysd, 1, "p0", "p0") is True
    assert phase_reachability(sysd, 0, "p0", "p0") is True


def test_phase_bound_zero_is_not_supported():
    sysd = fix_ph()
    assert phase_reachability(sysd, 0, "p0", "p4") is False
    with pytest.raises(NotSupported, match="at least 1, got 0"):
        phase_global(sysd, 0, "p4")


def test_phase_branching_budget_names_limit_and_count(monkeypatch):
    monkeypatch.setattr(cpds.phases, "_MAX_BRANCHES", 1)
    pattern = r"phase branching budget exceeded: 2 branches, limit 1"
    with pytest.raises(BudgetExceeded, match=pattern) as e:
        phase_reachability(fix_ph(), 2, "p0", "p4")
    assert (e.value.count, e.value.limit) == (2, 1)
    with pytest.raises(BudgetExceeded, match=pattern) as e:
        phase_global(fix_ph(), 2, "p4")
    assert (e.value.count, e.value.limit) == (2, 1)


def test_product_transition_budget_names_limit_and_count(monkeypatch):
    monkeypatch.setattr(cpds.phases, "_MAX_PRODUCT_TRANSITIONS", 1)
    # the pass stops at the first addition past the cap
    pattern = (r"saturation transition cap exceeded: "
               r"2 transitions added, limit 1$")
    with pytest.raises(BudgetExceeded, match=pattern) as e:
        phase_reachability(fix_ph(), 2, "p0", "p4")
    assert (e.value.count, e.value.limit) == (2, 1)
    with pytest.raises(BudgetExceeded, match=pattern) as e:
        phase_global(fix_ph(), 2, "p4")
    assert (e.value.count, e.value.limit) == (2, 1)


@pytest.mark.parametrize("branches, transitions, message", [
    # the first plan popping stack 1 saturates past the cap
    (2, 3, "saturation transition cap exceeded: 4 transitions added, "
           "limit 3"),
    # the seed step's second saturation opens the second branch, before
    # its third saturation runs
    (1, 4, "phase branching budget exceeded: 2 branches, limit 1"),
    (2, 4, "phase branching budget exceeded: 3 branches, limit 2"),
])
def test_shared_seed_step_keeps_the_first_budget_stop(monkeypatch, branches,
                                                      transitions, message):
    # the messages are those of a solve that saturates the seed step once
    # per plan, so sharing it moves no budget stop
    monkeypatch.setattr(cpds.phases, "_MAX_BRANCHES", branches)
    monkeypatch.setattr(cpds.phases, "_MAX_PRODUCT_TRANSITIONS", transitions)
    with pytest.raises(BudgetExceeded) as e:
        phase_global(fix_ph(), 2, "p4")
    assert str(e.value) == message


def test_pbcpds_rule_families():
    from cpds.automata import accept_all_automaton

    sysd = fix_ph()
    autos = {1: accept_all_automaton(2, sysd.alphabet, sysd.controls, ["p4"])}
    head = autos[1].require_control("p4")
    tprimes = {1: autos[1].long_forms_from(head)[0]}
    src = build_pbcpds(sysd, 0, autos, tprimes, "p4")
    # exit family: one rule per letter into the exit control
    exits = src.rules_into("p4")
    assert {r.letter for r in exits} == set(sysd.alphabet)
    assert all(r.op == ST.noop() for r in exits)
    exit_src = exits[0].src
    assert exit_src[0] == "p4" and dict(exit_src[1])[1] == tprimes[1]
    # popping-stack rules keep their operation; tracked components move
    inner = src.rules_into(exit_src)
    own = [r for r in inner if not r.op == ST.noop()]
    for r in own:
        assert r.op in {x.op for x in sysd.rule_sets[0]}
    # generating rules of the other stack appear as pure control moves
    other = [r for r in inner if r.op == ST.noop()]
    assert all(isinstance(r.src, tuple) for r in other)


def test_degenerate_product_single_stack_rules():
    # when only the popping stack has rules the product carries just those
    # moves (all tracked components step by reheads)
    r1 = [Rule("x", "_", ST.push("a", 2), "y")]
    sysd = Mcpds(2, {"a"}, ["x", "y"], [r1, []], ("phase", 1))
    assert phase_reachability(sysd, 1, "x", "y") is True
    assert phase_reachability(sysd, 1, "y", "x") is False


def test_phase_random_differential_and_monotone():
    decided = 0
    for seed in range(12):
        prof = RandomProfile(order=2, controls=3, letters=2, stacks=2,
                             rules=6, mode="unrestricted")
        sysd = gen_random_system(seed, prof)
        q_in, q_out = sysd.controls[0], sysd.controls[-1]
        prev = False
        for z in (1, 2, 3):
            v = control_reachability_oracle(
                sysd.with_mode(("phase", z)), q_in, q_out,
                ExploreBounds(40, 60, 30000),
            )
            if v.kind == "unreachable-within-bounds":
                continue
            got = phase_reachability(sysd, z, q_in, q_out)
            assert got == v.definitely_reachable, (seed, z)
            assert not (prev and not got), (seed, z, "monotonicity")
            prev = got
            decided += 1
    assert decided >= 30


def test_phase_reachability_agrees_with_phase_global():
    # the verdict walk shares plan suffixes; the global solve walks each
    # plan in turn past the shared seed step, so the two paths check each
    # other
    prof = RandomProfile(order=2, controls=3, letters=2, stacks=2, rules=6,
                         mode="unrestricted")
    for seed in range(1, 21):
        sysd = gen_random_system(seed, prof)
        q_out = sysd.controls[-1]
        bots = (bottom(2), bottom(2))
        for z in (1, 2):
            gset = phase_global(sysd, z, q_out)
            for q_in in sysd.controls[:-1]:
                assert (phase_reachability(sysd, z, q_in, q_out)
                        == gset.member(Configuration(q_in, bots))), (seed, z, q_in)


def test_phase_global_saturates_the_seed_step_once_per_popping_stack(
        monkeypatch):
    # 100 plans of z=2 over 5 controls and 2 stacks, 3 saturations to a
    # step: 450 product saturations when every plan saturates its own seed
    # step, 300 of them there; 6 seed saturations when plans share them
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return prestar(*args, **kw)

    monkeypatch.setattr(cpds.phases, "prestar", counted)
    sysd = fix_ph()
    gset = phase_global(sysd, 2, "p4")
    assert len(calls) == 156
    bots = (bottom(2), bottom(2))
    for q_in in sysd.controls:
        assert (phase_reachability(sysd, 2, q_in, "p4")
                == gset.member(Configuration(q_in, bots))), q_in


def test_phase_global_membership():
    sysd = fix_ph()
    gset = phase_global(sysd, 2, "p4")
    bot = bottom(2)
    assert gset.member(Configuration("p0", (bot, bot)))
    assert gset.member(Configuration("p4", (bot, bot)))
    pool = enumerate_stacks(2, {"a", "b"}, 6)
    for q in sysd.controls:
        for w1 in pool[:10]:
            for w2 in pool[:10]:
                cfg = Configuration(q, (w1, w2))
                res = explore(sysd.with_mode(("phase", 2)), cfg,
                              ExploreBounds(30, 50, 8000))
                if not res.closed:
                    continue
                assert gset.member(cfg) == res.reachable("p4"), cfg


def test_phase_global_isolated_target_empty():
    r1 = [Rule("x", "_", ST.push("a", 2), "x")]
    sysd = Mcpds(2, {"a"}, ["x", "z"], [r1, []], ("phase", 2))
    gset = phase_global(sysd, 2, "z")
    # only z itself can "reach" z
    assert gset.member(Configuration("z", (bottom(2), bottom(2))))
    assert not gset.member(Configuration("x", (bottom(2), bottom(2))))


def reference_rules_into(source, dst):
    """``rules_into`` with a transition-automaton predecessor per tracked
    component, the construction noop moves reduce to (reference)."""
    def noop_preds(q, qdst, ta):
        out = []
        for j, t2 in ta:
            rule = Rule(q, t2.letter, ST.noop(), qdst)
            preds = ta_predecessors(rule, t2, source.autos[j])
            if not preds:
                return None
            out.append((j, preds[0]))
        return tuple(out)

    sysd, s = source.sys, source.s
    letters = list(sysd.alphabet)
    if dst == source.q_cur:
        src = (source.q_cur, tuple(sorted(source.tprimes.items())))
        return [Rule(src, a, ST.noop(), source.q_cur) for a in letters]
    if not cpds.phases._is_product_control(dst):
        return []
    q2, ta2 = dst
    out = []
    for r in sysd.rule_sets[s]:
        if r.dst != q2:
            continue
        ta1 = noop_preds(r.src, r.dst, ta2)
        if ta1 is not None:
            out.append(Rule((r.src, ta1), r.letter, r.op, dst))
    for j in range(sysd.stacks):
        for r in sysd.rule_sets[j]:
            if j == s or r.consuming or r.dst != q2:
                continue
            t2 = dict(ta2).get(j)
            if t2 is None:
                continue
            for t1 in ta_predecessors(r, t2, source.autos[j]):
                rest = tuple((jj, tt) for (jj, tt) in ta2 if jj != j)
                ta1 = noop_preds(r.src, r.dst, rest)
                if ta1 is None:
                    continue
                merged = tuple(sorted(ta1 + ((j, t1),)))
                for a in letters:
                    out.append(Rule((r.src, merged), a, ST.noop(), dst))
    return out


def test_product_noop_moves_are_reheads(monkeypatch):
    # every tracked transition of a product control (q, ta) is headed at its
    # automaton's state for q, so each noop predecessor exists and is that
    # transition re-headed; and every admissible entry has long forms
    asked = []
    real_rules = cpds.phases._PbSource.rules_into
    real_entries = cpds.phases._PhaseSolver._admissible_entries

    def rules_into(self, dst):
        got = real_rules(self, dst)
        assert got == reference_rules_into(self, dst), dst
        asked.append(cpds.phases._is_product_control(dst))
        return got

    def admissible_entries(self, sat, q_prev):
        got = real_entries(self, sat, q_prev)
        for ta in got:
            assert sat.long_forms_from(sat.require_control((q_prev, ta)))
        return got

    monkeypatch.setattr(cpds.phases._PbSource, "rules_into", rules_into)
    monkeypatch.setattr(cpds.phases._PhaseSolver, "_admissible_entries",
                        admissible_entries)
    for z in (1, 2, 3):
        phase_global(fix_ph(), z, "p4")
    prof = RandomProfile(order=2, controls=3, letters=2, stacks=2, rules=6,
                         mode="unrestricted")
    for seed in range(1, 7):
        sysd = gen_random_system(seed, prof)
        for z in (1, 2):
            cpds.phases._PhaseSolver(sysd, z).reach(sysd.controls[0],
                                                    sysd.controls[-1])
    assert sum(asked) >= 1000


def test_saturations_need_a_final_transition_on_every_other_stack(
        monkeypatch):
    # a product over an empty option list has no element, so no saturation
    calls = []
    monkeypatch.setattr(cpds.phases, "prestar",
                        lambda *args, **kw: calls.append(1) or prestar(*args, **kw))
    solver = cpds.phases._PhaseSolver(fix_ph(), 1)
    seed = solver.seed_autos("p4")
    bare = StackAutomaton(2, seed[1].alphabet)
    bare.control_state("p4")
    assert list(solver._saturations({0: seed[0], 1: bare}, "p4", 0)) == []
    # one saturation per final transition of the other stack otherwise
    tprimes = seed[1].long_forms_from(seed[1].require_control("p4"))
    assert len(list(solver._saturations(seed, "p4", 0))) == len(tprimes) == 3
    assert len(calls) == 3
