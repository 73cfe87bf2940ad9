import pytest

import cpds.ordered
import cpds.stacks as ST
from cpds import (
    BudgetExceeded,
    Configuration,
    Mcpds,
    NotNormalized,
    Rule,
    bottom,
    build_langcheckcpds,
    build_leftcpda,
    build_rightcpds,
    normalize_ordered,
    ordered_global,
    ordered_reachability,
)
from cpds.automata import exact_stack_automaton, flat_key
from cpds.extended import prestar_extended, state_control
from cpds.oracle import (
    ExploreBounds,
    RandomProfile,
    control_reachability_oracle,
    enumerate_stacks,
    explore,
    gen_random_system,
)
from cpds.ordered import CpdaLang, OrderedSolver, _require_normalized
from cpds.systems import add_clearing_rules

from conftest import fix3, fix3_blocked


def test_leftcpda_rule_families():
    sysd = normalize_ordered(fix3())
    left = build_leftcpda(sysd)
    assert left.stacks == sysd.stacks - 1
    # a last-stack generating rule appears once per tracked letter, as a
    # control move on the first stack with a no-effect operation
    push_b = [r for rs in left.rule_sets for r in rs
              if r.inp.op == ST.push("b", 2)]
    assert push_b and all(r.op == ST.noop() for r in push_b)
    # quantified over every possible first-stack guard letter
    assert {r.letter for r in push_b} == set(sysd.alphabet)
    # tracked character: the rule's own letter before, the pushed one after
    assert all(r.src[1] == r.inp.letter for r in push_b)
    assert all(r.dst[1] == "b" for r in push_b)
    # earlier-stack rules are lifted pointwise with a no-effect input
    lifted = [r for rs in left.rule_sets for r in rs
              if r.op == ST.copy(2)]
    assert lifted and all(r.inp.op == ST.noop() for r in lifted)
    # consuming last-stack rules are not represented
    assert not any(r.inp.op.consuming for rs in left.rule_sets for r in rs)


def test_rightcpds_shape():
    sysd = normalize_ordered(fix3())
    right = build_rightcpds(sysd)
    assert right.stacks == 1
    # plain rules are exactly the last stack's rules
    assert set(right.rule_sets[0]) == set(sysd.rule_sets[-1])
    # one extended rule per (bottom push of an earlier stack, letter, exit)
    pushes = [r for r in sysd.rule_sets[0]
              if r.letter == ST.BOTTOM and r.op.kind == "push"]
    expect = len(pushes) * len(sysd.alphabet) * len(sysd.controls)
    assert len(right.ext_rule_sets[0]) == expect


def test_rightcpds_requires_normal_form():
    bad = Mcpds(2, {"a"}, ["p", "q"],
                [[Rule("p", "_", ST.noop(), "q")], []], "ordered")
    with pytest.raises(NotNormalized):
        build_rightcpds(bad)


def test_fix3_reachable_and_blocked():
    assert ordered_reachability(fix3(), "q0", "q7") is True
    assert ordered_reachability(fix3_blocked(), "q0", "q7") is False
    # the blocked variant is reachable without the discipline, so the
    # verdict really is the ordered filter's doing
    v = control_reachability_oracle(fix3_blocked().with_mode("unrestricted"),
                                    "q0", "q7")
    assert v.definitely_reachable


def test_single_stack_base_case():
    rules = [Rule("p", "_", ST.push("a", 2), "m"), Rule("m", "a", ST.pop(1), "t")]
    sysd = Mcpds(2, {"a"}, ["p", "m", "t"], [rules], "ordered")
    assert ordered_reachability(sysd, "p", "t") is True
    assert ordered_reachability(sysd, "t", "p") is False


def test_langcheck_product_matches_bounded_oracle():
    """The entry/exit product and the batch decision agree with exploring
    the product directly."""
    sysd = normalize_ordered(fix3())
    cleared, fin = add_clearing_rules(sysd, "q7")
    solver = OrderedSolver()
    right = build_rightcpds(cleared, solver)
    a0 = exact_stack_automaton(2, cleared.alphabet, {fin: [bottom(2)]})
    bm, _ = prestar_extended(right, a0)
    left = build_leftcpda(cleared)
    positives = negatives = 0
    for er in right.ext_rule_sets[0]:
        lang = er.lang
        head = bm.controls.get(lang.q2)
        if head is None:
            continue
        for tprime in bm.long_forms_from(head)[:3]:
            batch = lang.solver.langcheck_batch(
                left, bm, lang.q1, lang.a, tprime, lang.b, lang.i
            )
            # candidates with the right head control and letter, in and out
            cands = list(batch[:2])
            q1_head = bm.controls.get(lang.q1)
            if q1_head is not None and negatives < 6:
                from cpds import LongForm

                probe = LongForm(q1_head, lang.a, frozenset(),
                                 (frozenset(), frozenset()))
                if probe not in batch:
                    cands.append(probe)
            for t in cands:
                prod, enter, leave = build_langcheckcpds(
                    left, bm, t, tprime, lang.b, lang.i
                )
                res = explore(
                    prod,
                    Configuration(enter, tuple(bottom(2) for _ in range(prod.stacks))),
                    ExploreBounds(25, 50, 8000),
                )
                expected = t in batch
                if expected:
                    assert res.reachable(leave), (er, t)
                    positives += 1
                elif res.closed:
                    assert not res.reachable(leave), (er, t)
                    negatives += 1
    assert positives >= 2 and negatives >= 2


def test_ordered_random_differential():
    decided = 0
    for seed in range(14):
        prof = RandomProfile(order=2, controls=3, letters=2, stacks=2,
                             rules=6, mode="ordered")
        sysd = gen_random_system(seed, prof)
        q_in, q_out = sysd.controls[0], sysd.controls[-1]
        v = control_reachability_oracle(sysd, q_in, q_out, ExploreBounds(40, 60, 20000))
        if v.kind == "unreachable-within-bounds":
            continue
        got = ordered_reachability(sysd, q_in, q_out)
        assert got == v.definitely_reachable, seed
        decided += 1
    assert decided >= 10


def test_ordered_global_fix3():
    sysd = fix3()
    gset = ordered_global(sysd, "q7")
    bot = bottom(2)
    assert gset.member(Configuration("q0", (bot, bot)))
    assert gset.member(Configuration("q7", (bot, bot)))
    pool = enumerate_stacks(2, {"a", "b"}, 6)
    mismatches = 0
    for q in sysd.controls:
        for w1 in pool[:12]:
            for w2 in pool[:12]:
                cfg = Configuration(q, (w1, w2))
                res = explore(sysd, cfg, ExploreBounds(30, 50, 8000))
                if not res.closed:
                    continue
                if gset.member(cfg) != res.reachable("q7"):
                    mismatches += 1
    assert mismatches == 0


def test_ordered_global_single_stack_is_prestar():
    rules = [Rule("p", "_", ST.push("a", 2), "m"), Rule("m", "a", ST.pop(1), "t")]
    sysd = Mcpds(2, {"a"}, ["p", "m", "t"], [rules], "ordered")
    gset = ordered_global(sysd, "t")
    assert gset.stacks == 1
    assert gset.member(Configuration("p", (bottom(2),)))
    assert gset.member(Configuration("t", (bottom(2),)))


def _cleared_fix3():
    return add_clearing_rules(normalize_ordered(fix3()), "q7")


def _twin(sysd, controls=None):
    """A distinct ``Mcpds`` object with the same (or reordered) content."""
    return Mcpds(sysd.order, sysd.alphabet,
                 list(controls if controls is not None else sysd.controls),
                 [list(rs) for rs in sysd.rule_sets], sysd.mode)


def test_leftcpda_rule_order_is_the_flat_key_order():
    left = build_leftcpda(normalize_ordered(fix3()))
    for rs in left.rule_sets:
        keys = [flat_key((r.src, r.letter, repr(r.inp), repr(r.op), r.dst))
                for r in rs]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)


def test_empty_global_memo_is_keyed_by_content():
    cleared, fin = _cleared_fix3()
    solver = OrderedSolver()
    first = solver.empty_global(cleared, fin, cleared.stacks)
    # nested products repeat: fewer solves than calls
    assert 0 < solver.stats["global_solves"] < solver.stats["global_calls"]
    solves, calls = solver.stats["global_solves"], solver.stats["global_calls"]
    twin = _twin(cleared)
    assert twin is not cleared
    assert solver.empty_global(twin, fin, twin.stacks) is first
    assert solver.stats["global_solves"] == solves
    assert solver.stats["global_calls"] == calls + 1
    fresh = OrderedSolver().empty_global(twin, fin, twin.stacks)
    assert [t.key() for t in fresh.tuples] == [t.key() for t in first.tuples]


def test_empty_global_memo_separates_target_and_controls_order():
    cleared, fin = _cleared_fix3()
    solver = OrderedSolver()
    first = solver.empty_global(cleared, fin, cleared.stacks)
    solves = solver.stats["global_solves"]
    solver.empty_global(cleared, "q7", cleared.stacks)
    assert solver.stats["global_solves"] > solves
    solves = solver.stats["global_solves"]
    flipped = _twin(cleared, reversed(cleared.controls))
    again = solver.empty_global(flipped, fin, flipped.stacks)
    assert solver.stats["global_solves"] > solves
    assert again is not first
    assert {t.key() for t in again.tuples} == {t.key() for t in first.tuples}


def test_product_control_budget_names_limit_and_count(monkeypatch):
    monkeypatch.setattr(cpds.ordered, "_MAX_PRODUCT_CONTROLS", 2)
    with pytest.raises(BudgetExceeded,
                       match=r"product control budget exceeded: 3 controls, limit 2") as e:
        ordered_global(fix3(), "q7")
    assert (e.value.count, e.value.limit) == (3, 2)


def test_solves_keep_their_construction_invariants(monkeypatch):
    # the last-stack saturation registers every declared control, so the
    # global solve may require each one; and the extended pass asks a
    # segment language only about transitions headed at its exit control
    registered, asked = [], []
    real_last = OrderedSolver._prestar_last
    real_initials = CpdaLang.initials

    def prestar_last(self, sys, target_control, left=None):
        b = real_last(self, sys, target_control, left)
        registered.append(all(b.has_control(q) for q in sys.controls))
        return b

    def initials(self, aut, t2):
        asked.append(state_control(t2.head) == self.q2)
        return real_initials(self, aut, t2)

    monkeypatch.setattr(OrderedSolver, "_prestar_last", prestar_last)
    monkeypatch.setattr(CpdaLang, "initials", initials)
    ordered_global(fix3(), "q7")
    ordered_global(fix3_blocked(), "q7")
    prof = RandomProfile(order=2, controls=3, letters=2, stacks=2, rules=6,
                         mode="ordered")
    for seed in range(1, 6):
        sysd = gen_random_system(seed, prof)
        ordered_global(sysd, sysd.controls[-1])
    assert len(registered) >= 20 and all(registered)
    assert len(asked) >= 100 and all(asked)


def test_bottom_normal_form_has_one_owner():
    # the right system accepts a system exactly when normalising leaves it
    # as it is: one-rule systems, one for each bottom-rule kind and stack
    ops = [ST.noop(), ST.rew("a"), ST.push("a", 1), ST.push("a", 2),
           ST.pop(1), ST.pop(2), ST.copy(2), ST.collapse(2)]
    outcomes = set()
    for i in range(3):
        for op in ops:
            rule_sets = [[], [], []]
            rule_sets[i] = [Rule("p", ST.BOTTOM, op, "q")]
            sysd = Mcpds(2, {"a"}, ["p", "q"], rule_sets, "ordered")
            try:
                norm = normalize_ordered(sysd)
            except NotNormalized:
                norm = None
            unchanged = norm is not None and (
                (norm.controls, norm.alphabet, norm.rule_sets)
                == (sysd.controls, sysd.alphabet, sysd.rule_sets))
            try:
                _require_normalized(sysd)
                accepted = True
            except NotNormalized:
                accepted = False
            assert accepted == unchanged, (i, op)
            outcomes.add((accepted, norm is None))
    assert outcomes == {(True, False), (False, False), (False, True)}
