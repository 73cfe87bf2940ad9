import random

import pytest

import cpds.stacks as ST
from cpds import (
    BudgetExceeded,
    Cpds,
    ExtRule,
    FiniteLanguage,
    LanguageQueryFailure,
    LongForm,
    Rule,
    bottom,
    exact_stack_automaton,
    prestar,
    prestar_extended,
)
from cpds.extended import _walk_back, ta_predecessors
from cpds.oracle import RandomProfile, enumerate_stacks, gen_random_system, prestar_oracle

from conftest import s1, s2


def test_finite_language_validation():
    r1 = Rule("p", "a", ST.rew("b"), "q")
    bad_pop = Rule("p", "a", ST.pop(1), "q")
    with pytest.raises(LanguageQueryFailure):
        FiniteLanguage([[bad_pop]])
    with pytest.raises(LanguageQueryFailure):
        FiniteLanguage([[r1, Rule("x", "b", ST.noop(), "y")]])  # does not chain
    FiniteLanguage([[r1]])


def test_ta_edges_backward():
    a = exact_stack_automaton(2, {"a", "b"}, {})
    r = Rule("p", "a", ST.rew("b"), "q")
    t2 = LongForm(a.peek_control("q"), "b", frozenset(), (frozenset(), frozenset()))
    edges = ta_predecessors(r, t2, a)
    assert len(edges) == 1
    t1, = edges
    assert t1.head == a.peek_control("p") and t1.letter == "a"
    # consuming rules never label edges
    assert ta_predecessors(Rule("p", "a", ST.pop(1), "q"), t2, a) == []


class TransitionAutomaton:
    """On-the-fly view of ``T(aut, t, t')``; words label its runs.  The
    reference for the backward walk the extended saturation runs."""

    def __init__(self, aut, initial, final):
        self.aut = aut
        self.initial = initial
        self.final = final

    def accepts(self, word) -> bool:
        """Is there a run from ``initial`` to ``final`` labelled ``word``?"""
        return self.initial.key in _walk_back(word, self.final, self.aut)


def test_transition_automaton_accepts_words():
    a = exact_stack_automaton(2, {"a", "b", "c"}, {})
    r1 = Rule("p", "a", ST.rew("b"), "m")
    r2 = Rule("m", "b", ST.rew("c"), "q")
    t_final = LongForm(a.peek_control("q"), "c", frozenset(), (frozenset(), frozenset()))
    t_init = LongForm(a.peek_control("p"), "a", frozenset(), (frozenset(), frozenset()))
    ta = TransitionAutomaton(a, t_init, t_final)
    assert ta.accepts([r1, r2])
    assert not ta.accepts([r2, r1])
    assert not ta.accepts([r1])
    assert TransitionAutomaton(a, t_final, t_final).accepts([])


def test_singleton_language_equals_plain_rule():
    for seed in range(25):
        prof = RandomProfile(order=2, controls=3, letters=2, stacks=1, rules=7)
        sysd = gen_random_system(seed, prof)
        gens = [r for r in sysd.rule_sets[0] if not r.consuming]
        cons = [r for r in sysd.rule_sets[0] if r.consuming]
        ext = [ExtRule(r.src, r.letter, FiniteLanguage([[r]], f"L{i}"), r.dst)
               for i, r in enumerate(gens)]
        sys_ext = Cpds(2, set(sysd.alphabet) - {ST.BOTTOM}, sysd.controls, cons, ext)
        a0 = exact_stack_automaton(2, sysd.alphabet,
                                   {sysd.controls[-1]: [bottom(2)]})
        try:
            r_plain, _ = prestar(sysd, a0)
            r_ext, _ = prestar_extended(sys_ext, a0)
        except BudgetExceeded:
            continue
        for q in sysd.controls:
            for w in enumerate_stacks(2, sysd.alphabet, 6):
                assert r_plain.member(q, w) == r_ext.member(q, w), (seed, q)


def test_no_extended_rules_is_bit_identical():
    for seed in range(10):
        prof = RandomProfile(order=2, controls=3, letters=2, stacks=1, rules=6)
        sysd = gen_random_system(seed, prof)
        a0 = exact_stack_automaton(2, sysd.alphabet, {sysd.controls[-1]: [bottom(2)]})
        try:
            r1, _ = prestar(sysd, a0)
            r2, _ = prestar_extended(sysd, a0)
        except BudgetExceeded:
            continue
        assert r1.canonical_key() == r2.canonical_key()


def test_pair_language_intermediate_not_materialised():
    # p -a-> (rew b; push c) -> q as one extended rule: the intermediate
    # control m never gains transitions in the saturated automaton
    r1 = Rule("p", "a", ST.rew("b"), "m")
    r2 = Rule("m", "b", ST.push("c", 2), "q")
    lang = FiniteLanguage([[r1, r2]], "L2")
    sysd = Cpds(2, {"a", "b", "c"}, ["p", "m", "q"], [], [ExtRule("p", "a", lang, "q")])
    target = s2(s1("c", ("b", ), "_")) if False else None
    w_end = ST.apply_op(ST.push("c", 2), ST.apply_op(ST.rew("b"), s2(s1("a", "_"))))
    a0 = exact_stack_automaton(2, {"a", "b", "c"}, {"q": [w_end]})
    sat, _ = prestar_extended(sysd, a0)
    assert sat.member("p", s2(s1("a", "_")))
    if sat.has_control("m"):
        assert not sat.long_forms_from(sat.require_control("m"))


def test_prestar_keeps_extended_rules():
    # prestar saturates with extended rules whenever the system has them
    r1 = Rule("p", "a", ST.rew("b"), "m")
    r2 = Rule("m", "b", ST.push("c", 2), "q")
    lang = FiniteLanguage([[r1, r2]], "L2")
    sys_ext = Cpds(2, {"a", "b", "c"}, ["p", "m", "q"], [],
                   [ExtRule("p", "a", lang, "q")])
    w_end = ST.apply_op(ST.push("c", 2), ST.apply_op(ST.rew("b"), s2(s1("a", "_"))))
    a0 = exact_stack_automaton(2, {"a", "b", "c"}, {"q": [w_end]})
    plain, _ = prestar(sys_ext, a0)
    ext, _ = prestar_extended(sys_ext, a0)
    assert plain.canonical_key() == ext.canonical_key()
    assert plain.member("p", s2(s1("a", "_"))) and ext.member("p", s2(s1("a", "_")))


def test_length_two_languages_against_step_oracle():
    checked = 0
    for seed in range(30):
        rng = random.Random(seed)
        prof = RandomProfile(order=2, controls=3, letters=2, stacks=1, rules=6)
        sysd = gen_random_system(seed, prof)
        gens = sorted(r for r in sysd.rule_sets[0] if not r.consuming)
        pairs = [(x, y) for x in gens for y in gens if x.dst == y.src]
        if not pairs:
            continue
        w1, w2 = rng.choice(pairs)
        lang = FiniteLanguage([[w1, w2]], "L2")
        sys_ext = Cpds(2, set(sysd.alphabet) - {ST.BOTTOM}, sysd.controls,
                       sysd.rule_sets[0], [ExtRule(w1.src, w1.letter, lang, w2.dst)])
        a0 = exact_stack_automaton(2, sysd.alphabet, {sysd.controls[-1]: [bottom(2)]})
        try:
            sat, _ = prestar_extended(sys_ext, a0)
        except BudgetExceeded:
            continue
        members, indefinite = prestar_oracle(sys_ext, a0, max_size=5, extended=True)
        if indefinite:
            continue
        for cfg, want in members.items():
            assert sat.member(cfg.control, cfg.stacks[0]) == want, (seed, cfg)
        checked += 1
    assert checked >= 15
