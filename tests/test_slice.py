"""Verdict slicing: only the rules that can fire from the start are solved.

Unit checks of ``systems._fireable`` on hand-built systems, the soundness
differential of sliced against unsliced verdicts, and a guard that global
sets and the reachability graph never slice.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import cpds.ordered
import cpds.phases
import cpds.scopes
import cpds.stacks as ST
import cpds.systems
from cpds import (
    BudgetExceeded,
    Mcpds,
    Rule,
    ordered_global,
    ordered_reachability,
    phase_global,
    phase_reachability,
    reachability_graph_dot,
    scope_global,
    scope_reachability,
)
from cpds.cli import main
from cpds.oracle import RandomProfile, gen_random_system
from cpds.ordered import _prepare, _reach_cleared
from cpds.sysfile import parse_system_file
from cpds.systems import _fireable, add_clearing_rules

from conftest import fix3, fix3_blocked, fix_ph, fix_sc

FIX = Path(__file__).parent / "fixtures"
BOT = ST.BOTTOM


def kept(sysd, q_in):
    return [list(rs) for rs in _fireable(sysd, q_in).rule_sets]


def rule_count(sysd) -> int:
    return sum(len(rs) for rs in sysd.rule_sets)


def test_a_rule_fires_only_after_its_letter_is_written():
    push = Rule("p", BOT, ST.push("a", 2), "q")
    write = Rule("q", "a", ST.rew("b"), "r")
    on_b = Rule("r", "b", ST.pop(1), "s")
    on_c = Rule("r", "c", ST.pop(1), "s")  # no rule writes c
    sysd = Mcpds(2, {"a", "b", "c"}, ["p", "q", "r", "s"],
                 [[on_b, write, push, on_c]], "unrestricted")
    sliced = _fireable(sysd, "p")
    # the rule on c goes; the others keep their order
    assert sliced.rule_sets == (
        tuple(r for r in sysd.rule_sets[0] if r != on_c),)
    # everything but the rules is kept
    assert (sliced.order, sliced.alphabet, sliced.controls, sliced.mode) == (
        sysd.order, sysd.alphabet, sysd.controls, sysd.mode)
    # without the rewrite, the rule on b is dead too
    assert kept(Mcpds(2, {"a", "b"}, ["p", "q", "r", "s"], [[push, on_b]],
                      "unrestricted"), "p") == [[push]]
    # from a control no rule leaves, nothing fires
    assert kept(sysd, "s") == [[]]


def test_a_letter_pushed_on_one_stack_does_not_reach_another():
    push1 = Rule("p", BOT, ST.push("a", 2), "q")
    pop2 = Rule("q", "a", ST.pop(1), "r")
    bottom2 = Rule("q", BOT, ST.noop(), "r")
    sysd = Mcpds(2, {"a"}, ["p", "q", "r"], [[push1], [bottom2, pop2]],
                 "unrestricted")
    assert kept(sysd, "p") == [[push1], [bottom2]]


def test_pop_collapse_and_copy_expose_no_new_letter():
    rules = [
        Rule("p", BOT, ST.push("a", 2), "q"),
        Rule("q", "a", ST.pop(1), "r"),
        Rule("q", "a", ST.collapse(2), "r"),
        Rule("q", "a", ST.copy(2), "r"),
        Rule("r", "b", ST.noop(), "s"),
        Rule("r", "a", ST.noop(), "t"),
    ]
    sysd = Mcpds(2, {"a", "b"}, ["p", "q", "r", "s", "t"], [rules],
                 "unrestricted")
    sliced, = kept(sysd, "p")
    assert set(sliced) == set(rules) - {Rule("r", "b", ST.noop(), "s")}


def test_clearing_pops_of_unseen_letters_are_dropped():
    push = Rule("p", BOT, ST.push("a", 2), "q")
    done = Rule("q", BOT, ST.noop(), "t")
    sysd = Mcpds(2, {"a", "b"}, ["p", "q", "t"], [[push], [done]], "ordered")
    cleared, fin = add_clearing_rules(_prepare(sysd), "t")
    sliced = _fireable(cleared, "p")
    pops = [{(r.letter, r.op) for r in rs if r.op.kind == "pop"
             and r.src == ("clear", i + 1)}
            for i, rs in enumerate(sliced.rule_sets)]
    every = {ST.pop(k) for k in (1, 2)}
    # stack 1 holds a, stack 2 only ever holds the bottom symbol
    assert pops == [{(x, op) for x in (BOT, "a") for op in every},
                    {(BOT, op) for op in every}]
    assert ordered_reachability(sysd, "p", "t") == _reach_cleared(
        cleared, "p", fin)


def test_fixtures_lose_no_rule_and_fix3_loses_its_unseen_clearing_pops():
    checked = 0
    for path in sorted(FIX.glob("*.cpds")):
        sf = parse_system_file(path.read_text())
        sysd = sf.system
        assert _fireable(sysd, sf.query_from).rule_sets == sysd.rule_sets
        checked += 1
    assert checked == 9
    for sysd in (fix3(), fix3_blocked()):
        cleared, _ = add_clearing_rules(_prepare(sysd), "q7")
        assert (rule_count(cleared), rule_count(_fireable(cleared, "q0"))) == (
            28, 21)


# criteria 4-6's profile; every control pair, bounds 1-3
PROFILE = dict(order=2, controls=3, letters=2, stacks=2, rules=6)
SEEDS = range(1, 4)


def _differential(mode, bounds, sliced, unsliced):
    """Sliced against unsliced verdicts; returns the verdicts compared,
    the positive ones and the queries whose slice dropped a rule."""
    compared = positive = dropped = 0
    for seed in SEEDS:
        sysd = gen_random_system(seed, RandomProfile(**PROFILE, mode=mode))
        for q_in in sysd.controls:
            for q_out in sysd.controls:
                if q_in == q_out and bounds != (None,):
                    continue  # the empty run, answered before any slice
                for b in bounds:
                    try:
                        want = unsliced(sysd, b, q_in, q_out)
                    except BudgetExceeded:
                        continue
                    got = sliced(sysd, b, q_in, q_out)
                    assert got == want, (seed, b, q_in, q_out)
                    compared += 1
                    positive += got
                dropped += rule_count(_fireable(sysd, q_in)) < rule_count(sysd)
    return compared, positive, dropped


def test_sliced_ordered_verdicts_equal_unsliced():
    def unsliced(sysd, _b, q_in, q_out):
        cleared, fin = add_clearing_rules(_prepare(sysd), q_out)
        return _reach_cleared(cleared, q_in, fin)

    compared, positive, dropped = _differential(
        "ordered", (None,),
        lambda sysd, _b, q_in, q_out: ordered_reachability(sysd, q_in, q_out),
        unsliced)
    assert compared == 27 and positive >= 16 and dropped == 27


def test_sliced_phase_verdicts_equal_unsliced():
    compared, positive, dropped = _differential(
        "unrestricted", (1, 2, 3), phase_reachability,
        lambda sysd, z, q_in, q_out: cpds.phases._PhaseSolver(sysd, z).reach(
            q_in, q_out))
    assert compared == 54 and positive >= 21 and dropped == 18


def test_sliced_scope_verdicts_equal_unsliced():
    compared, positive, dropped = _differential(
        "unrestricted", (1, 2, 3), scope_reachability, cpds.scopes._reach)
    assert compared == 54 and positive >= 21 and dropped == 18


def test_global_sets_and_the_graph_never_slice(monkeypatch):
    def refuse(*args):
        raise AssertionError("sliced")

    for module in (cpds.systems, cpds.ordered, cpds.phases, cpds.scopes):
        monkeypatch.setattr(module, "_fireable", refuse)
    with pytest.raises(AssertionError, match="sliced"):
        ordered_reachability(fix3(), "q0", "q7")
    ordered_global(fix3(), "q7")
    phase_global(fix_ph(), 2, "p4")
    scope_global(fix_sc(), 2, "c5")
    reachability_graph_dot(fix_sc(), 2, "c5")
    for name, q_out in (("fix3", "q7"), ("fixph", "p4"), ("fixsc", "c5")):
        with redirect_stdout(io.StringIO()):
            assert main(["global", str(FIX / f"{name}.cpds"),
                         "--to", q_out]) == 0
