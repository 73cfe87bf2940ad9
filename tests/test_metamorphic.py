"""Metamorphic relations between the solvers' global sets.

They need no oracle search: each relation ties one solver's answer to
another's on the same configurations.
"""

from cpds import (
    Configuration,
    Mcpds,
    accept_all_automaton,
    enumerate_stacks,
    ordered_global,
    phase_global,
    prestar,
    scope_global,
)
from cpds.oracle import RandomProfile, gen_random_system


def test_one_stack_global_sets_equal_single_stack_prestar():
    # with one stack, the ordered discipline, one phase and scope 1 restrict
    # nothing, so each set is single-stack pre* of the target control
    prof = RandomProfile(order=2, controls=3, letters=2, stacks=1, rules=6,
                         mode="ordered")
    compared = positive = 0
    for seed in range(1, 21):
        sysd = gen_random_system(seed, prof)
        q_out = sysd.controls[-1]
        single = Mcpds(sysd.order, sysd.alphabet, sysd.controls,
                       sysd.rule_sets, "single")
        want, _ = prestar(single, accept_all_automaton(
            sysd.order, sysd.alphabet, sysd.controls, [q_out]))
        pool = enumerate_stacks(sysd.order, sysd.alphabet, 5)
        for gset in (ordered_global(sysd, q_out), phase_global(sysd, 1, q_out),
                     scope_global(sysd, 1, q_out)):
            for q in sysd.controls:
                for w in pool:
                    got = gset.member(Configuration(q, (w,)))
                    assert got == want.member(q, w), (seed, q, w)
                    compared += 1
                    positive += got
    assert compared == 2160 and 0 < positive < compared
