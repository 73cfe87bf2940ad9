import random

import pytest

from cpds import Mcpds, Rule, mk_char, mk_stack
import cpds.stacks as ST

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def s1(*chars):
    out = []
    for c in chars:
        if isinstance(c, tuple):
            out.append(mk_char(c[0], c[1]))
        else:
            out.append(mk_char(c))
    return mk_stack(1, tuple(out))


def s2(*stacks):
    return mk_stack(2, tuple(stacks))


def ask_in_shuffled_order(a, seed):
    """Ask every singleton and same-order pair of states of ``a``, shuffled.

    Each answer must equal the one a fresh copy gives when asked only that
    query, and each positive query's witness must be accepted jointly.
    Returns the number of positive and of negative answers.
    """
    queries = []
    for k in sorted(a.states):
        states = list(a.states[k])
        queries += [[s] for s in states]
        queries += [[s, t] for i, s in enumerate(states) for t in states[i + 1:]]
    random.Random(seed).shuffle(queries)
    revision = a.revision
    counts = [0, 0]
    for qs in queries:
        got = a.nonempty(qs)
        assert got == a.copy().nonempty(qs), qs
        if got:
            w = a.witness(qs)
            assert all(a.accepts(s, w) for s in qs), (qs, w)
        else:
            assert a.witness(qs) is None, qs
        counts[not got] += 1
    assert a.revision == revision
    return counts


@pytest.fixture
def fix1():
    """Single pop rule; target accepts exactly (q, empty)."""
    return Mcpds(2, {"a"}, ["p", "q"], [[Rule("p", "a", ST.pop(1), "q")]], "single")


@pytest.fixture
def fix2():
    """The push/copy/collapse chain of the worked example, as rules."""
    rules = [
        Rule("p0", "a", ST.push("c", 2), "p1"),
        Rule("p1", "c", ST.copy(2), "p2"),
        Rule("p2", "c", ST.collapse(2), "p3"),
    ]
    return Mcpds(2, {"a", "b", "c"}, ["p0", "p1", "p2", "p3"], [rules], "single")


def fix3():
    """Ordered two-stack instance: stack 2 pops only once stack 1 is empty."""
    r1 = [
        Rule("q0", "_", ST.push("a", 2), "q1"),
        Rule("q2", "a", ST.copy(2), "q3"),
        Rule("q3", "a", ST.pop(1), "q4"),
        Rule("q4", "_", ST.pop(2), "q5"),
        Rule("q5", "a", ST.pop(1), "q6"),
    ]
    r2 = [
        Rule("q1", "_", ST.push("b", 2), "q2"),
        Rule("q6", "b", ST.pop(1), "q7"),
    ]
    return Mcpds(2, {"a", "b"}, [f"q{i}" for i in range(8)], [r1, r2], "ordered")


def fix3_blocked():
    """Same shape, but the stack-2 pop fires while stack 1 is non-empty."""
    r1 = [
        Rule("q0", "_", ST.push("a", 2), "q1"),
        Rule("q2", "a", ST.copy(2), "q3"),
        Rule("q3", "a", ST.pop(1), "q4"),
        Rule("q4", "_", ST.pop(2), "q5"),
        Rule("q5", "a", ST.pop(1), "q6"),
    ]
    r2 = [
        Rule("q1", "_", ST.push("b", 2), "q2"),
        Rule("q3", "b", ST.pop(1), "q7"),
    ]
    return Mcpds(2, {"a", "b"}, [f"q{i}" for i in range(8)], [r1, r2], "ordered")


def fix_ph():
    """Pop stack 1 then stack 2: two phases needed."""
    r1 = [Rule("p0", "_", ST.push("a", 2), "p1"), Rule("p2", "a", ST.pop(1), "p3")]
    r2 = [Rule("p1", "_", ST.push("b", 2), "p2"), Rule("p3", "b", ST.pop(1), "p4")]
    return Mcpds(2, {"a", "b"}, [f"p{i}" for i in range(5)], [r1, r2], ("phase", 2))


def fix_sc():
    """Character created in round 1 and popped in round 3."""
    r1 = [
        Rule("c0", "_", ST.push("a", 2), "c1"),
        Rule("c2", "a", ST.noop(), "c3"),
        Rule("c4", "a", ST.pop(1), "c5"),
    ]
    r2 = [
        Rule("c1", "_", ST.push("b", 2), "c2"),
        Rule("c3", "b", ST.rew("b"), "c4"),
    ]
    return Mcpds(2, {"a", "b"}, [f"c{i}" for i in range(6)], [r1, r2], ("scope", 2))
