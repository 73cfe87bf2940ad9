"""The four benchmark workloads: their instances, queries and oracle answers.

Each workload is a fixed list of queries against ``cpds``.  The instances
are fixed (generator seeds, fixtures and hand-written systems), because the
per-instance cost of the multi-stack solvers spans three decades: drawing
the instances from the run seed made the medians and tails move by 30-200%
between seeds at any size that fits the run budget.  The run seed picks
what does not move the timing distribution: the order in which the queries
run and, on the multi-stack workloads, which configurations the membership
probes ask about.

``build`` is the set-up the benchmark times.  ``reference`` is the oracle
work, done once in the parent process and never timed.  ``execute`` runs
one query and returns its answer.
"""

from __future__ import annotations

import hashlib
import io
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import cpds
import cpds.stacks as ST
from cpds import cli, oracle, sysfile

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

# budget errors are answers ("undecided"), never failures
BUDGET_ERRORS = (cpds.BudgetExceeded, cpds.VertexBudgetExceeded)

TWO_STACK = dict(order=2, controls=3, letters=2, stacks=2, rules=6)
ORDERED_PROFILE = oracle.RandomProfile(**TWO_STACK, mode="ordered")
BOUNDED_PROFILE = oracle.RandomProfile(**TWO_STACK, mode="unrestricted")
SINGLE_PROFILE = oracle.RandomProfile(order=3, controls=10, letters=3,
                                      stacks=1, rules=40)
SINGLE_MAX_TRANSITIONS = 4000
PROBES_PER_SET = 64
PROBE_STACK_SIZE = 5
SINGLE_POOL_SIZE = 6

# per workload: nominal wall seconds of one pass, its interpreter start and
# untimed work included, with its share of the run's oracle work (a run makes
# --seconds / pass_s passes), generator seeds, seeds that also get a global
# set, fixtures (with the global target)
PLAN = {
    "ordered": dict(pass_s=7.5, check_seeds=range(1, 11),
                    global_seeds=range(1, 11),
                    fixtures=[("fix3", "q7"), ("fix3_blocked", "q7")]),
    "phase": dict(pass_s=6.5, check_seeds=range(1, 11),
                  global_seeds=range(1, 11),
                  fixtures=[("fixph", "p4"), ("fixph_z1", "p4")],
                  three_stack=(1, 2)),
    "scope": dict(pass_s=7, check_seeds=range(1, 9),
                  global_seeds=range(1, 9),
                  fixtures=[("fixsc", "c5"), ("fixsc_z1", "c5")],
                  three_stack=(1, 2, 3)),
    "single": dict(pass_s=7.5, check_seeds=range(1, 81),
                   global_seeds=range(1, 32),
                   fixtures=[("fix1", "q"), ("fix2", "p3"), ("ecpds", "q")],
                   selftest_seeds=40, one_sided_seeds=(32, 61),
                   dropped_seeds=(1, 6, 7, 9, 13, 14, 16, 19, 20, 27, 28, 31,
                                  33, 35, 36, 39, 40, 43, 46, 47, 50, 52, 53,
                                  54, 57, 58, 66, 68, 69, 70, 76, 77)),
}
# Single's instances are fixed once, by the oracle alone, so that no change
# to the code under test can move an instance in or out of the workload.
# ``dropped_seeds``: the seeds whose pre* prestar_oracle cannot close within
# SINGLE_POOL_SIZE; they are never generated.  ``one_sided_seeds``: two more
# it cannot close that stay all the same, because the capped solver stopped
# on them with BudgetExceeded when the benchmark was made (pins.json records
# the stops).  Once a solver decides them, the oracle's definite (positive)
# answers check it.  Any other instance the oracle cannot close fails the run.
WORKLOADS = tuple(PLAN)


@dataclass
class Query:
    """One timed request.  ``kind`` is check, global or member."""

    qid: str
    kind: str
    run: object  # () -> answer
    # oracle inputs, consumed only by ``reference``
    oracle: object = None
    # a member query reads the set or automaton an earlier query produced
    needs: str | None = None
    probes: list = field(default_factory=list)


@dataclass
class Workload:
    queries: list
    results: dict  # query id -> the set or automaton a member query reads


def three_stack(last_pop_src):
    """The three-stack system of the depth tests (``q0`` to ``q6``)."""
    R = cpds.Rule
    r1 = [R("q0", "_", ST.push("a", 2), "q1"), R("q3", "a", ST.pop(1), "q4")]
    r2 = [R("q1", "_", ST.push("b", 2), "q2"), R("q4", "b", ST.pop(1), "q5")]
    r3 = [R("q2", "_", ST.push("c", 2), "q3"),
          R(last_pop_src, "c", ST.pop(1), "q6")]
    return cpds.Mcpds(2, {"a", "b", "c"}, [f"q{i}" for i in range(7)],
                      [r1, r2, r3], "ordered")


def _capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


_STATISTICS = re.compile(r'\n  "statistics": .*?(?=\n  "|\n}\n$)', re.S)


def document_digests(text: str):
    """``(raw, pinned)`` sha256 of a result document.

    ``raw`` covers every byte and is compared between processes; ``pinned``
    leaves out the top-level ``statistics`` member, whose counters are meant
    to grow, and is compared with the committed pins.  Documents are dumped
    with two-space indentation, so a top-level member is the only line that
    starts with exactly two spaces and a quote.
    """
    raw = hashlib.sha256(text.encode()).hexdigest()
    start = text.find('\n  "statistics": ')
    if start >= 0:
        text = text[:start] + text[_STATISTICS.match(text, start).end():]
    pinned = hashlib.sha256(text.encode()).hexdigest()
    return raw, pinned


def _set_document(gset, mode, q_out):
    doc = sysfile.result_document(
        "global",
        "reachable" if not gset.is_empty() else "unreachable",
        {"mode": mode, "to": str(q_out), "tuples": len(gset.tuples)},
        config_set=gset.to_json(),
    )
    return sysfile.dump_document(doc)


class _QueryList:
    def __init__(self, name, seed):
        self.rng = random.Random(f"{name}:{seed}")
        self.queries = []
        self.results = {}

    def add(self, qid, kind, run, oracle=None, needs=None, probes=()):
        self.queries.append(Query(qid, kind, run, oracle, needs, list(probes)))

    # -- fixtures through the command line, in-process ---------------------

    def fixture(self, name, q_out):
        path = str(FIXTURES / f"{name}.cpds")
        sf = sysfile.parse_system_file((FIXTURES / f"{name}.cpds").read_text())

        def check():
            code, _text = _capture(["check", path])
            if code not in (0, 1):
                raise RuntimeError(f"cpds check {name} exited {code}")
            return code == 0

        def glob():
            code, text = _capture(["global", path, "--to", q_out])
            if code not in (0, 1):
                raise RuntimeError(f"cpds global {name} exited {code}")
            return text

        self.add(f"cli-check:{name}", "check", check, oracle=("file", sf))
        self.add(f"cli-global:{name}", "global", glob)

    # -- multi-stack instances through the public functions ----------------

    def bounded_check(self, qid, sysd, kind, bound, q_in, q_out):
        solve = {"ordered": cpds.ordered_reachability,
                 "phase": cpds.phase_reachability,
                 "scope": cpds.scope_reachability}[kind]
        if kind == "ordered":
            run = lambda: bool(solve(sysd, q_in, q_out))  # noqa: E731
            msys = sysd
        else:
            run = lambda: bool(solve(sysd, bound, q_in, q_out))  # noqa: E731
            msys = sysd.with_mode((kind, bound))
        self.add(qid, "check", run, oracle=("control", msys, q_in, q_out))

    def bounded_global(self, qid, sysd, kind, bound, q_out):
        msys = sysd if kind == "ordered" else sysd.with_mode((kind, bound))

        def run():
            if kind == "ordered":
                gset = cpds.ordered_global(sysd, q_out)
            elif kind == "phase":
                gset = cpds.phase_global(sysd, bound, q_out)
            else:
                gset = cpds.scope_global(sysd, bound, q_out)
            self.results[qid] = gset
            return _set_document(gset, kind, q_out)

        self.add(qid, "global", run)
        pool = oracle.enumerate_stacks(sysd.order, sysd.alphabet,
                                       PROBE_STACK_SIZE)
        probes = [cpds.Configuration(self.rng.choice(sysd.controls),
                                     tuple(self.rng.choice(pool)
                                           for _ in range(sysd.stacks)))
                  for _ in range(PROBES_PER_SET)]

        def member():
            gset = self.results.pop(qid)
            return [gset.member(c) for c in probes]

        self.add(qid + ":member", "member", member,
                 oracle=("explore", msys, q_out), needs=qid, probes=probes)

    # -- single-stack pre* ---------------------------------------------------

    def single(self, seed, with_global, one_sided):
        sysd = oracle.gen_random_system(seed, SINGLE_PROFILE)
        order = sysd.order
        a0 = cpds.accept_all_automaton(order, sysd.alphabet, sysd.controls,
                                       [sysd.controls[-1]])
        q_in = sysd.controls[0]
        qid = f"prestar:{seed}"
        pool = oracle.enumerate_stacks(order, sysd.alphabet, SINGLE_POOL_SIZE)
        probes = [cpds.Configuration(q, (w,)) for q in sysd.controls
                  for w in pool]

        def check():
            sat, _ = cpds.prestar(sysd, a0,
                                  max_transitions=SINGLE_MAX_TRANSITIONS)
            self.results[qid] = sat
            return sat.has_control(q_in) and sat.member(q_in, ST.bottom(order))

        def member():
            sat = self.results.pop(qid)
            return [sat.has_control(c.control)
                    and sat.member(c.control, c.stacks[0]) for c in probes]

        ref = ("prestar", sysd, a0, one_sided)
        self.add(qid, "check", check, oracle=ref + (q_in,))
        self.add(qid + ":member", "member", member, oracle=ref, needs=qid,
                 probes=probes)
        if with_global:
            def glob():
                sat, _ = cpds.prestar(sysd, a0,
                                      max_transitions=SINGLE_MAX_TRANSITIONS)
                gset = cpds.RegularConfigSet(order, 1)
                for q in sysd.controls:
                    if sat.has_control(q):
                        gset.add(cpds.RegTuple(
                            q, (sat,), (sat.require_control(q),)))
                return _set_document(gset, "single", sysd.controls[-1])

            self.add(f"prestar-global:{seed}", "global", glob, oracle=ref)


def build(name: str, seed: int) -> Workload:
    """Generate every system, target automaton and probe of a workload."""
    plan = PLAN[name]
    b = _QueryList(name, seed)
    for fixture, q_out in plan["fixtures"]:
        b.fixture(fixture, q_out)
    if name == "single":
        for s in plan["check_seeds"]:
            if s not in plan["dropped_seeds"]:
                b.single(s, s in plan["global_seeds"],
                         s in plan["one_sided_seeds"])
        b.add("cli-selftest", "check",
              lambda: _capture(["selftest", "--seeds",
                                str(plan["selftest_seeds"])])[0] == 0,
              oracle=("const", True))
    else:
        profile = ORDERED_PROFILE if name == "ordered" else BOUNDED_PROFILE
        bounds = (None,) if name == "ordered" else (1, 2, 3)
        for s in plan["check_seeds"]:
            sysd = oracle.gen_random_system(s, profile)
            q_in, q_out = sysd.controls[0], sysd.controls[-1]
            for z in bounds:
                qid = f"{name}:{s}" + (f":{z}" if z else "")
                b.bounded_check(qid, sysd, name, z, q_in, q_out)
            if s in plan["global_seeds"]:
                b.bounded_global(f"{name}-global:{s}", sysd, name, 2, q_out)
        for z in plan.get("three_stack", ()):
            b.bounded_check(f"three-stack:{z}", three_stack("q5"), name, z,
                            "q0", "q6")
    # member queries stay right after the query that produces their input
    groups = []
    for q in b.queries:
        if q.needs is None:
            groups.append([q])
        else:
            groups[-1].append(q)
    b.rng.shuffle(groups)
    return Workload([q for g in groups for q in g], b.results)


# ---------------------------------------------------------------------------
# Oracle reference (parent process only, never timed)
# ---------------------------------------------------------------------------

CONTROL_BOUNDS = oracle.ExploreBounds(40, 60, 30000)
PROBE_BOUNDS = oracle.ExploreBounds(30, 40, 5000)


def _fixture_verdict(sf):
    sysd = sf.system
    q_in = sf.query_from or sysd.controls[0]
    q_out = sf.query_to
    if sysd.stacks == 1:
        a0 = cli._single_target_automaton(sf, q_out)
        extended = any(sysd.ext_rule_sets[0])
        members, indefinite = oracle.prestar_oracle(sysd, a0, extended=extended)
        want = members[cpds.Configuration(q_in, (ST.bottom(sysd.order),))]
        return None if indefinite and not want else want
    v = oracle.control_reachability_oracle(sysd, q_in, q_out, CONTROL_BOUNDS)
    return None if v.kind == "unreachable-within-bounds" else v.definitely_reachable


def _prestar_reference(sysd, a0, one_sided):
    """Oracle pre* membership, or None when the oracle cannot close it.

    An instance the oracle cannot close is kept only when it is one of the
    plan's ``one_sided_seeds``.  Its expectations are one-sided, because only
    the oracle's positive answers are definite there.
    """
    members, indefinite = oracle.prestar_oracle(sysd, a0,
                                                max_size=SINGLE_POOL_SIZE)
    if not indefinite:
        return members
    if one_sided:
        return {c: (True if v else None) for c, v in members.items()}
    return None


def reference(wl: Workload):
    """Oracle answers for every check and member query.

    Returns ``(expected, unclosed)``: ``expected`` maps a query id to its
    answer, a list for member queries, with ``None`` where the oracle gives
    no definite answer; ``unclosed`` lists the instances the oracle cannot
    close, which the benchmark cannot check.  Global documents are checked
    against pins instead.
    """
    expected = {}
    unclosed = set()
    prestar_memo = {}
    for q in wl.queries:
        ref = q.oracle
        if ref is None:
            continue
        tag = ref[0]
        if tag == "const":
            expected[q.qid] = ref[1]
        elif tag == "file":
            expected[q.qid] = _fixture_verdict(ref[1])
        elif tag == "control":
            _, msys, q_in, q_out = ref
            v = oracle.control_reachability_oracle(msys, q_in, q_out,
                                                   CONTROL_BOUNDS)
            expected[q.qid] = (None if v.kind == "unreachable-within-bounds"
                               else v.definitely_reachable)
        elif tag == "explore":
            _, msys, q_out = ref
            answers = []
            for c in q.probes:
                res = oracle.explore(msys, c, PROBE_BOUNDS)
                answers.append(True if res.reachable(q_out)
                               else (False if res.closed else None))
            expected[q.qid] = answers
            continue  # a probe the oracle cannot close is skipped alone
        elif tag == "prestar":
            sysd, a0, one_sided = ref[1:4]
            if id(sysd) not in prestar_memo:
                prestar_memo[id(sysd)] = _prestar_reference(sysd, a0,
                                                            one_sided)
            members = prestar_memo[id(sysd)]
            if members is None:
                unclosed.add(_instance(q.qid))
            elif q.kind == "check":
                expected[q.qid] = members[cpds.Configuration(
                    ref[4], (ST.bottom(sysd.order),))]
            elif q.kind == "member":
                expected[q.qid] = [members[c] for c in q.probes]
            continue  # None in a kept instance is a one-sided answer
        if expected[q.qid] is None:
            unclosed.add(_instance(q.qid))
    return expected, sorted(unclosed)


def _instance(qid: str) -> str:
    kind, _, rest = qid.partition(":")
    for suffix in ("-check", "-global"):
        kind = kind.removesuffix(suffix)
    return kind + ":" + rest.split(":")[0]


def execute(q: Query):
    """Run one query; returns ``(answer, budget_error_name)``."""
    try:
        return q.run(), None
    except BUDGET_ERRORS as e:
        return None, type(e).__name__
