"""Bounded explicit-state exploration: the ground truth for every solver.

The oracle answers reachability questions by brute force within explicit
budgets.  A verdict is only *definitive* when the exploration saturated
without hitting any budget (the instance is closed); otherwise the answer
is one-sided.  Scope and phase restrictions are enforced on-line by
carrying the round/phase bookkeeping inside the search states, which also
keeps the searched space finite: round tags are stored as ages relative to
the current round and clamped once they exceed the scope bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter

from . import stacks as ST
from . import systems as SY
from .errors import ArityMismatch, UndefinedOperation, UndefinedTop
from .stacks import BOTTOM

__all__ = [
    "ExploreBounds",
    "ExploreResult",
    "OracleVerdict",
    "explore",
    "control_reachability_oracle",
    "prestar_oracle",
    "enumerate_stacks",
    "RandomProfile",
    "gen_random_system",
]


@dataclass(frozen=True)
class ExploreBounds:
    max_steps: int = 60
    max_stack_size: int = 80
    max_configs: int = 40000


@dataclass
class ExploreResult:
    witnesses: dict = field(default_factory=dict)  # control -> Run
    closed: bool = True
    visited: int = 0

    def reachable(self, control) -> bool:
        return control in self.witnesses


@dataclass(frozen=True)
class OracleVerdict:
    kind: str  # "reachable" | "unreachable-within-bounds" | "unreachable-closed"
    witness: SY.Run | None = None

    @property
    def definitely_reachable(self):
        return self.kind == "reachable"

    @property
    def definitely_unreachable(self):
        return self.kind == "unreachable-closed"


def _cfg_size(stacks) -> int:
    return sum(ST.tree_size(w) for w in stacks)


def explore(sys: SY.Mcpds, start: SY.Configuration | None = None,
            bounds: ExploreBounds | None = None,
            extended: bool = False) -> ExploreResult:
    """BFS over mode-respecting runs from ``start``.

    Witnesses are shortest runs (BFS layer order) recorded per reached
    control, with plain configurations regardless of the bookkeeping the
    search itself carries.
    """
    bounds = bounds or ExploreBounds()
    if start is None:
        start = SY.initial_configuration(sys)
    if len(start.stacks) != sys.stacks:
        raise ArityMismatch("start configuration arity mismatch")
    mode = sys.mode
    kind = mode[0] if isinstance(mode, tuple) else None
    if kind == "scope":
        # search state: (control, stacks with age tags, current segment)
        init = (start.control, tuple(ST.tag_rounds(w, 1) for w in start.stacks), 0)
        successors = partial(_scope_successors, sys, mode[1])
        config_of = _scope_config
    elif kind == "phase":
        # search state: (configuration, phases used, consuming stack of the phase)
        init = (start, 1, None)
        successors = partial(_phase_successors, sys, mode[1])
        config_of = itemgetter(0)
    else:
        init = start
        successors = partial(SY.ecpds_step if extended else SY.step, sys)
        config_of = _same
    return _bfs(init, start, successors, config_of, bounds)


def _same(cfg):
    return cfg


def _run_from(parents, key, start_cfg):
    steps = []
    while parents[key] is not None:
        prev, rule, idx, cfg = parents[key]
        steps.append((rule, idx, cfg))
        key = prev
    steps.reverse()
    return SY.Run(start_cfg, steps)


def _bfs(init, start, successors, config_of, bounds):
    """Layered BFS from search state ``init``, which stands for ``start``.

    ``successors(state)`` yields ``(rule, stack index, state)`` in stack,
    then rule order; ``config_of(state)`` is the plain configuration a
    state stands for, built only for states not seen before.
    """
    res = ExploreResult()
    parents = {init: None}
    res.witnesses[start.control] = _run_from(parents, init, start)
    frontier = [init]
    depth = 0
    while frontier:
        if depth >= bounds.max_steps:
            res.closed = False
            break
        nxt = []
        for state in frontier:
            for (rule, idx, succ) in successors(state):
                if succ in parents:
                    continue
                cfg = config_of(succ)
                if _cfg_size(cfg.stacks) > bounds.max_stack_size:
                    res.closed = False
                    continue
                if len(parents) >= bounds.max_configs:
                    res.closed = False
                    break
                parents[succ] = (state, rule, idx, cfg)
                if cfg.control not in res.witnesses:
                    res.witnesses[cfg.control] = _run_from(parents, succ, start)
                nxt.append(succ)
        frontier = nxt
        depth += 1
    res.visited = len(parents)
    return res


def _bump_ages(w, zeta):
    """Increment all round-age tags, clamping at zeta + 1 (out of scope)."""
    cap = zeta + 1
    if w.order == 1:
        entries = tuple(
            ST.mk_char(
                c.letter,
                None if c.ann is None else _bump_ages(c.ann, zeta),
                min(c.pr + 1, cap),
                min(c.cr + 1, cap),
            )
            for c in w.entries
        )
    else:
        entries = tuple(_bump_ages(u, zeta) for u in w.entries)
    return ST.mk_stack(w.order, entries, min(w.pr + 1, cap))


def _scope_op_allowed(op, w, zeta) -> bool:
    if op.kind == "pop":
        if op.k == 1:
            c = ST.top1_char(w)
            return c is not None and c.pr <= zeta
        r = ST.split(op.k, w)
        return r is not None and r[0].pr <= zeta
    if op.kind == "collapse":
        c = ST.top1_char(w)
        return c is not None and c.cr <= zeta
    return True


def _scope_successors(sys, zeta, state):
    control, stacks, seg = state
    for i in range(sys.stacks):
        cur = stacks if i >= seg else tuple(_bump_ages(w, zeta) for w in stacks)
        for r in sys.rule_sets[i]:
            if r.src != control or ST.top1(cur[i]) != r.letter:
                continue
            if not _scope_op_allowed(r.op, cur[i], zeta):
                continue
            try:
                w2 = ST.apply_op_rounded(r.op, cur[i], 0)
            except (UndefinedOperation, UndefinedTop):
                continue
            yield r, i, (r.dst, cur[:i] + (w2,) + cur[i + 1:], i)


def _scope_config(state):
    control, stacks, _seg = state
    return SY.Configuration(control, tuple(ST.erase_rounds(w) for w in stacks))


def _phase_successors(sys, z, state):
    cfg, used, popping = state
    for (rule, idx, succ_cfg) in SY.step(sys, cfg):
        used2, popping2 = used, popping
        if rule.consuming:
            if popping is None:
                popping2 = idx
            elif popping != idx:
                used2 = used + 1
                popping2 = idx
                if used2 > z:
                    continue
        yield rule, idx, (succ_cfg, used2, popping2)


def control_reachability_oracle(sys, q_in, q_out,
                                bounds: ExploreBounds | None = None) -> OracleVerdict:
    start = SY.Configuration(q_in, tuple(ST.bottom(sys.order) for _ in range(sys.stacks)))
    res = explore(sys, start, bounds)
    if q_out in res.witnesses:
        return OracleVerdict("reachable", res.witnesses[q_out])
    if res.closed:
        return OracleVerdict("unreachable-closed")
    return OracleVerdict("unreachable-within-bounds")


# ---------------------------------------------------------------------------
# pre* by enumeration
# ---------------------------------------------------------------------------


def enumerate_stacks(order: int, alphabet, max_size: int,
                     with_annotations: bool = True):
    """All bottom-disciplined stacks of the given order and tree size.

    Annotations range over disciplined stacks of any order (and the empty
    stack of any order), mirroring what push operations can attach.
    Deterministic order; sizes count every node as in ``tree_size``.
    """
    letters = sorted(a for a in set(alphabet) if a != BOTTOM)
    memo = {}

    def anns(budget):
        out = [(None, 0)]
        if not with_annotations or budget < 1:
            return out
        for k in range(1, order + 1):
            out.append((ST.mk_stack(k, ()), 1))
            for (w, sz) in stacks(k, budget):
                out.append((w, sz))
        return out

    def chars(budget):
        # a single non-bottom character with an optional annotation
        if budget < 1:
            return []
        out = []
        for a in letters:
            for (ann, asz) in anns(budget - 1):
                out.append((ST.mk_char(a, ann), 1 + asz))
        return out

    def seqs1(budget):
        # sequences of annotated chars ending with the bottom symbol
        if budget < 1:
            return []
        out = [((ST.mk_char(BOTTOM),), 1)]
        grow = [((), 0)]
        while grow:
            nxt = []
            for (seq, sz) in grow:
                room = budget - sz - 1
                if room < 1:
                    continue
                for (c, csz) in chars(room):
                    nseq = seq + (c,)
                    out.append((nseq + (ST.mk_char(BOTTOM),), sz + csz + 1))
                    nxt.append((nseq, sz + csz))
            grow = nxt
        return out

    def stacks(k, budget):
        if budget < k + 1:
            return []
        key = (k, budget)
        if key in memo:
            return memo[key]
        out = []
        if k == 1:
            for (seq, sz) in seqs1(budget - 1):
                out.append((ST.mk_stack(1, seq), sz + 1))
        else:
            singles = stacks(k - 1, budget - 1)
            grow = [((), 0)]
            while grow:
                nxt = []
                for (seq, sz) in grow:
                    for (u, usz) in singles:
                        if sz + usz + 1 <= budget:
                            nseq = seq + (u,)
                            out.append((ST.mk_stack(k, nseq), sz + usz + 1))
                            nxt.append((nseq, sz + usz))
                grow = nxt
        dedup = {}
        for (w, sz) in out:
            dedup.setdefault(w, sz)
        res = sorted(dedup.items(), key=lambda p: (p[1], ST.encode(p[0])))
        memo[key] = res
        return res

    return [w for (w, _sz) in stacks(order, max_size)]


def prestar_oracle(sys, a0, bounds: ExploreBounds | None = None,
                   max_size: int | None = None, extended: bool = False):
    """Enumerate small configurations and decide pre* membership by search.

    Builds the forward step graph over the union of the reachable sets of
    all enumerated configurations, then marks backward from the automaton
    hits.  Returns ``(members, indefinite)``: ``members`` maps each
    enumerated configuration to its verdict, ``indefinite`` is True when a
    budget was hit (verdicts then one-sided: True is trustworthy).
    """
    if sys.stacks != 1:
        raise ArityMismatch("prestar oracle expects a single-stack system")
    bounds = bounds or ExploreBounds()
    size = max_size or 8
    stepper = SY.ecpds_step if extended else SY.step
    seeds = [
        SY.Configuration(q, (w,))
        for q in sys.controls
        for w in enumerate_stacks(sys.order, sys.alphabet, size)
    ]
    nodes = {}
    edges = {}
    indefinite = False
    frontier = []
    for c in seeds:
        if c not in nodes:
            nodes[c] = None
            frontier.append(c)
    while frontier:
        cfg = frontier.pop()
        succs = []
        for (_r, _i, succ) in stepper(sys, cfg):
            if _cfg_size(succ.stacks) > bounds.max_stack_size:
                indefinite = True
                continue
            succs.append(succ)
            if succ not in nodes:
                if len(nodes) >= bounds.max_configs:
                    indefinite = True
                    continue
                nodes[succ] = None
                frontier.append(succ)
        edges[cfg] = succs
    marked = {
        c for c in nodes
        if a0.has_control(c.control) and a0.member(c.control, c.stacks[0])
    }
    changed = True
    while changed:
        changed = False
        for cfg in nodes:
            if cfg in marked:
                continue
            if any(s in marked for s in edges.get(cfg, ())):
                marked.add(cfg)
                changed = True
    members = {c: (c in marked) for c in seeds}
    return members, indefinite


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomProfile:
    order: int = 2
    controls: int = 3
    letters: int = 2
    stacks: int = 1
    rules: int = 6
    mode: object = "single"
    push_weight: int = 2
    copy_weight: int = 1
    consume_weight: int = 4
    flat_weight: int = 3


def gen_random_system(seed: int, profile: RandomProfile = RandomProfile()) -> SY.Mcpds:
    """Reproducible random system; bottom rules kept reduction-friendly.

    Earlier stacks of multi-stack systems only ever push at the top order
    on the bottom symbol; pushing is bounded by the rule budget so that
    small instances frequently close under the exploration budgets.
    """
    rng = random.Random(seed)
    n = profile.order
    controls = [f"q{i}" for i in range(profile.controls)]
    letters = [chr(ord("a") + i) for i in range(profile.letters)]
    rule_sets = [[] for _ in range(profile.stacks)]
    kinds = (
        ["push"] * profile.push_weight
        + ["copy"] * (profile.copy_weight if n >= 2 else 0)
        + ["pop"] * profile.consume_weight
        + ["collapse"] * (profile.consume_weight if n >= 2 else 0)
        + ["rew", "noop"] * profile.flat_weight
    )
    for _ in range(profile.rules):
        i = rng.randrange(profile.stacks)
        src = rng.choice(controls)
        dst = rng.choice(controls)
        on_bottom = rng.random() < 0.4
        letter = BOTTOM if on_bottom else rng.choice(letters)
        last = profile.stacks - 1
        if on_bottom and i != last:
            op = ST.push(rng.choice(letters), n)
        else:
            kind = rng.choice(kinds)
            if kind == "push":
                op = ST.push(rng.choice(letters), rng.randrange(1, n + 1))
            elif kind == "copy":
                op = ST.copy(rng.randrange(2, n + 1))
            elif kind == "pop":
                op = ST.pop(rng.randrange(1, n + 1))
            elif kind == "collapse":
                op = ST.collapse(rng.randrange(1, n + 1))
            elif kind == "rew":
                op = ST.rew(rng.choice(letters))
            else:
                op = ST.noop()
            if letter == BOTTOM and op.kind in ("rew", "noop") and i != last:
                op = ST.push(rng.choice(letters), n)
        rule_sets[i].append(SY.Rule(src, letter, op, dst))
    dedup = [sorted(set(rs)) for rs in rule_sets]
    return SY.Mcpds(n, letters, controls, dedup, profile.mode)
