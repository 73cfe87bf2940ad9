"""Extended systems: rule languages and transition automata.

An extended rule applies a whole word of generating rules in one step.  To
saturate such systems one must decide, for candidate long-form transitions
``t`` and ``t'``, whether the rule's language meets the set of words along
which the plain saturation would derive ``t`` from ``t'``.  That set is the
language of a *transition automaton*: its states are long-form transitions,
and there is an edge ``t1 --r--> t2`` exactly when ``t1`` is among the
transitions the auxiliary saturation function produces from ``t2`` under
the generating rule ``r``.  The automaton is never materialised; edges are
enumerated backward from their target, which is also the direction the
word-by-word decision procedure walks.
"""

from __future__ import annotations

import os

from .automata import LongForm, StackAutomaton
from .errors import LanguageQueryFailure
from .saturation import auxsat_generating, prestar
from .systems import Mcpds, Rule


def memo_limit() -> int:
    """Entry cap for language-query memo tables (``CPDS_MEMO_LIMIT``)."""
    try:
        return max(int(os.environ.get("CPDS_MEMO_LIMIT", "100000")), 16)
    except ValueError:
        return 100000


def memo_put(memo: dict, key, value):
    if len(memo) >= memo_limit():
        memo.clear()
    memo[key] = value
    return value

__all__ = [
    "state_control",
    "ta_predecessors",
    "ta_successors",
    "TransitionAutomaton",
    "FiniteLanguage",
    "prestar_extended",
]


def state_control(s) -> object | None:
    """The control named by a designated order-n state, if any."""
    if s.name and s.name[0] == "q":
        return s.name[1]
    return None


def ta_predecessors(rule: Rule, t2: LongForm, aut: StackAutomaton,
                    layer: int | None = None):
    """All ``t1`` with an edge ``t1 --rule--> t2`` in the transition automaton."""
    if rule.consuming:
        return []
    if t2.head != aut.peek_control(rule.dst, layer):
        return []
    return auxsat_generating(rule, t2, aut, layer)


def ta_successors(gen_rules, t2: LongForm, aut: StackAutomaton,
                  layer: int | None = None):
    """Lazily enumerate the edges into ``t2``: pairs ``(rule, t1)``.

    ``gen_rules`` is any iterable of rules; consuming rules never label
    edges.  The copy and push cases consult the existing transitions of
    ``aut`` exactly as the auxiliary saturation function does.
    """
    out = []
    for r in gen_rules:
        if r.consuming:
            continue
        for t1 in ta_predecessors(r, t2, aut, layer):
            out.append((r, t1))
    return out


class TransitionAutomaton:
    """On-the-fly view of ``T(aut, t, t')``; words label its runs."""

    def __init__(self, aut: StackAutomaton, initial: LongForm,
                 final: LongForm, layer: int | None = None):
        self.aut = aut
        self.initial = initial
        self.final = final
        self.layer = layer

    def accepts(self, word) -> bool:
        """Is there a run from ``initial`` to ``final`` labelled ``word``?"""
        frontier = {self.final.key: self.final}
        for r in reversed(list(word)):
            nxt = {}
            for t2 in frontier.values():
                for t1 in ta_predecessors(r, t2, self.aut, self.layer):
                    nxt[t1.key] = t1
            frontier = nxt
            if not frontier:
                return False
        return self.initial.key in frontier


class FiniteLanguage:
    """An explicit finite language of generating-rule words.

    Words must chain: the destination of each rule is the source of the
    next.  Used as the ``lang`` of an extended rule, both by the concrete
    step relation and by the extended saturation.
    """

    def __init__(self, words, name: str = "L"):
        self.name = name
        self._words = []
        for w in words:
            w = tuple(w)
            for r in w:
                if r.consuming:
                    raise LanguageQueryFailure(
                        f"{name}: consuming rule {r!r} in a rule word"
                    )
            for a, b in zip(w, w[1:]):
                if a.dst != b.src:
                    raise LanguageQueryFailure(f"{name}: word does not chain")
            self._words.append(w)
        self._words.sort(key=lambda w: [repr(r) for r in w])
        self._memo = {}

    def __repr__(self):
        return self.name

    def words(self):
        return list(self._words)

    def initials(self, aut: StackAutomaton, t2: LongForm,
                 layer: int | None = None):
        """All ``t`` with a word of this language running from t to ``t2``."""
        key = (aut.uid, aut.revision, t2.key, layer)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        found = {}
        for word in self._words:
            frontier = {t2.key: t2}
            ok = True
            for r in reversed(word):
                nxt = {}
                for x in frontier.values():
                    for t1 in ta_predecessors(r, x, aut, layer):
                        nxt[t1.key] = t1
                frontier = nxt
                if not frontier:
                    ok = False
                    break
            if ok:
                found.update(frontier)
        out = [found[k] for k in sorted(found)]
        return memo_put(self._memo, key, out)


def prestar_extended(sys: Mcpds, a0: StackAutomaton, **kw):
    """Saturation fixpoint of an extended system.

    The same as :func:`prestar`, which includes extended rules whenever the
    system has them.
    """
    return prestar(sys, a0, **kw)
