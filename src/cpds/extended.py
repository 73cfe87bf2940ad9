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

from .automata import LongForm, StackAutomaton
from .errors import LanguageQueryFailure
from .saturation import auxsat_generating, prestar
from .systems import Mcpds, Rule

__all__ = [
    "state_control",
    "ta_predecessors",
    "FiniteLanguage",
    "prestar_extended",
]


def state_control(s) -> object | None:
    """The control named by a designated order-n state, if any."""
    if s.name and s.name[0] == "q":
        return s.name[1]
    return None


def ta_predecessors(rule: Rule, t2: LongForm, aut: StackAutomaton):
    """All ``t1`` with an edge ``t1 --rule--> t2`` in the transition automaton."""
    if rule.consuming:
        return []
    if t2.head != aut.peek_control(rule.dst):
        return []
    return auxsat_generating(rule, t2, aut)


def _walk_back(word, t2: LongForm, aut: StackAutomaton):
    """The transitions with a run labelled ``word`` to ``t2``, by key."""
    frontier = {t2.key: t2}
    for r in reversed(tuple(word)):
        nxt = {}
        for x in frontier.values():
            for t1 in ta_predecessors(r, x, aut):
                nxt[t1.key] = t1
        frontier = nxt
        if not frontier:
            break
    return frontier


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

    def __repr__(self):
        return self.name

    def words(self):
        return list(self._words)

    def initials(self, aut: StackAutomaton, t2: LongForm):
        """All ``t`` with a word of this language running from t to ``t2``."""
        found = {}
        for word in self._words:
            found.update(_walk_back(word, t2, aut))
        return [found[k] for k in sorted(found)]


def prestar_extended(sys: Mcpds, a0: StackAutomaton, **kw):
    """Saturation fixpoint of an extended system.

    The same as :func:`prestar`, which includes extended rules whenever the
    system has them.
    """
    return prestar(sys, a0, **kw)
