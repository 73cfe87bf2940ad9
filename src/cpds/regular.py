"""Regular sets of multi-stack configurations.

A set is a finite union of tuples ``(control, A_1 .. A_m)`` where each
``A_i`` is a stack automaton with a designated initial state; a
configuration belongs to the set when some tuple matches its control and
every stack is accepted from the tuple's initial state for that position.
Union is tuple-set union; intersection pairs control-matched tuples and
intersects per stack.  Complement would need stack-automaton
complementation, which this package does not construct.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import automata as AU
from .errors import ArityMismatch, NotSupported
from .systems import Configuration

__all__ = ["RegTuple", "RegularConfigSet"]


@dataclass(frozen=True)
class RegTuple:
    control: object
    autos: tuple
    initials: tuple

    def key(self):
        return (
            AU.flat_key(self.control),
            tuple(
                (a.canonical_key(), s.name_key)
                for a, s in zip(self.autos, self.initials)
            ),
        )


class RegularConfigSet:
    def __init__(self, order: int, stacks: int, tuples=()):
        self.order = order
        self.stacks = stacks
        self.tuples = []
        self._keys = set()
        for t in tuples:
            self.add(t)

    def add(self, t: RegTuple):
        if len(t.autos) != self.stacks or len(t.initials) != self.stacks:
            raise ArityMismatch("tuple arity does not match the set")
        k = t.key()
        if k not in self._keys:
            self._keys.add(k)
            self.tuples.append(t)

    def member(self, c: Configuration) -> bool:
        if len(c.stacks) != self.stacks:
            raise ArityMismatch(
                f"configuration has {len(c.stacks)} stacks, set expects {self.stacks}"
            )
        for t in self.tuples:
            if t.control != c.control:
                continue
            if all(
                a.accepts(s, w) for a, s, w in zip(t.autos, t.initials, c.stacks)
            ):
                return True
        return False

    def union(self, other: "RegularConfigSet") -> "RegularConfigSet":
        if (self.order, self.stacks) != (other.order, other.stacks):
            raise ArityMismatch("union of incompatible configuration sets")
        return RegularConfigSet(self.order, self.stacks, self.tuples + other.tuples)

    def intersect(self, other: "RegularConfigSet") -> "RegularConfigSet":
        if (self.order, self.stacks) != (other.order, other.stacks):
            raise ArityMismatch("intersection of incompatible configuration sets")
        out = RegularConfigSet(self.order, self.stacks)
        for t1 in self.tuples:
            for t2 in other.tuples:
                if t1.control != t2.control:
                    continue
                autos = []
                inits = []
                for a1, s1, a2, s2 in zip(t1.autos, t1.initials, t2.autos, t2.initials):
                    prod, mapping = AU.intersect(a1, a2, [(s1, s2)])
                    autos.append(prod)
                    inits.append(mapping[(s1, s2)])
                out.add(RegTuple(t1.control, tuple(autos), tuple(inits)))
        return out

    def complement(self):
        raise NotSupported(
            "complement of regular configuration sets needs stack-automaton "
            "complementation, which this package does not build"
        )

    def is_empty(self) -> bool:
        return not any(
            all(a.nonempty([s]) for a, s in zip(t.autos, t.initials))
            for t in self.tuples
        )

    def witness(self) -> Configuration | None:
        """Some member configuration, or None when the set is empty."""
        for t in self.tuples:
            stacks = []
            for a, s in zip(t.autos, t.initials):
                w = a.witness([s])
                if w is None:
                    break
                stacks.append(w)
            else:
                return Configuration(t.control, tuple(stacks))
        return None

    def controls(self):
        return sorted({t.control for t in self.tuples}, key=AU.flat_key)

    def to_json(self) -> dict:
        # tuples often share an automaton: encode each (uid, revision) once
        autos = {}
        for t in self.tuples:
            for a in t.autos:
                if (a.uid, a.revision) not in autos:
                    autos[a.uid, a.revision] = a.to_json()
        return {
            "order": self.order,
            "stacks": self.stacks,
            "tuples": [
                {
                    "control": AU._jsonable(t.control),
                    "autos": [autos[a.uid, a.revision] for a in t.autos],
                    "initials": [(s.order, AU._jsonable(s.name)) for s in t.initials],
                }
                for t in self.tuples
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RegularConfigSet":
        out = cls(doc["order"], doc["stacks"])
        for tj in doc["tuples"]:
            autos = tuple(AU.StackAutomaton.from_json(a) for a in tj["autos"])
            inits = tuple(
                AU.State(j[0], AU._unjsonable(j[1])) for j in tj["initials"]
            )
            out.add(RegTuple(AU._unjsonable(tj["control"]), autos, inits))
        return out
