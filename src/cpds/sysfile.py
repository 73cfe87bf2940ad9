"""Textual system descriptions and result documents.

The system file is line-based and greppable::

    # three-control toy
    order 2
    stacks 2
    mode ordered              # single | ordered | phase N | scope N
    alphabet a b
    controls q0 q1 q2
    stack 1
      q0 _ push a 2 q1
      q1 a pop 1 q2
    stack 2
      q1 _ push b 2 q2
    lang L1                   # finite rule-word languages (single mode)
      word (q0 a rew b q1) (q1 b noop q2)
    stack 1 extended
      q0 a L1 q2
    target q2 <1 _ 1>         # optional: explicit target configurations
    query from q0 to q2       # optional defaults for check

Operations are spelled ``pop K``, ``copy K``, ``collapse K``,
``push B K``, ``rew B`` and ``noop``; the bottom symbol is ``_``.  Stacks
in ``target`` lines and configuration literals use the bracket encoding of
the stacks module.  Result documents are JSON with a pinned schema,
written by :func:`dump_document`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from . import stacks as ST
from .errors import ParseError
from .extended import FiniteLanguage
from .systems import Configuration, ExtRule, Mcpds, Rule

RESULT_SCHEMA = "cpds-result/1"

__all__ = [
    "SystemFile",
    "parse_system_file",
    "parse_config_literal",
    "format_run",
    "result_document",
    "RESULT_SCHEMA",
]


@dataclass
class SystemFile:
    system: Mcpds
    targets: dict = field(default_factory=dict)  # control -> [stacks]
    query_from: object = None
    query_to: object = None

    @property
    def mode_kind(self) -> str:
        m = self.system.mode
        return m if isinstance(m, str) else m[0]


def _op_from_tokens(toks, lineno):
    if not toks:
        raise ParseError(f"line {lineno}: missing operation")
    kind = toks[0]
    if kind == "noop":
        if len(toks) != 1:
            raise ParseError(f"line {lineno}: noop takes no arguments")
        return ST.noop()
    if kind in ("pop", "copy", "collapse"):
        if len(toks) != 2 or not toks[1].isdigit():
            raise ParseError(f"line {lineno}: {kind} expects an order argument")
        k = int(toks[1])
        return {"pop": ST.pop, "copy": ST.copy, "collapse": ST.collapse}[kind](k)
    if kind == "push":
        if len(toks) != 3 or not toks[2].isdigit():
            raise ParseError(f"line {lineno}: push expects a letter and an order")
        return ST.push(toks[1], int(toks[2]))
    if kind == "rew":
        if len(toks) != 2:
            raise ParseError(f"line {lineno}: rew expects a letter")
        return ST.rew(toks[1])
    raise ParseError(f"line {lineno}: unknown operation {kind!r}")


def _parse_rule(tokens, lineno) -> Rule:
    if len(tokens) < 4:
        raise ParseError(f"line {lineno}: rule needs 'src letter op... dst'")
    return Rule(tokens[0], tokens[1], _op_from_tokens(tokens[2:-1], lineno), tokens[-1])


def parse_system_file(text: str) -> SystemFile:
    order = stacks = None
    mode = "single"
    alphabet: list = []
    controls: list = []
    rule_sets: dict = {}
    ext_pending: dict = {}
    langs: dict = {}
    targets_raw: list = []
    query_from = query_to = None
    section = None  # ("stack", i, extended?) | ("lang", name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head == "order":
            order = int(toks[1])
        elif head == "stacks":
            stacks = int(toks[1])
        elif head == "mode":
            if toks[1] in ("single", "ordered", "unrestricted"):
                mode = toks[1]
            elif toks[1] in ("phase", "scope") and len(toks) == 3:
                mode = (toks[1], int(toks[2]))
            else:
                raise ParseError(f"line {lineno}: bad mode {line!r}")
        elif head == "alphabet":
            alphabet = toks[1:]
        elif head == "controls":
            controls = toks[1:]
        elif head == "stack":
            if len(toks) == 2 and toks[1].isdigit():
                section = ("stack", int(toks[1]) - 1, False)
            elif len(toks) == 3 and toks[1].isdigit() and toks[2] == "extended":
                section = ("stack", int(toks[1]) - 1, True)
            else:
                raise ParseError(f"line {lineno}: bad stack header {line!r}")
        elif head == "lang":
            if len(toks) != 2:
                raise ParseError(f"line {lineno}: lang needs a name")
            section = ("lang", toks[1])
            langs[toks[1]] = []
        elif head == "word" and section and section[0] == "lang":
            langs[section[1]].append(_parse_word(line[4:].strip(), lineno))
        elif head == "target":
            if len(toks) < 2:
                raise ParseError(f"line {lineno}: target needs a control")
            targets_raw.append((toks[1], line.split(None, 2)[2] if len(toks) > 2 else "", lineno))
        elif head == "query":
            if len(toks) == 5 and toks[1] == "from" and toks[3] == "to":
                query_from, query_to = toks[2], toks[4]
            else:
                raise ParseError(f"line {lineno}: bad query line {line!r}")
        elif section and section[0] == "stack":
            i, extended = section[1], section[2]
            if extended:
                if len(toks) != 4:
                    raise ParseError(
                        f"line {lineno}: extended rule needs 'src letter lang dst'"
                    )
                ext_pending.setdefault(i, []).append((toks, lineno))
            else:
                rule_sets.setdefault(i, []).append(_parse_rule(toks, lineno))
        else:
            raise ParseError(f"line {lineno}: unexpected line {line!r}")

    if order is None:
        raise ParseError("missing 'order' header")
    stacks = stacks if stacks is not None else 1
    ext_sets = [[] for _ in range(stacks)]
    for i, pend in ext_pending.items():
        for (toks, lineno) in pend:
            if toks[2] not in langs:
                raise ParseError(f"line {lineno}: unknown language {toks[2]!r}")
            lang = FiniteLanguage(langs[toks[2]], toks[2])
            ext_sets[i].append(ExtRule(toks[0], toks[1], lang, toks[3]))
    rules = [rule_sets.get(i, []) for i in range(stacks)]
    system = Mcpds(order, alphabet, controls, rules, mode, ext_sets)
    targets: dict = {}
    for (ctl, enc, lineno) in targets_raw:
        if ctl not in system.controls:
            raise ParseError(f"line {lineno}: undeclared target control {ctl!r}")
        w = ST.decode(enc, order) if enc else ST.bottom(order)
        targets.setdefault(ctl, []).append(w)
    return SystemFile(system, targets, query_from, query_to)


def _parse_word(body: str, lineno):
    """Parse '(src letter op.. dst) (..)' into a tuple of rules."""
    if body.count("(") != body.count(")"):
        raise ParseError(f"line {lineno}: unbalanced parentheses in word")
    word = []
    rest = body
    while rest.strip():
        rest = rest.strip()
        if not rest.startswith("("):
            raise ParseError(f"line {lineno}: expected '(' in word")
        close = rest.index(")")
        word.append(_parse_rule(rest[1:close].split(), lineno))
        rest = rest[close + 1:]
    return tuple(word)


def parse_config_literal(text: str, sys: Mcpds) -> Configuration:
    """``control | stack | stack ...`` with bracket-encoded stacks."""
    parts = [p.strip() for p in text.split("|")]
    if len(parts) != sys.stacks + 1:
        raise ParseError(
            f"configuration literal needs a control and {sys.stacks} stacks"
        )
    control = parts[0]
    if control not in sys.controls:
        raise ParseError(f"undeclared control {control!r}")
    stacks_ = tuple(
        ST.decode(p, sys.order) if p else ST.bottom(sys.order) for p in parts[1:]
    )
    return Configuration(control, stacks_)


def format_config(c: Configuration) -> str:
    return " | ".join([str(c.control)] + [ST.encode(w) for w in c.stacks])


def format_run(run) -> list:
    out = []
    for (rule, idx, cfg) in run.steps:
        out.append({
            "rule": repr(rule),
            "stack": idx + 1,
            "to": format_config(cfg),
        })
    return out


def result_document(command: str, verdict: str, statistics: dict,
                    witness=None, config_set=None) -> dict:
    doc = {
        "schema": RESULT_SCHEMA,
        "command": command,
        "verdict": verdict,
        "statistics": statistics,
    }
    if witness is not None:
        doc["witness"] = witness
    if config_set is not None:
        doc["set"] = config_set
    return doc


_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _plain(t: tuple) -> bool:
    """Every leaf is a str or an int.

    Equal plain tuples have the same JSON text; ``(1,)``, ``(True,)`` and
    ``(1.0,)`` are equal but are written differently.
    """
    for x in t:
        k = type(x)
        if k is not str and k is not int and not (k is tuple and _plain(x)):
            return False
    return True


def dump_document(doc) -> str:
    """The JSON text of ``doc`` with sorted keys, two-space indentation and
    a final newline: byte for byte what the stdlib encoder writes with
    ``indent=2, sort_keys=True``.

    A document holds dicts with str keys, lists, tuples, str, int, bool,
    None and float; a value of any other type, subclasses included, raises
    ``TypeError``.  Containers are joined with precomputed line breaks
    instead of going through json's generator encoder, and the text of
    each plain tuple (see :func:`_plain`) is kept per depth for the length
    of the call, so a state entry that ``to_json`` repeats is written once.
    """
    breaks = ["\n"]  # per depth: line break and indentation
    memos = [{}]  # per depth: plain tuple -> (tuple, text)

    def indent(depth):
        while depth >= len(breaks):
            breaks.append(breaks[-1] + "  ")
            memos.append({})
        return breaks[depth]

    def items(x, depth):
        if not x:
            return "[]"
        sep = indent(depth + 1)
        return "[" + sep + ("," + sep).join(
            [_quote(v) if type(v) is str else text(v, depth + 1) for v in x]
        ) + breaks[depth] + "]"

    def members(x, depth):
        if not x:
            return "{}"
        sep = indent(depth + 1)
        return "{" + sep + ("," + sep).join(
            [_quote(k) + ": " + text(v, depth + 1) for k, v in sorted(x.items())]
        ) + breaks[depth] + "}"

    def text(x, depth):
        k = type(x)
        if k is tuple:
            memo = memos[depth]
            try:
                hit = memo.get(x)
            except TypeError:  # holds a list or a dict
                return items(x, depth)
            # a hit is the text of an equal plain tuple
            if hit is not None and (hit[0] is x or _plain(x)):
                return hit[1]
            out = items(x, depth)
            if hit is None and _plain(x):
                memo[x] = (x, out)
            return out
        if k is list:
            return items(x, depth)
        if k is str:
            return _quote(x)
        if k is dict:
            return members(x, depth)
        if k is int:
            return int.__repr__(x)
        if x is None:
            return "null"
        if x is True:
            return "true"
        if x is False:
            return "false"
        if k is float:
            return _float_text(x)
        raise TypeError(f"Object of type {k.__name__} is not JSON serializable")

    return text(doc, 0) + "\n"
