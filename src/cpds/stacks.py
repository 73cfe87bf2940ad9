"""Annotated higher-order stacks and their operations.

An order-1 stack is a sequence of characters; an order-k stack is a sequence
of order-(k-1) stacks.  Characters may carry an *annotation*: another stack
of any order up to the system order, attached when the character was pushed
and retrieved by ``collapse``.  Stacks are immutable and hash-consed, so
structural sharing (copies, annotations) costs one reference and equality is
pointer comparison on the canonical representative.

One value family lives here, :class:`Stack` / :class:`Char`, with optional
round tags: on a rounded stack every substack carries a pop-round ``pr`` and
every character a (pop-round, collapse-round) pair ``pr``/``cr``.  A plain
stack has all tags ``None``.  Tags take part in equality and interning, so a
rounded stack never equals its plain content.  Rounded stacks drive the
scope-bounded run validator and the scope oracle.  Of the operations here,
only :func:`tag_rounds`, :func:`erase_rounds` and :func:`apply_op_rounded`
set or clear tags; the others keep the tags of their input.

Textual encoding (``encode`` / ``decode``)
------------------------------------------

A stack of order ``n`` is written as the space-separated sequence of its
order-(n-1) entries; the top-level brackets are omitted.  An order-k stack
for ``k < n`` is written ``<k ... k>``.  A character is its letter, the
bottom symbol is spelled ``_``, and an annotated character is written
``letter^{...}`` where the braces hold the annotation *with* its own
top-level bracket pair (so the annotation's order is explicit).  For
example, the order-2 stack obtained by pushing ``c`` annotated with the
order-2 stack ``[[b]]`` onto ``[[a][b]]`` encodes as::

    <1 c^{<2 <1 b 1> 2>} a 1> <1 b 1>

``decode`` is the exact inverse of ``encode``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import OrderMismatch, ParseError, UndefinedOperation, UndefinedTop

#: Reserved bottom-of-stack symbol.  Never pushed, popped or rewritten.
BOTTOM = "_"


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


class Char:
    """An order-1 stack entry: a letter with an optional annotation stack.

    ``pr``/``cr`` are the pop-round and collapse-round tags, ``None`` on a
    plain stack.
    """

    __slots__ = ("letter", "ann", "pr", "cr", "_hash", "_size")

    def __init__(self, letter, ann, pr, cr, _hash):
        self.letter = letter
        self.ann = ann
        self.pr = pr
        self.cr = cr
        self._hash = _hash
        self._size = None  # see tree_size

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Char)
            and self.letter == other.letter
            and self.pr == other.pr
            and self.cr == other.cr
            and self.ann == other.ann
        )

    def __repr__(self):
        tags = "" if self.pr is None else f",pr={self.pr},cr={self.cr}"
        ann = "" if self.ann is None else f"^{self.ann!r}"
        return f"Char({self.letter!r}{ann}{tags})"


class Stack:
    """An immutable order-k stack; ``entries`` holds substacks or chars.

    ``pr`` is the pop-round tag, ``None`` on a plain stack.
    """

    __slots__ = ("order", "entries", "pr", "_hash", "_size")

    def __init__(self, order, entries, pr, _hash):
        self.order = order
        self.entries = entries
        self.pr = pr
        self._hash = _hash
        self._size = None  # see tree_size

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Stack)
            and self.order == other.order
            and self.pr == other.pr
            and self.entries == other.entries
        )

    def __repr__(self):
        tags = "" if self.pr is None else f"(pr={self.pr})"
        return f"Stack{self.order}{tags}{list(self.entries)!r}"


# Interning.  The table is the only shared mutable structure; guarded by a
# lock so concurrent construction is safe.
_intern_lock = threading.Lock()
_intern: dict = {}


def _canon(key, build):
    with _intern_lock:
        hit = _intern.get(key)
        if hit is None:
            hit = build()
            _intern[key] = hit
        return hit


def mk_char(letter: str, ann: Stack | None = None, pr=None, cr=None) -> Char:
    key = ("c", letter, ann, pr, cr)
    h = hash(key)
    return _canon(key, lambda: Char(letter, ann, pr, cr, h))


def mk_stack(order: int, entries, pr=None) -> Stack:
    entries = tuple(entries)
    key = ("s", order, entries, pr)
    h = hash(key)
    return _canon(key, lambda: Stack(order, entries, pr, h))


# ---------------------------------------------------------------------------
# Constructors for common stacks
# ---------------------------------------------------------------------------


def bottom(order: int) -> Stack:
    """The empty stack of the given order: ``[[... [_] ...]]``."""
    w = mk_stack(1, (mk_char(BOTTOM),))
    for k in range(2, order + 1):
        w = mk_stack(k, (w,))
    return w


def tag_rounds(w: Stack, pr: int = 0) -> Stack:
    """Lift a plain stack to a rounded stack, every tag set to ``pr``."""
    if w.order == 1:
        entries = tuple(
            mk_char(c.letter, None if c.ann is None else tag_rounds(c.ann, pr), pr, pr)
            for c in w.entries
        )
    else:
        entries = tuple(tag_rounds(u, pr) for u in w.entries)
    return mk_stack(w.order, entries, pr)


def erase_rounds(w: Stack) -> Stack:
    """Forget all round tags."""
    if w.order == 1:
        entries = tuple(
            mk_char(c.letter, None if c.ann is None else erase_rounds(c.ann))
            for c in w.entries
        )
    else:
        entries = tuple(erase_rounds(u) for u in w.entries)
    return mk_stack(w.order, entries)


def tree_size(w) -> int:
    """Number of nodes: one per stack, one per character plus its annotation.

    Kept on the (immutable) stack or character after the first call.
    """
    size = w._size
    if size is None:
        if isinstance(w, Char):
            size = 1 + (0 if w.ann is None else tree_size(w.ann))
        else:
            size = 1 + sum(tree_size(e) for e in w.entries)
        w._size = size
    return size


# ---------------------------------------------------------------------------
# top / compose / split
# ---------------------------------------------------------------------------


def top(k: int, w):
    """Topmost order-(k-1) constituent of ``w``; ``top_{n+1}`` is ``w`` itself.

    Raises :class:`UndefinedTop` when an enclosing stack above order ``k``
    is empty, following the side condition of the defining equations.
    ``top_1`` returns the top character.
    """
    n = w.order
    if not 1 <= k <= n + 1:
        raise OrderMismatch(f"top_{k} undefined for an order-{n} stack")
    if k == n + 1:
        return w
    cur = w
    while cur.order > k:
        if not cur.entries:
            raise UndefinedTop(f"top_{k}: enclosing order-{cur.order} stack is empty")
        cur = cur.entries[0]
    # cur has order k; its top entry has order k-1 (or the empty k-1 stack)
    if cur.entries:
        return cur.entries[0]
    if k >= 2:
        return mk_stack(k - 1, (), cur.pr)
    raise UndefinedTop("top_1 of an empty order-1 stack")


def top1(w) -> str | None:
    """Letter of the top character, or ``None`` when undefined."""
    cur = w
    while cur.order >= 1:
        if not cur.entries:
            return None
        if cur.order == 1:
            return cur.entries[0].letter
        cur = cur.entries[0]
    return None


def top1_char(w):
    cur = w
    while cur.order > 1:
        if not cur.entries:
            return None
        cur = cur.entries[0]
    return cur.entries[0] if cur.entries else None


def split(k: int, w):
    """Decompose ``w = compose(u, k, v)``; ``None`` when no decomposition."""
    if w.order == k:
        if not w.entries:
            return None
        u = w.entries[0]
        v = mk_stack(w.order, w.entries[1:], w.pr)
        return u, v
    if not w.entries:
        return None
    inner = split(k, w.entries[0])
    if inner is None:
        return None
    u, v0 = inner
    return u, mk_stack(w.order, (v0,) + w.entries[1:], w.pr)


def compose(u, k: int, v):
    """Place ``u`` (order k-1, or a character for k = 1) on top of ``v``."""
    uord = 0 if isinstance(u, Char) else u.order
    if uord != k - 1:
        raise OrderMismatch(f"compose expects an order-{k - 1} item, got order {uord}")
    if v.order < k:
        raise OrderMismatch(f"compose_{k} into an order-{v.order} stack")
    if v.order == k:
        return mk_stack(k, (u,) + v.entries, v.pr)
    if not v.entries:
        raise UndefinedOperation(f"compose_{k}: empty enclosing order-{v.order} stack")
    head = compose(u, k, v.entries[0])
    return mk_stack(v.order, (head,) + v.entries[1:], v.pr)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Op:
    """A stack operation: noop, pop_k, copy_k, collapse_k, push_b^k, rew_b."""

    kind: str
    k: int = 0
    letter: str = ""

    def __repr__(self):
        if self.kind == "noop":
            return "noop"
        if self.kind in ("pop", "copy", "collapse"):
            return f"{self.kind}{self.k}"
        if self.kind == "push":
            return f"push_{self.letter}^{self.k}"
        return f"rew_{self.letter}"

    @property
    def consuming(self) -> bool:
        return self.kind in ("pop", "collapse")


def noop() -> Op:
    return Op("noop")


def pop(k: int) -> Op:
    return Op("pop", k)


def copy(k: int) -> Op:
    return Op("copy", k)


def collapse(k: int) -> Op:
    return Op("collapse", k)


def push(letter: str, k: int) -> Op:
    return Op("push", k, letter)


def rew(letter: str) -> Op:
    return Op("rew", letter=letter)


def apply_op(op: Op, w):
    """Apply ``op`` to a plain stack.

    Raises :class:`UndefinedOperation` when the operation is not applicable.
    The bottom symbol is protected: it is never pushed, popped or rewritten,
    and pops never empty a stack sequence, so reachable stacks always keep a
    defined top character.
    """
    n = w.order
    kind = op.kind
    if kind == "noop":
        return w
    if kind == "pop":
        k = op.k
        if k == 1:
            r = split(1, w)
            if r is None:
                raise UndefinedOperation("pop1 on a stack without top character")
            c, v = r
            if c.letter == BOTTOM:
                raise UndefinedOperation("pop1 would remove the bottom symbol")
            return v
        if not 2 <= k <= n:
            raise UndefinedOperation(f"pop{k} on an order-{n} stack")
        seq = _top_sequence(w, k)
        if seq is None or len(seq) < 2:
            raise UndefinedOperation(f"pop{k} would empty the top order-{k} stack")
        return split(k, w)[1]
    if kind == "rew":
        if op.letter == BOTTOM:
            raise UndefinedOperation("cannot rewrite to the bottom symbol")
        r = split(1, w)
        if r is None:
            raise UndefinedOperation("rew on a stack without top character")
        c, v = r
        if c.letter == BOTTOM:
            raise UndefinedOperation("cannot rewrite the bottom symbol")
        return compose(mk_char(op.letter, c.ann, c.pr, c.cr), 1, v)
    if kind == "copy":
        k = op.k
        if not 2 <= k <= n:
            raise UndefinedOperation(f"copy{k} on an order-{n} stack")
        r = split(k, w)
        if r is None:
            raise UndefinedOperation(f"copy{k}: no top order-{k - 1} stack")
        u, v = r
        return compose(u, k, compose(u, k, v))
    if kind == "push":
        return _apply_push(op, w)
    if kind == "collapse":
        return _apply_collapse(op, w)
    raise UndefinedOperation(f"unknown operation {op!r}")


def _top_sequence(w, k):
    """The top order-k stack's entry tuple, or None when out of reach."""
    cur = w
    while cur.order > k:
        if not cur.entries:
            return None
        cur = cur.entries[0]
    return cur.entries


def _apply_push(op: Op, w, z: int | None = None):
    n = w.order
    k = op.k
    if op.letter == BOTTOM:
        raise UndefinedOperation("cannot push the bottom symbol")
    if not 1 <= k <= n:
        raise UndefinedOperation(f"push^{k} on an order-{n} stack")
    if top1(w) is None:
        raise UndefinedOperation("push on a stack without top character")
    if k == 1:
        # extension: order-1 push attaches no annotation
        return compose(mk_char(op.letter, None, z, z), 1, w)
    r = split(k, w)
    if r is None:
        raise UndefinedOperation(f"push^{k}: no top order-{k - 1} stack")
    u, v = r
    ann = v if k == n else top(k + 1, v)
    # collapse-round: pop-round of top_k(w)
    return compose(mk_char(op.letter, ann, z, u.pr), 1, w)


def _apply_collapse(op: Op, w):
    n = w.order
    k = op.k
    c = top1_char(w)
    if c is None:
        raise UndefinedOperation("collapse on a stack without top character")
    if c.ann is None:
        raise UndefinedOperation("collapse on an unannotated character")
    if c.ann.order != k:
        raise UndefinedOperation(
            f"collapse{k} on a character annotated at order {c.ann.order}"
        )
    if top1(c.ann) is None:
        raise UndefinedOperation(f"collapse{k} to an empty annotation")
    if k == n:
        return c.ann
    r = split(k + 1, w)
    if r is None:
        raise UndefinedOperation(f"collapse{k}: no enclosing order-{k + 1} context")
    _, v = r
    return compose(c.ann, k + 1, v)


def apply_op_rounded(op: Op, w: Stack, z: int):
    """Apply ``op`` in round ``z``, with the pop-/collapse-round bookkeeping.

    The stack content matches :func:`apply_op` after erasing tags; copies are
    stamped with the current round, pushed characters record the pop-round of
    the stack they would collapse away.
    """
    kind = op.kind
    if kind == "noop":
        return w
    if kind == "copy":
        k = op.k
        if not 2 <= k <= w.order:
            raise UndefinedOperation(f"copy{k} on an order-{w.order} stack")
        r = split(k, w)
        if r is None:
            raise UndefinedOperation(f"copy{k}: no top order-{k - 1} stack")
        u, v = r
        fresh = mk_stack(u.order, u.entries, z)
        return compose(fresh, k, compose(u, k, v))
    if kind == "push":
        return _apply_push(op, w, z)
    # pop, rew, collapse, and noop need no extra bookkeeping
    return apply_op(op, w)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def bottom_disciplined(w) -> bool:
    """Every order-1 stack in the tree proper ends with exactly one bottom.

    Annotations are not required to be disciplined; they can only re-enter
    the stack through collapse, which refuses empty targets.
    """
    if w.order == 1:
        if not w.entries or w.entries[-1].letter != BOTTOM:
            return False
        return all(c.letter != BOTTOM for c in w.entries[:-1])
    return all(bottom_disciplined(u) for u in w.entries) and bool(w.entries)


# ---------------------------------------------------------------------------
# Textual encoding
# ---------------------------------------------------------------------------


def encode(w: Stack) -> str:
    """Render a plain stack as a bracket word (top-level brackets omitted)."""
    return " ".join(_enc_entries(w))


def _enc_entries(w):
    toks = []
    if w.order == 1:
        for c in w.entries:
            if c.ann is None:
                toks.append(c.letter)
            else:
                toks.append(f"{c.letter}^{{{encode_full(c.ann)}}}")
    else:
        for u in w.entries:
            toks.append(f"<{u.order}")
            toks.extend(_enc_entries(u))
            toks.append(f"{u.order}>")
    return toks


def encode_full(w: Stack) -> str:
    """Like :func:`encode` but keeps the outermost bracket pair."""
    inner = " ".join(_enc_entries(w))
    return f"<{w.order} {inner} {w.order}>" if inner else f"<{w.order} {w.order}>"


def decode(text: str, order: int) -> Stack:
    """Parse the output of :func:`encode` back into an order-``order`` stack."""
    tokens = _tokenize(text)
    stack, pos = _parse_entries(tokens, 0, order)
    if pos != len(tokens):
        raise ParseError(f"trailing input {tokens[pos]!r}", pos)
    return stack


def _tokenize(text: str):
    # split also around braces so annotations parse token-wise
    out = []
    for raw in text.replace("{", " { ").replace("}", " } ").split():
        out.append(raw)
    return out


def _parse_entries(tokens, pos, order):
    """Parse a sequence of order-(order-1) entries, stopping at '}' or close."""
    entries = []
    while pos < len(tokens):
        t = tokens[pos]
        if t == "}" or (t.endswith(">") and t[:-1].isdigit()):
            break
        if t.startswith("<") and t[1:].isdigit():
            k = int(t[1:])
            if k != order - 1:
                raise ParseError(f"expected an order-{order - 1} stack, got <{k}", pos)
            sub, pos = _parse_entries(tokens, pos + 1, k)
            if pos >= len(tokens) or tokens[pos] != f"{k}>":
                raise ParseError(f"missing closing {k}>", pos)
            pos += 1
            entries.append(sub)
        else:
            if order != 1:
                raise ParseError(f"expected <{order - 1}, got {t!r}", pos)
            ch, pos = _parse_char(tokens, pos)
            entries.append(ch)
    return mk_stack(order, tuple(entries)), pos


def _parse_char(tokens, pos):
    t = tokens[pos]
    if t.endswith("^"):
        letter = t[:-1]
        if pos + 1 >= len(tokens) or tokens[pos + 1] != "{":
            raise ParseError(f"annotation brace expected after {t!r}", pos + 1)
        if not letter or not all(c.isalnum() or c == "_" for c in letter):
            raise ParseError(f"bad character token {t!r}", pos)
        ann, pos = _parse_annotation(tokens, pos + 2)
        return mk_char(letter, ann), pos
    if "^" in t:
        raise ParseError(f"malformed annotated character {t!r}", pos)
    if not t or not all(c.isalnum() or c == "_" for c in t):
        raise ParseError(f"bad character token {t!r}", pos)
    return mk_char(t), pos + 1


def _parse_annotation(tokens, pos):
    # pos points just after the '{' token; the annotation is a fully
    # bracketed stack followed by '}'
    if pos >= len(tokens) or not (tokens[pos].startswith("<") and tokens[pos][1:].isdigit()):
        raise ParseError("annotation must start with an order bracket", pos)
    k = int(tokens[pos][1:])
    sub, pos = _parse_entries(tokens, pos + 1, k)
    if pos >= len(tokens) or tokens[pos] != f"{k}>":
        raise ParseError(f"missing closing {k}> in annotation", pos)
    pos += 1
    if pos >= len(tokens) or tokens[pos] != "}":
        raise ParseError("missing closing brace of annotation", pos)
    return sub, pos + 1
