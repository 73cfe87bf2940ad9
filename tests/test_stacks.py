import random

import pytest

import cpds.stacks as ST
from cpds import (
    UndefinedOperation,
    UndefinedTop,
    apply_op,
    apply_op_rounded,
    bottom,
    compose,
    decode,
    encode,
    erase_rounds,
    mk_stack,
    tag_rounds,
    top,
    tree_size,
)
from cpds.oracle import enumerate_stacks

from conftest import s1, s2


def worked_example():
    w0 = s2(s1("a"), s1("b"))
    w1 = apply_op(ST.push("c", 2), w0)
    w2 = apply_op(ST.copy(2), w1)
    w3 = apply_op(ST.collapse(2), w2)
    return w0, w1, w2, w3


def test_worked_example_shapes():
    w0, w1, w2, w3 = worked_example()
    ann = ST.top1_char(w1).ann
    assert ann == s2(s1("b"))
    assert w2.entries[0] == w2.entries[1]
    assert w2.entries[0] is w2.entries[1]  # interned sharing
    assert w3 == s2(s1("b"))


def test_top_identity_and_undefined():
    w = bottom(3)
    assert top(4, w) is w
    assert top(3, w) == bottom(2)
    assert ST.top1(w) == ST.BOTTOM
    with pytest.raises(UndefinedTop):
        top(1, mk_stack(2, (mk_stack(1, ()),)))


def test_compose_examples():
    u = s1(("a", s2(s1("b"))), "b")
    v3 = mk_stack(3, ())
    once = compose(mk_stack(2, (u,)), 3, v3)
    assert once == mk_stack(3, (mk_stack(2, (u,)),))
    twice = compose(mk_stack(2, (u,)), 3, once)
    assert len(twice.entries) == 2
    # order-2 prepend grows the sequence by one
    w = compose(u, 2, s2(s1("b")))
    assert len(w.entries) == 2


def test_copy_then_pop_restores():
    rng = random.Random(5)
    pool = enumerate_stacks(2, {"a", "b"}, 8)
    for w in rng.sample(pool, 40):
        try:
            c = apply_op(ST.copy(2), w)
        except UndefinedOperation:
            continue
        assert apply_op(ST.pop(2), c) == w


def test_push_then_collapse_jumps_to_context():
    rng = random.Random(7)
    pool = enumerate_stacks(2, {"a", "b"}, 8)
    hits = 0
    for w in rng.sample(pool, 60):
        try:
            pushed = apply_op(ST.push("b", 2), w)
            collapsed = apply_op(ST.collapse(2), pushed)
        except UndefinedOperation:
            continue
        r = ST.split(2, w)
        assert collapsed == r[1]
        hits += 1
    assert hits > 5


def test_rew_preserves_annotation():
    u = s2(s1("b"))
    w = s2(s1(("a", u), "_"))
    out = apply_op(ST.rew("b"), w)
    assert ST.top1_char(out).ann is u
    assert ST.top1(out) == "b"


def test_noop_identity():
    w = bottom(2)
    assert apply_op(ST.noop(), w) is w


def test_bottom_protection():
    w = bottom(2)
    for op in (ST.pop(1), ST.rew("a"), ST.push("_", 2), ST.pop(2)):
        with pytest.raises(UndefinedOperation):
            apply_op(op, w)


def test_rounded_copy_tags():
    u = s1("a", "b")
    w = tag_rounds(s2(u), 0)
    w = mk_stack(2, (mk_stack(1, w.entries[0].entries, 2),), 0)
    out = apply_op_rounded(ST.copy(2), w, 3)
    assert out.entries[0].pr == 3
    assert out.entries[1].pr == 2
    assert [c.pr for c in out.entries[0].entries] == [0, 0]


def test_rounded_push_collapse_round_is_context_pop_round():
    w = tag_rounds(bottom(2), 0)
    out = apply_op_rounded(ST.push("b", 2), w, 4)
    c = ST.top1_char(out)
    assert c.pr == 4
    assert c.cr == 0  # context pop-round: the copied top had tag 0
    assert c.ann.pr == 0  # top-order annotation context is the outermost


def test_rounded_erase_matches_plain():
    rng = random.Random(11)
    pool = enumerate_stacks(2, {"a", "b"}, 8)
    ops = [ST.pop(1), ST.pop(2), ST.copy(2), ST.push("a", 2), ST.push("b", 1),
           ST.rew("b"), ST.noop(), ST.collapse(1), ST.collapse(2)]
    checked = 0
    for w in rng.sample(pool, 60):
        r = tag_rounds(w, 1)
        for op in ops:
            try:
                plain = apply_op(op, w)
            except UndefinedOperation:
                plain = None
            try:
                rounded = apply_op_rounded(op, r, 2)
            except UndefinedOperation:
                rounded = None
            assert (plain is None) == (rounded is None), (op, encode(w))
            if plain is not None:
                assert erase_rounds(rounded) == plain
                checked += 1
    assert checked > 50


def _tags(w):
    """Every round tag in the tree of ``w``, annotations included."""
    if isinstance(w, ST.Char):
        return [w.pr, w.cr] + ([] if w.ann is None else _tags(w.ann))
    return [w.pr] + [t for e in w.entries for t in _tags(e)]


def test_round_tags_keep_rounded_and_plain_stacks_apart():
    pool = enumerate_stacks(2, {"a", "b"}, 7)
    ops = [ST.pop(1), ST.pop(2), ST.copy(2), ST.push("a", 2), ST.push("b", 1),
           ST.rew("b"), ST.noop(), ST.collapse(1), ST.collapse(2)]
    applied = 0
    for w in pool:
        assert tag_rounds(w, 0) != w
        assert erase_rounds(tag_rounds(w, 1)) is w
        assert set(_tags(w)) == {None}
        for op in ops:
            try:
                out = apply_op(op, w)
            except UndefinedOperation:
                continue
            assert set(_tags(out)) == {None}, (op, encode(w))
            applied += 1
    assert applied > 100


def test_encode_examples():
    assert encode(bottom(2)) == "<1 _ 1>"
    _w0, w1, _w2, _w3 = worked_example()
    assert encode(w1) == "<1 c^{<2 <1 b 1> 2>} a 1> <1 b 1>"


def test_decode_roundtrip_random():
    pool = enumerate_stacks(2, {"a", "b"}, 9)
    rng = random.Random(3)
    for w in rng.sample(pool, 100):
        assert decode(encode(w), 2) == w
    for w in rng.sample(enumerate_stacks(1, {"a", "b"}, 7), 40):
        assert decode(encode(w), 1) == w


def test_decode_errors_carry_position():
    from cpds import ParseError

    with pytest.raises(ParseError):
        decode("<1 a", 2)
    with pytest.raises(ParseError):
        decode("<2 a 2>", 2)


def test_tree_size():
    assert tree_size(bottom(2)) == 3
    w = s2(s1(("a", s2(s1("b"))), "_"))
    assert tree_size(w) == 2 + 1 + 3 + 1


def test_bottom_discipline_checker():
    assert ST.bottom_disciplined(bottom(3))
    assert not ST.bottom_disciplined(s2(s1("a")))
    assert not ST.bottom_disciplined(s2(s1("_", "a")))
