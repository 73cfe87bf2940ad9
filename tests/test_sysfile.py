"""The result-document writer against the stdlib encoder, and the pinned
fixture documents of the benchmark."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cpds import cli
from cpds.sysfile import dump_document, parse_system_file

from conftest import benchmark_workloads

FIX = Path(__file__).parent / "fixtures"


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def documents(argv, monkeypatch):
    """The document objects ``cpds`` dumps for ``argv``, with its stdout."""
    seen = []

    def keep(doc):
        seen.append(doc)
        return dump_document(doc)

    monkeypatch.setattr(cli, "dump_document", keep)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    assert code in (0, 1), argv
    assert seen
    return seen, buf.getvalue()


@pytest.mark.parametrize("name", sorted(p.stem for p in FIX.glob("*.cpds")))
def test_fixture_documents_match_the_stdlib(name, monkeypatch):
    path = FIX / f"{name}.cpds"
    q_to = parse_system_file(path.read_text()).query_to
    for argv in (["check", str(path)], ["global", str(path), "--to", q_to]):
        docs, out = documents(argv, monkeypatch)
        assert "".join(reference(d) for d in docs) == out
    # the global set holds to_json's tuples, which the stdlib writes as lists
    for t in docs[0]["set"]["tuples"]:
        assert all(type(s) is tuple for s in t["initials"])


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("doc", [
    [],
    {},
    (),
    {"a": [], "b": {}, "c": (), "d": [[[]], {"e": ()}, ({},)]},
    [[[[[[]]]]], ((((),),),), {"x": {"y": {"z": {}}}}],
    {"text": ["ümlaut", "日本", "😀", " ", "é" * 3]},
    {"q": ['"', "\\", "\\\"", "\n\r\t\b\f", "\x00\x01\x1f\x7f", "/"]},
    [0.5, -0.0, 0.0, 1e300, -1e-300, 1.0, 3.141592653589793, NAN, INF, -INF],
    [10 ** 40, -(10 ** 40), 0, -1, True, False, None],
    [(1,), (True,), (1.0,), (1,), (False,), (0,), (0.0,), (True,), (1.0,)],
    {"a": (1,), "b": (True,), "c": (1.0,), "d": (1,), "e": (True,)},
    [((1, "a"),), ((True, "a"),), ((1, "a"),), ((1.0, "a"),)],
    [(1, [2]), (1, [2]), (1, {"k": 3}), (None,), (None,), ("s", ("t",)), ("s", ("t",))],
    [[("p", 1), ("p", 1)], [[("p", 1)]], ("p", 1)],
    {"z": 1, "a": 2, "M": 3, "é": 4, "": 5, "10": 6, "9": 7},
    "top-level string",
    42,
    None,
    NAN,
])
def test_writer_matches_the_stdlib(doc):
    assert dump_document(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {"set": {1, 2}},
    [object()],
    {"nested": [(1, b"bytes")]},
    {(1, 2): "tuple key"},
])
def test_writer_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        reference(doc)
    with pytest.raises(TypeError):
        dump_document(doc)


@pytest.mark.parametrize("doc", [{1: "int key"}, {None: "null key"}, [{"a": {2: 3}}]])
def test_writer_takes_str_keys_only(doc):
    with pytest.raises(TypeError):
        dump_document(doc)


def check_benchmark_pins(prefix):
    """Run the benchmark's global queries whose id starts with ``prefix``
    and compare each document with its pin; returns how many it checked."""
    workloads, pins = benchmark_workloads()
    checked = 0
    for name in workloads.WORKLOADS:
        for q in workloads.build(name, 0).queries:
            if q.kind == "global" and q.qid.startswith(prefix):
                text, stopped = workloads.execute(q)
                assert stopped is None, q.qid
                digest = workloads.document_digests(text)[1]
                assert digest == pins[name]["documents"][q.qid], (name, q.qid)
                checked += 1
    return checked


def test_fixture_documents_match_the_benchmark_pins():
    assert check_benchmark_pins("cli-global:") == len(list(FIX.glob("*.cpds")))


def test_phase_global_documents_match_the_benchmark_pins():
    # the fresh-state numbering of the phase global solve reaches these
    # documents, so a change to it fails here and not only in the benchmark
    assert check_benchmark_pins("phase-global:") == 10
