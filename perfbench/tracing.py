"""Spans around the public functions of each ``cpds`` layer, from outside.

``install`` replaces each traced function at every name it is bound under
in the ``cpds`` modules, and each traced method on its class.  A span is
``(query, name, start, end, parent)``; spans stay in memory and
``write_spans`` writes them out once the pass is over.  A span's self time
is its duration minus the time its child spans cover.  Work the tracer does
for a counter (content keys, byte counts) is excluded from every span.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

# (module, function) traced at every binding
FUNCTIONS = [
    ("saturation", "prestar"),
    ("extended", "prestar_extended"),
    ("ordered", "build_leftcpda"),
    ("ordered", "build_rightcpds"),
    ("phases", "build_pbcpds"),
    ("scopes", "predecessor"),
    ("scopes", "saturate_layer"),
    ("scopes", "shift"),
    ("scopes", "surface"),
    ("scopes", "envmove"),
    ("automata", "flat_key"),
    ("sysfile", "dump_document"),
    ("sysfile", "parse_system_file"),
    ("oracle", "control_reachability_oracle"),
    ("oracle", "prestar_oracle"),
]
# (module, class, method); the span is named module.method
METHODS = [
    ("automata", "StackAutomaton", "add_long_form"),
    ("automata", "StackAutomaton", "nonempty"),
    ("automata", "StackAutomaton", "canonical_key"),
    ("automata", "StackAutomaton", "copy"),
    ("automata", "StackAutomaton", "member"),
    ("ordered", "OrderedSolver", "empty_global"),
    ("ordered", "OrderedSolver", "langcheck_batch"),
    ("phases", "_PhaseSolver", "step_back"),
    ("regular", "RegularConfigSet", "add"),
    ("regular", "RegularConfigSet", "member"),
    ("regular", "RegularConfigSet", "to_json"),
]
GENERATORS = {"phases.step_back"}
# timed and counted, but too frequent to keep as spans (millions per pass)
UNRECORDED = {"automata.flat_key"}


class Tracer:
    def __init__(self):
        self.clock = time.process_time  # the clock of the untraced times
        self.on = True
        self.names = []
        self.name_ids = {}
        self.stack = []  # frames: [span id, name id, start, child time]
        self.next_span = 0
        self.query = -1
        self.queries = []
        # one entry per closed span
        self.sp_id = array("l")
        self.sp_query = array("l")
        self.sp_name = array("l")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("l")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)  # time in outermost spans of a name
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.size_before = 0  # RegularConfigSet size when add was entered

    def name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans ---------------------------------------------------------------

    def enter(self, nid):
        frame = [self.next_span, nid, self.clock(), 0.0]
        self.next_span += 1
        self.stack.append(frame)
        self.depth[nid] += 1
        return frame

    def leave(self, frame, busy=None):
        end = self.clock()
        self.stack.pop()
        sid, nid, start, child = frame
        if busy is None:
            busy = end - start
        name = self.names[nid]
        self.calls[name] += 1
        self.self_s[name] += busy - child
        self.depth[nid] -= 1
        if self.depth[nid] == 0:
            self.outer_s[name] += busy
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += busy
        if name in UNRECORDED:
            return
        self.sp_id.append(sid)
        self.sp_query.append(self.query)
        self.sp_name.append(nid)
        self.sp_start.append(start)
        self.sp_end.append(end)
        self.sp_parent.append(parent[0] if parent is not None else -1)

    def aside(self, fn, *args, **kw):
        """Run counter work outside every span and outside the tracing."""
        t0 = self.clock()
        self.on = False
        try:
            return fn(*args, **kw)
        finally:
            self.on = True
            if self.stack:
                self.stack[-1][3] += self.clock() - t0

    def begin_query(self, qid, kind):
        self.queries.append(qid)
        self.query = len(self.queries) - 1
        return self.enter(self.name_id(f"query.{kind}"))

    def end_query(self, frame):
        self.leave(frame)
        self.query = -1

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kw):
            if not tracer.on:
                return fn(*args, **kw)
            if before is not None:
                tracer.aside(before, tracer, *args, **kw)
            frame = tracer.enter(nid)
            try:
                result = fn(*args, **kw)
            finally:
                tracer.leave(frame)
            if after is not None:
                tracer.aside(after, tracer, result, *args, **kw)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn, before=None):
        """Time a generator across its iteration: every resume is busy time."""
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kw):
            if not tracer.on:
                yield from fn(*args, **kw)
                return
            if before is not None:
                tracer.aside(before, tracer, *args, **kw)
            gen = fn(*args, **kw)
            frame = None
            busy = 0.0
            try:
                while True:
                    if frame is None:
                        frame = tracer.enter(nid)
                    else:
                        tracer.stack.append(frame)
                    t0 = tracer.clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        busy += tracer.clock() - t0
                        break
                    busy += tracer.clock() - t0
                    tracer.stack.pop()
                    yield item
            finally:
                gen.close()
                if frame is not None:
                    if not tracer.stack or tracer.stack[-1] is not frame:
                        tracer.stack.append(frame)
                    tracer.leave(frame, busy)

        traced.__wrapped__ = fn
        return traced


def _bind_everywhere(orig, new):
    for modname, mod in list(sys.modules.items()):
        if modname != "cpds" and not modname.startswith("cpds."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def install(hooks):
    """Wrap every traced callable; ``hooks`` maps a span name to
    ``(before, after)`` counter callbacks.  Returns the tracer."""
    import importlib

    tracer = Tracer()
    for mod, fn_name in FUNCTIONS:
        module = importlib.import_module(f"cpds.{mod}")
        orig = getattr(module, fn_name)
        name = f"{mod}.{fn_name}"
        before, after = hooks.get(name, (None, None))
        _bind_everywhere(orig, tracer.wrap(name, orig, before, after))
    for mod, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"cpds.{mod}"), cls_name)
        orig = cls.__dict__[meth]
        name = f"{mod}.{meth}"
        before, after = hooks.get(name, (None, None))
        if name in GENERATORS:
            setattr(cls, meth, tracer.wrap_generator(name, orig, before))
        else:
            setattr(cls, meth, tracer.wrap(name, orig, before, after))
    return tracer


def write_spans(tracer: Tracer, path):
    """Tab-separated spans: query, name, start, end, span id, parent id.
    Start and end are the worker's CPU time, in seconds."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("query\tname\tstart\tend\tspan\tparent\n")
        names = tracer.names
        queries = tracer.queries
        for i in range(len(tracer.sp_name)):
            q = tracer.sp_query[i]
            fh.write(f"{queries[q] if q >= 0 else '-'}\t"
                     f"{names[tracer.sp_name[i]]}\t{tracer.sp_start[i]:.9f}\t"
                     f"{tracer.sp_end[i]:.9f}\t{tracer.sp_id[i]}\t"
                     f"{tracer.sp_parent[i]}\n")


# ---------------------------------------------------------------------------
# Counters taken at the span boundaries
# ---------------------------------------------------------------------------


def _prestar_after(t, result, *args, **kw):
    stats = result[1]
    t.counts["saturation.iterations"] += stats.iterations
    t.counts["saturation.transitions_added"] += stats.transitions_added
    t.counts["saturation.extended_queries"] += stats.extended_queries


def _add_long_form_after(t, result, *args, **kw):
    t.counts["automata.add_long_form.added"] += bool(result)


def _regular_add_before(t, rset, *args, **kw):
    t.size_before = len(rset.tuples)


def _regular_add_after(t, result, rset, *args, **kw):
    t.counts["regular.add.kept"] += len(rset.tuples) > t.size_before


def _dump_after(t, result, *args, **kw):
    t.counts["sysfile.dump_document.bytes"] += len(result.encode("utf-8"))


def _rules_key(sysd):
    return tuple(tuple(sorted(map(repr, rs))) for rs in sysd.rule_sets)


def _empty_global_before(t, solver, sysd, target, depth):
    t.distinct["ordered.empty_global"].add(
        (sysd.order, repr(sysd.controls), _rules_key(sysd), repr(target),
         depth))


def _canonical(aut):
    # leave the automaton's own per-revision cache as the solver left it
    had = "_canon_cache" in vars(aut)
    cached = vars(aut).get("_canon_cache")
    key = aut.canonical_key()
    if had:
        aut._canon_cache = cached
    else:
        vars(aut).pop("_canon_cache", None)
    return key


def _step_back_before(t, solver, autos, q_prev, q_cur, s):
    t.distinct["phases.step_back"].add(
        (_rules_key(solver.sys), solver.z, repr(q_prev), repr(q_cur), s,
         tuple(_canonical(autos[j]) for j in sorted(autos))))


HOOKS = {
    "saturation.prestar": (None, _prestar_after),
    "automata.add_long_form": (None, _add_long_form_after),
    "regular.add": (_regular_add_before, _regular_add_after),
    "sysfile.dump_document": (None, _dump_after),
    "ordered.empty_global": (_empty_global_before, None),
    "phases.step_back": (_step_back_before, None),
}

# (span name, measures); each measure becomes the metric "<name>.<measure>"
LAYER_METRICS = [
    ("saturation.prestar", ("calls", "self_s", "share")),
    ("automata.add_long_form", ("calls", "added_ratio")),
    ("extended.prestar_extended", ("calls", "self_s")),
    ("ordered.empty_global", ("calls", "distinct", "repeat_ratio")),
    ("ordered.build_leftcpda", ("calls", "self_s")),
    ("ordered.build_rightcpds", ("calls", "self_s")),
    ("ordered.langcheck_batch", ("calls",)),
    ("phases.step_back", ("calls", "distinct")),
    ("phases.build_pbcpds", ("calls", "self_s")),
    ("scopes.predecessor", ("calls", "self_s")),
    ("scopes.saturate_layer", ("calls", "self_s")),
    ("scopes.shift", ("calls", "self_s")),
    ("scopes.surface", ("calls", "self_s")),
    ("scopes.envmove", ("calls",)),
    ("automata.nonempty", ("calls", "self_s")),
    ("automata.flat_key", ("self_s",)),
    ("automata.canonical_key", ("calls", "self_s")),
    ("automata.copy", ("calls", "self_s")),
    ("automata.member", ("calls", "self_s")),
    ("regular.add", ("calls", "kept_ratio", "self_s")),
    ("regular.member", ("self_s",)),
    ("regular.to_json", ("self_s",)),
    ("sysfile.dump_document", ("self_s", "bytes")),
    ("sysfile.parse_system_file", ("self_s",)),
    ("oracle.control_reachability_oracle", ("calls", "self_s")),
    ("oracle.prestar_oracle", ("self_s",)),
]
COUNTS = ("saturation.iterations", "saturation.transitions_added",
          "saturation.extended_queries")
UNITS = {"calls": "count", "distinct": "count", "self_s": "s", "bytes": "bytes",
         "share": "ratio", "added_ratio": "ratio", "kept_ratio": "ratio",
         "repeat_ratio": "ratio"}


def layer_metrics(t: Tracer, pass_s: float) -> dict:
    """Per-layer metrics of a traced pass, as ``{name: value}``."""
    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name, measures in LAYER_METRICS:
        calls = t.calls.get(name, 0)
        values = {
            "calls": calls,
            "self_s": t.self_s.get(name, 0.0),
            "share": ratio(t.outer_s.get(name, 0.0), pass_s),
            "added_ratio": ratio(t.counts["automata.add_long_form.added"], calls),
            "kept_ratio": ratio(t.counts["regular.add.kept"], calls),
            "distinct": len(t.distinct.get(name, ())),
            "repeat_ratio": ratio(calls - len(t.distinct.get(name, ())), calls),
            "bytes": t.counts["sysfile.dump_document.bytes"],
        }
        for measure in measures:
            out[f"{name}.{measure}"] = values[measure]
    for name in COUNTS:
        out[name] = t.counts[name]
    return out
