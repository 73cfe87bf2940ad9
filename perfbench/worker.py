"""One measured pass of a workload, in a fresh interpreter.

Reads ``{"workload", "seed", "trace", "spans"}`` as JSON on stdin and
prints one JSON object: the set-up time, the pass time, the process's peak
RSS and, per query, its time, answer and budget error.  Times are CPU time
of this single-threaded process, which on a shared machine does not count
the time other processes hold the core.  With ``trace`` the pass runs under
the tracer and the object also holds the per-layer metrics; the spans go to
the gzip file named by ``spans``.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads(sys.stdin.read())
    t0 = time.process_time()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads as W  # imports cpds: part of the set-up

    wl = W.build(spec["workload"], spec["seed"])
    setup_s = time.process_time() - t0

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install(tracing.HOOKS)
    # the workload's own objects live all pass: keep them out of every
    # collection, as a cpds process holding one system would not have them
    gc.freeze()
    records = []
    clock = time.process_time
    pass_s = 0.0
    for q in wl.queries:
        if q.needs and q.needs not in wl.results:
            continue
        gc.collect()  # each query starts from a collected heap, untimed
        frame = tracer.begin_query(q.qid, q.kind) if tracer else None
        t = clock()
        answer, error = W.execute(q)
        dt = clock() - t
        if tracer:
            tracer.end_query(frame)
        if q.kind == "global" and answer is not None:
            answer = W.document_digests(answer)  # untimed; the text is freed
        records.append([q.qid, q.kind, dt, answer, error, len(q.probes)])
        pass_s += dt

    out = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
    }
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer, pass_s)
        out["spans"] = len(tracer.sp_name)
        tracing.write_spans(tracer, spec["spans"])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
