"""The cpds benchmark: time to a verdict and to a global set, per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ordered --seed 1 --seconds 28 --trace 0

The parent process builds the workload, computes the oracle reference and
then runs ``--seconds`` / (the workload's nominal wall time per pass)
measured passes (at least two), each in a fresh interpreter (``worker.py``), so that
module-level tables start empty as they do for a ``cpds`` user and peak RSS
belongs to one pass; ``setup_s`` is the median of the passes' set-ups.
Passes alternate ``PYTHONHASHSEED`` 0 and 1 and must produce byte-identical
result documents.  Times are the worker's CPU time.  Every verdict and
membership answer is compared with the bounded oracle and every global
document with its pinned digest (``pins.json``); any mismatch fails the run.
The oracle must close every instance of the workload, which is fixed;
budget stops that differ from the pinned ones are reported, not failed,
since ``decided_ratio`` measures them.

With ``--trace 0`` the last line reports the end-to-end metrics of the
untraced passes.  With ``--trace 1`` one untraced and one traced pass run,
and the last line reports the per-layer metrics of the traced pass; its
spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
OUT = HERE / "out"
DEADLINE_S = 170.0
MAX_PASSES = 8
HASH_SEEDS = ("0", "1")
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def tail(samples):
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it:
    ``(value, percentile, sample count)``."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        raise BenchError(f"{len(xs)} samples: too few for a tail")
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def run_worker(spec, hash_seed, deadline):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(spec), capture_output=True,
                          text=True, env=env, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class Checker:
    """Compares every pass with the oracle, the pins and the other passes."""

    def __init__(self, expected, pins):
        self.expected = expected
        self.pins = pins
        self.raw = {}
        self.undecided = None
        self.attempted = 0
        self.failures = []

    def check_pass(self, out):
        undecided = {}
        for qid, kind, _dt, answer, error, _n in out["records"]:
            self.attempted += 1
            if error is not None:
                undecided[qid] = error
            elif kind == "global":
                raw, pinned = answer
                if self.raw.setdefault(qid, raw) != raw:
                    self.failures.append(f"{qid}: document differs between "
                                         "processes")
                want = self.pins["documents"].get(qid)
                if want != pinned:
                    self.failures.append(f"{qid}: document digest {pinned[:12]} "
                                         f"is not the pinned {str(want)[:12]}")
            elif kind == "member":
                want = self.expected[qid]
                wrong = sum(a != w for a, w in zip(answer, want) if w is not None)
                if wrong or len(answer) != len(want):
                    self.failures.append(f"{qid}: {wrong} membership answers "
                                         "differ from the oracle")
            elif self.expected[qid] is not None and answer != self.expected[qid]:
                self.failures.append(f"{qid}: verdict {answer}, oracle says "
                                     f"{self.expected[qid]}")
        if self.undecided is None:
            self.undecided = undecided
        elif undecided != self.undecided:
            self.failures.append("budget stops differ between passes")


def end_to_end(passes, checker):
    """Each time metric pools the samples of every pass: a query that runs
    in every pass gives one sample per pass to the medians and tails."""
    checks, globals_, member_n, member_s = [], [], 0, 0.0
    for out in passes:
        for _qid, kind, dt, _answer, _error, n in out["records"]:
            if kind == "check":
                checks.append(dt)
            elif kind == "global":
                globals_.append(dt)
            else:
                member_n += n
                member_s += dt
    queries = [r for r in passes[0]["records"] if r[1] != "member"]
    n_checks = sum(r[1] == "check" for r in queries)
    check_tail, check_pct, check_n = tail(checks)
    global_tail, global_pct, global_n = tail(globals_)
    metrics = {
        "setup_s": (statistics.median(o["setup_s"] for o in passes), "s"),
        "run_s": (statistics.fmean(o["pass_s"] for o in passes), "s"),
        "check_p50_s": (statistics.median(checks), "s"),
        "check_tail_s": (check_tail, "s"),
        "global_p50_s": (statistics.median(globals_), "s"),
        "global_tail_s": (global_tail, "s"),
        "member_per_s": (member_n / member_s, "1/s"),
        "peak_rss_mb": (statistics.median(o["rss_mb"] for o in passes), "MB"),
        "decided_ratio": (1.0 - len(checker.undecided) / len(queries), "ratio"),
    }
    notes = {
        "passes": len(passes),
        "pass_s": [o["pass_s"] for o in passes],
        "check_tail": f"p{check_pct:.1f} of {check_n} samples "
                      f"({n_checks} queries x {len(passes)} passes)",
        "global_tail": f"p{global_pct:.1f} of {global_n} samples "
                       f"({len(queries) - n_checks} queries x {len(passes)} "
                       "passes)",
        "member_queries": member_n,
        "undecided_ratio": f"{len(checker.undecided)}/{len(queries)}",
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "cpds" / "__init__.py").is_file():
        print("error: no cpds sources under src/ next to the benchmark",
              file=sys.stderr)
        return 2
    # workers import cpds from bytecode, as an installed cpds does, whether
    # or not this environment lets the interpreter write bytecode itself
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_file(HERE / "workloads.py", quiet=1)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text())[args.workload]
    wl = W.build(args.workload, args.seed)
    expected, unclosed = W.reference(wl)
    if unclosed:
        print(f"error: the oracle cannot close {unclosed}, so their answers "
              "cannot be checked", file=sys.stderr)
        return 1
    checker = Checker(expected, pins)
    spec = {"workload": args.workload, "seed": args.seed, "trace": False,
            "spans": ""}

    try:
        passes = []
        if args.trace:
            passes.append(run_worker(spec, HASH_SEEDS[0], deadline))
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
            traced = run_worker(dict(spec, trace=True, spans=str(spans)),
                                HASH_SEEDS[0], deadline)
            checker.check_pass(traced)
            report = {name: {"value": value, "unit": _layer_unit(name)}
                      for name, value in traced["layers"].items()}
            base = passes[0]["pass_s"]
            report["trace.overhead_ratio"] = {
                "value": traced["pass_s"] / base, "unit": "ratio"}
            report["trace.run_s"] = {"value": traced["pass_s"], "unit": "s"}
            report["trace.base_run_s"] = {"value": base, "unit": "s"}
            notes = {"spans": traced["spans"], "spans_file": str(spans)}
        else:
            nominal = W.PLAN[args.workload]["pass_s"]
            count = max(2, min(MAX_PASSES, round(args.seconds / nominal)))
            for i in range(count):
                passes.append(run_worker(spec, HASH_SEEDS[i % 2], deadline))
        for out in passes:
            checker.check_pass(out)
        if not args.trace:
            metrics, notes = end_to_end(passes, checker)
            for name, (value, unit) in metrics.items():
                print(f"{args.workload} {name} = {value:.6g} {unit}")
            report = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in metrics.items()}
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    notes["dropped_instances"] = len(W.PLAN[args.workload].get(
        "dropped_seeds", ()))
    notes["dropped_probes"] = sum(
        v.count(None) for v in expected.values() if isinstance(v, list))
    notes["baseline_undecided"] = len(pins["undecided"])
    notes["undecided"] = checker.undecided
    if checker.undecided != pins["undecided"]:
        stops = set(checker.undecided.items())
        pinned = set(pins["undecided"].items())
        notes["budget_stops_vs_pins"] = {
            "new": sorted(stops - pinned), "gone": sorted(pinned - stops)}
        print("BUDGET STOPS CHANGED (not a failure; decided_ratio counts "
              f"them): {notes['budget_stops_vs_pins']}")
    for failure in checker.failures:
        print(f"MISMATCH {failure}")
    print(json.dumps({"notes": notes}, sort_keys=True))
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": report,
    }))
    return 0 if not checker.failures else 1


def _layer_unit(name):
    import tracing

    if name in tracing.COUNTS:
        return "count"
    return tracing.UNITS[name.rsplit(".", 1)[1]]


if __name__ == "__main__":
    raise SystemExit(main())
