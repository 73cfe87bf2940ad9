"""Rewrite ``pins.json``: the digest of every global result document and
the budget stops of each workload, taken from one pass per workload.

Run it only for a change that is meant to alter result documents or budget
stops, and say so in the change.  It refuses to pin a pass whose verdicts or
membership answers disagree with the oracle.

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
import time

import run


def main() -> int:
    sys.path[:0] = [str(run.ROOT / "src"), str(run.HERE)]
    import workloads as W

    pins = {}
    for name in W.WORKLOADS:
        wl = W.build(name, 0)
        expected, unclosed = W.reference(wl)
        if unclosed:
            print(f"{name}: the oracle cannot close {unclosed}",
                  file=sys.stderr)
            return 1
        spec = {"workload": name, "seed": 0, "trace": False, "spans": ""}
        out = run.run_worker(spec, run.HASH_SEEDS[0],
                             time.monotonic() + run.DEADLINE_S)
        checker = run.Checker(expected, {"documents": {}})
        checker.check_pass(out)
        wrong = [f for f in checker.failures if "pinned" not in f]
        if wrong:
            print("\n".join(wrong), file=sys.stderr)
            return 1
        pins[name] = {
            "documents": {r[0]: r[3][1] for r in out["records"]
                          if r[1] == "global" and r[4] is None},
            "undecided": checker.undecided,
        }
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
