"""Command-line front end.

Subcommands: ``check`` decides control-state reachability, ``global``
emits the backward-reachable configuration set, ``member`` tests a
configuration against an exported set, ``simulate`` prints bounded
mode-respecting traces, and ``selftest`` runs the solver-vs-oracle
differential over seeded random instances.  Exit codes are the machine
contract: 0 for reachable/member/success, 1 for unreachable/non-member/
divergence, 2 for usage or parse errors.  Everything written to stdout is
deterministic for a fixed input and flag set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import stacks as ST
from .automata import exact_stack_automaton, accept_all_automaton
from .errors import CpdsError, ParseError
from .extended import prestar_extended
from .oracle import (
    ExploreBounds,
    RandomProfile,
    control_reachability_oracle,
    explore,
    gen_random_system,
    prestar_oracle,
)
from .ordered import ordered_global, ordered_reachability
from .phases import phase_global, phase_reachability
from .regular import RegTuple, RegularConfigSet
from .saturation import prestar
from .scopes import scope_global, scope_reachability
from .sysfile import (
    SystemFile,
    dump_document,
    format_config,
    format_run,
    parse_config_literal,
    parse_system_file,
    result_document,
)
from .systems import Configuration, initial_configuration


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cpds", description="collapsible pushdown system reachability"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide control-state reachability")
    p_check.add_argument("file")
    p_check.add_argument("--from", dest="q_from")
    p_check.add_argument("--to", dest="q_to")
    p_check.add_argument("--out", help="write the result document here")
    p_check.add_argument("--dot", help="write the solver automaton (single mode)")

    p_glob = sub.add_parser("global", help="backward-reachable configuration set")
    p_glob.add_argument("file")
    p_glob.add_argument("--to", dest="q_to", required=True)
    p_glob.add_argument("--out", help="write the result document here")
    p_glob.add_argument("--dot", help="directory for per-tuple automaton DOT files")

    p_mem = sub.add_parser("member", help="test a configuration against a set")
    p_mem.add_argument("setfile", help="result document of a global run")
    p_mem.add_argument("config", help="'control | stack | stack ...' literal")

    p_sim = sub.add_parser("simulate", help="print bounded traces")
    p_sim.add_argument("file")
    p_sim.add_argument("--from", dest="config", help="configuration literal")
    p_sim.add_argument("--steps", type=int, default=20)

    p_self = sub.add_parser("selftest", help="solver-vs-oracle differential")
    p_self.add_argument("--seeds", type=int, default=20)
    p_self.add_argument("--report", help="write the first divergence here")
    p_self.add_argument("--inject-fault", action="store_true",
                        help="deliberately corrupt one verdict (harness check)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CpdsError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "check":
        return cmd_check(args)
    if args.command == "global":
        return cmd_global(args)
    if args.command == "member":
        return cmd_member(args)
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "selftest":
        return cmd_selftest(args)
    return 2


def _load(path: str) -> SystemFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system_file(fh.read())


def _emit(doc: dict, out_path: str | None):
    text = dump_document(doc)
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _single_target_automaton(sf: SystemFile, q_out):
    sysd = sf.system
    if sf.targets:
        return exact_stack_automaton(sysd.order, sysd.alphabet, sf.targets)
    return accept_all_automaton(sysd.order, sysd.alphabet, sysd.controls, [q_out])


def cmd_check(args) -> int:
    sf = _load(args.file)
    sysd = sf.system
    q_in = args.q_from or sf.query_from or sysd.controls[0]
    q_out = args.q_to or sf.query_to
    if q_out is None:
        print("error: no target control (--to or a query line)", file=sys.stderr)
        return 2
    if q_in not in sysd.controls or q_out not in sysd.controls:
        print("error: undeclared control in query", file=sys.stderr)
        return 2
    stats: dict = {"mode": sf.mode_kind}
    dot_text = None
    if sf.mode_kind in ("single", "unrestricted") and sysd.stacks == 1:
        a0 = _single_target_automaton(sf, q_out)
        sat, sstats = prestar_extended(sysd, a0)
        reachable = sat.has_control(q_in) and sat.member(q_in, ST.bottom(sysd.order))
        stats.update(iterations=sstats.iterations,
                     transitions=sstats.transitions_added)
        dot_text = sat.to_dot()
    elif sf.mode_kind == "ordered":
        reachable = ordered_reachability(sysd, q_in, q_out)
    elif sf.mode_kind == "phase":
        reachable = phase_reachability(sysd, sysd.mode[1], q_in, q_out)
    elif sf.mode_kind == "scope":
        reachable = scope_reachability(sysd, sysd.mode[1], q_in, q_out)
    else:
        print("error: unsupported mode for check", file=sys.stderr)
        return 2
    witness = None
    if reachable and not sf.targets:
        probe = control_reachability_oracle(
            sysd, q_in, q_out, ExploreBounds(24, 40, 4000),
        )
        if probe.kind == "reachable":
            witness = format_run(probe.witness)
    doc = result_document(
        "check",
        "reachable" if reachable else "unreachable",
        stats | {"from": str(q_in), "to": str(q_out)},
        witness=witness,
    )
    _emit(doc, args.out)
    if args.dot and dot_text:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot_text)
    return 0 if reachable else 1


def cmd_global(args) -> int:
    sf = _load(args.file)
    sysd = sf.system
    q_out = args.q_to
    if q_out not in sysd.controls:
        print("error: undeclared control in query", file=sys.stderr)
        return 2
    if sf.mode_kind in ("single", "unrestricted") and sysd.stacks == 1:
        a0 = _single_target_automaton(sf, q_out)
        sat, _ = prestar_extended(sysd, a0)
        gset = RegularConfigSet(sysd.order, 1)
        for q in sysd.controls:
            if sat.has_control(q):
                gset.add(RegTuple(q, (sat,), (sat.require_control(q),)))
    elif sf.mode_kind == "ordered":
        gset = ordered_global(sysd, q_out)
    elif sf.mode_kind == "phase":
        gset = phase_global(sysd, sysd.mode[1], q_out)
    elif sf.mode_kind == "scope":
        gset = scope_global(sysd, sysd.mode[1], q_out)
    else:
        print("error: unsupported mode for global", file=sys.stderr)
        return 2
    doc = result_document(
        "global",
        "reachable" if not gset.is_empty() else "unreachable",
        {"mode": sf.mode_kind, "to": str(q_out), "tuples": len(gset.tuples)},
        config_set=gset.to_json(),
    )
    _emit(doc, args.out)
    if args.dot:
        os.makedirs(args.dot, exist_ok=True)
        for i, t in enumerate(gset.tuples):
            for j, a in enumerate(t.autos):
                path = os.path.join(args.dot, f"tuple{i:03d}_stack{j + 1}.dot")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(a.to_dot(f"tuple{i}_stack{j + 1}"))
    return 0 if not gset.is_empty() else 1


def cmd_member(args) -> int:
    with open(args.setfile, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "set" not in doc:
        print("error: document carries no configuration set", file=sys.stderr)
        return 2
    gset = RegularConfigSet.from_json(doc["set"])
    parts = [p.strip() for p in args.config.split("|")]
    if len(parts) != gset.stacks + 1:
        print(
            f"error: literal needs a control and {gset.stacks} stacks",
            file=sys.stderr,
        )
        return 2
    stacks_ = tuple(
        ST.decode(p, gset.order) if p else ST.bottom(gset.order) for p in parts[1:]
    )
    cfg = Configuration(parts[0], stacks_)
    return 0 if gset.member(cfg) else 1


def cmd_simulate(args) -> int:
    sf = _load(args.file)
    sysd = sf.system
    start = (
        parse_config_literal(args.config, sysd)
        if args.config
        else initial_configuration(sysd)
    )
    res = explore(
        sysd, start,
        ExploreBounds(args.steps, 200, 20000),
        extended=any(sysd.ext_rule_sets[i] for i in range(sysd.stacks)),
    )
    print(f"start: {format_config(start)}")
    for control in sorted(res.witnesses, key=str):
        run = res.witnesses[control]
        print(f"control {control}: {len(run.steps)} steps")
        for entry in format_run(run):
            print(f"  [{entry['stack']}] {entry['rule']} -> {entry['to']}")
    print(f"visited {res.visited} configurations; closed={res.closed}")
    return 0


def _selftest_seed(seed: int, inject: bool):
    """One differential round; returns (ok, detail)."""
    prof = RandomProfile(order=2, controls=3, letters=2, stacks=1, rules=6)
    sysd = gen_random_system(seed, prof)
    a0 = exact_stack_automaton(
        sysd.order, sysd.alphabet, {sysd.controls[-1]: [ST.bottom(sysd.order)]}
    )
    sat, _ = prestar(sysd, a0)
    members, indefinite = prestar_oracle(sysd, a0, max_size=6)
    for cfg, want in sorted(members.items(), key=lambda kv: format_config(kv[0])):
        if indefinite and not want:
            continue
        got = sat.member(cfg.control, cfg.stacks[0])
        if inject:
            got = not got
            inject = False
        if got != want:
            return False, {
                "seed": seed,
                "configuration": format_config(cfg),
                "oracle": want,
                "solver": got,
            }
    return True, None


def cmd_selftest(args) -> int:
    for s in range(args.seeds):
        ok, detail = _selftest_seed(s, args.inject_fault and s == 0)
        if not ok:
            print(f"divergence at seed {s}", file=sys.stderr)
            if args.report:
                with open(args.report, "w", encoding="utf-8") as fh:
                    fh.write(dump_document(detail))
            return 1
    print(f"selftest passed over {args.seeds} seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
