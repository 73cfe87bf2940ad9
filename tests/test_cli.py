import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cpds.cli import main
from cpds.sysfile import parse_config_literal, parse_system_file

FIX = Path(__file__).parent / "fixtures"


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_parse_round_trips_fixtures():
    for name in sorted(os.listdir(FIX)):
        sf = parse_system_file((FIX / name).read_text())
        assert sf.system.order == 2
        assert sf.query_to is not None


def test_parse_errors_have_positions():
    from cpds import ParseError

    with pytest.raises(ParseError) as e:
        parse_system_file("order 2\nstacks 1\nmode single\nalphabet a\n"
                          "controls p\nstack 1\n  p a pop q\n")
    assert "line 7" in str(e.value)
    with pytest.raises(ParseError):
        parse_system_file("stacks 1\nmode single\nalphabet a\ncontrols p\n")


def test_check_exit_codes():
    code, out = run("check", str(FIX / "fix3.cpds"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "reachable" and doc["schema"] == "cpds-result/1"
    assert doc["witness"]  # small instance: the probe finds a trace
    code, _ = run("check", str(FIX / "fix3_blocked.cpds"))
    assert code == 1
    code, _ = run("check", str(FIX / "fix3.cpds"), "--to", "nosuch")
    assert code == 2


def test_check_modes():
    assert run("check", str(FIX / "fix1.cpds"))[0] == 0
    assert run("check", str(FIX / "fix2.cpds"))[0] == 0
    assert run("check", str(FIX / "ecpds.cpds"))[0] == 0
    assert run("check", str(FIX / "fixph.cpds"))[0] == 0
    assert run("check", str(FIX / "fixph_z1.cpds"))[0] == 1
    assert run("check", str(FIX / "fixsc.cpds"))[0] == 0
    assert run("check", str(FIX / "fixsc_z1.cpds"))[0] == 1


def test_check_malformed_file(tmp_path):
    bad = tmp_path / "bad.cpds"
    bad.write_text("order 2\nstacks 1\nmode banana\n")
    code, _ = run("check", str(bad))
    assert code == 2


def test_global_and_member(tmp_path):
    out = tmp_path / "set.json"
    code, text = run("global", str(FIX / "fix1.cpds"), "--to", "q",
                     "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["set"]["stacks"] == 1
    assert run("member", str(out), "p | <1 a _ 1>")[0] == 0
    assert run("member", str(out), "q | <1 _ 1>")[0] == 0
    assert run("member", str(out), "q | <1 a _ 1>")[0] == 1
    assert run("member", str(out), "q")[0] == 2  # arity


def test_global_ordered_with_dot(tmp_path):
    out = tmp_path / "set.json"
    dotdir = tmp_path / "dots"
    code, _ = run("global", str(FIX / "fix3.cpds"), "--to", "q7",
                  "--out", str(out), "--dot", str(dotdir))
    assert code == 0
    assert any(f.endswith(".dot") for f in os.listdir(dotdir))
    assert run("member", str(out), "q0 | <1 _ 1> | <1 _ 1>")[0] == 0
    assert run("member", str(out), "q7 | <1 a _ 1> | <1 _ 1>")[0] == 0
    # stack 1 non-empty blocks the only consuming move out of q6
    assert run("member", str(out), "q6 | <1 a _ 1> | <1 _ 1>")[0] == 1


def test_simulate_prints_worked_chain():
    code, out = run("simulate", str(FIX / "fix2.cpds"),
                    "--from", "p0 | <1 a 1> <1 b 1>", "--steps", "6")
    assert code == 0
    assert "<1 c^{<2 <1 b 1> 2>} a 1> <1 b 1>" in out
    assert "<1 c^{<2 <1 b 1> 2>} a 1> <1 c^{<2 <1 b 1> 2>} a 1> <1 b 1>" in out
    assert out.count("control p3") == 1


def test_selftest_and_fault_injection(tmp_path):
    assert run("selftest", "--seeds", "6")[0] == 0
    report = tmp_path / "repro.json"
    code, _ = run("selftest", "--seeds", "2", "--inject-fault",
                  "--report", str(report))
    assert code == 1
    detail = json.loads(report.read_text())
    assert {"seed", "configuration", "oracle", "solver"} <= set(detail)


def test_scope_bound_zero_is_not_supported(tmp_path):
    text = (FIX / "fixsc.cpds").read_text().replace("mode scope 2", "mode scope 0")
    path = tmp_path / "fixsc0.cpds"
    path.write_text(text)
    assert run("check", str(path))[0] == 2
    assert run("global", str(path), "--to", "c5") == (2, "")


def test_phase_bound_zero_is_not_supported(tmp_path, capsys):
    text = (FIX / "fixph.cpds").read_text().replace("mode phase 2", "mode phase 0")
    path = tmp_path / "fixph0.cpds"
    path.write_text(text)
    assert run("check", str(path))[0] == 1  # no phase, so p4 is unreachable
    capsys.readouterr()
    assert run("global", str(path), "--to", "p4") == (2, "")
    assert "error: NotSupported: the phase solver needs a bound of at least 1" \
        in capsys.readouterr().err


def test_check_deterministic_documents():
    for name in ("fix1.cpds", "fix3.cpds", "fixph.cpds", "fixsc.cpds"):
        a = run("check", str(FIX / name))
        b = run("check", str(FIX / name))
        assert a == b, name


def test_config_literal_parse_errors():
    from cpds import ParseError

    sf = parse_system_file((FIX / "fix3.cpds").read_text())
    cfg = parse_config_literal("q0 | <1 _ 1> | <1 b _ 1>", sf.system)
    assert cfg.control == "q0"
    with pytest.raises(ParseError):
        parse_config_literal("q0 | <1 _ 1>", sf.system)
    with pytest.raises(ParseError):
        parse_config_literal("zz | <1 _ 1> | <1 _ 1>", sf.system)


def test_global_output_is_identical_across_hash_seeds():
    """Memo keys and iteration orders must not leak hash randomisation."""
    src = str(Path(__file__).parent.parent / "src")
    for name, target in (("fix3", "q7"), ("fixph", "p4"), ("fixsc", "c5")):
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run(
                [sys.executable, "-m", "cpds.cli", "global",
                 str(FIX / f"{name}.cpds"), "--to", target],
                capture_output=True, env=env, timeout=300, check=True)
            outs.append(proc.stdout)
        assert outs[0] and outs[0] == outs[1], name
