"""Command line interface: exit codes, artifacts, and output text."""

import numpy as np
import pytest

from stlfunnel.cli import main

TOY_SCENARIO = """\
name: toy
plant:
  kind: single_integrator
  dim: 1
formula: "F[0,3](ball(0;2;1.5))"
x0: [0.0]
dt: 0.01
seed: 3
"""


def _write(tmp_path, text, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_run_writes_artifacts_and_exits_zero(tmp_path, capsys):
    scn = _write(tmp_path, TOY_SCENARIO)
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scn), "--out", str(out)])
    assert code == 0
    for fname in ("trajectory.csv", "events.csv", "metrics.txt", "funnel.csv"):
        assert (out / fname).is_file(), fname
    text = capsys.readouterr().out
    assert "satisfied=true" in text


def test_run_seed_and_dt_overrides(tmp_path):
    scn = _write(tmp_path, TOY_SCENARIO)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run", "--scenario", str(scn), "--out", str(a), "--dt", "0.02"]) == 0
    assert main(["run", "--scenario", str(scn), "--out", str(b)]) == 0
    ta = np.loadtxt(a / "trajectory.csv", delimiter=",", skiprows=1)
    tb = np.loadtxt(b / "trajectory.csv", delimiter=",", skiprows=1)
    assert ta[1, 0] == pytest.approx(0.02)
    assert tb[1, 0] == pytest.approx(0.01)


def test_missing_scenario_is_config_error(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_scenario_is_config_error(tmp_path, capsys):
    scn = _write(tmp_path, "plant: {kind: warp_drive}\n")
    code = main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert code == 2


def test_bad_formula_is_config_error(tmp_path, capsys):
    bad = TOY_SCENARIO.replace("F[0,3](ball(0;2;1.5))", "F[3,0](ball(0;2;1.5))")
    scn = _write(tmp_path, bad)
    code = main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert code == 2


def test_spec_size_mismatch_is_config_error(tmp_path, capsys):
    scn = _write(tmp_path, TOY_SCENARIO.replace("x0: [0.0]", "x0: [0.0, 1.0]"))
    code = main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "x0" in capsys.readouterr().err
    scn = _write(tmp_path, TOY_SCENARIO)
    assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o"), "--dt", "0"]) == 2


def test_non_finite_x0_is_config_error(tmp_path, capsys):
    for value in (".inf", ".nan"):
        scn = _write(tmp_path, TOY_SCENARIO.replace("x0: [0.0]", f"x0: [{value}]"))
        assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 2
        assert "x0 must be finite" in capsys.readouterr().err


def test_unfinished_task_exits_three(tmp_path, capsys):
    late = TOY_SCENARIO.replace(
        'formula: "F[0,3](ball(0;2;1.5))"',
        'formula: "F[2,3](ball(0;2;1.5))"\nhorizon: 1.0',
    )
    scn = _write(tmp_path, late)
    code = main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "failure=horizon" in capsys.readouterr().err


def test_failure_before_first_sample_exits_three(tmp_path, capsys):
    # The leaf norm overflows this far out, so synthesis fails at t = 0,
    # naming the robustness, and the run has no sample: the writers still
    # produce every artifact, the CSVs with their headers only.
    scn = _write(tmp_path, TOY_SCENARIO.replace("x0: [0.0]", "x0: [1.0e+300]"))
    out = tmp_path / "o"
    code = main(["run", "--scenario", str(scn), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "failure=synthesis: robustness at x0 is not finite (-inf)" in err
    for fname in ("trajectory.csv", "events.csv", "metrics.txt", "funnel.csv"):
        assert (out / fname).is_file(), fname
    assert (out / "trajectory.csv").read_text().splitlines() == [
        "t,x0,u0,rho_active,gamma,mode"
    ]
    assert (out / "events.csv").read_text().splitlines() == ["i,t_i,cause,delta_i,x0,u0"]
    assert (out / "funnel.csv").read_text().splitlines() == ["t,mode,rho_active,lower,upper,u0"]
    assert "satisfied=false" in (out / "metrics.txt").read_text()


def test_lost_guarantee_exits_four(tmp_path, capsys):
    noisy = TOY_SCENARIO.replace(
        "plant:\n  kind: single_integrator\n  dim: 1",
        "plant:\n  kind: single_integrator\n  dim: 1\n  w_max: 500.0",
    ).replace("F[0,3]", "F[2,3]")
    scn = _write(tmp_path, noisy)
    code = main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert code == 4


def test_optimize_prints_each_task(capsys):
    code = main(["optimize", "--formula", "F[0,1](ball(0;3;2)) and F[2,3](ball(0;9;4))"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert "task 0: rho_opt=2" in lines[0]
    assert "task 1: rho_opt=4" in lines[1]


def test_optimize_accepts_bare_state_formula(capsys):
    assert main(["optimize", "--formula", "ball(0;3;2)"]) == 0
    assert "rho_opt=2" in capsys.readouterr().out


def test_optimize_bad_formula_exits_two(capsys):
    assert main(["optimize", "--formula", "ball(0;3;-2)"]) == 2


def test_monitor_on_written_trajectory(tmp_path, capsys):
    scn = _write(tmp_path, TOY_SCENARIO)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main([
        "monitor",
        "--trajectory", str(out / "trajectory.csv"),
        "--formula", "F[0,3](ball(0;2;1.5))",
        "--at", "0.0",
    ])
    assert code == 0
    out_text = capsys.readouterr().out
    assert out_text.startswith("rho=")
    assert float(out_text.split("=")[1]) > 0.0


def test_monitor_uncovered_window_exits_two(tmp_path, capsys):
    scn = _write(tmp_path, TOY_SCENARIO)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
    code = main([
        "monitor",
        "--trajectory", str(out / "trajectory.csv"),
        "--formula", "G[0,50](ball(0;2;1.5))",
    ])
    assert code == 2


def test_formula_argument_can_be_a_file(tmp_path, capsys):
    f = tmp_path / "formula.txt"
    f.write_text("F[0,1](ball(0;3;2))")
    assert main(["optimize", "--formula", str(f)]) == 0
    assert "rho_opt=2" in capsys.readouterr().out
