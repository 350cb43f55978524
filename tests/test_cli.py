"""Command line interface: exit codes, artifacts, and output text."""

import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from stlfunnel.cli import main
from stlfunnel.reporting import write_all
from stlfunnel.scenario import build_episode, load_scenario
from stlfunnel.sim import RunMetrics, run_episode

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
# Two phases and a terminal tail: the held input changes at two ModeSwitch
# events too, and the run visits modes 1, 2 and 3.
TWO_PHASE_SCENARIO = TOY_SCENARIO.replace(
    '"F[0,3](ball(0;2;1.5))"', '"F[0,3](ball(0;2;1.5)) and F[3,6](ball(0;-1;1.5))"'
) + "terminal_tail: 0.3\n"


def _write(tmp_path, text, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def _reject(token):
    raise ValueError(f"metrics.json holds {token}")


def _metrics(out) -> dict:
    """metrics.json of run directory ``out`` as strict JSON: no NaN or Infinity."""
    metrics = json.loads((out / "metrics.json").read_text(), parse_constant=_reject)
    assert list(metrics) == [f.name for f in dataclasses.fields(RunMetrics)]
    return metrics


def _readme_snippet(marker: str, out) -> dict:
    """Run the README's python block containing ``marker`` on run directory
    ``out`` (its ``D``) and return the names it defines."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [code] = [block for block in re.findall(r"```python\n(.*?)```", text, re.S) if marker in block]
    names = {}
    exec(code.replace('"D/', f'"{out}/'), names)
    return names


def test_run_writes_artifacts_and_exits_zero(tmp_path, capsys):
    scn = _write(tmp_path, TOY_SCENARIO)
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scn), "--out", str(out)])
    assert code == 0
    assert sorted(f.name for f in out.iterdir()) == ["events.csv", "metrics.json", "trajectory.csv"]
    text = capsys.readouterr().out
    assert "satisfied=true" in text
    # Each event names the term that set its radius, and metrics.json
    # counts them.
    metrics = _metrics(out)
    assert metrics["satisfied"] is True
    assert set(metrics["delta_by"]) == {"box", "lipschitz"}
    counts = metrics["delta_by"]
    assert sum(counts.values()) == metrics["triggers"] > 0
    rows = (out / "events.csv").read_text().splitlines()
    by = [row.split(",")[4] for row in rows[1:]]
    assert {k: by.count(k) for k in counts} == counts
    # The trigger fires at the first grid sample past the box, so every
    # StateDeviation or MaxInterval event overshoots its predecessor's radius;
    # Initial and ModeSwitch events leave the column empty.
    header = rows[0].split(",")
    assert header[4:6] == ["delta_by", "overshoot"]
    cells = [row.split(",") for row in rows[1:]]
    fired = [float(c[5]) for c in cells if c[2] in ("StateDeviation", "MaxInterval")]
    assert fired and min(fired) > 1.0
    assert all(c[5] == "" for c in cells if c[2] in ("Initial", "ModeSwitch"))
    # metrics.json keeps every digit; events.csv writes %.12g.
    assert float("%.12g" % metrics["max_overshoot"]) == max(fired)


def test_funnel_walls_rebuild_from_trajectory_and_metrics(tmp_path):
    # The README's reconstruction: the upper wall is the mode's rho_max,
    # the terminal mode keeping the last funnel's, the lower one that
    # minus gamma, and a satisfied run's rho lies strictly between them.
    scn = _write(tmp_path, TWO_PHASE_SCENARIO)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
    assert [rec["mode"] for rec in _metrics(out)["funnels"]] == [1, 2]
    walls = _readme_snippet("rho_max", out)
    tr, rho_max, upper = walls["tr"], walls["rho_max"], walls["upper"]
    assert len(rho_max) == 2 and set(tr["mode"].astype(int).tolist()) == {1, 2, 3}
    assert np.all(upper - tr["gamma"] < tr["rho_active"]) and np.all(tr["rho_active"] < upper)


def test_held_input_rebuilds_from_events(tmp_path):
    # trajectory.csv has no input columns and Trajectory no input field.
    # The README rebuilds the input held at each row from events.csv; on
    # every row it is the in-memory rebuild from the events as the CSVs
    # write it, across both ModeSwitch events.
    scn = _write(tmp_path, TWO_PHASE_SCENARIO)
    traj, metrics, events = run_episode(build_episode(load_scenario(scn)))
    assert metrics.satisfied and [ev.cause for ev in events].count("ModeSwitch") == 2
    out = tmp_path / "out"
    write_all(out, traj, events, metrics)
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x0,rho_active,gamma,mode"
    U = _readme_snippet("searchsorted", out)["U"]
    held = np.array([e.u for e in events])[np.searchsorted([e.t for e in events], traj.t, side="right") - 1]
    assert U.shape == held.shape == (len(traj.t), 1) and np.isfinite(held).all()
    written = np.array([float("%.12g" % v) for v in held.ravel()])
    assert U.ravel().tobytes() == written.tobytes()


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


def test_radius_loop_settings_are_unknown_trigger_keys(tmp_path, capsys):
    # The radius loop's own settings are module constants, not scenario keys.
    for key in ("sample_count", "lipschitz_safety", "shrink", "delta_floor"):
        scn = _write(tmp_path, TOY_SCENARIO + f"trigger:\n  {key}: 128\n")
        assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 2, key
        assert f"at trigger: unknown key '{key}'" in capsys.readouterr().err


def test_nan_trigger_setting_is_config_error(tmp_path, capsys):
    for field in ("delta_u", "delta_x0", "delta_t0"):
        scn = _write(tmp_path, TOY_SCENARIO + f"trigger:\n  {field}: .nan\n")
        assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 2, field
        assert "error:" in capsys.readouterr().err


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
    # produce every artifact, the CSVs with their headers only, and
    # metrics.json with null for the fields that have no value.
    scn = _write(tmp_path, TOY_SCENARIO.replace("x0: [0.0]", "x0: [1.0e+300]"))
    out = tmp_path / "o"
    code = main(["run", "--scenario", str(scn), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "failure=synthesis: robustness at x0 is not finite (-inf)" in err
    for fname in ("trajectory.csv", "events.csv", "metrics.json"):
        assert (out / fname).is_file(), fname
    assert (out / "trajectory.csv").read_text().splitlines() == [
        "t,x0,rho_active,gamma,mode"
    ]
    assert (out / "events.csv").read_text().splitlines() == [
        "i,t_i,cause,delta_i,delta_by,overshoot,x0,u0"
    ]
    metrics = _metrics(out)
    assert metrics["satisfied"] is False and metrics["failure_time"] == 0.0
    assert metrics["rho_theta"] is None and metrics["min_delta"] is None


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


def test_monitor_on_failed_run_log_exits_two(tmp_path, capsys):
    # A run that fails before its first sample writes a header-only log.
    scn = _write(tmp_path, TOY_SCENARIO.replace("x0: [0.0]", "x0: [1.0e+300]"))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 3
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "monitor", "--trajectory", str(out / "trajectory.csv"),
            "--formula", "F[0,3](ball(0;2;1.5))",
        ])
    assert code == 2
    assert "trajectory has no samples" in capsys.readouterr().err


def test_monitor_non_finite_state_exits_two(tmp_path, capsys):
    log = _write(tmp_path, "t,x0\n0,nan\n0.5,1\n", "trajectory.csv")
    code = main(["monitor", "--trajectory", str(log), "--formula", "G[0,0.5] (ball(0;0;2))"])
    assert code == 2
    assert "non-finite state at t=0" in capsys.readouterr().err


def test_formula_argument_can_be_a_file(tmp_path, capsys):
    f = tmp_path / "formula.txt"
    f.write_text("F[0,1](ball(0;3;2))")
    assert main(["optimize", "--formula", str(f)]) == 0
    assert "rho_opt=2" in capsys.readouterr().out
