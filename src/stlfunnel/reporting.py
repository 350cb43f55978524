"""Episode output files: trajectory, event log and metrics."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .sim import RunMetrics, Trajectory
from .controller import TriggerEvent

__all__ = [
    "write_trajectory",
    "write_events",
    "write_metrics",
    "write_all",
    "read_trajectory",
]

_FMT = "%.12g"


def _row(values) -> str:
    return ",".join(_FMT % v for v in values)


def write_trajectory(path: str | Path, traj: Trajectory) -> None:
    n = traj.X.shape[1]
    m = traj.U.shape[1]
    header = (
        ["t"]
        + [f"x{i}" for i in range(n)]
        + [f"u{j}" for j in range(m)]
        + ["rho_active", "gamma", "mode"]
    )
    data = np.column_stack([traj.t, traj.X, traj.U, traj.rho_active, traj.gamma, traj.mode])
    np.savetxt(
        path, data, fmt=[_FMT] * (len(header) - 1) + ["%d"], delimiter=",",
        header=",".join(header), comments="",
    )


def write_events(path: str | Path, events: list[TriggerEvent], n: int, m: int) -> None:
    header = (
        ["i", "t_i", "cause", "delta_i", "delta_by", "overshoot"]
        + [f"x{i}" for i in range(n)]
        + [f"u{j}" for j in range(m)]
    )
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for ev in events:
            cells = [
                str(ev.index),
                _FMT % ev.t,
                ev.cause,
                _FMT % ev.delta,
                ev.delta_by,
                "" if ev.overshoot is None else _FMT % ev.overshoot,
                _row(ev.x),
                _row(ev.u),
            ]
            fh.write(",".join(cells) + "\n")


def _metric_lines(metrics: RunMetrics) -> list[str]:
    lines = []
    for f in dataclasses.fields(RunMetrics):
        val = getattr(metrics, f.name)
        if f.name == "funnels":
            continue
        if isinstance(val, dict):
            lines += [f"{f.name}.{key}={count}" for key, count in val.items()]
            continue
        if val is None:
            out = ""
        elif isinstance(val, bool):
            out = str(val).lower()
        elif isinstance(val, float):
            out = _FMT % val
        else:
            out = str(val)
        lines.append(f"{f.name}={out}")
    for rec in metrics.funnels:
        prefix = f"funnel.{rec['mode']}"
        for key, val in rec.items():
            if key == "mode":
                continue
            lines.append(f"{prefix}.{key}={_FMT % val}")
    return lines


def write_metrics(path: str | Path, metrics: RunMetrics) -> None:
    with open(path, "w") as fh:
        for line in _metric_lines(metrics):
            fh.write(line + "\n")


def write_all(
    out_dir: str | Path,
    traj: Trajectory,
    events: list[TriggerEvent],
    metrics: RunMetrics,
) -> dict[str, Path]:
    """Write the three episode artifacts into out_dir and return their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = traj.X.shape[1]
    m = traj.U.shape[1]
    paths = {
        "trajectory": out / "trajectory.csv",
        "events": out / "events.csv",
        "metrics": out / "metrics.txt",
    }
    write_trajectory(paths["trajectory"], traj)
    write_events(paths["events"], events, n, m)
    write_metrics(paths["metrics"], metrics)
    return paths


def read_trajectory(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Load (times, states) from a trajectory CSV written by write_trajectory.

    Any file with a ``t`` column and ``x0..x{n-1}`` columns is accepted.
    A file with no data rows, as a run that fails before its first sample
    writes, loads as zero samples.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        empty = not any(line.strip() for line in fh)
    if "t" not in header:
        raise ValueError("trajectory file has no 't' column")
    x_cols = [(int(name[1:]), i) for i, name in enumerate(header) if name.startswith("x") and name[1:].isdigit()]
    if not x_cols:
        raise ValueError("trajectory file has no state columns x0..xN")
    x_cols.sort()
    if empty:
        return np.empty(0), np.empty((0, len(x_cols)))
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=[header.index("t")] + [c for _, c in x_cols], ndmin=2)
    return data[:, 0], data[:, 1:]
