"""Episode output files: trajectory.csv per sample, events.csv per event, metrics.json per run."""

from __future__ import annotations

import dataclasses
import json
import math
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
    """One row per sample.  The held input is not a column: at time t it is
    the ``u`` of the last ``events.csv`` row with ``t_i <= t``."""
    n = traj.X.shape[1]
    header = ["t"] + [f"x{i}" for i in range(n)] + ["rho_active", "gamma", "mode"]
    data = np.column_stack([traj.t, traj.X, traj.rho_active, traj.gamma, traj.mode])
    np.savetxt(
        path, data, fmt=[_FMT] * (len(header) - 1) + ["%d"], delimiter=",",
        header=",".join(header), comments="",
    )


def write_events(path: str | Path, events: list[TriggerEvent], n: int) -> None:
    # Both plant kinds have as many inputs as states (``Plant.m == n``).
    header = (
        ["i", "t_i", "cause", "delta_i", "delta_by", "overshoot"]
        + [f"x{i}" for i in range(n)]
        + [f"u{j}" for j in range(n)]
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


def _null_if_not_finite(val):
    if isinstance(val, dict):
        return {key: _null_if_not_finite(v) for key, v in val.items()}
    if isinstance(val, list):
        return [_null_if_not_finite(v) for v in val]
    return None if isinstance(val, float) and not math.isfinite(val) else val


def write_metrics(path: str | Path, metrics: RunMetrics) -> None:
    """Every ``RunMetrics`` field as strict JSON, floats by repr.  A non-finite
    float, a field with no value (``min_delta`` with no event), is null."""
    record = _null_if_not_finite(dataclasses.asdict(metrics))
    Path(path).write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")


def write_all(
    out_dir: str | Path,
    traj: Trajectory,
    events: list[TriggerEvent],
    metrics: RunMetrics,
) -> dict[str, Path]:
    """Write the three episode artifacts into out_dir and return their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "trajectory": out / "trajectory.csv",
        "events": out / "events.csv",
        "metrics": out / "metrics.json",
    }
    write_trajectory(paths["trajectory"], traj)
    write_events(paths["events"], events, traj.X.shape[1])
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
