"""Alternating parent/change pairs of the episode benchmark, one row in BENCH_episode.json.

Run from the repository root:

    python3 benchmarks/bench_episode.py --workload rendezvous3 --seeds 20-29 \\
        --label "what the change does"

The parent commit (``--parent``, default HEAD) is exported with
``git archive`` into a temporary directory, so it runs from its
committed files alone.  The change is this checkout's working tree,
copied into a sibling directory: the files ``git ls-files -co
--exclude-standard`` lists, as they are on disk.  So neither side holds
``__pycache__``.  With ``PYTHONDONTWRITEBYTECODE`` set, a side that
holds it imports the package from bytecode while the other recompiles
every module in every run, and ``setup_s`` favours the first.
Pair i runs ``perfbench/run.py --workload W --seed seeds[i]`` once on
each side with the same ``--seconds``, the parent first in even pairs
and the change first in odd ones.  The runner only starts those runs
and reads the JSON object each prints last; it changes nothing under
``perfbench/``.

The row appended to ``BENCH_episode.json`` holds the parent's SHA, the
change (a SHA, or the working tree on top of the parent), the seeds,
and per end-to-end metric the median and quartiles of each side's runs,
how many pairs the change won (ties count for neither), a verdict, and
each side's failed operations.  The verdict, printed per metric too,
follows the gain and no-regression rules the benchmark is judged by, with
the metric's ``bound`` from ``BENCHMARK.json`` read as a share of the
parent's median (as ``perfbench/baseline.py`` reads it):

* ``gain``: the change wins at least nine in ten pairs, and its median
  beats the parent's by more than the parent's quartile spread q3 - q1;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unresolved``: the parent's spread, (q3 - q1) / median, is wider than
  the bound, unless every change run beats every parent run;
* ``flat`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "BENCH_episode.json"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    archive = dest / "tree.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()


def _copy_worktree(dest: Path) -> None:
    """This checkout's tracked and untracked, not ignored, files under ``dest``."""
    for name in _git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its last printed JSON object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{root}: perfbench/run.py exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _verdict(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``flat`` (see the module docstring);
    ``sign`` is 1.0 where lower is better and -1.0 where higher is."""
    p, c = _summary(parent), _summary(change)
    spread = p["q3"] - p["q1"]
    wins = sum(sign * (a - b) > 0.0 for a, b in zip(parent, change))
    if wins >= 0.9 * len(parent) and sign * (p["median"] - c["median"]) > spread:
        return "gain"
    if sign * (c["median"] - p["median"]) > bound * abs(p["median"]):
        return "worse"
    if spread > bound * abs(p["median"]) and not max(sign * v for v in change) < min(sign * v for v in parent):
        return "unresolved"
    return "flat"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a range lo-hi or a comma list")
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length of every run (default: BENCHMARK.json's run_seconds)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    better = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    parent = _git("rev-parse", args.parent)
    dirty = _git("status", "--porcelain")
    change = f"working tree on {_git('rev-parse', 'HEAD')}" if dirty else _git("rev-parse", "HEAD")

    runs = {"parent": [], "change": []}
    tmp = Path(tempfile.mkdtemp(prefix="bench-episode-"))
    try:
        _export(parent, tmp)
        _copy_worktree(tmp / "change")
        roots = {"parent": tmp / "tree", "change": tmp / "change"}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(roots[side], args.workload, seed, seconds))
            values = {side: runs[side][-1]["metrics"]["update_latency_ms.p50"]["value"]
                      for side in order}
            print(f"pair {i} seed {seed}: update_latency_ms.p50 {values}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {}
    for name, (direction, bound) in better.items():
        side_values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (p - c) > 0.0 for p, c in zip(side_values["parent"], side_values["change"]))
        metrics[name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "better": direction,
            "parent": _summary(side_values["parent"]),
            "change": _summary(side_values["change"]),
            "change_wins": wins,
            "verdict": _verdict(side_values["parent"], side_values["change"], sign, bound),
        }
    row = {
        "label": args.label,
        "parent": parent,
        "change": change,
        "workload": args.workload,
        "seeds": seeds,
        "seconds": seconds,
        "pairs": len(seeds),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "source": "benchmarks/bench_episode.py",
        "metrics": metrics,
    }
    rows = json.loads(RECORD.read_text()) if RECORD.exists() else []
    rows.append(row)
    RECORD.write_text(json.dumps(rows, indent=1) + "\n")
    print(json.dumps(row, indent=1))
    for name, m in metrics.items():
        print(f"{name}: {m['verdict']} (median {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
              f"{m['unit']}, change wins {m['change_wins']}/{len(seeds)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
