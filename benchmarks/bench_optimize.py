"""Phase optimum of random conjunctions, parent against change, one row in BENCH_optimize.json.

Run from the repository root:

    python3 benchmarks/bench_optimize.py --label "what the change does"

The parent commit (``--parent``, default HEAD) is exported with
``git archive``, as ``bench_episode.py`` does; the change is this
checkout's working tree.  Each side runs in its own interpreter, one set
at a time, and draws the same formulas from the generators of
``tests/conftest.py`` with the same seeds:

* ``ball_join``: ``random_concave_psi`` with ball and join leaves only;
* ``consistent``: ``random_consistent_psi``, whose leaves all peak at one
  point, so the optimum is the soft minimum of the radii;
* ``concave``: ``random_concave_psi`` with affine leaves too.

Formula i of a set (``--count`` per set, default 300) runs at eta = 1 if
i is even and at eta = 0.2 otherwise.  Per set the row appended to
``BENCH_optimize.json`` holds:

* how many optima the change finds higher, equal and lower than the
  parent at 1e-9 max(1, |rho|), and the largest gap each way;
* every lower case with both sides' optimum and |x_star|, the change's
  ``grad_norm`` g and the distance D between the two points.  The
  objective is concave, so it rises by at most g D from the change's
  point to the parent's (up to leaves within 1e-10 of their kink): a gap
  within that bound, plus the 1e-9 tolerance, is the stopping tolerance
  spent over a long, nearly flat slope, as toward a supremum that is
  approached only at infinity;
* the formulas where a side raised, and each side's total seconds;
* for ``consistent``, how many optima each side misses the closed form by
  more than 1e-9 relative.

The row also holds the best of ``--repeat`` per-call times on the two
bundled phases (PSI1 and PSI2 of ``tests/conftest.py``) on each side.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_episode import ROOT, _export, _git

RECORD = ROOT / "BENCH_optimize.json"
SETS = ("ball_join", "consistent", "concave")
ETAS = (1.0, 0.2)
TOL = 1e-9


def _text(psi) -> str:
    """The formula in the package's formula language."""
    def nums(values):
        return ",".join(repr(v) for v in values)

    terms = []
    for leaf in psi.leaves:
        if leaf.kind == "ball":
            terms.append(f"ball({nums(leaf.sel)};{nums(leaf.center)};{leaf.radius!r})")
        elif leaf.kind == "join":
            terms.append(f"join({nums(leaf.sel)};{nums(leaf.sel_b)};{leaf.radius!r})")
        else:
            dense = [0.0] * (max(leaf.sel) + 1)
            for j, c in zip(leaf.sel, leaf.coeffs):
                dense[j] += c
            terms.append(f"aff({nums(dense)};{leaf.offset!r})")
    return " and ".join(terms)


def _child(root: Path, name: str, count: int, seed: int, repeat: int) -> None:
    """Optimize one set (or, for ``fixtures``, time the bundled phases) with
    ``root``'s package and print one JSON list."""
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(ROOT / "tests"))
    import numpy as np
    from conftest import PSI1_TEXT, PSI2_TEXT, random_concave_psi, random_consistent_psi
    from stlfunnel.formulas import SmoothingConfig
    from stlfunnel.optimize import optimize_robustness
    from stlfunnel.parsing import parse_psi

    if name == "fixtures":
        out = []
        for text in (PSI1_TEXT, PSI2_TEXT):
            psi = parse_psi(text)
            times = []
            for _ in range(repeat):
                t0 = time.perf_counter()
                optimize_robustness(psi)
                times.append(time.perf_counter() - t0)
            out.append(min(times))
        print(json.dumps(out))
        return
    rng = np.random.default_rng(seed + SETS.index(name))
    out = []
    for i in range(count):
        dim = int(rng.integers(2, 7))
        radii = None
        if name == "ball_join":
            psi = random_concave_psi(rng, dim, int(rng.integers(2, 6)), kinds=("ball", "join"))
        elif name == "consistent":
            psi, radii = random_consistent_psi(rng, dim)
        else:
            psi = random_concave_psi(rng, dim)
        eta = ETAS[i % 2]
        row = {"formula": _text(psi), "eta": eta}
        if radii is not None:
            row["closed_form"] = -math.log(math.fsum(math.exp(-eta * r) for r in radii)) / eta
        t0 = time.perf_counter()
        try:
            res = optimize_robustness(psi, SmoothingConfig(eta=eta))
            row.update(rho=float(res.rho_opt), x=res.x_star.tolist(), grad_norm=res.grad_norm)
        except Exception as exc:  # a side that raises is recorded, not fatal
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["seconds"] = time.perf_counter() - t0
        out.append(row)
    print(json.dumps(out))


def _run(root: Path, name: str, args) -> list:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(root), "--set", name, "--count", str(args.count),
         "--seed", str(args.seed), "--repeat", str(args.repeat)],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{root} {name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _compare(parent: list, change: list) -> dict:
    """Counts and gaps of one set, change against parent."""
    out = {"formulas": len(parent), "higher": 0, "equal": 0, "lower": 0,
           "max_higher": 0.0, "max_lower": 0.0, "lower_cases": [], "errors": [],
           "seconds": {"parent": sum(r["seconds"] for r in parent),
                       "change": sum(r["seconds"] for r in change)}}
    for p, c in zip(parent, change):
        if "error" in p or "error" in c:
            out["errors"].append({"formula": p["formula"], "eta": p["eta"],
                                  "parent": p.get("error"), "change": c.get("error")})
            continue
        gap, tol = c["rho"] - p["rho"], TOL * max(1.0, abs(p["rho"]))
        if abs(gap) <= tol:
            out["equal"] += 1
        elif gap > 0.0:
            out["higher"] += 1
            out["max_higher"] = max(out["max_higher"], gap)
        else:
            out["lower"] += 1
            out["max_lower"] = max(out["max_lower"], -gap)
            distance = math.dist(p["x"], c["x"])
            out["lower_cases"].append({
                "formula": p["formula"], "eta": p["eta"], "parent_rho": p["rho"],
                "change_rho": c["rho"], "parent_xnorm": math.hypot(*p["x"]),
                "change_xnorm": math.hypot(*c["x"]), "change_grad_norm": c["grad_norm"],
                "distance": distance,
                "within_concavity_bound": -gap <= c["grad_norm"] * distance + tol,
            })
    if "closed_form" in parent[0]:
        out["off_closed_form"] = {
            side: sum("error" in r or abs(r["rho"] - r["closed_form"]) > TOL * abs(r["closed_form"])
                      for r in rows)
            for side, rows in (("parent", parent), ("change", change))
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=300, help="formulas per set")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=20, help="calls per bundled phase")
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--label", default="")
    parser.add_argument("--set", choices=SETS + ("fixtures",), help=argparse.SUPPRESS)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        _child(args.child, args.set, args.count, args.seed, args.repeat)
        return 0
    parent = _git("rev-parse", args.parent)
    dirty = _git("status", "--porcelain")
    change = f"working tree on {_git('rev-parse', 'HEAD')}" if dirty else _git("rev-parse", "HEAD")

    tmp = Path(tempfile.mkdtemp(prefix="bench-optimize-"))
    try:
        _export(parent, tmp)
        roots = {"parent": tmp / "tree", "change": ROOT}
        sets = {}
        for name in SETS:
            runs = {side: _run(root, name, args) for side, root in roots.items()}
            sets[name] = _compare(runs["parent"], runs["change"])
            print(f"{name} done", flush=True)
        fixtures = {side: _run(root, "fixtures", args) for side, root in roots.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    row = {
        "label": args.label, "parent": parent, "change": change, "seed": args.seed,
        "count_per_set": args.count, "etas": list(ETAS), "tolerance": f"{TOL:g} max(1, |rho|)",
        "source": "benchmarks/bench_optimize.py", "sets": sets,
        "per_call_s": {f"PSI{k + 1}": {side: fixtures[side][k] for side in fixtures} for k in range(2)},
    }
    record = json.loads(RECORD.read_text()) if RECORD.exists() else []
    RECORD.write_text(json.dumps(record + [row], indent=1) + "\n")
    for name, s in sets.items():
        extra = f"  off closed form {s['off_closed_form']}" if "off_closed_form" in s else ""
        bounded = sum(case["within_concavity_bound"] for case in s["lower_cases"])
        extra += f"  lower within the concavity bound {bounded}"
        print(f"{name:10s} higher {s['higher']:4d} (max {s['max_higher']:.3g})  equal {s['equal']:4d}  "
              f"lower {s['lower']:4d} (max {s['max_lower']:.3g})  errors {len(s['errors'])}  "
              f"seconds parent {s['seconds']['parent']:.1f} change {s['seconds']['change']:.1f}{extra}")
    for phase, t in row["per_call_s"].items():
        print(f"{phase}: parent {1e3 * t['parent']:.2f} ms  change {1e3 * t['change']:.2f} ms per call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
