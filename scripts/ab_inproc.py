#!/usr/bin/env python3
"""Time two checkouts' simulators run by run, interleaved in one process.

Each checkout's ``src/roundabout_sim`` is copied into a temporary directory
under its own package name (``ab_parent`` and ``ab_change``; the package
imports itself only relatively), so both load side by side.  Every run
``(n, seed)`` of ``--seeds`` is timed ``--repeats`` times on each side with
``perf_counter``, the side that goes first alternating from one timed pair to
the next, after one untimed warm-up run per side.  The rows of each pair's
runs are digested (every ``TraceRow`` field, plus collision, minimum
distance, mission steps and censoring) and must be equal; a mismatch names
the run and exits 1.  It prints the total time ratio (parent / change, so
above 1 means the change is faster), the median of the per-pair ratios and
the pairs the change won, then the per-pair ratios' quartiles (inclusive
method), whose spread says how far the total and the median can be trusted::

    python3 scripts/ab_inproc.py ../parent . --n 4 --seeds 400-439 --repeats 4

Separate processes read the same two trees with more spread than the
difference this is meant to size, which is why it interleaves in one
process.  Use it to size the pieces of a change; gains are claimed from
``scripts/bench_pairs.py``, which runs the checked-in benchmark.
"""

import argparse
import gc
import hashlib
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def load(checkout: Path, name: str, into: Path):
    """Import ``checkout``'s package as ``name`` from a copy under ``into``."""
    shutil.copytree(checkout / "src" / "roundabout_sim", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}") for mod in ("geometry", "sim")}


def run_digest(res) -> str:
    """sha256 over one run's rows, floats as ``repr``, then its outcome fields."""
    h = hashlib.sha256()
    for row in res.rows:
        h.update(repr((row.t, row.vid, row.r, row.theta, row.v, int(row.status), row.accel,
                       sorted(row.est.items()), row.override,
                       sorted(row.pred.items()))).encode() + b"\n")
    h.update(repr((res.collision, res.min_distance, sorted(res.mission_steps.items()),
                   res.censored)).encode())
    return h.hexdigest()


def timed(pkg, geometry, n: int, seed: int):
    gc.collect()
    start = time.perf_counter()
    res = pkg["sim"].run_simulation(n, seed, geometry)
    return time.perf_counter() - start, run_digest(res)


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--n", type=int, default=4, help="vehicles per run")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("400-439"),
                        help="inclusive range LO-HI, or one seed")
    parser.add_argument("--repeats", type=int, default=4, help="timed pairs per seed")
    args = parser.parse_args(argv)
    if args.repeats < 1 or not args.seeds:
        parser.error("need at least one seed and one repeat")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = {side: load(path.resolve(), f"ab_{side}", Path(tmp))
                for side, path in zip(SIDES, (args.parent, args.change))}
        return compare(pkgs, args.n, args.seeds, args.repeats)


def compare(pkgs, n: int, seeds: range, repeats: int) -> int:
    geoms = {side: pkg["geometry"].Geometry(pkg["geometry"].RoundaboutSpec())
             for side, pkg in pkgs.items()}
    for side in SIDES:  # warm caches and lazy imports outside the timing
        timed(pkgs[side], geoms[side], n, seeds[0])

    totals, ratios, k = dict.fromkeys(SIDES, 0.0), [], 0
    for _ in range(repeats):
        for seed in seeds:
            got = {}
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                got[side] = timed(pkgs[side], geoms[side], n, seed)
            k += 1
            if got["parent"][1] != got["change"][1]:
                print(f"rows differ: n={n} seed {seed}", file=sys.stderr)
                return 1
            for side in SIDES:
                totals[side] += got[side][0]
            ratios.append(got["parent"][0] / got["change"][0])

    print(f"n={n}, seeds {seeds[0]}-{seeds[-1]}, {repeats} repeats: "
          f"{len(ratios)} pairs, rows identical")
    print(f"  total s: parent {totals['parent']:.3f}, change {totals['change']:.3f}")
    med = statistics.median(ratios)
    q1, _, q3 = (statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1
                 else ratios * 3)
    print(f"  speedup parent/change: total {totals['parent'] / totals['change']:.3f}x, "
          f"median per pair {med:.3f}x, "
          f"change won {sum(r > 1.0 for r in ratios)} of {len(ratios)}")
    print(f"  per-pair ratio quartiles: q1 {q1:.3f}x, median {med:.3f}x, q3 {q3:.3f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
