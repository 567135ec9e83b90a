#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating parent/change pairs.

For each workload, pair ``k`` runs ``bench/run_bench.py --trace 0`` on seed
``seed + k`` once in each checkout, the parent first on even ``k`` and the
change first on odd ``k``.  It prints, per end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles, the change/parent ratio
of the medians, the pairs the change won and lost by the metric's ``better``
direction (ties count for neither), and whether the medians differ by more
than the parent's quartile distance.  It also says whether the simulated
outcomes (``summary_sha256`` and the outcome metrics) were identical on every
seed, and prints each side's median of the minor page faults a benchmark
process took (``minor_faults``: ``RUSAGE_CHILDREN``'s ``ru_minflt`` after its
run less before, which counts the process and the children it waited for).
``--out`` writes every run's full report (result, env and info blocks, exit
code and minor faults), the summary and each checkout's ``src_sha256`` (a digest of its ``src/``
files, which names the measured code even when the checkout is uncommitted)
to one JSON file, by convention ``BENCH_<n>.json`` at the repository root.
It exits 1, naming the side, workload and seed on stderr, when any run was
not ``correct`` or exited non-zero::

    python3 scripts/bench_pairs.py ../parent . --workload dense8 --pairs 10 \\
        --seed 1001 --out BENCH_10.json
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTCOMES = ("avg_min_distance_m", "avg_mission_time_s")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``checkout``: the report it writes, plus its exit code and the
    minor page faults of its process."""
    report = checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    report.unlink(missing_ok=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run([sys.executable, "bench/run_bench.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if not report.is_file():
        raise RuntimeError(f"{checkout}: {workload} seed {seed} wrote no report "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    out = json.loads(report.read_text())
    out["exit_code"] = proc.returncode
    out["minor_faults"] = faults
    return out


def src_sha256(checkout: Path) -> str:
    """Digest of every file under ``checkout/src`` but byte code: each relative path, then its bytes."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def quartiles(xs):
    """``(q1, median, q3)`` of ``xs``, inclusive method."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def compare(parent, change, better: str) -> dict:
    """Both sides' quartiles, the median ratio and the wins of paired runs of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent, change, strict=True)]
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    return {"parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "ratio": cm / pm if pm else None,
            "wins": sum(d > 0 for d in diffs), "losses": sum(d < 0 for d in diffs),
            "beyond_parent_iqr": abs(cm - pm) > p3 - p1}


def outcome(report: dict) -> tuple:
    metrics = report["result"]["metrics"]
    return (report["info"].get("summary_sha256"),) + tuple(metrics[m]["value"]
                                                            for m in OUTCOMES)


def run_workload(parent: Path, change: Path, workload: str, pairs: int, seed: int,
                 seconds: float, spec: dict) -> dict:
    sides = {"parent": [], "change": []}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(run_bench(parent if side == "parent" else change,
                                         workload, seed + k, seconds))
    summary = {}
    for m in spec["end_to_end"]:
        values = {side: [r["result"]["metrics"][m["name"]]["value"] for r in runs]
                  for side, runs in sides.items()}
        summary[m["name"]] = compare(values["parent"], values["change"], m["better"])
    return {"seeds": [seed + k for k in range(pairs)], "summary": summary,
            "outcomes_identical": all(outcome(p) == outcome(c) for p, c in
                                      zip(sides["parent"], sides["change"])),
            "all_correct": all(r["result"]["correct"] and r["exit_code"] == 0
                               for runs in sides.values() for r in runs),
            "minor_faults_median": {side: statistics.median(r["minor_faults"] for r in runs)
                                    for side, runs in sides.items()},
            **sides}


def failures(name: str, res: dict) -> list:
    """A line per run of workload ``name`` that was not correct or exited non-zero."""
    return [f"{side} {name} seed {seed}: correct {r['result']['correct']}, exit {r['exit_code']}"
            for side in ("parent", "change") for seed, r in zip(res["seeds"], res[side])
            if not r["result"]["correct"] or r["exit_code"] != 0]


def print_workload(name: str, res: dict) -> None:
    seeds = res["seeds"]
    print(f"{name}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}, "
          f"all correct: {res['all_correct']}, "
          f"outcomes identical per seed: {res['outcomes_identical']}")
    print(f"  {'metric':20s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
          f" {'ratio':>7s} {'won':>4s} {'lost':>4s} beyond parent IQR")
    for metric, s in res["summary"].items():
        cells = [f"{s[side]['median']:.4g} [{s[side]['q1']:.4g}, {s[side]['q3']:.4g}]"
                 for side in ("parent", "change")]
        ratio = "-" if s["ratio"] is None else f"{s['ratio']:.3f}"
        print(f"  {metric:20s} {cells[0]:>30s} {cells[1]:>30s} {ratio:>7s}"
              f" {s['wins']:4d} {s['losses']:4d} {s['beyond_parent_iqr']}")
    faults = res["minor_faults_median"]
    print(f"  minor page faults per run, median: parent {faults['parent']:g}, "
          f"change {faults['change']:g}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="JSON file for every report and the summary")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    checkouts = {side: {"src_sha256": src_sha256(path.resolve())}
                 for side, path in (("parent", args.parent), ("change", args.change))}
    results, failed = {}, []
    for name in workloads:
        results[name] = run_workload(args.parent.resolve(), args.change.resolve(), name,
                                     args.pairs, args.seed, args.seconds, spec)
        print_workload(name, results[name])
        failed += failures(name, results[name])
        if args.out:  # rewritten after each workload, so a cut run keeps what finished
            args.out.write_text(json.dumps(
                {"seconds": args.seconds, "pairs": args.pairs, "checkouts": checkouts,
                 "workloads": results},
                indent=1) + "\n")
    for line in failed:
        print(f"FAILED run: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
