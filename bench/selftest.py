#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at tiny size.

    python3 bench/selftest.py

Checks that BENCHMARK.json matches the tables in ``run_bench.py``; that the
end-to-end and traced results of each workload carry exactly the metrics
BENCHMARK.json names, with their units; that every layer made at least one
call on each workload the layer map below says uses it, and none on the
others; and that a directory holding only the benchmark fails without
printing a result.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run_bench as rb

ALL = ("sparse4", "dense8", "sweep_traced")
SWEEP = ("sweep_traced",)

# layer -> workloads that call it (README.md, "Layers, metrics, workloads")
LAYER_WORKLOADS = {
    "geometry.pose_batch": ALL,
    "geometry.pose": ALL,
    "geometry.project": ALL,
    "dynamics.rollout": ALL,
    "dynamics.step": ALL,
    "cost.payoff_tensors": ALL,
    "game.tensor_equilibrium": ALL,
    "agent.decide": ALL,
    "agent.observe": ALL,
    "agent.update_estimates": ALL,
    "agent.estimate_path": ALL,
    "sim.run_simulation": ALL,
    "cli.write_trace": SWEEP,
    "cli.trace_stats": SWEEP,
}

TINY = {"sparse4": dict(fixed_runs=2, trace_runs=2),
        "dense8": dict(fixed_runs=1, trace_runs=1),
        "sweep_traced": dict(fixed_runs=1, trace_runs=1)}


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def check_result(result: dict, table: list, where: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{where}: not correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{where}: attempted {result['attempted']!r}")
    check(result["failed"] == 0, f"{where}: {result['failed']} failed")
    metrics = result["metrics"]
    check([m["name"] for m in table] == list(metrics),
          f"{where}: metric names differ from BENCHMARK.json")
    for m in table:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], f"{where}: unit of {m['name']}")
        check(isinstance(got["value"], (int, float))
              and math.isfinite(got["value"]), f"{where}: value of {m['name']}")


def layer_calls(metrics: dict, layer: str) -> float:
    """Calls of ``layer``, or a statistic that is non-zero only if it ran."""
    ks = [v["value"] for k, v in metrics.items()
          if k.startswith(layer + ".k") and k.endswith(".calls")]
    if ks:
        return sum(ks)
    for stat in ("calls", "us_p50", "self_share"):
        if f"{layer}.{stat}" in metrics:
            return metrics[f"{layer}.{stat}"]["value"]
    raise KeyError(layer)


def bare_directory_fails() -> None:
    bare = rb.WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(rb.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(rb.ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, "bench/run_bench.py", "--workload", "sparse4",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    check(out.returncode != 0, "bare directory: exit code 0")
    check('"metrics"' not in out.stdout, "bare directory: printed a result")


def main() -> int:
    spec = json.loads((rb.ROOT / "BENCHMARK.json").read_text())
    check(spec == rb.spec(), "BENCHMARK.json differs from run_bench.spec(); "
          "run `python3 bench/run_bench.py --write-spec`")
    check(sorted(rb.WORKLOADS) == sorted(ALL), "workload names")
    for name in ALL:
        wl = dataclasses.replace(rb.WORKLOADS[name], **TINY[name])
        e2e = rb.run(wl, seed=0, seconds=0.0, trace=False, setup_repeats=1)
        check_result(e2e, spec["end_to_end"], f"{name} --trace 0")
        per_layer = rb.run(wl, seed=0, seconds=0.0, trace=True, pinned=False)
        check_result(per_layer, spec["per_layer"], f"{name} --trace 1")
        for layer, users in LAYER_WORKLOADS.items():
            calls = layer_calls(per_layer["metrics"], layer)
            if name in users:
                check(calls > 0, f"{name}: no call of {layer}")
            else:
                check(calls == 0, f"{name}: unexpected call of {layer}")
    bare_directory_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
