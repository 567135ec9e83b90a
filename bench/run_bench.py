#!/usr/bin/env python3
"""Benchmark of roundabout-sim: workloads, metrics and output checks.

Run from the repository root::

    python3 bench/run_bench.py --workload dense8 --seed 1 --seconds 20 --trace 0

It prints an environment block, an information block (``# ...`` lines) and,
as its last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` measures the end-to-end metrics
with no instrumentation.  ``--trace 1`` runs a fixed, seed-derived list of
simulations twice, untraced and then traced, and reports the per-layer
metrics.  A full report goes to ``.bench_out/``.  ``--write-spec`` rewrites
``BENCHMARK.json`` from the tables below.  ``bench/README.md`` explains
every workload and metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

from tracer import Spans, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

RUN_SECONDS = 30
SETUP_REPEATS = 7
WARMUP_STEPS = 40       # a warm-up run is cut at this many steps
SEED_STRIDE = 100_000   # run lists of different benchmark seeds never overlap

# Machine-speed calibration.  On a shared virtual machine the CPU's speed
# drifts by up to +-25% over seconds and minutes (CPU time as much as wall
# time), and it moves every timing with it.  So after each timed simulation
# the process that ran it times speed_probe(), a fixed kernel shaped like the
# simulator's game-cost work: pairwise distances between the candidate
# trajectories of four players.  Over 20 s blocks of two fixed simulations
# (n=4 and n=8) on a 2-CPU virtual machine, the run time scaled with this
# kernel's time (log-log slope 1.09 and 0.96), and scaling by it cut the
# spread of the run time from 10% to 4% (CV); a kernel of small-array numpy
# and JSON work tracked with a slope of only 0.5-0.6.  Timing metrics are
# reported at reference speed: scaled by PROBE_REF_S over the median time of
# the probes taken around them.  The raw values are in the info block.
PROBE_REF_S = 0.0015
_PROBE_TRAJ = np.random.default_rng(0).random((4, 5, 40, 2))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: Optional[int]   # vehicles per run; None = the default n=4..8 campaign
    fixed_runs: int    # runs (per campaign row) whose outcomes are checked and digested
    trace_runs: int    # runs (per campaign row) in the traced run


WORKLOADS = {w.name: w for w in (
    Workload("sparse4",
             "n=4 in-process: many trivial K=1 games, rollout and pose "
             "dominate; estimator and K>=3 work are small",
             n=4, fixed_runs=120, trace_runs=16),
    Workload("dense8",
             "n=8 in-process: K>=3 payoff tensors and equilibria and about "
             "100 re-estimations per run dominate",
             n=8, fixed_runs=30, trace_runs=5),
    Workload("sweep_traced",
             "default n=4..8 campaign on a process pool with traces, then "
             "summarize over them: the only user of Pool, write_trace, "
             "trace_stats",
             n=None, fixed_runs=40, trace_runs=4),
)}

# (name, unit, better, bound).  The timing bounds are the widest allowed:
# on the 2-CPU virtual machine they were set on, raw timings of 30 s runs
# spread by up to 25% from machine drift alone.  Scaled to reference speed
# (see PROBE_REF_S) they spread by 3-9%, which leaves room for a machine
# whose drift the probe tracks less well.  See README.md.
END_TO_END = (
    ("runs_per_s", "1/s", "higher", 0.25),
    ("run_ms_p50", "ms", "lower", 0.25),
    ("run_ms_tail", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("avg_min_distance_m", "m", "higher", 0.2),
    ("avg_mission_time_s", "s", "lower", 0.15),
)

_K = (1, 2, 3, 4)
# (name, unit, better)
PER_LAYER = (
    ("geometry.pose_batch.calls", "count", "lower"),
    ("geometry.pose_batch.us_p50", "us", "lower"),
    ("geometry.pose_batch.self_share", "fraction", "lower"),
    ("geometry.pose.calls", "count", "lower"),
    ("geometry.pose.us_p50", "us", "lower"),
    ("geometry.project.calls", "count", "lower"),
    ("geometry.project.us_p50", "us", "lower"),
    ("dynamics.rollout.calls", "count", "lower"),
    ("dynamics.rollout.us_p50", "us", "lower"),
    ("dynamics.rollout.self_share", "fraction", "lower"),
    ("dynamics.rollout.computed_ratio", "fraction", "lower"),
    ("dynamics.step.calls", "count", "lower"),
    ("dynamics.step.us_p50", "us", "lower"),
    *((f"cost.payoff_tensors.k{k}.calls", "count", "lower") for k in _K),
    *((f"cost.payoff_tensors.k{k}.us_p50", "us", "lower") for k in _K[1:]),
    ("cost.payoff_tensors.self_share", "fraction", "lower"),
    *((f"game.tensor_equilibrium.k{k}.calls", "count", "lower") for k in _K),
    *((f"game.tensor_equilibrium.k{k}.us_p50", "us", "lower") for k in _K[1:]),
    ("game.tensor_equilibrium.self_share", "fraction", "lower"),
    ("agent.trivial_game_share", "fraction", "higher"),
    ("agent.reestimates", "count", "lower"),
    ("agent.update_estimates.us_p50", "us", "lower"),
    ("agent.update_estimates.self_share", "fraction", "lower"),
    ("agent.decide.calls", "count", "lower"),
    ("agent.decide.us_p50", "us", "lower"),
    ("agent.observe.calls", "count", "lower"),
    ("agent.observe.us_p50", "us", "lower"),
    ("agent.estimate_path.calls", "count", "lower"),
    ("agent.estimate_path.us_p50", "us", "lower"),
    ("sim.run_simulation.self_share", "fraction", "lower"),
    ("sim.steps", "count", "lower"),
    ("cli.write_trace.calls", "count", "lower"),
    ("cli.write_trace.us_p50", "us", "lower"),
    ("cli.write_trace.bytes", "bytes", "lower"),
    ("cli.trace_stats.us_p50", "us", "lower"),
    ("cli.pool.speedup", "x", "higher"),
    ("summarize_traces_per_s", "1/s", "higher"),
    ("collision_rate_pct", "%", "lower"),
    ("censored_pct", "%", "lower"),
    ("failed_runs_pct", "%", "lower"),
    ("trace.untraced_runs_per_s", "1/s", "higher"),
    ("trace.traced_runs_per_s", "1/s", "higher"),
    ("trace.overhead_x", "x", "lower"),
)

# The traced run replays these n=8 runs and must reproduce these game sizes
# (decisions by number of players K) and re-estimation count exactly.
PINNED_N8_SEEDS = range(42, 52)
PINNED_N8_DECISIONS_BY_K = {1: 643, 2: 2300, 3: 1413, 4: 175}
PINNED_N8_REESTIMATES = 1026


def spec() -> dict:
    """The BENCHMARK.json this script implements."""
    return {
        "command": ["python3", "bench/run_bench.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# program under test


def load_program() -> SimpleNamespace:
    """Import roundabout_sim from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "roundabout_sim" / "__init__.py").is_file():
        raise SystemExit(f"error: no roundabout_sim package under {SRC}; "
                         "run from a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from roundabout_sim import agent, cli, config, geometry, sim
    return SimpleNamespace(agent=agent, cli=cli, config=config,
                           geometry=geometry, sim=sim)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc(),
        "git_sha": git_sha(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# helpers


def speed_probe() -> float:
    """Seconds the fixed calibration kernel takes now (about 1.5 ms)."""
    t0 = time.perf_counter()
    tr, acc = _PROBE_TRAJ, 0.0
    for _ in range(6):
        for a in range(4):
            for b in range(a + 1, 4):
                d = tr[a][:, None] - tr[b][None, :]
                dist = np.sqrt((d * d).sum(axis=-1)).min(axis=-1)
                acc += float(np.maximum(1.0 - dist, 0.0).sum())
        acc += float(np.einsum("ij,kj->ik", tr[0, :, :, 0], tr[1, :, :, 1]).max())
    return time.perf_counter() - t0


def base_seed(seed: int) -> int:
    return (seed % 2 ** 32) * SEED_STRIDE


def tail(samples: List[float]):
    """(percentile, value, n): highest percentile with >= 10 samples beyond it."""
    xs = np.sort(np.asarray(samples, dtype=float))
    for q in range(99, 0, -1):
        v = float(np.percentile(xs, q))
        if int(np.count_nonzero(xs > v)) >= 10:
            return q, v, len(xs)
    return 100, float(xs[-1]), len(xs)  # fewer than 11 samples


def outcomes(report) -> Dict[str, float]:
    """Simulated outcomes pooled over every row of a summary report."""
    runs = sum(r.runs for r in report.rows)
    finished = [(r.runs - r.collisions - r.censored_runs, r) for r in report.rows]
    n_fin = sum(f for f, _ in finished)
    return {
        "collision_rate_pct": 100.0 * sum(r.collisions for r in report.rows) / runs,
        "censored_pct": 100.0 * sum(r.censored_runs for r in report.rows) / runs,
        "avg_min_distance_m": math.fsum(r.avg_min_distance_m * r.runs
                                        for r in report.rows) / runs,
        "avg_mission_time_s": (math.fsum(r.avg_mission_time_s * f
                                         for f, r in finished if f) / n_fin
                               if n_fin else math.nan),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run(result, n: int, seed: int, diameter: float) -> List[str]:
    """Invariants every simulated run must satisfy."""
    bad = []
    if result.n_vehicles != n or result.seed != seed:
        bad.append("result is for another scenario")
    if result.collision is None and result.min_distance < diameter:
        bad.append("closer than one diameter without a collision")
    if result.collision is None and not result.censored and any(
            s is None for s in result.mission_steps.values()):
        bad.append("finished run with a vehicle that never exited")
    if any(b.t < a.t for a, b in zip(result.rows, result.rows[1:])):
        bad.append("trace rows out of time order")
    return bad


class Session:
    """State of one benchmark invocation: program, config, scratch dirs."""

    def __init__(self, workload: Workload, seed: int):
        self.p = load_program()
        self.wl = workload
        self.base = base_seed(seed)
        self.cfg = self.p.config.parse_config("")
        self.jobs = nproc()
        self.work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.checks: List[str] = []   # failed correctness checks
        self.info: Dict[str, object] = {}
        self.geometry = self.p.geometry.build_roundabout(self.cfg.spec)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another invocation is still using it

    def fail(self, msg: str):
        self.checks.append(msg)

    # -- in-process runs -------------------------------------------------

    def run_list(self, start: int, count: int, until: float = 0.0,
                 probe: bool = False):
        """Run seeds ``base+start ...``: ``count`` runs, then more until ``until``.

        With ``probe``, each run is followed by a :func:`speed_probe`.
        Returns ``(stats of the first count runs, per-run seconds, probe
        seconds, attempted, failed, wall)``.
        """
        p, cfg, n = self.p, self.cfg, self.wl.n
        stats, secs, probes, failed = [], [], [], 0
        t_start = time.perf_counter()
        k = 0
        while k < count or time.perf_counter() < until:
            seed = self.base + start + k
            t0 = time.perf_counter()
            try:
                res = p.sim.run_simulation(n, seed, self.geometry, cfg.cost,
                                           cfg.game, cfg.agent, cfg.sim)
            except Exception as exc:  # noqa: BLE001 - a failed run is counted
                failed += 1
                self.fail(f"n={n} seed={seed}: {type(exc).__name__}: {exc}")
                k += 1
                continue
            secs.append(time.perf_counter() - t0)
            if probe:
                probes.append(speed_probe())
            bad = check_run(res, n, seed, cfg.sim.vehicle_diameter)
            if bad:
                failed += 1
                self.fail(f"n={n} seed={seed}: " + "; ".join(bad))
            if k < count:
                stats.append(p.cli.run_stats(res))
            k += 1
        return stats, secs, probes, k, failed, time.perf_counter() - t_start

    def digest_report(self, stats, tag: str):
        report = self.p.cli.build_report([(self.wl.n, stats)])
        path = self.work / f"summary-{tag}.csv"
        self.p.cli.write_summary_csv(report, str(path))
        return report, sha256(path)

    # -- campaign runs ---------------------------------------------------

    def campaign(self, offset: int, runs: int, tag: str):
        """One default-mix campaign with traces, then summarize over them.

        Returns ``(report, digest, errors, campaign_s, summarize_s, n_traces)``.
        """
        cli = self.p.cli
        out = self.work / tag
        t0 = time.perf_counter()
        report, errors = cli.run_campaign(
            self.cfg, str(out), traces=True, jobs=self.jobs,
            flag_seed=self.base + offset, flag_runs=runs, env={})
        t1 = time.perf_counter()
        from_traces = cli.summarize(str(out / "traces"))
        t2 = time.perf_counter()
        cli.write_summary_csv(from_traces, str(out / "summary-from-traces.csv"))
        digest = sha256(out / "summary.csv")
        if sha256(out / "summary-from-traces.csv") != digest:
            self.fail(f"{tag}: summarize(traces) rows differ from the "
                      "in-process report")
        n_traces = sum(len(files) for _, _, files in os.walk(out / "traces"))
        for err in errors:
            self.fail(f"{tag}: run failed: {err}")
        shutil.rmtree(out)
        return report, digest, errors, t1 - t0, t2 - t1, n_traces


class RunTimer:
    """Times ``cli.run_simulation`` calls, in pool workers too.

    With ``probe``, each run is followed by a :func:`speed_probe` in the
    same process.  Each process appends one line per run to its own file,
    so the times survive the pool's ``terminate``.  Workers inherit the
    patch through ``fork``.
    """

    def __init__(self, cli, work: Path, probe: bool = False):
        self.cli, self.dir = cli, work / "runtimes"
        self.dir.mkdir()
        self.orig = cli.run_simulation
        orig, dirname = self.orig, str(self.dir)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            dt = time.perf_counter() - t0
            pr = speed_probe() if probe else 0.0
            with open(os.path.join(dirname, f"{os.getpid()}.txt"), "a") as fh:
                fh.write(f"{dt!r} {pr!r}\n")
            return out
        cli.run_simulation = timed

    def restore(self):
        """Undo the patch; per process, ``(run seconds, probe seconds)`` in order."""
        self.cli.run_simulation = self.orig
        by_process = []
        for path in sorted(self.dir.iterdir()):
            rows = [tuple(map(float, line.split()))
                    for line in path.read_text().splitlines()]
            by_process.append(([dt for dt, _ in rows], [pr for _, pr in rows]))
        shutil.rmtree(self.dir)
        return by_process


# ---------------------------------------------------------------------------
# end-to-end run


def measure_setup(s: Session, repeats: int) -> float:
    """Median over ``repeats`` of import + geometry + pool start + warm-up run.

    Each set-up is followed by three speed probes and scaled to reference
    speed by their median.
    """
    p = s.p
    snippet = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
               "import roundabout_sim.cli")
    warm_sim = dataclasses.replace(s.cfg.sim, max_steps=WARMUP_STEPS)
    parts, slow = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", snippet], check=True, cwd=ROOT,
                       timeout=120)
        t1 = time.perf_counter()
        geometry = p.geometry.build_roundabout(s.cfg.spec)
        t2 = time.perf_counter()
        if s.wl.n is None:
            with Pool(processes=s.jobs) as pool:
                pool.map(abs, range(s.jobs))
        t3 = time.perf_counter()
        p.sim.run_simulation(s.wl.n or 4, s.base, geometry, s.cfg.cost,
                             s.cfg.game, s.cfg.agent, warm_sim)
        t4 = time.perf_counter()
        parts.append((t1 - t0, t2 - t1, t3 - t2, t4 - t3))
        slow.append(statistics.median(speed_probe() for _ in range(3))
                    / PROBE_REF_S)
    s.geometry = geometry
    s.info["setup_parts_s_median"] = {
        k: statistics.median(x[i] for x in parts)
        for i, k in enumerate(("import", "geometry", "pool_start", "warmup_run"))}
    s.info["setup_s_raw"] = statistics.median(sum(x) for x in parts)
    return statistics.median(sum(x) / f for x, f in zip(parts, slow))


def at_reference_speed(secs: List[float], probes: List[float]) -> List[float]:
    """Run times of one process scaled to reference speed, each by the median
    probe of the 11 runs around it."""
    return [dt * PROBE_REF_S / statistics.median(probes[max(0, i - 5):i + 6])
            for i, dt in enumerate(secs)]


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def end_to_end(s: Session, seconds: float, setup_repeats: int):
    wl = s.wl
    setup_s = measure_setup(s, setup_repeats)
    until = time.perf_counter() + seconds
    if wl.n is not None:
        stats, secs, probes, attempted, failed, wall = s.run_list(
            0, wl.fixed_runs, until, probe=True)
        report, digest = s.digest_report(stats, "fixed")
        runs_per_s = len(secs) / (wall - math.fsum(probes))
        scaled = at_reference_speed(secs, probes)
    else:
        timer = RunTimer(s.p.cli, s.work, probe=True)
        try:
            i, attempted, failed, wall = 0, 0, 0, 0.0
            while i == 0 or time.perf_counter() < until:
                rep, dig, errors, camp_s, _, _ = s.campaign(
                    i * wl.fixed_runs, wl.fixed_runs, f"campaign{i}")
                if i == 0:
                    report, digest = rep, dig
                attempted += sum(r.runs for r in rep.rows) + len(errors)
                failed += len(errors)
                wall += camp_s
                i += 1
        finally:
            by_process = timer.restore()
        secs = [dt for d, _ in by_process for dt in d]
        probes = [pr for _, p in by_process for pr in p]
        scaled = [x for d, p in by_process for x in at_reference_speed(d, p)]
        if len(secs) != attempted - failed:
            s.fail(f"timed {len(secs)} runs of {attempted - failed}: pool "
                   "workers did not inherit the timer (needs fork)")
        # the probes ran in the workers, inside the campaign wall
        runs_per_s = (attempted - failed) / (wall - math.fsum(probes) / s.jobs)
        s.info["campaigns"] = i
    # > 1 when the machine ran slower than reference speed
    slow = statistics.median(probes) / PROBE_REF_S if probes else math.nan
    raw_ms = [x * 1e3 for x in secs] or [math.nan]
    ms = [x * 1e3 for x in scaled] or [math.nan]
    q, tail_ms, n_samples = tail(ms)
    s.info.update(summary_sha256=digest, run_ms_tail_percentile=q,
                  run_ms_samples=n_samples, speed_probe_ms=slow * PROBE_REF_S * 1e3,
                  runs_per_s_raw=runs_per_s,
                  run_ms_p50_raw=statistics.median(raw_ms),
                  run_ms_tail_raw=tail(raw_ms)[1])
    out = outcomes(report)
    s.info.update({k: out[k] for k in ("collision_rate_pct", "censored_pct")},
                  failed_runs_pct=100.0 * failed / max(attempted, 1))
    metrics = {
        "runs_per_s": runs_per_s * slow,
        "run_ms_p50": statistics.median(ms),
        "run_ms_tail": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(include_children=wl.n is None),
        "avg_min_distance_m": out["avg_min_distance_m"],
        "avg_mission_time_s": out["avg_mission_time_s"],
    }
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# traced run


def install_tracer(tracer: Tracer, p: SimpleNamespace) -> None:
    """Wrap every measured layer where its caller looks it up (see tracer.py)."""
    def size(args, kwargs, out):
        return len(args[0])

    def steps(args, kwargs, out):
        return out.n_steps

    def trace_bytes(args, kwargs, out):
        return os.path.getsize(args[1])

    nav = p.geometry.NavigationPath
    tracer.patch(nav, "pose_batch", "geometry.pose_batch")
    tracer.patch(nav, "pose", "geometry.pose")
    tracer.patch(nav, "project", "geometry.project")
    tracer.patch(p.agent, "rollout", "dynamics.rollout")
    tracer.patch(p.agent, "step", "dynamics.step")
    tracer.patch(p.sim, "step", "dynamics.step")
    tracer.patch(p.agent, "payoff_tensors", "cost.payoff_tensors", attr=size)
    tracer.patch(p.agent, "tensor_equilibrium", "game.tensor_equilibrium",
                 attr=size)
    tracer.patch(p.agent, "estimate_path", "agent.estimate_path")
    tracer.patch(p.sim, "observe", "agent.observe")
    tracer.patch(p.sim, "update_estimates", "agent.update_estimates")
    tracer.patch(p.sim, "decide", "agent.decide")
    for owner in (p.sim, p.cli):
        tracer.patch(owner, "run_simulation", "sim.run_simulation",
                     attr=steps, new_run=True)
    tracer.patch(p.cli, "write_trace", "cli.write_trace", attr=trace_bytes)
    tracer.patch(p.cli, "trace_stats", "cli.trace_stats")
    tracer.patch(p.cli, "summarize", "cli.summarize")


def parent_is(sp: Spans, name: str) -> np.ndarray:
    has = sp.parent >= 0
    out = np.zeros(len(sp.name), dtype=bool)
    out[has] = sp.mask(name)[sp.parent[has]]
    return out


def layer_metrics(sp: Spans) -> Dict[str, float]:
    """Every per-layer span metric of PER_LAYER that the spans alone give."""
    dur, self_t = sp.duration, sp.self_time
    total = float(dur[sp.parent < 0].sum())
    out: Dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat not in ("calls", "us_p50", "self_share"):
            continue
        layer, _, size = layer.rpartition(".k") if ".k" in layer else (layer, "", "")
        m = sp.mask(layer)
        if size:
            m &= sp.attr == int(size)
        if stat == "calls":
            out[name] = int(m.sum())
        elif stat == "us_p50":
            out[name] = float(np.median(dur[m]) * 1e6) if m.any() else 0.0
        else:
            out[name] = float(self_t[m].sum()) / total if total > 0 else 0.0

    pt = sp.mask("cost.payoff_tensors")
    decide = int(sp.mask("agent.decide").sum())
    passed = int(sp.attr[pt].sum())
    out["dynamics.rollout.computed_ratio"] = (
        out["dynamics.rollout.calls"] / passed if passed else 0.0)
    out["agent.trivial_game_share"] = (
        out["cost.payoff_tensors.k1.calls"] / decide if decide else 0.0)
    out["agent.reestimates"] = int((pt & parent_is(sp, "agent.update_estimates")).sum())
    out["sim.steps"] = int(sp.attr[sp.mask("sim.run_simulation")].sum())
    out["cli.write_trace.bytes"] = int(sp.attr[sp.mask("cli.write_trace")].sum())
    return out


def decisions_by_k(sp: Spans) -> Dict[int, int]:
    games = sp.mask("cost.payoff_tensors") & parent_is(sp, "agent.decide")
    return {k: int((games & (sp.attr == k)).sum()) for k in _K}


def check_spans(s: Session, sp: Spans) -> None:
    has = sp.parent >= 0
    if not np.all(sp.t1 >= sp.t0):
        s.fail("a span ends before it starts")
    if not np.all(sp.run[has] == sp.run[sp.parent[has]]):
        s.fail("a span carries another run id than its parent")


def pinned_check(s: Session) -> int:
    """Replay the pinned n=8 runs traced; their game sizes must match exactly."""
    p, cfg = s.p, s.cfg
    spool = s.work / "spool-pinned"
    spool.mkdir()
    tracer = Tracer(str(spool))
    install_tracer(tracer, p)
    try:
        for seed in PINNED_N8_SEEDS:
            p.sim.run_simulation(8, seed, s.geometry, cfg.cost, cfg.game,
                                 cfg.agent, cfg.sim)
    finally:
        tracer.restore()
    sp = tracer.collect()
    got_k = decisions_by_k(sp)
    got_re = int((sp.mask("cost.payoff_tensors")
                  & parent_is(sp, "agent.update_estimates")).sum())
    s.info.update(pinned_n8_decisions_by_k=got_k, pinned_n8_reestimates=got_re)
    if got_k != PINNED_N8_DECISIONS_BY_K or got_re != PINNED_N8_REESTIMATES:
        s.fail(f"pinned n=8 seeds 42..51: decisions by K {got_k}, "
               f"re-estimations {got_re}; expected "
               f"{PINNED_N8_DECISIONS_BY_K}, {PINNED_N8_REESTIMATES}")
    return len(PINNED_N8_SEEDS)


def traced(s: Session, pinned: bool):
    """Untraced then traced pass over the same fixed run list."""
    wl, p = s.wl, s.p
    spool = s.work / "spool"
    spool.mkdir()
    tracer = Tracer(str(spool))
    summarize_rate = 0.0
    if wl.n is not None:
        stats, secs, _, att_a, fail_a, wall_a = s.run_list(0, wl.trace_runs)
        report, dig_a = s.digest_report(stats, "untraced")
        install_tracer(tracer, p)
        try:
            stats_b, _, _, att_b, fail_b, wall_b = s.run_list(0, wl.trace_runs)
        finally:
            tracer.restore()
        _, dig_b = s.digest_report(stats_b, "traced")
    else:
        timer = RunTimer(p.cli, s.work)
        try:
            report, dig_a, err_a, wall_a, sum_s, n_traces = s.campaign(
                0, wl.trace_runs, "untraced")
        finally:
            secs = [dt for d, _ in timer.restore() for dt in d]
        summarize_rate = n_traces / sum_s
        install_tracer(tracer, p)
        try:
            rep_b, dig_b, err_b, wall_b, _, _ = s.campaign(
                0, wl.trace_runs, "traced")
        finally:
            tracer.restore()
        att_a = sum(r.runs for r in report.rows) + len(err_a)
        att_b = sum(r.runs for r in rep_b.rows) + len(err_b)
        fail_a, fail_b = len(err_a), len(err_b)
    if dig_a != dig_b:
        s.fail("tracing changed summary.csv")
    sp = tracer.collect()
    check_spans(s, sp)
    metrics = layer_metrics(sp)
    out = outcomes(report)
    metrics.update({
        "cli.pool.speedup": math.fsum(secs) / wall_a,
        "summarize_traces_per_s": summarize_rate,
        "collision_rate_pct": out["collision_rate_pct"],
        "censored_pct": out["censored_pct"],
        "failed_runs_pct": 100.0 * fail_a / max(att_a, 1),
        "trace.untraced_runs_per_s": (att_a - fail_a) / wall_a,
        "trace.traced_runs_per_s": (att_b - fail_b) / wall_b,
    })
    metrics["trace.overhead_x"] = (metrics["trace.untraced_runs_per_s"]
                                   / metrics["trace.traced_runs_per_s"])
    s.info.update(summary_sha256=dig_a, spans=len(sp.name))
    attempted, failed = att_a + att_b, fail_a + fail_b
    if pinned and wl.n == 8:
        attempted += pinned_check(s)
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# entry point


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS, pinned: bool = True) -> dict:
    """Measure one workload; print the env and info blocks; return the result."""
    s = Session(wl, seed)
    env = environment()
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
    try:
        if trace:
            metrics, attempted, failed = traced(s, pinned)
            table = [(n, u) for n, u, _ in PER_LAYER]
        else:
            metrics, attempted, failed = end_to_end(s, seconds, setup_repeats)
            table = [(n, u) for n, u, _, _ in END_TO_END]
    finally:
        s.close()
    result_metrics = {}
    for name, unit in table:
        value = metrics[name]
        if not math.isfinite(value):
            s.fail(f"{name} is not finite")
            value = 0.0
        result_metrics[name] = {"value": value, "unit": unit}
    env["loadavg_end"] = list(os.getloadavg())
    for k, v in s.info.items():
        print(f"# info {k}: {v}")
    for msg in s.checks:
        print(f"# FAILED check: {msg}")
    result = {"correct": not s.checks and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    OUT_ROOT.mkdir(exist_ok=True)
    report_path = OUT_ROOT / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    report_path.write_text(json.dumps(
        {"workload": wl.name, "seed": seed, "seconds": seconds,
         "env": env, "info": s.info, "failed_checks": s.checks,
         "result": result}, indent=2, default=str) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="rewrite BENCHMARK.json from this script's tables")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
