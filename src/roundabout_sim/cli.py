"""Batch experiment harness: seeded campaigns, summary stats, trace files.

``roundabout-sim`` runs the configured campaign (default: 4..8 vehicles,
200 runs each), writes ``summary.csv`` and ``summary.json`` under the
output directory, and with ``--traces`` one CSV per run under
``traces/n<k>/``.  Report facts come from trace rows alone (:func:`_row_stats`),
so :func:`summarize` rebuilds the campaign's report from a trace directory; it
needs a non-default ``vehicle_diameter`` passed, as traces do not record it.

Trace rows are ``(t, id, r, theta, v, status, accel,
est_agg_of_each_neighbour, override_flag)`` with ``t`` in simulated
seconds and numbers as shortest round-trip decimals (``repr``), which is
what makes reruns byte-identical.  The estimate column is a sparse
``id=value`` list; a vehicle's entry for itself carries its true
aggressiveness (it knows its own weight), which is how the aggressiveness
buckets can be recomputed from traces.

Aggregation rules: collision and censored runs are excluded from
mission-time statistics (their vehicles never all exit); non-finite
minimum distances (single-vehicle runs) are excluded from distance
statistics; campaign rows with zero runs are dropped.  Reports order rows
by vehicle count; campaigns with two rows at the same vehicle count will
have their traces pooled by :func:`summarize`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
import traceback
from dataclasses import dataclass, fields
from multiprocessing import Pool
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .config import (ConfigError, ExperimentConfig, load_config, parse_config,
                     resolved_campaign)
from .dynamics import VEHICLE_DIAMETER
from .geometry import Status, build_roundabout
from .sim import RunResult, min_pairwise, run_simulation

TRACE_COLUMNS = ("t", "id", "r", "theta", "v", "status", "accel",
                 "est_agg_of_each_neighbour", "override_flag")
BUCKET_LO, BUCKET_HI, BUCKET_WIDTH = 0.2, 0.8, 0.1
_TRACE_NAME = re.compile(r"^run_(\d+)\.csv$")
_DIR_NAME = re.compile(r"^n(\d+)$")
_STATUS_NAMES = frozenset(s.name.lower() for s in Status)


@dataclass(frozen=True)
class RunStats:
    """The per-run facts the report needs (slim enough to cross a Pool)."""

    collided: bool
    censored: bool
    min_distance: float
    mission_mean_s: Optional[float]  # None unless every vehicle exited
    avg_w: Optional[float]


@dataclass(frozen=True)
class BucketStats:
    w_lo: float
    w_hi: float
    count: int
    median: Optional[float] = None
    q1: Optional[float] = None
    q3: Optional[float] = None
    whisker_lo: Optional[float] = None
    whisker_hi: Optional[float] = None


@dataclass(frozen=True)
class SummaryRow:
    n_vehicles: int
    runs: int
    collisions: int
    collision_rate_pct: float
    avg_min_distance_m: float
    avg_mission_time_s: float
    p25_min_distance_m: float
    p50_min_distance_m: float
    p75_min_distance_m: float
    p25_mission_s: float
    p50_mission_s: float
    p75_mission_s: float
    censored_runs: int


SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))


@dataclass(frozen=True)
class SummaryReport:
    rows: Tuple[SummaryRow, ...]
    buckets_min_distance: Tuple[BucketStats, ...]
    buckets_mission_time: Tuple[BucketStats, ...]
    warnings: int = 0


def _mean(xs: Sequence[float]) -> float:
    return math.fsum(xs) / len(xs)


def _row_stats(rows: Iterable[Tuple[float, int, float, float, str]],
               own_w: Dict[int, float], diameter: float) -> RunStats:
    """One run's facts from its trace rows ``(t [s], vid, r, theta, status name)``.

    Minimum distance is taken over vehicles that have not yet exited, a step
    minimum under ``diameter`` means the run collided, a vehicle's mission
    time is the timestamp of its first ``exit`` row, and a run whose rows end
    with someone still inside (and no collision) was censored at the step cap.
    """
    by_t: Dict[float, list] = {}
    first_exit: Dict[int, float] = {}
    last_status: Dict[int, str] = {}
    for t, vid, r, theta, status in rows:
        by_t.setdefault(t, []).append((vid, r, theta, status))
        last_status[vid] = status
        if status == "exit" and vid not in first_exit:
            first_exit[vid] = t
    min_distance = math.inf
    for t in sorted(by_t):
        dmin, _ = min_pairwise([(r, th) for _, r, th, status in sorted(by_t[t])
                                if status != "exit"])
        min_distance = min(min_distance, dmin)
        if min_distance < diameter:
            break
    collided = min_distance < diameter
    vids = sorted(last_status)
    finished = all(last_status[vid] == "exit" for vid in vids)
    return RunStats(
        collided=collided,
        censored=not collided and not finished,
        min_distance=min_distance,
        mission_mean_s=(_mean([first_exit[vid] for vid in vids])
                        if finished and not collided else None),
        avg_w=_mean([own_w[vid] for vid in vids]),
    )


def run_stats(result: RunResult) -> RunStats:
    """One run's facts from its rows, exactly as :func:`trace_stats` reads them back."""
    return _row_stats(((row.t * result.delta, row.vid, row.r, row.theta,
                        row.status.name.lower()) for row in result.rows),
                      result.true_w, result.diameter)


# ---------------------------------------------------------------------------
# trace files


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_trace(result: RunResult, path: str) -> None:
    """One CSV row per (step, vehicle); ``t`` in seconds, floats via repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(TRACE_COLUMNS)
        for row in result.rows:
            est = ";".join(f"{vid}={_fmt(row.est[vid])}"
                           for vid in sorted(row.est))
            out.writerow((_fmt(row.t * result.delta), row.vid, _fmt(row.r),
                          _fmt(row.theta), _fmt(row.v),
                          row.status.name.lower(), _fmt(row.accel), est,
                          int(row.override)))


class TraceFormatError(ValueError):
    pass


def trace_stats(path: str, diameter: float = VEHICLE_DIAMETER) -> RunStats:
    """One run's stats from its trace file alone, by :func:`_row_stats`.  A bad name, header, row
    length or status, a non-finite ``t``, ``r`` or ``theta``, or a vehicle without an own weight
    in [0, 1] raises :class:`TraceFormatError`."""
    name = os.path.basename(path)
    if _TRACE_NAME.match(name) is None:
        raise TraceFormatError(f"{name}: trace files are named run_<seed>.csv")

    rows = []
    self_w: Dict[int, float] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != TRACE_COLUMNS:
                raise TraceFormatError(f"{name}: bad header {header!r}")
            for rec in reader:
                if len(rec) != len(TRACE_COLUMNS):
                    raise TraceFormatError(f"{name}: short row {rec!r}")
                t, vid, r, theta = float(rec[0]), int(rec[1]), float(rec[2]), float(rec[3])
                if rec[5] not in _STATUS_NAMES or not all(map(math.isfinite, (t, r, theta))):
                    raise TraceFormatError(f"{name}: bad status or non-finite t, r, theta {rec!r}")
                rows.append((t, vid, r, theta, rec[5]))
                if vid not in self_w and rec[7]:
                    for pair in rec[7].split(";"):
                        k, _, v = pair.partition("=")
                        if int(k) == vid:
                            self_w[vid] = float(v)
                            break
    except (ValueError, csv.Error, OSError) as exc:
        if isinstance(exc, TraceFormatError):
            raise
        raise TraceFormatError(f"{name}: {exc}")
    if not rows:
        raise TraceFormatError(f"{name}: no data rows")
    if not all(0.0 <= self_w.get(row[1], math.nan) <= 1.0 for row in rows):
        raise TraceFormatError(f"{name}: a vehicle never lists an own weight in [0, 1]")
    return _row_stats(rows, self_w, diameter)


# ---------------------------------------------------------------------------
# aggregation


def _quantiles(xs: List[float]) -> Tuple[float, float, float]:
    if not xs:
        return (math.nan,) * 3
    q = np.percentile(np.asarray(xs, dtype=float), [25.0, 50.0, 75.0])
    return float(q[0]), float(q[1]), float(q[2])


def summarize_row(n_vehicles: int, stats: Sequence[RunStats]) -> SummaryRow:
    runs = len(stats)
    collisions = sum(s.collided for s in stats)
    censored = sum(s.censored for s in stats)
    dists = [s.min_distance for s in stats if math.isfinite(s.min_distance)]
    missions = [s.mission_mean_s for s in stats if s.mission_mean_s is not None]
    d25, d50, d75 = _quantiles(dists)
    m25, m50, m75 = _quantiles(missions)
    return SummaryRow(
        n_vehicles=n_vehicles,
        runs=runs,
        collisions=collisions,
        collision_rate_pct=100.0 * collisions / runs if runs else math.nan,
        avg_min_distance_m=_mean(dists) if dists else math.nan,
        avg_mission_time_s=_mean(missions) if missions else math.nan,
        p25_min_distance_m=d25, p50_min_distance_m=d50, p75_min_distance_m=d75,
        p25_mission_s=m25, p50_mission_s=m50, p75_mission_s=m75,
        censored_runs=censored,
    )


def _bucket_stats(lo: float, hi: float, xs: List[float]) -> BucketStats:
    if not xs:
        return BucketStats(w_lo=lo, w_hi=hi, count=0)
    q1, med, q3 = _quantiles(xs)
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    return BucketStats(
        w_lo=lo, w_hi=hi, count=len(xs), median=med, q1=q1, q3=q3,
        whisker_lo=min(x for x in xs if x >= lo_fence),
        whisker_hi=max(x for x in xs if x <= hi_fence),
    )


def _buckets(pairs: Iterable[Tuple[float, float]]) -> Tuple[BucketStats, ...]:
    """Tukey box stats per aggressiveness bucket (width 0.1 over [0.2, 0.8])."""
    n = round((BUCKET_HI - BUCKET_LO) / BUCKET_WIDTH)
    grouped: List[List[float]] = [[] for _ in range(n)]
    for w, value in pairs:
        if w < BUCKET_LO or w > BUCKET_HI:
            continue
        idx = min(int((w - BUCKET_LO) / BUCKET_WIDTH), n - 1)
        grouped[idx].append(value)
    return tuple(
        _bucket_stats(BUCKET_LO + i * BUCKET_WIDTH,
                      BUCKET_LO + (i + 1) * BUCKET_WIDTH, xs)
        for i, xs in enumerate(grouped))


def build_report(groups: Sequence[Tuple[int, Sequence[RunStats]]],
                 warnings: int = 0) -> SummaryReport:
    rows = tuple(summarize_row(n, stats) for n, stats in groups if stats)
    pool = [s for _, stats in groups for s in stats if s.avg_w is not None]
    dist_pairs = [(s.avg_w, s.min_distance) for s in pool
                  if math.isfinite(s.min_distance)]
    mission_pairs = [(s.avg_w, s.mission_mean_s) for s in pool
                     if s.mission_mean_s is not None]
    return SummaryReport(
        rows=rows,
        buckets_min_distance=_buckets(dist_pairs),
        buckets_mission_time=_buckets(mission_pairs),
        warnings=warnings,
    )


def write_summary_csv(report: SummaryReport, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(SUMMARY_COLUMNS)
        for row in report.rows:
            out.writerow(tuple(_fmt(getattr(row, col)) for col in SUMMARY_COLUMNS))


def format_row(row: SummaryRow) -> str:
    """One report row as the command line and ``summarize_traces.py`` print it."""
    return (f"n={row.n_vehicles}: {row.runs} runs, {row.collisions} collisions "
            f"({row.collision_rate_pct:.1f}%), avg min distance {row.avg_min_distance_m:.2f} m, "
            f"avg mission time {row.avg_mission_time_s:.2f} s, {row.censored_runs} censored")


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def report_json(report: SummaryReport) -> dict:
    return {
        "rows": [{col: _jsonable(getattr(row, col)) for col in SUMMARY_COLUMNS}
                 for row in report.rows],
        "aggressiveness_buckets": {
            "min_distance_m": [vars(b) for b in report.buckets_min_distance],
            "mission_time_s": [vars(b) for b in report.buckets_mission_time],
        },
        "warnings": report.warnings,
    }


def write_summary_json(report: SummaryReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_json(report), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# campaign execution


@functools.lru_cache(maxsize=4)
def _geometry_for(spec):
    return build_roundabout(spec)


def _run_one(task):
    config, n, seed, trace_path = task
    try:
        geometry = _geometry_for(config.spec)
        result = run_simulation(n, seed, geometry, config.cost, config.game,
                                config.agent, config.sim)
        if trace_path is not None:
            write_trace(result, trace_path)
        return run_stats(result), None
    except Exception as exc:  # noqa: BLE001 - report and keep going
        return None, f"n={n} seed={seed}: {exc}\n{traceback.format_exc()}"


def run_campaign(config: ExperimentConfig, out_dir: str, *,
                 traces: bool = False, jobs: int = 1,
                 flag_seed: Optional[int] = None,
                 flag_runs: Optional[int] = None,
                 env: Optional[Dict[str, str]] = None,
                 ) -> Tuple[SummaryReport, List[str]]:
    """Run every campaign row and write summary.csv / summary.json.

    Returns the report and a list of per-run error strings (empty on
    success).  Worker results are folded in submission (seed) order, so
    the report does not depend on ``jobs``.
    """
    campaign = resolved_campaign(config, flag_seed, flag_runs, env)
    os.makedirs(out_dir, exist_ok=True)

    tasks = []
    bounds = []
    for row in campaign:
        trace_dir = None
        if traces and row.n_runs:
            trace_dir = os.path.join(out_dir, "traces", f"n{row.n_vehicles}")
            os.makedirs(trace_dir, exist_ok=True)
        start = len(tasks)
        for i in range(row.n_runs):
            seed = row.base_seed + i
            trace_path = None
            if trace_dir is not None:
                trace_path = os.path.join(trace_dir, f"run_{seed:08d}.csv")
            tasks.append((config, row.n_vehicles, seed, trace_path))
        bounds.append((row.n_vehicles, start, len(tasks)))

    if jobs > 1 and len(tasks) > 1:
        with Pool(processes=min(jobs, len(tasks))) as pool:  # no idle workers to fork
            outcomes = list(pool.imap(_run_one, tasks, chunksize=4))
    else:
        outcomes = [_run_one(t) for t in tasks]

    errors = [err for _, err in outcomes if err is not None]
    groups = []
    for n, start, stop in bounds:
        stats = [st for st, _ in outcomes[start:stop] if st is not None]
        groups.append((n, stats))
    groups.sort(key=lambda g: g[0])

    report = build_report(groups)
    write_summary_csv(report, os.path.join(out_dir, "summary.csv"))
    write_summary_json(report, os.path.join(out_dir, "summary.json"))
    return report, errors


def summarize(trace_root: str, diameter: float = VEHICLE_DIAMETER) -> SummaryReport:
    """Recompute a :class:`SummaryReport` from a directory of traces.

    ``trace_root`` is the ``traces/`` directory written by a campaign
    (``n<k>/run_<seed>.csv`` layout).  Malformed or unreadable entries are
    named on stderr, skipped, and counted in ``report.warnings``.
    """
    groups = []
    warnings = 0
    for entry in sorted(os.listdir(trace_root)):
        m = _DIR_NAME.match(entry)
        sub = os.path.join(trace_root, entry)
        if m is None or not os.path.isdir(sub):
            continue
        stats = []
        named = []
        for fname in os.listdir(sub):
            fm = _TRACE_NAME.match(fname)
            if fm is not None:
                named.append((int(fm.group(1)), fname))
        for _, fname in sorted(named):
            try:
                stats.append(trace_stats(os.path.join(sub, fname), diameter))
            except TraceFormatError as exc:
                print(f"warning: skipping malformed trace: {exc}",
                      file=sys.stderr)
                warnings += 1
        groups.append((int(m.group(1)), stats))
    groups.sort(key=lambda g: g[0])
    return build_report(groups, warnings=warnings)


# ---------------------------------------------------------------------------
# entry point


def _seed_arg(text: str) -> int:
    value = int(text, 10)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in u64")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="roundabout-sim",
        description="Seeded Monte-Carlo campaigns of game-theoretic "
                    "roundabout negotiation.")
    parser.add_argument("--config", metavar="PATH",
                        help="config file (omit for defaults)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (default: results)")
    parser.add_argument("--traces", action="store_true",
                        help="write per-run CSV traces")
    parser.add_argument("--seed", type=_seed_arg, metavar="U64",
                        help="override the campaign base seed")
    parser.add_argument("--runs", type=int, metavar="N",
                        help="override the per-row run count")
    parser.add_argument("--jobs", type=int, metavar="N",
                        default=os.cpu_count() or 1,
                        help="worker processes (default: logical CPUs)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    args = parser.parse_args(argv)

    if args.runs is not None and args.runs < 0:
        parser.error("--runs must be >= 0")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    try:
        config = load_config(args.config) if args.config else parse_config("")
        out_dir = args.out or config.out or "results"
        report, errors = run_campaign(
            config, out_dir,
            traces=args.traces or config.traces,
            jobs=args.jobs, flag_seed=args.seed, flag_runs=args.runs)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for err in errors:
        print(f"error: run failed: {err}", file=sys.stderr)
    for row in report.rows:
        print(format_row(row))
    print(f"wrote {os.path.join(out_dir, 'summary.csv')} and summary.json")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
