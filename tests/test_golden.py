"""Golden digests: pinned runs reproduce their artefacts and full rows byte for byte.

Refactors that claim "same behaviour" prove it here.  If a change moves
floating-point bits on purpose, it must say why and record the new digest.
"""

import hashlib
import os

from roundabout_sim.cli import run_campaign
from roundabout_sim.config import ExperimentConfig, parse_config
from roundabout_sim.geometry import build_roundabout
from roundabout_sim.sim import run_simulation

# default config, seed 42, 4 runs per row, traces on
GOLDEN_SHA256 = "023a2a99b122e7ac59e046b3bd553c2e4cf167f4cd7bcc5f83c6491d077d7c09"

# default config, n=8 seeds 42..51 then n=4 seeds 42..61, every field of every row
RUN_ROWS = [(8, seed) for seed in range(42, 52)] + [(4, seed) for seed in range(42, 62)]
RUN_ROWS_SHA256 = "b84143cb46c280fc0aef1c5eb04a2773ee97e9192f9bd40d11c0b8271c08819b"


def artefact_digest(out_dir):
    """sha256 over summary.csv and every trace, in sorted relative-path order."""
    rels = ["summary.csv"]
    for root, _, names in os.walk(os.path.join(out_dir, "traces")):
        rels += [os.path.relpath(os.path.join(root, n), out_dir) for n in names]
    h = hashlib.sha256()
    for rel in sorted(rels):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(out_dir, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_rows_digest(runs):
    """sha256 over each run's rows, every ``TraceRow`` field with ``est`` and ``pred`` sorted by
    id, then its collision, minimum distance, mission steps by id and censored flag, floats as
    ``repr``.  Unlike a trace, this covers ``pred``: every co-player's equilibrium strategy."""
    h = hashlib.sha256()
    for res in runs:
        for row in res.rows:
            h.update(repr((row.t, row.vid, row.r, row.theta, row.v, int(row.status), row.accel,
                           sorted(row.est.items()), row.override,
                           sorted(row.pred.items()))).encode() + b"\n")
        h.update(repr((res.n_vehicles, res.seed, res.collision, res.min_distance,
                       sorted(res.mission_steps.items()), res.censored)).encode() + b"\n")
    return h.hexdigest()


def test_pinned_campaign_digest(tmp_path):
    _, errors = run_campaign(ExperimentConfig(), str(tmp_path), traces=True, jobs=1,
                             flag_seed=42, flag_runs=4, env={})
    assert errors == []
    assert artefact_digest(str(tmp_path)) == GOLDEN_SHA256


def test_pinned_run_rows_digest():
    cfg = parse_config("")
    geometry = build_roundabout(cfg.spec)
    runs = (run_simulation(n, seed, geometry, cfg.cost, cfg.game, cfg.agent, cfg.sim)
            for n, seed in RUN_ROWS)
    assert run_rows_digest(runs) == RUN_ROWS_SHA256
