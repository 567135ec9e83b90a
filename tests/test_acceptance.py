"""End-to-end acceptance checks.

One test per headline claim: collision-free default campaign, safety/speed
trends across crowd sizes, solver-oracle agreement, closed-form kinematics,
estimator recovery, prediction-error convergence, aggressiveness sensitivity,
byte-identical reruns, and hand-checked cost branches.  The campaign fixture
is shared, so this module is the slow part of the suite (a few minutes).
"""

import math
import time

import numpy as np
import pytest

from oracles import beta, decide_alone, phi_back, phi_front, phi_safe, phi_speed, step_cost
from roundabout_sim.agent import AgentParams, AgentState, observe, update_estimates
from roundabout_sim.cli import _buckets, main, run_campaign, trace_stats
from roundabout_sim.config import ExperimentConfig
from roundabout_sim.cost import CostParams, horizon_weights
from roundabout_sim.dynamics import Configuration, step
from roundabout_sim.game import GameParams, tensor_equilibrium
from roundabout_sim.geometry import TWO_PI, RoundaboutSpec, Status, build_roundabout
from roundabout_sim.sim import run_simulation

DELTA = 0.25
DIAMETER = 4.5


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """Default sweep (200 runs per n in 4..8, seed 42) with traces kept.

    The campaign runs in this process (``jobs=1``), so its CPU time measures
    its cost without counting time the machine spent on other processes."""
    out = tmp_path_factory.mktemp("campaign")
    t0 = time.process_time()
    report, errors = run_campaign(ExperimentConfig(), str(out),
                                  traces=True, jobs=1, env={})
    elapsed = time.process_time() - t0
    assert errors == []
    return report, out, elapsed


class TestCampaignStatistics:
    def test_default_campaign_is_collision_free(self, campaign):
        report, _, elapsed = campaign
        rows = {r.n_vehicles: r for r in report.rows}
        assert sorted(rows) == [4, 5, 6, 7, 8]
        for n, row in rows.items():
            assert row.runs == 200
            assert row.collisions == 0, f"n={n}: {row.collisions} collisions"
            assert row.collision_rate_pct == 0.0
        assert elapsed <= 600.0, f"campaign took {elapsed:.0f} s of CPU time"

    def test_crowding_trades_distance_for_time(self, campaign):
        report, _, _ = campaign
        rows = {r.n_vehicles: r for r in report.rows}
        dist = {n: rows[n].avg_min_distance_m for n in rows}
        mission = [rows[n].avg_mission_time_s for n in (4, 5, 6, 7, 8)]
        assert dist[4] > dist[8], (dist[4], dist[8])
        assert all(a <= b for a, b in zip(mission, mission[1:])), mission
        assert 9.0 <= dist[4] <= 22.0, dist[4]
        assert 10.0 <= mission[-1] <= 30.0, mission[-1]

    def test_gentler_populations_keep_larger_margins(self, campaign):
        # six-vehicle runs bucketed by mean true aggressiveness
        _, out, _ = campaign
        files = sorted((out / "traces" / "n6").glob("run_*.csv"))
        stats = [trace_stats(str(p)) for p in files]
        pairs = [(s.avg_w, s.min_distance) for s in stats
                 if s.avg_w is not None and math.isfinite(s.min_distance)]
        occupied = [b for b in _buckets(pairs) if b.count > 0]
        assert len(occupied) >= 2
        low, high = occupied[0], occupied[-1]
        assert low.median >= high.median, (low, high)


def exhaustive_oracle(costs, order):
    """Independent subgame-perfect solution via explicit assignment search."""
    K = len(costs)

    def best(assign):
        k = len(assign)
        if k == K:
            prof = tuple(assign[a] for a in range(K))
            return prof, [float(costs[p][prof]) for p in range(K)]
        ax = order[k]
        options = [best({**assign, ax: s}) for s in range(costs[0].shape[ax])]
        pick = min(range(len(options)), key=lambda i: (options[i][1][ax], i))
        return options[pick]

    return best({})


def test_solver_agrees_with_exhaustive_search():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        sizes = [int(rng.integers(2, 6)) for _ in range(k)]
        # small integer costs so ties are common and tie-breaks get exercised
        costs = [rng.integers(0, 7, size=sizes).astype(float) for _ in range(k)]
        order = [int(p) for p in rng.permutation(k)]
        profile = tensor_equilibrium(costs, order=order)
        want, _ = exhaustive_oracle(costs, order)
        assert profile == want
    assert time.perf_counter() - t0 <= 30.0


def test_step_matches_closed_form_on_the_ring():
    g = build_roundabout(RoundaboutSpec())
    circle = g.circle
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 10_000:
        v = float(rng.uniform(0.0, 14.0))
        a = float(rng.uniform(-50.0, 30.0))
        dt = float(rng.uniform(0.05, 0.5))
        if v + a * dt < 0.05:   # keep clear of the standstill clamp
            continue
        s0 = float(rng.uniform(0.0, TWO_PI * g.r_in))
        r0, th0, st0 = circle.pose(s0)
        x = Configuration(r=r0, theta=th0, v=v, status=st0, arclen=s0)
        nxt = step(x, a, dt, circle, DIAMETER)
        ds = v * dt + 0.5 * a * dt * dt
        assert abs(nxt.v - (v + a * dt)) <= 1e-9
        assert abs(nxt.r - g.r_in) <= 1e-9
        assert abs(nxt.arclen - (s0 + ds)) <= 1e-9
        want = (th0 + ds / g.r_in) % TWO_PI
        wrap = abs(nxt.theta - want)
        assert min(wrap, TWO_PI - wrap) <= 1e-9
        checked += 1


def run_estimator_fixture(w_star, seed, steps=20):
    """Leader (observer) and follower with known aggressiveness on the ring."""
    g = build_roundabout(RoundaboutSpec())
    P, GP, AP = CostParams(), GameParams(), AgentParams()
    circle = g.circle
    rng = np.random.default_rng(seed)
    gap = rng.uniform(6.0, 14.0)
    v_lead = rng.uniform(2.0, 5.0)
    v_follow = rng.uniform(6.0, 10.0)
    s_lead = 40.0
    cfgs = {}
    r0, th0, st0 = circle.pose(s_lead)
    cfgs[0] = Configuration(r=r0, theta=th0, v=v_lead, status=st0, arclen=s_lead)
    r1, th1, st1 = circle.pose(s_lead - gap)
    cfgs[1] = Configuration(r=r1, theta=th1, v=v_follow, status=st1, arclen=s_lead - gap)
    obs_state = AgentState(vid=0, w_agg=0.5, rng=np.random.default_rng(seed * 2 + 1))
    act_state = AgentState(vid=1, w_agg=w_star, rng=np.random.default_rng(seed * 2 + 2))
    for _ in range(steps):
        accel = {}
        for vid, state in ((0, obs_state), (1, act_state)):
            obs = observe(vid, cfgs, g, P)
            update_estimates(state, obs, g, P, AP, DELTA)
            accel[vid] = decide_alone(state, obs, circle, g, P, GP, AP, DELTA).accel
        for vid in (0, 1):
            cfgs[vid] = step(cfgs[vid], accel[vid], DELTA, circle, DIAMETER)
    return obs_state.w_hat.get(1, 0.5)


@pytest.mark.parametrize("w_star", [0.3, 0.5, 0.7])
def test_estimator_recovers_known_aggressiveness(w_star):
    hits = sum(abs(run_estimator_fixture(w_star, seed) - w_star) <= 0.1
               for seed in range(50))
    assert hits >= 45, f"w*={w_star}: recovered in only {hits}/50 seeds"


def _realized(v, a, delta):
    # braking cannot push speed below zero mid-step
    return (-v / delta) if v + a * delta < 0.0 else a


def test_prediction_error_shrinks_by_endgame():
    g = build_roundabout(RoundaboutSpec())
    improved = 0
    for i in range(100):
        result = run_simulation(8, 42 + i, g)
        by_t = {}
        for row in result.rows:
            by_t.setdefault(row.t, {})[row.vid] = row
        steps = []
        for t in sorted(by_t):
            errs = []
            for row in by_t[t].values():
                for j, a_pred in row.pred.items():
                    other = by_t[t].get(j)
                    if other is None or other.accel is None:
                        continue
                    errs.append(abs(_realized(other.v, a_pred, result.delta)
                                    - _realized(other.v, other.accel, result.delta)))
            if errs:
                steps.append(errs)
        first = [e for es in steps[:5] for e in es]
        last = [e for es in steps[-5:] for e in es]
        improved += (sum(last) / len(last)) <= (sum(first) / len(first))
    assert improved >= 80, f"prediction error improved in only {improved}/100 runs"


def test_campaign_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("campaign = 3 x 5\ncampaign = 5 x 5\nseed = 11\n")
    for name in ("a", "b"):
        rc = main(["--config", str(cfg), "--out", str(tmp_path / name),
                   "--traces", "--jobs", "1"])
        assert rc == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    rels = sorted(p.relative_to(a) for p in a.rglob("run_*.csv"))
    assert rels
    assert rels == sorted(p.relative_to(b) for p in b.rglob("run_*.csv"))
    for rel in rels:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class TestCostBranchesByHand:
    P = CostParams()   # C=10, C_ins=1, D=30, D_en=10, D_c=6, E_inf=1e12

    def test_front_gap_branches(self):
        I, E = Status.INSIDE, Status.ENTER
        assert phi_front(I, None, None, self.P) == 0.0
        assert phi_front(I, E, 25.0, self.P) == 25.0          # 1 * (30-25)^2
        assert phi_front(E, I, 25.0, self.P) == 250.0         # 10 * 25, gap above wall
        assert phi_front(E, I, 10.0, self.P) == 4000.0 + 1e12  # merge wall at 10 m
        assert phi_front(I, I, 25.0, self.P) == 250.0
        assert phi_front(I, I, 6.0, self.P) == 5760.0 + 1e12   # follow wall at 6 m

    def test_back_gap_branches(self):
        I, E = Status.INSIDE, Status.ENTER
        assert phi_back(I, None, None, self.P) == 0.0
        assert phi_back(I, E, 25.0, self.P) == 25.0
        assert phi_back(E, I, 9.0, self.P) == 4410.0 + 1e12
        assert phi_back(I, I, 5.0, self.P) == 6250.0 + 1e12

    def test_wall_regimes(self):
        assert beta(6.0, 6.0, self.P) == 1e12   # at the threshold: prohibitive
        assert beta(6.0001, 6.0, self.P) == 0.0

    def test_speed_branches(self):
        assert phi_speed(12.0, Status.INSIDE, self.P) == 1000.0   # 1e3 * (11-12)^2
        assert phi_speed(8.0, Status.ENTER, self.P) == 9.0        # 1 * (11-8)^2
        assert phi_speed(8.0, Status.INSIDE, self.P) == 90.0      # 10 * (11-8)^2

    def test_stage_combination(self):
        assert phi_safe(3.0, 4.0) == 4.0
        assert step_cost(0.3, 10.0, 20.0) == pytest.approx(13.0, abs=1e-12)

    def test_discount_weights(self):
        w = horizon_weights(0.8, 4)
        assert w.shape == (4,)
        assert w[0] == 1.0 and w[1] == 0.8
        assert np.allclose(w, [1.0, 0.8, 0.64, 0.512], rtol=0.0, atol=1e-15)
        assert float(w.sum()) == pytest.approx(2.952, abs=1e-12)
