"""Closed-loop simulation: spawning, stepping, traces, and run metrics."""

import math

import numpy as np
import pytest

from roundabout_sim import sim
from roundabout_sim.cost import CostParams
from roundabout_sim.game import DEFAULT_ACCELS, GameParams
from roundabout_sim.geometry import RoundaboutSpec, Status, build_roundabout
from roundabout_sim.sim import (
    SimParams,
    W_CHOICES,
    _cruise_accel,
    init_scenario,
    min_pairwise,
    run_simulation,
)

SP = SimParams()
CP = CostParams()


@pytest.fixture(scope="module")
def geom():
    return build_roundabout(RoundaboutSpec())


def rows_by_t(result):
    grouped = {}
    for row in result.rows:
        grouped.setdefault(row.t, []).append(row)
    return grouped


class TestInitScenario:
    def test_deterministic(self, geom):
        a, _ = init_scenario(6, geom, 123, SP, CP)
        b, _ = init_scenario(6, geom, 123, SP, CP)
        assert {k: v.config for k, v in a.items()} == {k: v.config for k, v in b.items()}

    def test_round_robin_arms_with_spacing(self, geom):
        vehicles, _ = init_scenario(8, geom, 5, SP, CP)
        arm_of = {path: kind.arm for kind, path in geom.paths.items()}
        assert [arm_of[vehicles[i].path] for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]
        # second wave spawns one spacing behind the first on the same arm
        assert vehicles[4].config.arclen == pytest.approx(
            vehicles[0].config.arclen - SP.spawn_spacing)

    def test_draws_within_documented_ranges(self, geom):
        vehicles, agents = init_scenario(8, geom, 17, SP, CP)
        for vid, veh in vehicles.items():
            assert 0.0 <= veh.config.v <= CP.v_l
            assert veh.w_agg in W_CHOICES
            assert veh.config.status == Status.ENTER
            assert agents[vid].w_agg == veh.w_agg

    def test_capacity_bounds(self, geom):
        with pytest.raises(ValueError):
            init_scenario(0, geom, 1, SP, CP)
        with pytest.raises(ValueError):
            init_scenario(2 * geom.spec.ways + 1, geom, 1, SP, CP)

    def test_spacing_below_the_diameter_rejected(self, geom):
        # same-arm vehicles spawn one spacing apart on a straight lane
        with pytest.raises(ValueError, match="spawn_spacing 3.0 is below vehicle_diameter 4.5"):
            SimParams(spawn_spacing=3.0)
        with pytest.raises(ValueError, match="spawn overlapping"):
            SimParams(vehicle_diameter=12.0)
        vehicles, _ = init_scenario(8, geom, 2, SimParams(spawn_spacing=4.5), CP)
        lead, trail = vehicles[0].config, vehicles[4].config
        assert lead.arclen - trail.arclen == 4.5


class TestBoundConfigurations:
    def test_posed_at_their_arclen_bit_for_bit(self, geom, monkeypatch):
        # agent.prepare_step hands a vehicle's bound (r, theta) to rollout as its stage 0
        # instead of posing its arclen again: the same bits only while spawning and every
        # move pose a bound configuration with the scalar pose at its arclen
        real_init, real_step = sim.init_scenario, sim.step
        checked = []

        def check(config, path):
            posed = np.array(path.pose(config.arclen)[:2])
            assert np.array([config.r, config.theta]).tobytes() == posed.tobytes()
            checked.append(config)

        def init(*args):
            vehicles, agents = real_init(*args)
            for veh in vehicles.values():
                check(veh.config, veh.path)
            return vehicles, agents

        def stepped(x, a, delta, path, diameter):
            out = real_step(x, a, delta, path, diameter)
            check(out, path)
            return out

        monkeypatch.setattr(sim, "init_scenario", init)
        monkeypatch.setattr(sim, "step", stepped)
        for n in (4, 8):
            for seed in range(42, 52):
                run_simulation(n, seed, geom)
        assert len(checked) > 5000


class TestSingleVehicle:
    def test_exits_cleanly(self, geom):
        r = run_simulation(1, 9, geom)
        assert r.collision is None
        assert not r.censored
        assert math.isinf(r.min_distance)       # undefined without a pair
        assert r.mission_steps[0] is not None
        assert r.rows[-1].status == Status.EXIT
        assert r.rows[0].status == Status.ENTER


class TestTraceShape:
    def test_rows_grouped_and_sorted(self, geom):
        r = run_simulation(4, 11, geom)
        for t, rows in rows_by_t(r).items():
            vids = [row.vid for row in rows]
            assert vids == sorted(vids)
            assert len(set(vids)) == len(vids)

    def test_status_never_regresses(self, geom):
        r = run_simulation(6, 11, geom)
        rank = {Status.ENTER: 0, Status.INSIDE: 1, Status.EXIT: 2}
        per_vid = {}
        for row in r.rows:
            prev = per_vid.get(row.vid)
            if prev is not None:
                assert rank[row.status] >= rank[prev]
            per_vid[row.vid] = row.status

    def test_exited_vehicles_keep_cruising_without_negotiating(self, geom):
        r = run_simulation(4, 11, geom)
        exit_rows = [row for row in r.rows
                     if row.status == Status.EXIT and row.accel is not None]
        assert exit_rows, "expected pre-removal exit rows"
        for row in exit_rows:
            assert row.est == {} and not row.override

    def test_mission_step_is_first_exit_row(self, geom):
        r = run_simulation(5, 13, geom)
        first_exit = {}
        for row in r.rows:
            if row.status == Status.EXIT and row.vid not in first_exit:
                first_exit[row.vid] = row.t
        for vid, step_no in r.mission_steps.items():
            assert step_no == first_exit.get(vid)

    def test_terminal_snapshot_rows_carry_no_action(self, geom):
        # a censored run leaves everyone in place, so the final post-move
        # snapshot is written for all of them; snapshot rows have no action
        r = run_simulation(4, 11, geom, sim_params=SimParams(max_steps=5))
        for row in r.rows:
            assert (row.accel is None) == (row.t == r.n_steps)


class TestFollowerYields:
    def test_fast_follower_never_closes_below_diameter(self, geom):
        # seed 2 spawns vehicle 4 on vehicle 0's arm, 10 m behind and
        # 8 m/s faster; the game must brake it before the 4.5 m envelope
        params = SimParams(max_steps=200)
        r = run_simulation(5, 2, geom, sim_params=params)
        assert r.collision is None
        seen_pair = False
        for rows in rows_by_t(r).values():
            state = {row.vid: row for row in rows}
            if 0 in state and 4 in state:
                a, b = state[0], state[4]
                if a.status != Status.EXIT and b.status != Status.EXIT:
                    ax, ay = a.r * math.cos(a.theta), a.r * math.sin(a.theta)
                    bx, by = b.r * math.cos(b.theta), b.r * math.sin(b.theta)
                    assert math.hypot(ax - bx, ay - by) >= SP.vehicle_diameter
                    seen_pair = True
        assert seen_pair

    def test_min_distance_is_the_trace_minimum(self, geom):
        r = run_simulation(5, 2, geom, sim_params=SimParams(max_steps=200))
        best = math.inf
        for rows in rows_by_t(r).values():
            live = [row for row in rows if row.status != Status.EXIT]
            for i in range(len(live)):
                for j in range(i + 1, len(live)):
                    a, b = live[i], live[j]
                    d = math.hypot(a.r * math.cos(a.theta) - b.r * math.cos(b.theta),
                                   a.r * math.sin(a.theta) - b.r * math.sin(b.theta))
                    best = min(best, d)
        assert r.min_distance == pytest.approx(best)


class TestHelpers:
    def test_cruise_accel_takes_the_fastest_speed_within_the_limit(self):
        # v=12: -50 stops, -10 reaches 9.5, coasting keeps 12 > v_l = 11
        assert _cruise_accel(12.0, CP.v_l, SP.delta, DEFAULT_ACCELS) == -10.0
        assert _cruise_accel(CP.v_l, CP.v_l, SP.delta, DEFAULT_ACCELS) == 0.0  # at the limit
        assert _cruise_accel(0.0, CP.v_l, SP.delta, DEFAULT_ACCELS) == 30.0

    def test_cruise_accel_falls_back_to_the_lowest_speed(self):
        # v=30: no input gets to 11 in one step, and -50 ends slowest (17.5)
        assert _cruise_accel(30.0, CP.v_l, SP.delta, DEFAULT_ACCELS) == -50.0
        assert _cruise_accel(30.0, CP.v_l, SP.delta, (0.0, 10.0, 30.0)) == 0.0

    def test_min_pairwise_keeps_the_first_pair_on_a_tie(self):
        # on the x axis at 0, 1 and 2: pairs (0, 1) and (1, 2) are both 1 apart
        assert min_pairwise([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]) == (1.0, (0, 1))
        assert min_pairwise([(0.0, 0.0), (2.0, 0.0), (2.5, 0.0)]) == (0.5, (1, 2))

    def test_min_pairwise_of_fewer_than_two_positions(self):
        assert min_pairwise([]) == (math.inf, None)
        assert min_pairwise([(20.0, 1.0)]) == (math.inf, None)


class TestTermination:
    def test_runaway_strategies_collide_and_halt(self, geom):
        # an alphabet with no way to brake guarantees a merge crash
        games = GameParams(strategy_accels=(29.0, 30.0))
        r = run_simulation(8, 3, geom, game_params=games)
        assert r.collision is not None
        step_no, a, b = r.collision
        assert r.min_distance < SP.vehicle_diameter
        assert not r.censored
        assert max(row.t for row in r.rows) == step_no == r.n_steps

    def test_step_cap_marks_censoring(self, geom):
        r = run_simulation(6, 4, geom, sim_params=SimParams(max_steps=3))
        assert r.censored
        assert r.collision is None
        assert r.n_steps == 3
        assert any(s is None for s in r.mission_steps.values())

    def test_full_run_reproducible(self, geom):
        a = run_simulation(6, 21, geom)
        b = run_simulation(6, 21, geom)
        assert a == b


class TestDefaultEnvelope:
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="vehicle 2 (entering left at arm 2) and 5 (right turn leaving "
                       "at arm 2) meet at step 34 where their connectors cross")
    def test_crossing_connectors_do_not_collide(self, geom):
        for n in (7, 8):
            assert run_simulation(n, 500036, geom).collision is None, n
