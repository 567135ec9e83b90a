"""Observation windows, path/aggressiveness estimation, and decisions."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    decide_alone,
    pairs_with_reverse,
    reference_nearest_entry,
    reference_reestimate,
    rollout_request,
    table_rows,
)
from roundabout_sim import agent, sim
from roundabout_sim.agent import (
    AgentParams,
    AgentState,
    StepPrep,
    estimate_path,
    observe,
    update_estimates,
)
from roundabout_sim.cost import CostParams, pair_safety, pair_sides, speed_sums
from roundabout_sim.dynamics import Configuration, rollout, step
from roundabout_sim.game import GameParams
from roundabout_sim.geometry import (
    Maneuver,
    NavigationPath,
    PathKind,
    RoundaboutSpec,
    Status,
    build_roundabout,
)
from roundabout_sim.sim import SimParams, run_simulation

P = CostParams()
GP = GameParams()
AP = AgentParams()
SP = SimParams()
DELTA = SP.delta


@pytest.fixture(scope="module")
def geom():
    return build_roundabout(RoundaboutSpec())


def on_circle(theta, v=5.0, status=Status.INSIDE, r=20.0):
    """An observed configuration: a pose with no path coordinate."""
    return Configuration(r=r, theta=theta, v=v, status=status)


def posed(path, arclen, v=5.0):
    """A configuration bound to ``path`` at ``arclen``, posed as the simulator poses it."""
    rho, theta, status = path.pose(arclen)
    return Configuration(r=rho, theta=theta, v=v, status=status, arclen=arclen)


def fresh_state(vid=0, w=0.5, seed=0):
    return AgentState(vid=vid, w_agg=w, rng=np.random.default_rng(seed))


class TestObserve:
    def test_windows_two_ahead_one_behind(self, geom):
        configs = {
            0: on_circle(0.0),
            1: on_circle(0.3),   # ahead, nearest
            2: on_circle(0.6),   # ahead, second
            3: on_circle(0.9),   # ahead, third -> dropped
            4: on_circle(-0.4 % (2 * math.pi)),  # behind, nearest
            5: on_circle(-0.7 % (2 * math.pi)),  # behind, second -> dropped
        }
        obs = observe(0, configs, geom, P)
        assert sorted(obs) == [0, 1, 2, 4]

    def test_exited_vehicles_invisible(self, geom):
        configs = {
            0: on_circle(0.0),
            1: on_circle(0.3, status=Status.EXIT, r=22.0),
            2: on_circle(0.6),
        }
        obs = observe(0, configs, geom, P)
        assert sorted(obs) == [0, 2]

    def test_out_of_range_excluded(self, geom):
        # same-lane gap r_in * 1.6 = 32 m >= D = 30
        configs = {0: on_circle(0.0), 1: on_circle(1.6)}
        assert sorted(observe(0, configs, geom, P)) == [0]
        configs = {0: on_circle(0.0), 1: on_circle(1.4)}
        assert sorted(observe(0, configs, geom, P)) == [0, 1]

    def test_radial_offset_counts_against_range(self, geom):
        # nearly abreast in angle but far out on an approach lane:
        # hypot(20*0.05, 30.5) = 30.5 m >= D, hypot(20*0.05, 25) = 25 m < D
        far = {0: on_circle(0.0), 1: on_circle(0.05, status=Status.ENTER, r=50.5)}
        assert sorted(observe(0, far, geom, P)) == [0]
        near = {0: on_circle(0.0), 1: on_circle(0.05, status=Status.ENTER, r=45.0)}
        assert sorted(observe(0, near, geom, P)) == [0, 1]

    def test_neighbour_paths_hidden(self, geom):
        configs = {0: posed(geom.circle, 12.0), 1: posed(geom.circle, 7.0)}
        obs = observe(0, configs, geom, P)
        assert obs[0].arclen == 12.0      # ego knows its own path coordinate
        assert obs[1].arclen is None      # the neighbour's is not observable

class TestEstimatePath:
    def test_entering_vehicle_matched_to_entry_geometry(self, geom):
        path = geom.paths[PathKind(Maneuver.TURN_LEFT, 1)]
        rho, theta, status = path.pose(15.0)
        assert status == Status.ENTER
        cfg = Configuration(r=rho, theta=theta, v=5.0, status=status)
        hyp = estimate_path(cfg, geom)
        s = hyp.project(*cfg.xy())[0]
        hr, ht, _ = hyp.pose(s)
        assert math.hypot(hr * math.cos(ht) - cfg.xy()[0],
                          hr * math.sin(ht) - cfg.xy()[1]) < 1e-6

    def test_on_circle_assumed_to_circulate(self, geom):
        hyp = estimate_path(on_circle(1.0), geom)
        assert hyp.exit_arm is None
        r, _, status = hyp.pose(37.0)
        assert r == pytest.approx(20.0)
        assert status == Status.INSIDE

    def test_outward_drift_reads_as_exit_at_next_arm(self, geom):
        prev = on_circle(1.4, r=20.6)
        cur = on_circle(1.5, r=21.4)
        hyp = estimate_path(cur, geom, prev=prev)
        assert hyp.exit_arm is not None
        assert hyp.exit_arm == 1  # next arm ahead of theta=1.5 is pi/2... with grace
        r_end, _, st_end = hyp.pose(hyp.total_length)
        assert st_end == Status.EXIT and r_end > 20.0

    @pytest.mark.parametrize("n, seeds", [(8, range(42, 52)), (4, range(42, 62))])
    def test_nearest_entry_same_as_pose_rule(self, geom, monkeypatch, n, seeds):
        """Comparing ``project``'s own distances picks the hypothesis that re-posing picks."""
        fast = agent._nearest_entry
        calls = []

        def checked(observed, geometry):
            got = fast(observed, geometry)
            assert got is reference_nearest_entry(observed, geometry)
            calls.append(got)
            return got

        monkeypatch.setattr(agent, "_nearest_entry", checked)
        for seed in seeds:
            run_simulation(n, seed, geom)
        assert len(calls) > 100 and len({id(h) for h in calls}) > 4


    def test_repeated_position_served_without_a_second_scan(self, geom, monkeypatch):
        real_project = NavigationPath.project
        scanned = []

        def counting(path, x, y):
            scanned.append(path)
            return real_project(path, x, y)

        monkeypatch.setattr(NavigationPath, "project", counting)
        agent._nearest_entry_at.cache_clear()
        path = geom.paths[PathKind(Maneuver.TURN_LEFT, 1)]
        rho, theta, status = path.pose(15.0)
        n = len(geom.entry_hypotheses)
        first = estimate_path(Configuration(r=rho, theta=theta, v=5.0, status=status), geom)
        assert len(scanned) == n
        # another observer of the same position, at another speed: no second scan
        again = estimate_path(Configuration(r=rho, theta=theta, v=0.0, status=status), geom)
        assert again is first and len(scanned) == n
        # a geometry of an equal spec is another key, with its own hypotheses
        other = build_roundabout(RoundaboutSpec())
        hyp = estimate_path(Configuration(r=rho, theta=theta, v=5.0, status=status), other)
        assert hyp is not first and hyp in other.entry_hypotheses.values()
        assert len(scanned) == 2 * n
        # ever-new positions evict the oldest: the cache stays at its bound
        bound = agent._nearest_entry_at.cache_info().maxsize
        for k in range(2 * bound):
            rho, theta, _ = path.pose(0.1 + 0.25 * k)
            estimate_path(Configuration(r=rho, theta=theta, v=5.0, status=Status.ENTER), geom)
        info = agent._nearest_entry_at.cache_info()
        assert bound == 64 and info.currsize == bound
        assert len(scanned) == (2 + 2 * bound) * n


class TestUpdateEstimates:
    def test_new_neighbour_initialised(self, geom):
        state = fresh_state(vid=0)
        obs = {0: posed(geom.circle, 0.0), 1: on_circle(0.3)}
        update_estimates(state, obs, geom, P, AP, DELTA)
        assert state.w_hat == {1: 0.5}
        assert 1 in state.est_path
        assert state.prev_obs == {1: obs[1]}

    def test_estimate_kept_while_prediction_holds(self, geom):
        state = fresh_state(vid=0)
        obs = {0: posed(geom.circle, 0.0), 1: on_circle(0.3)}
        update_estimates(state, obs, geom, P, AP, DELTA)
        # pretend last step predicted exactly where the neighbour now is
        state.pred_xy[1] = obs[1].xy()
        update_estimates(state, obs, geom, P, AP, DELTA)
        assert state.w_hat[1] == 0.5

    def test_deviation_triggers_reestimate_onto_grid(self, geom):
        state = fresh_state(vid=0)
        circle = geom.circle
        obs0 = {0: posed(circle, 0.0), 1: on_circle(0.5, v=4.0)}
        update_estimates(state, obs0, geom, P, AP, DELTA)
        decide_alone(state, obs0, circle, geom, P, GP, AP, DELTA)
        # neighbour shows up somewhere else entirely, moving faster
        obs1 = {0: posed(circle, 1.0), 1: on_circle(0.8, v=9.0)}
        update_estimates(state, obs1, geom, P, AP, DELTA)
        assert state.w_hat[1] in AP.w_grid


class TestReestimateOracle:
    """One batched solve per re-estimation picks the weight the 9-solve loop picks."""

    @pytest.mark.parametrize("true_weight", [False, True])
    def test_replayed_two_player_games(self, geom, true_weight):
        ap = AgentParams(estimator_ego_uses_true_weight=true_weight)
        rng = np.random.default_rng(int(true_weight))
        circle = geom.circle
        picked = set()
        for trial in range(60):
            ego_id, j = (0, 1) if trial % 2 else (5, 2)
            state = fresh_state(vid=ego_id, w=float(rng.choice([0.2, 0.5, 0.8])))
            w_j = float(rng.choice(ap.w_grid))
            ego_s = float(rng.uniform(0.0, 100.0))
            obs = {ego_id: posed(circle, ego_s, v=float(rng.uniform(0.0, 12.0))),
                   j: on_circle(ego_s / geom.r_in + float(rng.uniform(-0.8, 0.8)),
                                v=float(rng.uniform(0.0, 12.0)))}
            update_estimates(state, obs, geom, P, ap, DELTA)
            state.w_hat[j] = w_j
            decide_alone(state, obs, circle, geom, P, GP, ap, DELTA)
            seen = obs[j]
            for v_now in (0.0, seen.v - 2.5, seen.v, seen.v + 0.5, seen.v + 7.5):
                now = on_circle(seen.theta, v=max(v_now, 0.0))
                got = agent._reestimate(state, j, now, P, ap, DELTA)
                assert got == reference_reestimate(state, j, now, P, ap, DELTA, geom.r_in)
                picked.add(got)
        assert len(picked) > 1

    @pytest.mark.parametrize("true_weight", [False, True])
    def test_every_reestimate_of_a_run(self, geom, monkeypatch, true_weight):
        ap = AgentParams(estimator_ego_uses_true_weight=true_weight)
        batched = agent._reestimate
        calls = []

        def checked(state, j, obs_j, cost_params, agent_params, delta):
            got = batched(state, j, obs_j, cost_params, agent_params, delta)
            assert got == reference_reestimate(state, j, obs_j, cost_params,
                                               agent_params, delta, geom.r_in)
            calls.append(got)
            return got

        monkeypatch.setattr(agent, "_reestimate", checked)
        run_simulation(6, 11, geom, P, GP, ap, SimParams())
        assert len(calls) > 10

    @pytest.mark.parametrize("seed", [42, 43, 44])
    def test_frozen_rows_equal_the_game_priced_from_scratch(self, geom, monkeypatch, seed):
        # every re-estimation of an n=8 run: the weight fitted on the frozen speed
        # and pair rows equals the fit on the two-player game priced afresh, both
        # by the package's kernels and by the reference
        batched = agent._reestimate
        calls = []

        def checked(state, j, obs_j, cost_params, agent_params, delta):
            got = batched(state, j, obs_j, cost_params, agent_params, delta)
            keys, slots, _ = state.prep.games[state.vid]
            ids = sorted((state.vid, j))
            two = table_rows(state.prep.table, [slots[list(keys).index(v)] for v in ids])
            sides = pair_sides(two, *pairs_with_reverse(2), cost_params, geom.r_in)
            alone = StepPrep(two, {state.vid: ({v: keys[v] for v in ids}, [0, 1], [0, 1])},
                             speed_sums(two, cost_params), sides,
                             pair_safety(sides, cost_params))
            assert got == batched(replace(state, prep=alone), j, obs_j, cost_params,
                                  agent_params, delta)
            assert got == reference_reestimate(state, j, obs_j, cost_params,
                                               agent_params, delta, geom.r_in)
            calls.append(len(keys))
            return got

        monkeypatch.setattr(agent, "_reestimate", checked)
        run_simulation(8, seed, geom)
        assert len(calls) > 50 and max(calls) >= 3


class TestFrozenGame:
    """``state.prep`` holds the game just played; preparing the step as a whole only saves work."""

    def test_frozen_rollouts_equal_fresh_ones(self, geom, monkeypatch):
        real_step, real_decide = sim.prepare_step, sim.decide
        ego_paths = {}
        players = []

        def staged(views, *args):
            ego_paths.update((state.vid, path) for state, _, path in views)
            return real_step(views, *args)

        def checked(state, obs, prep, cost_params, game_params, agent_params):
            d = real_decide(state, obs, prep, cost_params, game_params, agent_params)
            keys, slots, rows = state.prep.games[state.vid]
            ids = sorted(d.profile)
            assert list(keys) == ids and sorted(state.order) == ids
            game = table_rows(state.prep.table, slots)
            # the game's row k of the step's table is player ids[k]'s rollout, rolled out alone
            for k, vid in enumerate(ids):
                c = obs[vid]
                if vid == state.vid:
                    path, s = ego_paths[vid], c.arclen
                else:
                    path = state.est_path[vid]
                    s = path.project(*c.xy())[0]
                fresh = rollout([rollout_request(path, s, c.v, c.status)],
                                game_params.strategy_accels, game_params.horizon, SP.delta,
                                SP.vehicle_diameter)
                for name in ("theta", "rho", "v", "status"):
                    got, want = getattr(game, name)[k], getattr(fresh, name)[0]
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (vid, name)
            # the game's rows of the step's one call of each kernel price it as if alone
            speed, alone = state.prep.speed[slots], speed_sums(game, cost_params)
            assert speed.shape == alone.shape and speed.tobytes() == alone.tobytes()
            sides = state.prep.sides[:, :, rows]
            alone = pair_sides(game, *pairs_with_reverse(len(ids)), cost_params, geom.r_in)
            assert sides.shape == alone.shape  # no pair rows for one player
            assert sides.tobytes() == alone.tobytes()
            safe, alone = state.prep.safe[rows], pair_safety(alone, cost_params)
            assert safe.shape == alone.shape and safe.tobytes() == alone.tobytes()
            players.append(len(ids))
            return d

        monkeypatch.setattr(sim, "prepare_step", staged)
        monkeypatch.setattr(sim, "decide", checked)
        run_simulation(6, 11, geom, P, GP, AP, SP)
        assert len(players) > 100 and max(players) >= 3 and min(players) == 1

    def test_predictions_are_the_tables_stage_one_poses(self, geom, monkeypatch):
        # each neighbour's predicted position is its row's stage-1 pose under its
        # equilibrium strategy, and agrees with stepping it alone to well under a nanometre
        real_decide = sim.decide
        predicted, ulps = [], []

        def checked(state, obs, prep, *args):
            d = real_decide(state, obs, prep, *args)
            keys, slots, _ = prep.games[state.vid]
            assert set(state.pred_xy) == set(keys) - {state.vid}
            for (vid, (path, c)), k in zip(keys.items(), slots):
                if vid == state.vid:
                    continue
                i = d.profile[vid]
                r, th = float(prep.table.rho[k, i, 1]), float(prep.table.theta[k, i, 1])
                assert state.pred_xy[vid] == (r * math.cos(th), r * math.sin(th))
                x = Configuration(c.r, c.theta, c.v, c.status, path.project(*c.xy())[0])
                want = step(x, GP.strategy_accels[i], SP.delta, path).xy()
                assert math.dist(state.pred_xy[vid], want) <= 1e-9
                predicted.append(vid)
                ulps.append(state.pred_xy[vid] != want)
            return d

        monkeypatch.setattr(sim, "decide", checked)
        for n, seed in ((8, 42), (4, 43), (6, 11)):
            run_simulation(n, seed, geom)
        assert len(predicted) > 500
        assert not all(ulps)  # most predictions are bit-identical to the scalar step

    def test_staged_step_equals_each_decision_prepared_alone(self, geom, monkeypatch):
        real_rollout, real_decide, real_step = agent.rollout, sim.decide, sim.prepare_step
        requests = []

        def counting(batch, *args):
            requests.append(len(batch))
            return real_rollout(batch, *args)

        def runs():
            requests.clear()
            return [run_simulation(8, seed, geom).rows for seed in (42, 43, 44)], sum(requests)

        monkeypatch.setattr(agent, "rollout", counting)
        staged_rows, staged_requests = runs()
        # every decision rolls out and prices its own game, prepared for its view alone
        monkeypatch.setattr(sim, "prepare_step", lambda views, *args: {
            view[0].vid: real_step([view], *args) for view in views})
        monkeypatch.setattr(sim, "decide", lambda state, obs, prep, *args: real_decide(
            state, obs, prep[state.vid], *args))
        alone_rows, alone_requests = runs()
        assert staged_rows == alone_rows
        assert any(row.pred for row in staged_rows[0])
        assert staged_requests < alone_requests


def negotiating_steps(seeds, geom):
    """Steps with a vehicle entering or inside, over n=8 runs of ``seeds``, and all steps."""
    results = [run_simulation(8, seed, geom) for seed in seeds]
    negotiating = sum(len({row.t for row in r.rows
                           if row.accel is not None and row.status != Status.EXIT})
                      for r in results)
    return negotiating, sum(r.n_steps for r in results)


class TestStagedStep:
    def test_one_rollout_call_and_one_pose_batch_per_step(self, geom, monkeypatch):
        real_rollout, real_step = agent.rollout, sim.prepare_step
        real_pose_batch = NavigationPath.pose_batch
        posed = []      # the paths of each pose_batch call, per rollout call
        per_step = []   # rollout calls made by each step's pass 2

        def counting(*args):
            posed.append([])
            return real_rollout(*args)

        def pose_batch(paths, which, arclens):
            posed[-1].append(list(paths))
            return real_pose_batch(paths, which, arclens)

        def staged(*args):
            before = len(posed)
            prep = real_step(*args)
            per_step.append(len(posed) - before)
            return prep

        monkeypatch.setattr(agent, "rollout", counting)
        monkeypatch.setattr(NavigationPath, "pose_batch", pose_batch)
        monkeypatch.setattr(sim, "prepare_step", staged)
        steps, all_steps = negotiating_steps((42, 43, 44), geom)
        assert steps < all_steps  # a step where nobody negotiates prepares nothing
        assert len(per_step) == steps and set(per_step) == {1}
        assert sum(per_step) == len(posed)  # decisions roll nothing out themselves
        assert all(len(calls) == 1 and len(calls[0]) == len(set(calls[0])) for calls in posed)
        assert max(len(calls[0]) for calls in posed) > 1  # one call serves several paths

    def test_one_pair_kernel_call_per_paired_step_and_one_pricing_per_game(self, geom,
                                                                           monkeypatch):
        # the call shape the traced benchmark pins: pairs and speed rows are priced
        # only while a step is prepared, pairs once per step that holds a pair and not
        # at all on a step of one-player games, speed rows once per step; payoff_tensors
        # and then tensor_equilibrium run once per decision with that game's K speed rows
        # and K cost tensors, one-player games included, and once per re-estimation with 2
        real_sides, real_payoff = agent.pair_sides, agent.payoff_tensors
        real_solve = agent.tensor_equilibrium
        real_speed = agent.speed_sums
        real_prep, real_update, real_decide = sim.prepare_step, sim.update_estimates, sim.decide
        real_reestimate = agent._reestimate
        stack = ["run"]   # the pass we are in
        kernel = []       # the pass of each pair-kernel call
        per_step = []     # (holds a pair, pair-kernel calls) of each step's preparation
        speed_passes = [] # the pass of each speed_sums call
        priced = []       # (pass, K) of each payoff_tensors call
        solved = []       # (pass, shape of the costs) of each tensor_equilibrium call
        shapes = []       # (K of each payoff_tensors call made, K of each solve, game's K)
                          # per decision or re-estimation

        def within(name, real, record=None):
            def wrapped(*args):
                stack.append(name)
                before, solves = len(priced), len(solved)
                try:
                    out = real(*args)
                finally:
                    stack.pop()
                if record:
                    shapes.append(([k for _, k in priced[before:]],
                                   [shape[0] for _, shape in solved[solves:]], record(out)))
                return out
            return wrapped

        monkeypatch.setattr(agent, "pair_sides",
                            lambda *args: kernel.append(stack[-1]) or real_sides(*args))
        monkeypatch.setattr(agent, "speed_sums",
                            lambda *args: speed_passes.append(stack[-1]) or real_speed(*args))
        monkeypatch.setattr(agent, "payoff_tensors",
                            lambda speed, *args: priced.append((stack[-1], len(speed)))
                            or real_payoff(speed, *args))
        monkeypatch.setattr(agent, "tensor_equilibrium",
                            lambda costs, *args: solved.append((stack[-1], np.shape(costs)))
                            or real_solve(costs, *args))
        def staged(*args):
            before = len(kernel)
            prep = within("prepare", real_prep)(*args)
            paired = any(rows for _, _, rows in prep.games.values())
            if not paired:  # an empty table of the kernel's shape
                S = len(GP.strategy_accels)
                assert prep.sides.shape == (2, 2, 0, S, S, GP.horizon)
                assert prep.safe.shape == (0, S, S)
            per_step.append((paired, len(kernel) - before))
            return prep

        monkeypatch.setattr(sim, "prepare_step", staged)
        monkeypatch.setattr(sim, "update_estimates", within("update", real_update))
        monkeypatch.setattr(sim, "decide",
                            within("decide", real_decide, lambda d: len(d.profile)))
        monkeypatch.setattr(agent, "_reestimate",
                            within("reestimate", real_reestimate, lambda w: 2))
        steps, _ = negotiating_steps((42, 43, 44), geom)
        assert len(per_step) == steps and set(per_step) == {(True, 1), (False, 0)}
        assert set(kernel) == {"prepare"}  # none under update_estimates or decide
        assert speed_passes == ["prepare"] * steps
        assert {p for p, _ in priced} == {"decide", "reestimate"}
        decisions = sum(p == "decide" for p, _ in priced)
        reestimates = sum(p == "reestimate" for p, _ in priced)
        assert decisions > 1000 and reestimates > 100
        assert len(shapes) == decisions + reestimates
        assert all(ks == [k] and solves == [k] for ks, solves, k in shapes)
        assert {k for ks, _, _ in shapes for k in ks} == {1, 2, 3, 4}
        # one-player games keep both calls, each on one row: the benchmark counts games by them
        S = len(GP.strategy_accels)
        assert [p for p, _ in solved] == [p for p, _ in priced]
        assert sum(k == 1 for _, k in priced) > 100
        assert all(shape == (1, S) for (_, k), (_, shape) in zip(priced, solved) if k == 1)


class TestDecide:
    def test_lone_slow_vehicle_floors_it(self, geom):
        state = fresh_state(vid=3)
        obs = {3: posed(geom.circle, 40.0, v=1.0)}
        update_estimates(state, obs, geom, P, AP, DELTA)
        d = decide_alone(state, obs, geom.circle, geom, P, GP, AP, DELTA)
        assert d.accel == 30.0
        assert not d.override
        assert state.order == (3,)

    def test_deterministic_given_equal_state(self, geom):
        obs = {0: posed(geom.circle, 0.0, v=6.0),
               1: on_circle(0.4, v=3.0),
               2: on_circle(5.9, v=7.0)}
        results = []
        for _ in range(2):
            state = fresh_state(vid=0, seed=7)
            update_estimates(state, obs, geom, P, AP, DELTA)
            results.append(decide_alone(state, dict(obs), geom.circle,
                                        geom, P, GP, AP, DELTA))
        assert results[0] == results[1]

    def test_player_cap_keeps_angular_nearest(self, geom):
        obs = {0: posed(geom.circle, 0.0),
               1: on_circle(0.2), 2: on_circle(0.5), 3: on_circle(1.1),
               4: on_circle(6.0)}
        state = fresh_state(vid=0)
        update_estimates(state, obs, geom, P, AP, DELTA)
        d = decide_alone(state, obs, geom.circle, geom, P, GP, AP, DELTA)
        # cap 4: ego + gaps 0.2, 0.28 (ccw 6.0), 0.5; vehicle 3 is trimmed
        assert sorted(d.weights) == [0, 1, 2, 4]
        assert sorted(d.profile) == [0, 1, 2, 4]

    def test_ego_plays_true_weight_neighbours_estimates(self, geom):
        state = fresh_state(vid=0, w=0.7)
        obs = {0: posed(geom.circle, 0.0), 1: on_circle(0.4)}
        update_estimates(state, obs, geom, P, AP, DELTA)
        state.w_hat[1] = 0.2
        d = decide_alone(state, obs, geom.circle, geom, P, GP, AP, DELTA)
        assert d.weights == {0: 0.7, 1: 0.2}
        assert state.order == (0, 1)  # higher weight decides first

    def test_replay_snapshot_frozen(self, geom):
        state = fresh_state(vid=0)
        obs = {0: posed(geom.circle, 0.0, v=6.0), 1: on_circle(0.4, v=3.0)}
        update_estimates(state, obs, geom, P, AP, DELTA)
        decide_alone(state, obs, geom.circle, geom, P, GP, AP, DELTA)
        # the game's rows of the step's table, in id order
        keys, slots, _ = state.prep.games[0]
        game = table_rows(state.prep.table, slots)
        assert list(keys) == [0, 1] and game.v[0, 0, 0] == 6.0 and game.v[1, 0, 0] == 3.0
        assert set(state.pred_xy) == {1}
        assert sorted(state.order) == [0, 1]


class TestDeadlockOverride:
    def stopped_obs(self, ego_status=Status.INSIDE, other_status=Status.INSIDE):
        ego = Configuration(r=20.0, theta=0.0, v=0.0, status=ego_status, arclen=10.0)
        other = Configuration(r=20.0, theta=0.4, v=0.0, status=other_status)
        return {0: ego, 1: other}

    def test_coin_decides_and_is_consumed(self, geom):
        for seed in range(6):
            state = fresh_state(vid=0, seed=seed)
            twin = np.random.default_rng(seed)
            obs = self.stopped_obs()
            update_estimates(state, obs, geom, P, AP, DELTA)
            d = decide_alone(state, obs, geom.circle, geom, P, GP, AP, DELTA)
            assert d.override == (twin.random() < AP.deadlock_prob)
            if d.override:
                assert d.accel == AP.deadlock_accel
            # exactly one draw was consumed either way
            assert state.rng.random() == twin.random()

    def test_entering_vehicle_yields_to_circulating(self, geom):
        # seed 2 wins its coin flip, but an entering ego must keep waiting
        state = fresh_state(vid=0, seed=2)
        assert np.random.default_rng(2).random() < AP.deadlock_prob
        obs = self.stopped_obs(ego_status=Status.ENTER)
        update_estimates(state, obs, geom, P, AP, DELTA)
        path = geom.paths[PathKind(Maneuver.GO_STRAIGHT, 0)]
        d = decide_alone(state, obs, path, geom, P, GP, AP, DELTA)
        assert not d.override
        # the draw still happened, keeping streams aligned across branches
        assert state.rng.random() == np.random.default_rng(2).random(2)[1]

    def test_no_draw_while_anyone_moves(self, geom):
        state = fresh_state(vid=0, seed=2)
        obs = self.stopped_obs()
        obs[1] = Configuration(r=20.0, theta=0.4, v=2.0, status=Status.INSIDE)
        update_estimates(state, obs, geom, P, AP, DELTA)
        decide_alone(state, obs, geom.circle, geom, P, GP, AP, DELTA)
        assert state.rng.random() == np.random.default_rng(2).random()
