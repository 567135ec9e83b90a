"""Stage-cost functions: worked values, invariants, tensor coherence."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    beta,
    build_strategies,
    front_back,
    pair_distance,
    pairs_with_reverse,
    phi_back,
    phi_front,
    phi_safe,
    phi_speed,
    reference_payoff_tensors,
    reference_tensor_equilibrium,
    rollout_request,
    step_cost,
    table_rows,
)
from roundabout_sim.agent import DEFAULT_W_GRID
from roundabout_sim.cost import (
    CostParams,
    _joint_index,
    _nearest_safe,
    horizon_weights,
    pair_order,
    pair_safety,
    pair_sides,
    payoff_tensors,
    speed_sums,
)
from roundabout_sim.dynamics import Configuration, Rollout, rollout, step
from roundabout_sim.game import DEFAULT_ACCELS, tensor_equilibrium
from roundabout_sim.geometry import Maneuver, PathKind, RoundaboutSpec, Status, build_roundabout
from roundabout_sim.sim import W_CHOICES

P = CostParams()


@pytest.fixture(scope="module")
def geom():
    return build_roundabout(RoundaboutSpec())


def stack(trajs):
    """One rollout table whose rows are ``trajs``, each one vehicle's ``(S, h)`` rollout."""
    return Rollout(*(np.stack([getattr(t, name) for t in trajs])
                     for name in ("theta", "rho", "v", "status")))


def game_pairs(table, params, r_in):
    """A game's pair rows as ``payoff_tensors`` reads them: ``pair_safety`` of the two ordered
    pairs of a two-player game, ``pair_sides`` of every ordered pair of a larger one."""
    sides = pair_sides(table, *pairs_with_reverse(len(table.theta)), params, r_in)
    return pair_safety(sides, params) if len(table.theta) == 2 else sides


def priced(trajs, w, params, r_in):
    """``payoff_tensors`` of one game, its speed rows and pairs priced by the package's kernels."""
    table = stack(trajs)
    return payoff_tensors(speed_sums(table, params), w, game_pairs(table, params, r_in), params)


def cfg(r=20.0, theta=0.0, v=8.0, status=Status.INSIDE, arclen=None):
    return Configuration(r=r, theta=theta, v=v, status=status, arclen=arclen)


class TestParams:
    def test_defaults_valid(self):
        CostParams()

    @pytest.mark.parametrize("bad", [
        dict(lam=0.0), dict(lam=1.0), dict(C=-1.0),
        dict(D_c=11.0),           # violates D_c < D_en
        dict(D_en=31.0),          # violates D_en < D
        dict(C_ins=15.0),         # violates C_ins < C
        dict(C_o=5.0),            # overspeed must dominate
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            CostParams(**bad)


class TestStageCosts:
    def test_beta_wall_closed_at_threshold(self):
        assert beta(6.0, 6.0, P) == P.E_inf
        assert beta(6.000001, 6.0, P) == 0.0

    def test_phi_front_worked_values(self):
        assert phi_front(Status.INSIDE, Status.ENTER, 20.0, P) == pytest.approx(100.0)
        assert phi_front(Status.ENTER, Status.INSIDE, 12.0, P) == pytest.approx(3240.0)
        assert phi_front(Status.INSIDE, Status.INSIDE, 5.0, P) == pytest.approx(6250.0 + 1e12)
        assert phi_front(Status.INSIDE, None, None, P) == 0.0

    def test_merge_wall_engages_inside_comfort_distance(self):
        # an entering vehicle 9 m behind circulating traffic hits the merge wall
        assert phi_front(Status.ENTER, Status.INSIDE, 9.0, P) >= P.E_inf
        assert phi_front(Status.ENTER, Status.INSIDE, 10.5, P) < P.E_inf

    def test_phi_back_mirrors_front(self):
        assert phi_back(Status.INSIDE, Status.ENTER, 20.0, P) == pytest.approx(100.0)
        assert phi_back(Status.ENTER, Status.INSIDE, 8.0, P) == pytest.approx(
            10.0 * 22.0 ** 2 + 1e12)
        assert phi_back(Status.INSIDE, None, None, P) == 0.0

    def test_phi_speed_worked_values(self):
        assert phi_speed(5.0, Status.ENTER, P) == pytest.approx(36.0)
        assert phi_speed(12.0, Status.INSIDE, P) == pytest.approx(1000.0)
        assert phi_speed(5.0, Status.INSIDE, P) == pytest.approx(360.0)
        assert phi_speed(11.0, Status.INSIDE, P) == 0.0
        assert phi_speed(5.0, Status.EXIT, P) == pytest.approx(360.0)  # != enter

    def test_step_cost_blend(self):
        assert step_cost(0.5, 100.0, 36.0) == pytest.approx(68.0)
        assert step_cost(0.0, 100.0, 36.0) == 100.0
        assert step_cost(1.0, 100.0, 36.0) == 36.0
        with pytest.raises(ValueError):
            step_cost(1.2, 1.0, 1.0)

    def test_phi_safe_takes_worse_side(self):
        assert phi_safe(10.0, 30.0) == 30.0

    def test_discount_weights(self):
        w = horizon_weights(0.8, 4)
        assert w == pytest.approx([1.0, 0.8, 0.64, 0.512])
        assert w.sum() == pytest.approx(2.952)

    @given(v=st.floats(0.0, 10.99), status=st.sampled_from(list(Status)))
    def test_dawdling_never_beats_overspeed_coefficient(self, v, status):
        slow = phi_speed(v, status, P)
        fast = phi_speed(22.0 - v, status, P)  # same |v_l - v| overspeed
        assert fast >= slow


class TestPairDistance:
    def test_pure_arc_on_circle(self, geom):
        a = cfg(theta=0.0)
        b = cfg(theta=0.5)
        assert pair_distance(a, b, geom) == pytest.approx(10.0)

    def test_same_lane_queue_measures_radial_spacing(self, geom):
        a = cfg(r=30.0, theta=0.01)
        b = cfg(r=40.0, theta=0.01)
        assert pair_distance(a, b, geom) == pytest.approx(10.0)

    def test_directional(self, geom):
        a = cfg(theta=0.0)
        b = cfg(theta=0.5)
        assert pair_distance(b, a, geom) == pytest.approx(geom.r_in * (2 * math.pi - 0.5))


class TestFrontBack:
    def test_selection_by_angular_gap(self, geom):
        ego = cfg(theta=0.0)
        others = {
            1: cfg(theta=0.6),     # ahead, 12 m
            2: cfg(theta=0.3),     # ahead, 6 m  -> front
            3: cfg(theta=-0.25),   # behind, 5 m -> back
            4: cfg(theta=-0.9),    # behind, 18 m
        }
        front, back = front_back(ego, others, geom, P)
        assert front == (2, pytest.approx(6.0))
        assert back == (3, pytest.approx(5.0))

    def test_interaction_range_filters(self, geom):
        ego = cfg(theta=0.0)
        others = {1: cfg(theta=1.6)}  # 32 m ahead, beyond D
        front, back = front_back(ego, others, geom, P)
        assert front is None and back is None

    def test_radial_offset_can_push_out_of_range(self, geom):
        ego = cfg(theta=0.0, r=20.0)
        others = {1: cfg(theta=1.4, r=31.0)}  # hypot(28, 11) = 30.1 m
        front, back = front_back(ego, others, geom, P)
        assert front is None

    def test_tie_goes_to_lower_id(self, geom):
        ego = cfg(theta=0.0)
        others = {7: cfg(theta=0.4), 3: cfg(theta=0.4)}
        front, _ = front_back(ego, others, geom, P)
        assert front[0] == 3

    def test_coincident_vehicle_is_front_not_back(self, geom):
        ego = cfg(theta=1.0)
        others = {1: cfg(theta=1.0)}
        front, back = front_back(ego, others, geom, P)
        assert front == (1, 0.0)
        assert back is None

    @given(gap=st.floats(1e-6, 2 * math.pi - 1e-6))
    @settings(max_examples=80)
    def test_windows_partition(self, gap):
        geom = build_roundabout(RoundaboutSpec())
        ego = cfg(theta=0.0)
        others = {1: cfg(theta=gap)}
        front, back = front_back(ego, others, geom, P)
        arc = geom.r_in * min(gap, 2 * math.pi - gap)
        if arc >= P.D:
            assert front is None and back is None
        elif gap <= math.pi:
            assert front is not None and back is None
        else:
            assert back is not None and front is None


def scalar_profile_cost(paths, starts, accel_seqs, w, geom, params, delta, horizon):
    """Reference evaluation: iterate scalar steps, select neighbours, discount."""
    K = len(paths)
    configs = []
    for path, (s0, v0, st0) in zip(paths, starts):
        rho, theta, _ = path.pose(s0)
        configs.append(Configuration(r=rho, theta=theta, v=v0, status=st0, arclen=s0))
    totals = [0.0] * K
    for tau in range(horizon):
        if tau > 0:
            configs = [step(c, accel_seqs[k][tau - 1], delta, paths[k])
                       for k, c in enumerate(configs)]
        for k in range(K):
            others = {j: configs[j] for j in range(K) if j != k}
            front, back = front_back(configs[k], others, geom, params)
            fc = phi_front(configs[k].status, configs[front[0]].status if front else None,
                           front[1] if front else None, params)
            bc = phi_back(configs[k].status, configs[back[0]].status if back else None,
                          back[1] if back else None, params)
            safe = phi_safe(fc, bc)
            speed = phi_speed(configs[k].v, configs[k].status, params)
            totals[k] += params.lam ** tau * step_cost(w[k], safe, speed)
    return totals


class TestPayoffTensors:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_reference(self, data):
        geom = build_roundabout(RoundaboutSpec())
        params = CostParams()
        delta = 0.25
        horizon = data.draw(st.sampled_from([2, 4, 9]))  # 9 or more reach the pairwise sum
        strategies = build_strategies(horizon=horizon)
        K = data.draw(st.integers(1, 3))
        circle = geom.circle
        entry = geom.entry_hypotheses[PathKind(Maneuver.GO_STRAIGHT, 0)]
        paths, starts, trajs, w = [], [], [], []
        for k in range(K):
            path = data.draw(st.sampled_from([circle, entry]))
            s0 = data.draw(st.floats(0.0, 80.0))
            v0 = data.draw(st.floats(0.0, 12.0))
            rho0, _, _ = path.pose(s0)
            st0 = Status.ENTER if rho0 > geom.r_in + 4.5 else Status.INSIDE
            paths.append(path)
            starts.append((s0, v0, st0))
            trajs.append(table_rows(rollout([rollout_request(path, s0, v0, st0)],
                                            DEFAULT_ACCELS, horizon, delta), 0))
            w.append(data.draw(st.sampled_from([0.1, 0.5, 0.9])))
        costs = priced(trajs, w, params, geom.r_in)
        # w = 0 and w = 1 read the safety and speed terms out exactly
        safe = priced(trajs, [0.0] * K, params, geom.r_in)
        speed = priced(trajs, [1.0] * K, params, geom.r_in)
        profile = tuple(data.draw(st.integers(0, len(strategies) - 1)) for _ in range(K))
        ref = scalar_profile_cost(paths, starts,
                                  [strategies[i] for i in profile],
                                  w, geom, params, delta, horizon)
        for k in range(K):
            got = costs[k][profile]
            assert got == pytest.approx(ref[k], rel=1e-9, abs=1e-6)
            blend = (1 - w[k]) * safe[k][profile] + w[k] * speed[k][profile]
            assert blend == pytest.approx(got, rel=1e-12, abs=1e-9)


class TestRolloutCoherence:
    @given(v0=st.floats(0.0, 14.0), s0=st.floats(0.0, 100.0))
    @settings(max_examples=50)
    def test_rollout_columns_equal_iterated_step(self, v0, s0):
        geom = build_roundabout(RoundaboutSpec())
        path = geom.entry_hypotheses[PathKind(Maneuver.TURN_LEFT, 1)]
        strategies = build_strategies(horizon=4)
        rho0, theta0, _ = path.pose(s0)
        st0 = Status.ENTER if rho0 > geom.r_in + 4.5 else Status.INSIDE
        R = table_rows(rollout([rollout_request(path, s0, v0, st0)], DEFAULT_ACCELS, 4, 0.25), 0)
        for i, seq in enumerate(strategies):
            c = Configuration(r=rho0, theta=theta0, v=v0, status=st0, arclen=s0)
            for tau in range(1, 4):
                c = step(c, seq[tau - 1], 0.25, path)
                assert R.v[i, tau] == c.v
                assert R.status[i, tau] == int(c.status)
                assert R.theta[i, tau] == pytest.approx(c.theta, abs=1e-12)
                assert R.rho[i, tau] == pytest.approx(c.r, rel=1e-12)


def rollout_pool(geom, horizon, delta=0.25):
    """Rollouts on circle, entry and exit hypotheses, several with EXIT stages."""
    thr = geom.r_in + 4.5
    lap = 2 * math.pi * geom.r_in
    starts = []
    circle = geom.circle
    starts += [(circle, s0, v0) for s0 in (0.0, 3.0, 9.5, 20.0, lap - 1.0)
               for v0 in (0.0, 6.0, 11.5)]
    for arm in range(geom.spec.ways):
        entry = geom.entry_hypotheses[PathKind(list(Maneuver)[arm % 3], arm)]
        starts += [(entry, s0, v0) for s0 in (0.0, 12.0, 25.0, 40.0) for v0 in (2.0, 9.0)]
        exit_ = geom.exit_hypotheses[arm]
        starts += [(exit_, s0, v0) for s0 in (lap - 6.0, lap + 2.0, lap + 8.0, lap + 25.0)
                   for v0 in (4.0, 13.0)]
    pool = []
    for path, s0, v0 in starts:
        rho0, _, label = path.pose(s0)
        st0 = Status.ENTER if label == Status.ENTER else (
            Status.EXIT if label == Status.EXIT and rho0 > thr else Status.INSIDE)
        pool.append(table_rows(rollout([rollout_request(path, s0, v0, st0)], DEFAULT_ACCELS,
                                       horizon, delta), 0))
    return pool


class TestPayoffTensorsBitIdentity:
    """Pair-space costs equal the per-pair joint-space reference bit for bit."""

    @staticmethod
    def assert_same(trajs, w, params, r_in):
        # the reference returns (costs, safe, speed); w = 0 and w = 1 read the
        # safety and speed terms out exactly, since every safety cost is finite
        K = len(trajs)
        got = [priced(trajs, wk, params, r_in) for wk in (w, [0.0] * K, [1.0] * K)]
        want = reference_payoff_tensors(trajs, w, params, r_in)
        for g, r in zip(got, want):
            assert len(g) == len(r) == len(trajs)
            for a, b in zip(g, r):
                assert a.shape == b.shape
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("horizon", [2, 4, 9])
    def test_random_games(self, geom, horizon):
        pool = rollout_pool(geom, horizon)
        codes = np.concatenate([t.status.ravel() for t in pool])
        assert {int(s) for s in Status} <= set(codes.tolist())
        rng = np.random.default_rng(horizon)
        params = CostParams()
        # game sizes in shuffled order, so the kernel's per-shape buffers alternate
        for K in rng.permutation(np.repeat([1, 2, 3, 4], 60)).tolist():
            picks = rng.integers(0, len(pool), size=K)
            if K > 1 and rng.random() < 0.3:
                picks[-1] = picks[0]  # coincident vehicles: gap exactly 0
            w = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0], size=K).tolist()
            self.assert_same([pool[i] for i in picks], w, params, geom.r_in)

    def test_ring_neighbourhoods(self, geom):
        # dense same-path traffic: every window, range and wall branch fires
        circle = geom.circle
        entry = geom.entry_hypotheses[PathKind(Maneuver.GO_STRAIGHT, 0)]
        params = CostParams()
        for horizon, offsets, path in itertools.product(
                (2, 4, 9), [(0.0, 0.0), (0.0, 4.0, 8.0), (0.0, 5.9, 6.0, 6.1),
                            (0.0, 30.0, 60.0, 90.0), (0.0, 0.0, 3.0, 3.0)], (circle, entry)):
            trajs = [table_rows(rollout([rollout_request(path, 10.0 + o, 7.0,
                                                         path.pose(10.0 + o)[2])],
                                        DEFAULT_ACCELS, horizon, 0.25), 0) for o in offsets]
            self.assert_same(trajs, [0.5] * len(trajs), params, geom.r_in)

    @pytest.mark.parametrize("horizon", [2, 4, 9])
    def test_exact_ties_and_window_edges(self, geom, horizon):
        # states drawn from small sets: equal gaps to different neighbours,
        # gaps of exactly 0 and pi, and every status pair; a gap of pi is
        # within range D only on a small ring
        rng = np.random.default_rng(100 + horizon)
        angles = np.array([0.0, 0.3, 0.6, math.pi, 2 * math.pi - 0.3])
        radii = np.array([geom.r_in, geom.r_in + 4.0, geom.r_in + 10.0])
        params = CostParams()

        def bundle():
            shape = (5, horizon)
            return Rollout(theta=rng.choice(angles, size=shape), rho=rng.choice(radii, size=shape),
                           v=rng.choice([0.0, 5.0, 11.0, 14.0], size=shape),
                           status=rng.integers(0, 3, size=shape).astype(np.int8))

        for r_in in (geom.r_in, 5.0):
            for K in (2, 3, 4):
                for _ in range(25):
                    self.assert_same([bundle() for _ in range(K)], [0.5] * K, params, r_in)

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_weight_batch_equals_slices(self, geom, K):
        # a (K, B) weight matrix prices B games in one call, (K, B, S, ..., S)
        pool = rollout_pool(geom, 4)
        rng = np.random.default_rng(20 + K)
        grid = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        params = CostParams()
        for _ in range(20):
            trajs = [pool[i] for i in rng.integers(0, len(pool), size=K)]
            cols = np.array([rng.permutation(grid) if rng.random() < 0.7
                             else np.full_like(grid, rng.choice(grid)) for _ in range(K)])
            got = priced(trajs, cols, params, geom.r_in)
            assert got.shape == (K, 9) + (5,) * K
            for b in range(9):
                one = priced(trajs, cols[:, b].tolist(), params, geom.r_in)
                assert np.array_equal(got[:, b], one)

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_weight_matrix_columns_equal_reference(self, geom, K):
        # every player's tensor of every column of a (K, B) weight matrix, strategy axes in
        # ascending id order, equals the reference priced with that column alone
        pools = {horizon: rollout_pool(geom, horizon) for horizon in (2, 4, 9)}
        rng = np.random.default_rng(40 + K)
        params = CostParams()
        for pool in [pools[4]] * 15 + [pools[2]] * 10 + [pools[9]] * 10:
            trajs = [pool[i] for i in rng.integers(0, len(pool), size=K)]
            w = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0], size=(K, 6))
            got = priced(trajs, w, params, geom.r_in)
            assert got.shape == (K, 6) + (5,) * K
            for b in range(6):
                want = reference_payoff_tensors(trajs, w[:, b].tolist(), params, geom.r_in)[0]
                for p in range(K):
                    assert want[p].shape == got[p, b].shape
                    assert np.array_equal(got[p, b], want[p])

    def test_results_outlive_the_kernel_buffers(self, geom):
        # the nearest-neighbour kernel reuses its joint-space arrays across calls;
        # neither its result nor the game's cost array may be one of them
        pool = rollout_pool(geom, 4)
        params = CostParams()

        def safe(trajs):
            table = stack(trajs)
            return _nearest_safe(pair_sides(table, *pairs_with_reverse(4), params, geom.r_in),
                                 _joint_index(4, 5)[1], horizon_weights(params.lam, 4))

        first = [priced(pool[:4], [0.5] * 4, params, geom.r_in), safe(pool[:4])]
        kept = [a.copy() for a in first]
        second = [priced(pool[4:8], [0.5] * 4, params, geom.r_in), safe(pool[4:8])]
        for a, k, b in zip(first, kept, second):
            assert np.array_equal(a, k) and not np.array_equal(a, b)
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("horizon", [2, 4, 9])
    def test_pair_safety_is_the_joint_kernel_with_one_candidate(self, geom, horizon):
        # a two-player game's safety terms, gathered from the pair safety rows through the
        # joint indices, equal the nearest-neighbour kernel's running minimum over one other
        pool = rollout_pool(geom, horizon)
        rng = np.random.default_rng(60 + horizon)
        wts = horizon_weights(P.lam, horizon)
        pairs_at = _joint_index(2, 5)[1]
        for _ in range(100):
            table = stack([pool[i] for i in rng.integers(0, len(pool), size=2)])
            sides = pair_sides(table, *pairs_with_reverse(2), P, geom.r_in)
            safe = pair_safety(sides, P)
            assert safe.shape == (2, 5, 5)
            want = _nearest_safe(sides, pairs_at, wts)
            assert safe.take(pairs_at[0]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("S", [2, 5])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_joint_indices_cover_exactly_the_rows(self, K, S):
        # the kernel gathers with mode="clip", which is exact only while every
        # index lies inside the K(K-1) S S pair blocks and the K S speed rows
        speed, pairs = _joint_index(K, S)
        assert speed.shape == (K, S**K) and pairs.shape == (K - 1, K, S**K)
        assert np.array_equal(np.unique(speed), np.arange(K * S))
        assert np.array_equal(np.unique(pairs), np.arange(K * (K - 1) * S * S))

    def test_unequal_alphabets_rejected(self, geom):
        # speed rows and pair rows of two alphabets cannot make one game, and
        # one rollout table, which both kernels read, cannot hold two alphabets
        requests = [rollout_request(geom.circle, 0.0, 5.0, Status.INSIDE),
                    rollout_request(geom.circle, 9.0, 5.0, Status.INSIDE)]
        five = rollout(requests, DEFAULT_ACCELS, 4, 0.25)
        three = rollout(requests, (-10.0, 0.0, 10.0), 4, 0.25)
        for a, b in ((five, three), (three, five)):
            with pytest.raises(ValueError):
                payoff_tensors(speed_sums(a, P), [0.5, 0.5], game_pairs(b, P, geom.r_in), P)
        with pytest.raises(ValueError):
            stack([table_rows(five, 0), table_rows(three, 1)])


class TestOnePlayerGames:
    """A one-player game's costs are its weighted speed row, with no joint space built."""

    WEIGHTS = sorted({0.0, 1.0, *DEFAULT_W_GRID, *W_CHOICES})

    def test_bit_equal_to_reference_and_to_the_blend(self, geom):
        # a standstill start ties both brakes and coasting; coasting at exactly v_l costs 0
        extra = [table_rows(rollout([rollout_request(geom.circle, 5.0, v0, Status.INSIDE)],
                                    DEFAULT_ACCELS, 4, 0.25), 0) for v0 in (0.0, P.v_l)]
        rows = []
        for traj in rollout_pool(geom, 4) + extra:
            speed = speed_sums(stack([traj]), P)
            rows.append(speed[0])
            for w in self.WEIGHTS:
                got = priced([traj], [w], P, geom.r_in)
                want = reference_payoff_tensors([traj], [w], P, geom.r_in)[0][0]
                blend = (1.0 - w) * np.zeros((1, 5)) + w * speed
                assert got.shape == blend.shape == (1, 5) and got.dtype == blend.dtype
                assert got.tobytes() == blend.tobytes() == want.tobytes()
        assert any(len(set(row.tolist())) < len(row) for row in rows)  # tied entries
        assert any(0.0 in row.tolist() for row in rows)                 # zero entries

    @staticmethod
    def merged_pair(w):
        """Adjacent speeds ``a < b`` near 1.9 that ``w`` rounds to one cost, or None."""
        a = 1.9
        for _ in range(100):
            b = math.nextafter(a, 2.0)
            if w * a == w * b:
                return a, b
            a = b
        return None

    def test_first_minimum_of_the_weighted_row(self):
        # rows with ties and zeros, and, where the weight merges two adjacent speeds
        # a < b, rows holding b before a: the first minimum of the weighted row is then
        # not the first minimum of the speed row
        no_pairs = np.empty((2, 2, 0, 5, 5, 4))
        merged = 0
        for w in self.WEIGHTS:
            rows = [[0.0, 0.0, 3.0, 3.0, 1.0], [4.0, 2.0, 2.0, 0.0, 0.0], [5.0] * 5, [0.0] * 5]
            pair = self.merged_pair(w)
            if pair:
                a, b = pair
                rows += [[b, a, a, b, 7.0], [2.0, b, a, 1.0 + a, b]]
                merged += 1
            for row in rows:
                speed = np.array([row])
                costs = payoff_tensors(speed, [w], no_pairs, P)
                blend = (1.0 - w) * np.zeros((1, 5)) + w * speed
                assert costs.tobytes() == blend.tobytes()
                prof = tensor_equilibrium(costs, [0])
                assert prof == reference_tensor_equilibrium(costs, [0])[0]
                assert prof == (int(np.argmin(blend[0])),) and type(prof[0]) is int
            if pair and w:
                assert tensor_equilibrium(payoff_tensors(np.array([rows[-2]]), [w], no_pairs,
                                                         P), [0]) == (0,)
                assert np.argmin(rows[-2]) == 1
        assert merged >= len(self.WEIGHTS) - 2  # all but 0.5 and 1.0, which scale exactly


class TestStepPairKernel:
    """One kernel call over a step's rollouts or deduplicated pairs prices each game as if alone."""

    @pytest.mark.parametrize("horizon", [4, 9])
    def test_shuffled_step_batches_bit_identical_to_per_game(self, geom, horizon):
        # a step's games of K = 2..4 draw on a set of distinct rollouts, so keys
        # repeat across games, and each game holds both orders of its pairs;
        # the pairs and the stacked rollouts are shuffled
        pool = rollout_pool(geom, horizon)
        rng = np.random.default_rng(30 + horizon)
        params = CostParams()
        games_checked = 0
        for _ in range(40):
            keys = rng.choice(len(pool), size=10, replace=False).tolist()
            games = [rng.choice(keys, size=K, replace=False).tolist()
                     for K in rng.integers(2, 5, size=rng.integers(1, 9))]
            pairs = list({(g[p], g[q]): None for g in games
                          for p, q in zip(*pair_order(len(g)))})
            pairs = [pairs[k] for k in rng.permutation(len(pairs))]
            row = {pair: n for n, pair in enumerate(pairs)}
            slot = {key: k for k, key in enumerate(rng.permutation(keys).tolist())}
            sides = pair_sides(stack([pool[key] for key in slot]), [slot[p] for p, _ in pairs],
                               [slot[q] for _, q in pairs], [row[q, p] for p, q in pairs],
                               params, geom.r_in)
            assert sides.shape == (2, 2, len(pairs), 5, 5, horizon)
            for g in games:
                ego, other = pair_order(len(g))
                got = sides[:, :, [row[g[p], g[q]] for p, q in zip(ego, other)]]
                alone = pair_sides(stack([pool[key] for key in g]), *pairs_with_reverse(len(g)),
                                   params, geom.r_in)
                assert got.shape == alone.shape
                assert got.tobytes() == alone.tobytes()
                games_checked += 1
        assert games_checked > 100

    @pytest.mark.parametrize("horizon", [4, 9])
    def test_step_speed_rows_bit_identical_to_each_rollout_alone(self, geom, horizon):
        # one speed_sums call over a step's shuffled rollouts, some repeated
        pool = rollout_pool(geom, horizon)
        rng = np.random.default_rng(50 + horizon)
        picks = rng.integers(0, len(pool), size=2 * len(pool))
        rows = speed_sums(stack([pool[k] for k in picks]), P)
        assert rows.shape == (len(picks), 5)
        for row, k in zip(rows, picks):
            assert row.tobytes() == speed_sums(stack([pool[k]]), P)[0].tobytes()
