"""Vehicle kinematics and status transitions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_paths,
    boundary_arclens,
    build_strategies,
    reference_rollout,
    rollout_request,
    table_rows,
    update_status,
)
from roundabout_sim.dynamics import (
    Configuration,
    _advance,
    _status_run,
    advance_status,
    rollout,
    step,
)
from roundabout_sim.game import DEFAULT_ACCELS
from roundabout_sim.geometry import (
    Maneuver,
    NavigationPath,
    PathKind,
    RoundaboutSpec,
    Status,
    build_path,
    build_roundabout,
)


@pytest.fixture(scope="module")
def geom():
    return build_roundabout(RoundaboutSpec())


def on_circle(geom, theta, v, status=Status.INSIDE):
    # bind to the pure-circulation path at matching arclen
    path = geom.circle
    return path, Configuration(r=geom.r_in, theta=theta, v=v, status=status,
                               arclen=geom.r_in * theta)


class TestStep:
    def test_coast_quarter_second(self, geom):
        path, x = on_circle(geom, 0.3, 10.0)
        y = step(x, 0.0, 0.25, path)
        assert y.v == pytest.approx(10.0)
        assert y.theta - x.theta == pytest.approx(0.125)

    def test_accelerate(self, geom):
        path, x = on_circle(geom, 1.0, 8.0)
        y = step(x, 10.0, 0.25, path)
        assert y.v == pytest.approx(10.5)
        assert y.theta - x.theta == pytest.approx(0.115625)

    def test_brake_through_zero_clamps(self, geom):
        path, x = on_circle(geom, 2.0, 2.0)
        y = step(x, -50.0, 0.25, path)
        assert y.v == 0.0
        assert (y.arclen - x.arclen) == pytest.approx(0.04)  # v^2 / (2|a|)

    def test_zero_speed_brake_stays_put(self, geom):
        path, x = on_circle(geom, 2.0, 0.0)
        y = step(x, -10.0, 0.25, path)
        assert y.v == 0.0
        assert y.arclen == x.arclen

    def test_rejects_unbound_configuration(self, geom):
        path = geom.circle
        x = Configuration(r=20.0, theta=0.0, v=5.0, status=Status.INSIDE)
        with pytest.raises(ValueError):
            step(x, 0.0, 0.25, path)

    def test_rejects_bad_delta_and_speed(self, geom):
        path, x = on_circle(geom, 0.0, 5.0)
        with pytest.raises(ValueError):
            step(x, 0.0, 0.0, path)
        with pytest.raises(ValueError):
            step(Configuration(r=20.0, theta=0.0, v=-1.0, status=Status.INSIDE, arclen=0.0),
                 0.0, 0.25, path)

    def test_rejects_a_nan_speed(self, geom):
        # a NaN passes ``v < 0``; at a = 0 it then reached the stop branch's 0 divisor
        x = Configuration(r=20.0, theta=0.0, v=math.nan, status=Status.INSIDE, arclen=0.0)
        for a in (0.0, -10.0, 10.0):
            with pytest.raises(ValueError, match="speed must be non-negative"):
                step(x, a, 0.25, geom.circle)

    def test_rejects_a_negative_or_nan_start_arclen(self, geom):
        # rollout's start check: from -0.1 m at 10 m/s the step itself would end past 0
        for s0 in (-0.1, math.nan):
            x = Configuration(r=20.0, theta=0.0, v=10.0, status=Status.INSIDE, arclen=s0)
            with pytest.raises(ValueError, match="arclen"):
                step(x, 0.0, 0.25, geom.circle)

    @given(v=st.floats(0.0, 15.0), a=st.floats(-50.0, 30.0),
           s=st.floats(0.0, 120.0))
    @settings(max_examples=120)
    def test_speed_never_negative_and_advances(self, v, a, s):
        geom = build_roundabout(RoundaboutSpec())
        path = geom.circle
        x = Configuration(r=geom.r_in, theta=(s / geom.r_in) % (2 * math.pi),
                          v=v, status=Status.INSIDE, arclen=s)
        y = step(x, a, 0.25, path)
        assert y.v >= 0.0
        assert y.arclen >= x.arclen
        assert y.r == geom.r_in


class TestStatus:
    def test_threshold_worked_values(self, geom):
        x = Configuration(r=24.4, theta=0.8, v=5.0, status=Status.ENTER)
        assert update_status(x, geom).status == Status.INSIDE
        x = Configuration(r=30.0, theta=0.8, v=5.0, status=Status.ENTER)
        assert update_status(x, geom).status == Status.ENTER

    def test_exit_requires_leaving_disc(self, geom):
        x = Configuration(r=24.6, theta=5.9, v=5.0, status=Status.INSIDE)
        assert update_status(x, geom).status == Status.EXIT
        x = Configuration(r=24.4, theta=5.9, v=5.0, status=Status.INSIDE)
        assert update_status(x, geom).status == Status.INSIDE

    def test_exit_never_reverts(self, geom):
        x = Configuration(r=20.0, theta=0.1, v=5.0, status=Status.EXIT)
        assert update_status(x, geom).status == Status.EXIT

    @pytest.mark.parametrize("maneuver", list(Maneuver))
    def test_full_traversal_sequence(self, geom, maneuver):
        path = build_path(geom, PathKind(maneuver, 0))
        x = Configuration(r=0.0, theta=0.0, v=9.0, status=Status.ENTER, arclen=0.0)
        rho, theta, _ = path.pose(0.0)
        x = Configuration(r=rho, theta=theta, v=9.0, status=Status.ENTER, arclen=0.0)
        seen = [x.status]
        for _ in range(120):
            x = step(x, 0.0, 0.25, path)
            if x.status != seen[-1]:
                seen.append(x.status)
        assert seen == [Status.ENTER, Status.INSIDE, Status.EXIT]

    @given(kind_i=st.integers(0, 11), v=st.floats(3.0, 12.0), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_status_monotone_along_any_drive(self, kind_i, v, seed):
        import random

        geom = build_roundabout(RoundaboutSpec())
        kinds = [PathKind(m, a) for m in Maneuver for a in range(4)]
        path = build_path(geom, kinds[kind_i])
        rng = random.Random(seed)
        rho, theta, _ = path.pose(0.0)
        x = Configuration(r=rho, theta=theta, v=v, status=Status.ENTER, arclen=0.0)
        prev = x.status
        for _ in range(90):
            a = rng.choice([-10.0, 0.0, 10.0, 30.0])
            x = step(x, a, 0.25, path)
            assert x.status >= prev
            prev = x.status


    @pytest.mark.parametrize("horizon", range(2, 9))
    def test_one_pass_equals_iterated_hysteresis(self, horizon):
        # every start code against every in/out pattern of stages 1..h-1, on the
        # threshold itself (in) and one ulp above it (out)
        thr = 24.5
        inside = np.indices((2,) * (horizon - 1)).reshape(horizon - 1, -1).T.astype(bool)
        rho = np.where(inside, thr, math.nextafter(thr, math.inf))
        for start in Status:
            got = _status_run(np.full((len(rho), 1), int(start)), rho, thr)
            assert got.dtype == np.int8 and got.shape == (len(rho), horizon)
            for pattern, row in zip(rho, got):
                want = [int(start)]
                for r in pattern:
                    want.append(advance_status(want[-1], r, thr))
                assert row.tolist() == want

    def test_one_pass_broadcasts_start_and_threshold_per_row(self):
        # the rollout's layout: a start code and a threshold per request, shared by its strategies
        rho = np.array([[[24.0, 26.0], [26.0, 24.0]], [[30.0, 30.0], [20.0, 20.0]]])
        start = np.array([Status.ENTER, Status.INSIDE]).reshape(2, 1, 1)
        got = _status_run(start, rho, np.array([25.0, 24.0]).reshape(2, 1, 1))
        assert got.tolist() == [[[0, 1, 2], [0, 0, 1]], [[1, 2, 2], [1, 1, 1]]]


class TestRollout:
    @pytest.mark.parametrize("ways", [3, 4])
    @pytest.mark.parametrize("horizon", [4, 9], ids=["default", "horizon9"])
    def test_bit_identical_to_reference(self, ways, horizon):
        geom = build_roundabout(RoundaboutSpec(ways=ways))
        schedule = build_strategies(DEFAULT_ACCELS, horizon)
        # 1.0 m/s clamps to standstill under both -50 and -10 at delta=0.25
        for path in all_paths(geom):
            for s0 in boundary_arclens(path):
                label = path.pose(s0)[2]
                for v0 in (0.0, 1.0, 7.3, 14.0):
                    for st0 in {label, Status.ENTER}:
                        got = table_rows(rollout([rollout_request(path, s0, v0, st0)],
                                                 DEFAULT_ACCELS, horizon, 0.25), 0)
                        ref = reference_rollout(path, s0, v0, st0, schedule, 0.25)
                        for name, want in zip(("theta", "rho", "v", "status"), ref):
                            arr = getattr(got, name)
                            assert arr.dtype == want.dtype, name
                            assert np.array_equal(arr, want), (name, s0, v0, st0)

    @pytest.mark.parametrize("ways", [3, 4])
    def test_mixed_batches_bit_identical_to_reference(self, ways):
        # every path and hypothesis, segment starts and their float neighbours,
        # each request twice, shuffled into batches that mix paths and repeat them
        geom = build_roundabout(RoundaboutSpec(ways=ways))
        schedule = build_strategies(DEFAULT_ACCELS, 4)
        requests = [(path, s0, v0, st0) for path in all_paths(geom)
                    for s0 in boundary_arclens(path) for v0 in (0.0, 1.0, 7.3, 14.0)
                    for st0 in {path.pose(s0)[2], Status.ENTER}]
        requests = requests + requests[::3]
        rng = np.random.default_rng(ways)
        order = rng.permutation(len(requests))
        cuts = np.cumsum(rng.integers(1, 60, size=len(requests)))
        cuts = [0] + [int(c) for c in cuts[cuts < len(requests)]] + [len(requests)]
        checked = 0
        for lo, hi in zip(cuts, cuts[1:]):
            batch = [requests[k] for k in order[lo:hi]]
            table = rollout([rollout_request(*req) for req in batch], DEFAULT_ACCELS, 4, 0.25)
            for k, req in zip(range(len(table.theta)), batch, strict=True):
                got = table_rows(table, k)
                ref = reference_rollout(*req, schedule, 0.25)
                for name, want in zip(("theta", "rho", "v", "status"), ref):
                    arr = getattr(got, name)
                    assert arr.dtype == want.dtype and arr.shape == want.shape, name
                    assert np.array_equal(arr, want), (name, req[1:])
                checked += 1
        assert checked == len(requests)

    @pytest.mark.parametrize("horizon", [4, 9], ids=["default", "horizon9"])
    def test_coast_stages_equal_chained_scalar_advance(self, geom, horizon):
        # stage 1 applies the strategy, every later stage coasts: the table's speeds, and
        # its poses at the arclens of stepping _advance at a = 0 one stage at a time, bit
        # for bit; standstill starts and stops under the hard brakes among the requests
        rng = np.random.default_rng(horizon)
        paths = all_paths(geom)
        requests = [(paths[int(rng.integers(len(paths)))], float(rng.uniform(0.0, 120.0)), v0,
                     Status.ENTER) for v0 in (0.0, 0.0, 1.0, 2.5, 7.3, 14.0) for _ in range(4)]
        order = rng.permutation(len(requests))
        requests = [requests[k] for k in order]
        stopped = 0
        for lo, hi in ((0, 1), (1, 7), (7, len(requests))):
            batch = requests[lo:hi]
            table = rollout([rollout_request(*req) for req in batch], DEFAULT_ACCELS, horizon,
                            0.25)
            for k, (path, s0, v0, _) in enumerate(batch):
                for i, a in enumerate(DEFAULT_ACCELS):
                    s, v = _advance(s0, v0, a, 0.25)
                    arcs, speeds = [s], [v]
                    for _ in range(2, horizon):
                        s, v = _advance(s, v, 0.0, 0.25)
                        arcs.append(s)
                        speeds.append(v)
                    stopped += v == 0.0
                    assert table.v[k, i, 1:].tolist() == speeds
                    rho, theta, _ = NavigationPath.pose_batch([path], 0, np.array(arcs))
                    assert table.rho[k, i, 1:].tobytes() == rho.tobytes()
                    assert table.theta[k, i, 1:].tobytes() == theta.tobytes()
        assert stopped > len(requests)  # standstill starts and hard-brake stops coast at 0

    @staticmethod
    def count_pose_batch(monkeypatch):
        real = NavigationPath.pose_batch
        calls = []

        def counting(paths, which, arclens):
            calls.append((list(paths), np.shape(arclens)))
            return real(paths, which, arclens)

        monkeypatch.setattr(NavigationPath, "pose_batch", counting)
        return calls

    def test_one_pose_batch_per_call(self, geom, monkeypatch):
        # the later stages of the whole batch, over its distinct paths in first-seen order
        paths = [geom.circle, geom.paths[PathKind(Maneuver.GO_STRAIGHT, 0)]]
        calls = self.count_pose_batch(monkeypatch)
        requests = [rollout_request(paths[k % 2], 10.0 + k, 8.0, Status.INSIDE)
                    for k in range(5)]
        assert rollout(requests, DEFAULT_ACCELS, 4, 0.25).theta.shape == (5, 5, 4)
        assert calls == [(paths, (5, 5, 3))]

    def test_one_pose_batch_per_rollout(self, geom, monkeypatch):
        path = geom.paths[PathKind(Maneuver.GO_STRAIGHT, 0)]
        calls = self.count_pose_batch(monkeypatch)
        rollout([rollout_request(path, 10.0, 8.0, Status.ENTER)], DEFAULT_ACCELS, 4, 0.25)
        assert calls == [([path], (1, 5, 3))]

    def test_rejects_bad_delta_and_speed(self, geom):
        path = geom.circle
        for delta in (0.0, -0.25):
            with pytest.raises(ValueError, match="delta"):
                rollout([rollout_request(path, 0.0, 5.0, Status.INSIDE)], DEFAULT_ACCELS, 4,
                        delta)
        with pytest.raises(ValueError, match="speed"):
            rollout([rollout_request(path, 0.0, -1.0, Status.INSIDE)], DEFAULT_ACCELS, 4, 0.25)

    def test_rejects_a_negative_or_nan_start_arclen_on_any_request(self, geom):
        # stage 0 comes posed from the caller, so nothing poses the start arclen; from -0.1 m
        # at 10 m/s every strategy's stage 1 lies past 0, where pose_batch would pose it
        path = geom.circle
        good = rollout_request(path, 5.0, 10.0, Status.INSIDE)
        for s0 in (-0.1, math.nan):
            bad = (path, s0) + good[2:]
            for batch in ([bad], [good, bad], [good, good, bad, good]):
                with pytest.raises(ValueError, match="arclen"):
                    rollout(batch, DEFAULT_ACCELS, 4, 0.25)

    def test_rejects_a_nan_start_speed_on_any_request(self, geom):
        # the speed check, not pose_batch's arclen check on the NaN stages it would pose
        path = geom.circle
        good = rollout_request(path, 5.0, 10.0, Status.INSIDE)
        bad = good[:2] + (math.nan,) + good[3:]
        for batch in ([bad], [good, bad], [good, good, bad, good]):
            with pytest.raises(ValueError, match="speed must be non-negative"):
                rollout(batch, DEFAULT_ACCELS, 4, 0.25)

    def test_rejects_paths_of_two_radii(self, geom):
        # one status threshold, r_in + diameter, serves the whole batch
        other = build_roundabout(RoundaboutSpec(r_in=25.0))
        batch = [rollout_request(g.circle, 5.0, 8.0, Status.INSIDE) for g in (geom, other)]
        with pytest.raises(ValueError, match="r_in"):
            rollout(batch, DEFAULT_ACCELS, 4, 0.25)
        assert rollout(batch[:1] * 2, DEFAULT_ACCELS, 4, 0.25).status.shape == (2, 5, 4)
