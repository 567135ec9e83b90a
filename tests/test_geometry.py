"""Geometry construction and path-frame queries."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_paths,
    boundary_arclens,
    exit_angle,
    heading,
    path_distance,
    reference_pose,
    reference_pose_batch,
    total_enter_len,
)
from roundabout_sim import geometry
from roundabout_sim.geometry import (
    Maneuver,
    NavigationPath,
    PathKind,
    RoundaboutSpec,
    Status,
    build_path,
    build_roundabout,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def geom():
    return build_roundabout(RoundaboutSpec())


ALL_KINDS = [PathKind(m, a) for m in Maneuver for a in range(4)]


class TestRoundabout:
    def test_circumference(self, geom):
        assert geom.r_in * TWO_PI == pytest.approx(125.66, abs=0.01)

    def test_arm_angles_default(self, geom):
        assert geom.arm_angles == pytest.approx((0.0, math.pi / 2, math.pi, 3 * math.pi / 2))

    def test_exit_arm_mapping(self, geom):
        assert build_path(geom, PathKind(Maneuver.TURN_RIGHT, 0)).exit_arm == 1
        assert build_path(geom, PathKind(Maneuver.GO_STRAIGHT, 0)).exit_arm == 2
        assert build_path(geom, PathKind(Maneuver.TURN_LEFT, 0)).exit_arm == 3
        assert build_path(geom, PathKind(Maneuver.TURN_LEFT, 2)).exit_arm == 1

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            build_roundabout(RoundaboutSpec(ways=2))
        with pytest.raises(ValueError):
            build_roundabout(RoundaboutSpec(r_in=-1.0))
        with pytest.raises(ValueError):
            build_roundabout(RoundaboutSpec(theta1=1.7))  # > pi/2 budget between adjacent arms
        with pytest.raises(ValueError):
            build_roundabout(RoundaboutSpec(entrance_angles=(0.0, 1.0, 0.5, 2.0)))

    @pytest.mark.parametrize("changes, message", [
        ({"ways": 2}, "ways must be >= 3, got 2"),
        ({"r_en": 0.0}, "r_en must be positive"),
        ({"theta3": math.pi}, "connector angle for turn_left must be in (0, pi)"),
        ({"theta1": 1.7}, "connector angle 1.7 for turn_right exceeds the angular budget"),
        ({"entrance_angles": (0.0, 1.0)}, "entrance_angles must have exactly 4 entries"),
        ({"entrance_angles": (0.0, 1.0, 0.5, 2.0)}, "entrance_angles must be strictly increasing"),
        ({"entrance_angles": (0.0, 1.0, 2.0, 7.0)}, "entrance_angles must lie in [0, 2*pi)"),
    ])
    def test_spec_rejects_bad_geometry_at_construction(self, changes, message):
        with pytest.raises(ValueError) as direct:
            RoundaboutSpec(**changes)
        assert str(direct.value).startswith(message)
        with pytest.raises(ValueError) as replaced:
            dataclasses.replace(RoundaboutSpec(), **changes)
        assert str(replaced.value) == str(direct.value)

    def test_three_way_left_is_full_loop(self):
        g = build_roundabout(RoundaboutSpec(ways=3))
        p = build_path(g, PathKind(Maneuver.TURN_LEFT, 1))
        assert p.exit_arm == 1
        inside = [s for s in p.segments if s.label == Status.INSIDE]
        assert sum(s.length for s in inside) == pytest.approx(g.r_in * (TWO_PI - 0.40))


class TestPathDistance:
    def test_worked_values(self, geom):
        assert path_distance(0.0, 0.5, geom) == pytest.approx(10.0)
        assert path_distance(0.0, math.pi, geom) == pytest.approx(62.83, abs=0.01)

    def test_directional_wrap(self, geom):
        ahead = path_distance(6.0, 0.5, geom)
        assert ahead == pytest.approx(geom.r_in * ((0.5 - 6.0) % TWO_PI))
        assert 0.0 <= ahead < geom.r_in * TWO_PI

    @given(a=st.floats(0, TWO_PI - 1e-9), b=st.floats(0, TWO_PI - 1e-9))
    def test_complementary(self, a, b):
        geom = build_roundabout(RoundaboutSpec())
        d_ab = path_distance(a, b, geom)
        d_ba = path_distance(b, a, geom)
        total = d_ab + d_ba
        if not math.isclose(a, b, abs_tol=1e-12):
            assert total == pytest.approx(geom.r_in * TWO_PI)


class TestPathConstruction:
    def test_inside_extent_straight(self, geom):
        # the straight path's driving-circle arc spans pi minus its connector angle
        p = build_path(geom, PathKind(Maneuver.GO_STRAIGHT, 0))
        inside = [s for s in p.segments if s.label == Status.INSIDE]
        assert len(inside) == 1
        assert inside[0].length == pytest.approx(geom.r_in * (math.pi - geom.spec.theta2))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.maneuver.value}-{k.arm}")
    def test_block_order_and_lengths(self, geom, kind):
        p = build_path(geom, kind)
        labels = [s.label for s in p.segments]
        assert labels == [Status.ENTER, Status.ENTER, Status.INSIDE, Status.EXIT, Status.EXIT]
        assert total_enter_len(p) == pytest.approx(
            geom.spec.approach_len + p.segments[1].length)
        assert all(s.length > 0 for s in p.segments)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.maneuver.value}-{k.arm}")
    def test_joints_are_continuous_and_tangent(self, geom, kind):
        p = build_path(geom, kind)
        s = 0.0
        for seg in p.segments[:-1]:
            s += seg.length
            left = np.array(_xy(p, s - 1e-9))
            right = np.array(_xy(p, s + 1e-9))
            assert np.allclose(left, right, atol=1e-6)
            h0 = heading(p, s - 1e-9)
            h1 = heading(p, s + 1e-9)
            assert abs((h1 - h0 + math.pi) % TWO_PI - math.pi) < 1e-6

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.maneuver.value}-{k.arm}")
    def test_exit_heading_matches_arm(self, geom, kind):
        p = build_path(geom, kind)
        assert exit_angle(p) == pytest.approx(geom.arm_angles[p.exit_arm] % TWO_PI)

    def test_centre_distance_monotone_per_block(self, geom):
        for kind in ALL_KINDS:
            p = build_path(geom, kind)
            s = np.linspace(0.0, p.total_length, 4000)
            rho, _, labels = NavigationPath.pose_batch([p], 0, s)
            for label, sign in ((int(Status.ENTER), -1), (int(Status.EXIT), +1)):
                block = rho[labels == label]
                diffs = sign * np.diff(block)
                assert np.all(diffs > -1e-9)
            assert np.allclose(rho[labels == int(Status.INSIDE)], geom.r_in)

    def test_straight_lanes_never_closer_than_vehicle_diameter(self, geom):
        # approach and exit lanes (the straight parts outside the occupancy
        # disc) must keep head-on traffic a vehicle diameter apart; inside the
        # disc the safety game, not lane separation, keeps vehicles apart
        def lane_points(path, label):
            segs = [(i, s) for i, s in enumerate(path.segments)
                    if s.type == 0 and s.label == label]
            out = []
            for _, seg in segs:
                t = np.linspace(0.0, seg.length, 200)
                out.append(np.stack([seg.ax + t * seg.bx, seg.ay + t * seg.by], axis=1))
            return np.concatenate(out)

        lanes = []
        for kind in ALL_KINDS:
            p = build_path(geom, kind)
            lanes.append(("app", kind.arm, lane_points(p, Status.ENTER)))
            lanes.append(("exit", p.exit_arm, lane_points(p, Status.EXIT)))
        for i, (side_a, arm_a, pa) in enumerate(lanes):
            for side_b, arm_b, pb in lanes[i + 1:]:
                if side_a == side_b and arm_a == arm_b:
                    continue  # parallel same-direction lanes may coincide
                d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
                assert d.min() > 4.5

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="right/left connectors of one arm cross: the lane offset "
                       "(r_in+r_en)*sin(theta/2) - r_en is negative for theta < 0.58")
    def test_connectors_of_one_arm_never_closer_than_vehicle_diameter(self, geom):
        # entry connectors of an arm against the exit connectors at that arm
        def arc_points(seg):
            return np.array([seg.point_at(t) for t in np.linspace(0.0, seg.length, 400)])

        for arm in range(geom.spec.ways):
            entries = [arc_points(p.segments[1]) for k, p in geom.paths.items() if k.arm == arm]
            exits = [arc_points(p.segments[-2]) for p in geom.paths.values()
                     if p.exit_arm == arm]
            for pa in entries:
                for pb in exits:
                    d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
                    assert d.min() >= 4.5, arm


def _xy(path, s):
    rho, theta, _ = path.pose(s)
    return rho * math.cos(theta), rho * math.sin(theta)


class TestPathIdentity:
    def test_paths_compare_and_hash_by_identity(self):
        kind = PathKind(Maneuver.GO_STRAIGHT, 0)
        p = build_roundabout(RoundaboutSpec()).paths[kind]
        q = build_roundabout(RoundaboutSpec()).paths[kind]
        assert (p == q) is False and p == p
        memo = {p: "p", q: "q"}
        assert memo[p] == "p" and memo[q] == "q" and len({p, q, p}) == 2


class TestPose:
    def test_inside_pose_is_exact(self, geom):
        p = build_path(geom, PathKind(Maneuver.GO_STRAIGHT, 0))
        s_mid = total_enter_len(p) + 0.5 * geom.r_in * (math.pi - geom.spec.theta2)
        rho, theta, label = p.pose(s_mid)
        assert rho == geom.r_in  # bit-exact on the driving circle
        assert label == Status.INSIDE
        assert 0.0 <= theta < TWO_PI

    def test_negative_arclen_rejected(self, geom):
        p = build_path(geom, PathKind(Maneuver.TURN_RIGHT, 0))
        with pytest.raises(ValueError):
            p.pose(-0.1)

    @pytest.mark.parametrize("ways", [3, 4])
    def test_nan_arclen_rejected(self, ways):
        geom = build_roundabout(RoundaboutSpec(ways=ways))
        for p in all_paths(geom):
            with pytest.raises(ValueError):
                p.pose(math.nan)
            with pytest.raises(ValueError):
                NavigationPath.pose_batch([p], 0, [1.0, math.nan])
            with pytest.raises(ValueError):
                NavigationPath.pose_batch([p], 0, np.array([math.nan]))

    def test_extrapolates_past_end(self, geom):
        p = build_path(geom, PathKind(Maneuver.TURN_RIGHT, 0))
        rho0, theta0, label0 = p.pose(p.total_length)
        rho1, theta1, label1 = p.pose(p.total_length + 25.0)
        assert label0 == label1 == Status.EXIT
        assert rho1 > rho0  # keeps receding along the exit lane

    @pytest.mark.parametrize("ways", [3, 4])
    def test_boundaries_match_reference(self, ways):
        geom = build_roundabout(RoundaboutSpec(ways=ways))
        for p in all_paths(geom):
            for s in boundary_arclens(p) + [math.nextafter(0.0, math.inf)]:
                got = p.pose(s)
                assert got == reference_pose(p, s), (s, got)
                assert type(got[2]) is Status
            with pytest.raises(ValueError):
                p.pose(math.nextafter(0.0, -math.inf))

    @pytest.mark.parametrize("ways", [3, 4])
    def test_batch_bit_identical_to_reference(self, ways):
        geom = build_roundabout(RoundaboutSpec(ways=ways))
        rng = np.random.default_rng(ways)
        paths, which, mixed = all_paths(geom), [], []
        for k, p in enumerate(paths):
            batches = [np.array(boundary_arclens(p))]
            batches += [rng.uniform(0.0, p.total_length + 20.0, size=n) for n in (1, 2, 15, 400)]
            for s in batches:
                for got, want in zip(NavigationPath.pose_batch([p], 0, s),
                                     reference_pose_batch(p, s)):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), s
                which += [k] * len(s)
                mixed += list(s)
        # every path's points in one shuffled call over paths of 1 to 5 segments
        order = rng.permutation(len(mixed))
        which, mixed = np.array(which)[order], np.array(mixed)[order]
        got = NavigationPath.pose_batch(paths, which, mixed)
        for k, p in enumerate(paths):
            for g, want in zip(got, reference_pose_batch(p, mixed[which == k])):
                assert g.dtype == want.dtype
                assert np.array_equal(g[which == k], want), k

    def test_stack_cache_is_bounded_and_output_neutral(self, geom):
        # pose_batch keeps the stacked segment tables of recent path lists; a cached
        # stack poses as a fresh one does, whatever the order of the list
        rng = np.random.default_rng(7)
        paths = all_paths(geom)
        which = rng.integers(len(paths), size=(6, 5, 3))
        s = rng.uniform(0.0, 150.0, size=which.shape)
        geometry._stack.cache_clear()
        fresh = NavigationPath.pose_batch(paths, which, s)
        cached = NavigationPath.pose_batch(list(paths), which, s)
        assert geometry._stack.cache_info().hits == 1
        perm = rng.permutation(len(paths))
        permuted = NavigationPath.pose_batch([paths[k] for k in perm],
                                             np.argsort(perm)[which], s)
        for f, c, p in zip(fresh, cached, permuted):
            assert f.dtype == c.dtype == p.dtype
            assert f.tobytes() == c.tobytes() == p.tobytes()
        bound = geometry._stack.cache_info().maxsize
        assert bound is not None
        for k in range(bound + 10):  # more distinct path lists than the cache holds
            NavigationPath.pose_batch([paths[k % len(paths)], paths[k // len(paths)]], 0, 1.0)
        assert geometry._stack.cache_info().currsize == bound

    @given(s=st.floats(0.0, 300.0), data=st.data())
    @settings(max_examples=60)
    def test_batch_matches_scalar(self, s, data):
        geom = build_roundabout(RoundaboutSpec())
        kind = data.draw(st.sampled_from(ALL_KINDS))
        p = build_path(geom, kind)
        rho, theta, label = p.pose(s)
        rb, tb, lb = NavigationPath.pose_batch([p], 0, np.array([s]))
        # libm vs numpy atan2/hypot may differ in the last ulp
        assert rb[0] == pytest.approx(rho, rel=1e-12, abs=1e-12)
        assert tb[0] == pytest.approx(theta, rel=1e-12, abs=1e-12)
        assert lb[0] == int(label)

    @given(s=st.floats(0.0, 250.0), data=st.data())
    @settings(max_examples=60)
    def test_project_inverts_pose(self, s, data):
        geom = build_roundabout(RoundaboutSpec())
        kind = data.draw(st.sampled_from(ALL_KINDS))
        p = build_path(geom, kind)
        x, y = _xy(p, min(s, p.total_length))
        s_back = p.project(x, y)[0]
        xb, yb = _xy(p, s_back)
        assert math.hypot(xb - x, yb - y) < 1e-6

    @given(x=st.floats(-80.0, 80.0), y=st.floats(-80.0, 80.0))
    @settings(max_examples=100)
    def test_project_distance_is_distance_to_pose(self, geom, x, y):
        for path in all_paths(geom):
            s, d2 = path.project(x, y)
            xs, ys = _xy(path, s)
            assert abs(d2 - ((xs - x) ** 2 + (ys - y) ** 2)) <= 1e-9


class TestHypothesisPaths:
    def test_entry_hypothesis_circulates_forever(self, geom):
        h = geom.entry_hypotheses[PathKind(Maneuver.GO_STRAIGHT, 1)]
        assert h.exit_arm is None
        assert math.isnan(exit_angle(h))
        rho, _, label = h.pose(total_enter_len(h) + 3 * geom.r_in)
        assert rho == geom.r_in
        assert label == Status.INSIDE

    def test_exit_hypothesis_departs_at_arm(self, geom):
        h = geom.exit_hypotheses[2]
        assert h.exit_arm == 2
        assert exit_angle(h) == pytest.approx(math.pi)
        rho, _, label = h.pose(h.total_length)
        assert label == Status.EXIT
        assert rho > geom.r_in + 4.5

    @pytest.mark.parametrize("ways", [3, 4])
    def test_hypotheses_built_in_arm_order(self, ways):
        # the nearest-entry scan keeps the first minimum, so this order is its tie-break
        geom = build_roundabout(RoundaboutSpec(ways=ways))
        kinds = [PathKind(m, arm) for arm in range(ways) for m in Maneuver]
        assert list(geom.entry_hypotheses) == kinds
        assert list(geom.paths) == kinds
        assert [h.exit_arm for h in geom.exit_hypotheses] == list(range(ways))

    def test_circle_hypothesis_wraps(self, geom):
        h = geom.circle
        rho, theta, _ = h.pose(geom.r_in * (TWO_PI + 0.5))
        assert rho == geom.r_in
        assert theta == pytest.approx(0.5)
