"""Roundabout geometry: arms, navigation paths, and path-frame queries.

A ``ways``-way single-lane roundabout is built from arcs of five circles:
the inner driving circle of radius ``r_in`` (traffic moves counter-clockwise
on it) and connector circles of radius ``r_en`` that join each arm's straight
approach/exit lanes tangentially to the driving circle.

Construction used here, for a path entering at arm ``a`` and exiting at arm
``b`` with connector angle ``theta`` (one of ``theta1/theta2/theta3`` for
right/straight/left maneuvers):

* the merge point sits ``theta/2`` radians counter-clockwise past the arm
  heading, the departure point ``theta/2`` before the exit arm, so the two
  connectors together claim a centre angle of ``theta`` and the arc driven on
  the inner circle spans ``(angle(b) - angle(a)) - theta``;
* each connector is an arc of radius ``r_en`` externally tangent to the inner
  circle at the merge/departure point and tangent to a straight lane parallel
  to the arm axis; the lane's lateral offset ``(r_in + r_en)*sin(theta/2) -
  r_en`` falls out of the tangency instead of being a free parameter.

Every joint is tangent-continuous.  Below a connector angle of ``2*asin(r_en /
(r_in + r_en))`` (0.58 rad by default) the lane offset is negative, as at the
default right and left angles 0.38 and 0.40: their lanes stay 5.4 m apart, but
an arm's right/left entry connectors cross its right/left exit ones near rho 21.5 m.

Arclength is the single path coordinate.  ``pose`` maps it to the polar
configuration ``(rho, theta)`` plus the block label (enter / inside / exit),
extrapolating past the end (negative arclen is an error); ``project`` maps a
point back to the nearest arclen and its squared distance.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from itertools import zip_longest

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "Status",
    "Maneuver",
    "PathKind",
    "RoundaboutSpec",
    "Segment",
    "NavigationPath",
    "Geometry",
    "build_roundabout",
    "build_path",
]


class Status(IntEnum):
    """Structural position of a vehicle relative to the roundabout."""

    ENTER = 0
    INSIDE = 1
    EXIT = 2


class Maneuver(Enum):
    TURN_RIGHT = "turn_right"
    GO_STRAIGHT = "go_straight"
    TURN_LEFT = "turn_left"


# arms advanced in traffic (counter-clockwise) direction per maneuver
_MANEUVER_STEPS = {
    Maneuver.TURN_RIGHT: 1,
    Maneuver.GO_STRAIGHT: 2,
    Maneuver.TURN_LEFT: 3,
}


@dataclass(frozen=True)
class PathKind:
    """A maneuver together with the entrance arm index it starts from."""

    maneuver: Maneuver
    arm: int


@dataclass(frozen=True)
class RoundaboutSpec:
    """User-facing geometry parameters.

    ``theta1/theta2/theta3`` are the connector angles of the right / straight
    / left paths: the total centre angle claimed by the two connector arcs of
    that maneuver (split evenly between entry and exit side).
    """

    ways: int = 4
    r_in: float = 20.0
    r_en: float = 8.0
    approach_len: float = 40.0
    theta1: float = 0.38
    theta2: float = math.pi / 2
    theta3: float = 0.40
    entrance_angles: tuple = ()

    def __post_init__(self):
        if self.ways < 3:
            raise ValueError(f"ways must be >= 3, got {self.ways}")
        for name in ("r_in", "r_en", "approach_len"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        spacing = TWO_PI / self.ways
        for maneuver in Maneuver:
            theta = self.connector_angle(maneuver)
            if not 0.0 < theta < math.pi:
                raise ValueError(f"connector angle for {maneuver.value} must be in (0, pi)")
            budget = spacing * _MANEUVER_STEPS[maneuver]
            if theta > budget + 1e-12:
                raise ValueError(
                    f"connector angle {theta} for {maneuver.value} exceeds the "
                    f"angular budget {budget} between its arms")
        angles = self.arm_angles()
        if len(angles) != self.ways:
            raise ValueError(f"entrance_angles must have exactly {self.ways} entries")
        if any(not a < b for a, b in zip(angles, angles[1:])):
            raise ValueError("entrance_angles must be strictly increasing")
        if angles and not (0.0 <= angles[0] and angles[-1] < TWO_PI):
            raise ValueError("entrance_angles must lie in [0, 2*pi)")

    def arm_angles(self):
        if self.entrance_angles:
            return tuple(self.entrance_angles)
        return tuple(TWO_PI * k / self.ways for k in range(self.ways))

    def connector_angle(self, maneuver):
        return {
            Maneuver.TURN_RIGHT: self.theta1,
            Maneuver.GO_STRAIGHT: self.theta2,
            Maneuver.TURN_LEFT: self.theta3,
        }[maneuver]


_LINE = 0
_ARC = 1
_CIRCLE = 2  # arc centred on the roundabout origin: rho is exact


@dataclass(slots=True)
class Segment:
    """One constant-curvature piece of a path.  A line has origin (ax, ay), unit direction
    (bx, by) and radius 1, which keeps the arc formula of ``pose_batch`` finite on it; an
    arc or circle has centre (ax, ay), radius, start angle psi0 and orientation orient."""

    type: int
    label: Status
    length: float
    ax: float = 0.0
    ay: float = 0.0
    bx: float = 0.0
    by: float = 0.0
    radius: float = 1.0
    psi0: float = 0.0
    orient: float = 0.0

    def point_at(self, t):
        if self.type == _LINE:
            return self.ax + t * self.bx, self.ay + t * self.by
        psi = self.psi0 + self.orient * t / self.radius
        return (self.ax + self.radius * math.cos(psi),
                self.ay + self.radius * math.sin(psi))


@dataclass(eq=False)
class NavigationPath:
    """Immutable polyline-of-arcs path with arclen as the sole coordinate, equal only to itself."""

    exit_arm: int | None
    segments: list
    r_in: float
    total_length: float = field(init=False)

    def __post_init__(self):
        cum = [0.0]
        for seg in self.segments:
            cum.append(cum[-1] + seg.length)
        self._starts = cum[:-1]
        self.total_length = cum[-1]
        # column table for vectorised pose queries: the segment's start, then its fields
        self._table = np.array([[s0] + [getattr(s, f) for f in s.__slots__]
                                for s0, s in zip(self._starts, self.segments)], float).T

    def _segment_index(self, arclen):
        if not arclen >= 0.0:  # also rejects NaN
            raise ValueError(f"arclen must be non-negative, got {arclen}")
        return bisect_right(self._starts, arclen) - 1

    def pose(self, arclen):
        """Map arclen to (rho, theta, base label); extrapolates past the end."""
        i = self._segment_index(arclen)
        seg = self.segments[i]
        t = arclen - self._starts[i]
        if seg.type == _CIRCLE:
            theta = (seg.psi0 + seg.orient * t / seg.radius) % TWO_PI
            return seg.radius, theta, seg.label
        x, y = seg.point_at(t)
        return math.hypot(x, y), math.atan2(y, x) % TWO_PI, seg.label

    @staticmethod
    def pose_batch(paths, which, arclens):
        """Vectorised ``pose`` of ``arclens`` on ``paths[which]`` (broadcast; a scalar 0 poses
        one path): (rho, theta, label_code) arrays.  On the paths' stacked segment tables
        (``_stack``) a point's segment is its path's first plus the count of its starts at or
        before it."""
        s = np.asarray(arclens, dtype=float)
        if not (s >= 0.0).all():  # also rejects NaN
            raise ValueError("arclen must be non-negative")
        starts, first, table = _stack(tuple(paths))
        # take, not fancy indexing: on a step's few points an index on a non-leading axis
        # measured 2.5x the time of the gather
        idx = first.take(which) + (starts.take(which, axis=0) <= s[..., None]).sum(axis=-1)
        s0, kind, label, _, ax, ay, bx, by, radius, psi0, orient = table.take(idx, axis=1)
        t = s - s0
        psi = psi0 + orient * t / radius
        line = kind == _LINE
        x = np.where(line, ax + t * bx, ax + radius * np.cos(psi))
        y = np.where(line, ay + t * by, ay + radius * np.sin(psi))
        circle = kind == _CIRCLE
        rho = np.where(circle, radius, np.hypot(x, y))
        theta = np.where(circle, psi, np.arctan2(y, x))
        theta %= TWO_PI
        return rho, theta, label.astype(np.int8)

    def project(self, x, y):
        """(arclen, squared distance) of the path point nearest to (x, y); first minimum wins."""
        best_s, best_d2 = 0.0, math.inf
        for i, seg in enumerate(self.segments):
            s0 = self._starts[i]
            if seg.type == _LINE:
                t = (x - seg.ax) * seg.bx + (y - seg.ay) * seg.by
                t = min(max(t, 0.0), seg.length)
            else:
                phi = math.atan2(y - seg.ay, x - seg.ax)
                t = ((phi - seg.psi0) * seg.orient) % TWO_PI * seg.radius
                if t > seg.length:
                    # off the arc span: nearer endpoint
                    t = 0.0 if _point_d2(seg, 0.0, x, y) <= _point_d2(seg, seg.length, x, y) else seg.length
            d2 = _point_d2(seg, t, x, y)
            if d2 < best_d2 - 1e-12:
                best_s, best_d2 = s0 + t, d2
        return best_s, best_d2


@functools.lru_cache(maxsize=64)
def _stack(paths):
    """The stacked segment tables of a tuple of paths, read by ``pose_batch``: each path's
    starts as a row, NaN-padded (never at or before an arclen), the column of each path's
    first segment less one, and the segment columns side by side.  Paths hash by identity, so
    a step's distinct paths, which recur from step to step, are stacked once while they recur;
    the bound keeps a campaign's ever-new path lists from piling up."""
    starts = np.array(list(zip_longest(*(p._starts for p in paths), fillvalue=math.nan))).T
    first = np.cumsum([-1] + [len(p.segments) for p in paths[:-1]])
    table = np.concatenate([p._table for p in paths], axis=1)
    for a in (starts, first, table):
        a.flags.writeable = False  # shared by every call on the same paths
    return starts, first, table


def _point_d2(seg, t, x, y):
    px, py = seg.point_at(t)
    return (px - x) ** 2 + (py - y) ** 2


@dataclass(eq=False)
class Geometry:
    """The roundabout of a spec (valid by construction), every path built once; equal only to
    itself, so it can key caches.

    ``paths`` maps each ``PathKind`` to its full navigation path.
    ``entry_hypotheses`` maps each ``PathKind`` (arm-major, then in
    ``Maneuver`` order) to its entry connector followed by indefinite
    circulation, for observed entering vehicles.  ``exit_hypotheses[arm]`` is
    one circulation lap then a straight-maneuver exit at ``arm``; ``circle``
    is pure circulation on the driving circle, for observed inside vehicles.
    """

    spec: RoundaboutSpec
    arm_angles: tuple = field(init=False)

    def __post_init__(self):
        r_in = self.spec.r_in
        self.arm_angles = self.spec.arm_angles()
        self.paths, self.entry_hypotheses = {}, {}
        for arm in range(self.spec.ways):
            for maneuver in Maneuver:
                kind = PathKind(maneuver, arm)
                self.paths[kind] = build_path(self, kind)
                merge = self.arm_angles[arm] + self.spec.connector_angle(maneuver) / 2.0
                segs = _entry_segments(self, kind) + [_ring(r_in, 3 * TWO_PI * r_in, merge)]
                self.entry_hypotheses[kind] = NavigationPath(None, segs, r_in)
        chi = self.spec.theta2 / 2.0
        self.exit_hypotheses = tuple(
            NavigationPath(arm, [_ring(r_in, TWO_PI * r_in, (alpha - chi) % TWO_PI)]
                           + _exit_segments(self, arm, chi), r_in)
            for arm, alpha in enumerate(self.arm_angles))
        self.circle = NavigationPath(None, [_ring(r_in, 4 * TWO_PI * r_in, 0.0)], r_in)

    @property
    def r_in(self):
        return self.spec.r_in


def build_roundabout(spec: RoundaboutSpec) -> Geometry:
    """The roundabout of ``spec``, which validated itself on construction."""
    return Geometry(spec)


def _ring(r_in, length, psi0):
    """Counter-clockwise stretch of the driving circle starting at angle ``psi0``."""
    return Segment(_CIRCLE, Status.INSIDE, length, radius=r_in, psi0=psi0, orient=1.0)


def _entry_segments(geom, kind):
    """Approach lane plus entry connector, tangent at the merge point."""
    spec = geom.spec
    alpha = geom.arm_angles[kind.arm]
    chi = spec.connector_angle(kind.maneuver) / 2.0
    phi_in = alpha + chi
    rc = spec.r_in + spec.r_en
    qx, qy = rc * math.cos(phi_in), rc * math.sin(phi_in)
    # lane normal points to the inbound driver's right
    nx, ny = math.cos(alpha + math.pi / 2.0), math.sin(alpha + math.pi / 2.0)
    sx, sy = qx - spec.r_en * nx, qy - spec.r_en * ny
    ux, uy = math.cos(alpha), math.sin(alpha)
    approach = Segment(_LINE, Status.ENTER, spec.approach_len,
                       ax=sx + spec.approach_len * ux, ay=sy + spec.approach_len * uy,
                       bx=-ux, by=-uy)
    connector = Segment(_ARC, Status.ENTER, spec.r_en * (math.pi / 2.0 - chi),
                        ax=qx, ay=qy, radius=spec.r_en,
                        psi0=alpha - math.pi / 2.0, orient=-1.0)
    return [approach, connector]


def _exit_segments(geom, arm, chi):
    """Exit connector plus outbound lane, tangent at the departure point."""
    spec = geom.spec
    alpha = geom.arm_angles[arm]
    phi_out = alpha - chi
    rc = spec.r_in + spec.r_en
    qx, qy = rc * math.cos(phi_out), rc * math.sin(phi_out)
    connector = Segment(_ARC, Status.EXIT, spec.r_en * (math.pi / 2.0 - chi),
                        ax=qx, ay=qy, radius=spec.r_en,
                        psi0=phi_out + math.pi, orient=-1.0)
    nx, ny = math.cos(alpha + math.pi / 2.0), math.sin(alpha + math.pi / 2.0)
    sx, sy = qx + spec.r_en * nx, qy + spec.r_en * ny
    lane = Segment(_LINE, Status.EXIT, spec.approach_len,
                   ax=sx, ay=sy, bx=math.cos(alpha), by=math.sin(alpha))
    return [connector, lane]


def build_path(geometry: Geometry, kind: PathKind) -> NavigationPath:
    """Full navigation path for ``kind``: approach, merge, circulate, exit."""
    spec = geometry.spec
    if not 0 <= kind.arm < spec.ways:
        raise ValueError(f"arm index {kind.arm} out of range for {spec.ways}-way roundabout")
    exit_arm = (kind.arm + _MANEUVER_STEPS[kind.maneuver]) % spec.ways
    chi = spec.connector_angle(kind.maneuver) / 2.0
    phi_in = geometry.arm_angles[kind.arm] + chi
    phi_out = geometry.arm_angles[exit_arm] - chi
    extent = (phi_out - phi_in) % TWO_PI
    if extent > TWO_PI - 1e-9:
        extent = 0.0  # degenerate shortcut: connectors meet on the circle
    segs = _entry_segments(geometry, kind)
    if extent > 1e-12:
        segs.append(_ring(spec.r_in, spec.r_in * extent, phi_in % TWO_PI))
    segs.extend(_exit_segments(geometry, exit_arm, chi))
    return NavigationPath(exit_arm, segs, spec.r_in)

