"""Reference implementations that tests compare the production kinematics against.

Each oracle is the straightforward form of a hot path: a linear segment
search for ``pose``, a per-segment-type masked evaluation for
``pose_batch``, and a numpy stage loop with one ``pose_batch`` per stage for
``rollout``.  The production code must agree with them bit for bit.
"""

import math

import numpy as np

from roundabout_sim.dynamics import VEHICLE_DIAMETER
from roundabout_sim.geometry import _ARC, _CIRCLE, _LINE, TWO_PI, Maneuver, PathKind, Status


def segment_starts(path):
    return np.cumsum([0.0] + [seg.length for seg in path.segments])[:-1]


def reference_pose(path, s):
    """``pose`` on the last segment starting at or before ``s``, found by scan."""
    if s < 0.0:
        raise ValueError(f"arclen must be non-negative, got {s}")
    starts = segment_starts(path)
    i = max(k for k in range(len(starts)) if starts[k] <= s)
    seg = path.segments[i]
    t = s - float(starts[i])
    if seg.type == _CIRCLE:
        return seg.radius, (seg.psi0 + seg.orient * t / seg.radius) % TWO_PI, Status(seg.label)
    x, y = seg.point_at(t)
    return math.hypot(x, y), math.atan2(y, x) % TWO_PI, Status(seg.label)


def reference_pose_batch(path, arclens):
    """``pose_batch`` evaluated one segment type at a time on masked subsets."""
    s = np.asarray(arclens, dtype=float)
    starts = segment_starts(path)
    idx = np.searchsorted(starts, s, side="right") - 1
    t = s - starts[idx]
    segs = [path.segments[i] for i in idx]
    p = np.array([(g.ax, g.ay, g.bx, g.by, g.radius, g.psi0, g.orient) for g in segs]).reshape(-1, 7)
    types = np.array([g.type for g in segs], dtype=np.int8)
    rho = np.empty_like(s)
    theta = np.empty_like(s)
    line = types == _LINE
    if line.any():
        x = p[line, 0] + t[line] * p[line, 2]
        y = p[line, 1] + t[line] * p[line, 3]
        rho[line] = np.hypot(x, y)
        theta[line] = np.arctan2(y, x) % TWO_PI
    arc = types == _ARC
    if arc.any():
        psi = p[arc, 5] + p[arc, 6] * t[arc] / p[arc, 4]
        x = p[arc, 0] + p[arc, 4] * np.cos(psi)
        y = p[arc, 1] + p[arc, 4] * np.sin(psi)
        rho[arc] = np.hypot(x, y)
        theta[arc] = np.arctan2(y, x) % TWO_PI
    circ = types == _CIRCLE
    if circ.any():
        rho[circ] = p[circ, 4]
        theta[circ] = (p[circ, 5] + p[circ, 6] * t[circ] / p[circ, 4]) % TWO_PI
    labels = np.array([int(g.label) for g in segs], dtype=np.int8)
    return rho, theta, labels


def reference_rollout(path, arclen0, v0, status0, accels, delta,
                      diameter=VEHICLE_DIAMETER):
    """``rollout`` as a numpy stage loop: (theta, rho, v, status, arclen)."""
    accels = np.asarray(accels, dtype=float)
    n, h = accels.shape
    thr = path.r_in + diameter
    theta = np.empty((n, h))
    rho = np.empty((n, h))
    vel = np.empty((n, h))
    status = np.empty((n, h), dtype=np.int8)
    arc = np.empty((n, h))
    rho0, theta0, _ = reference_pose(path, arclen0)
    theta[:, 0] = theta0
    rho[:, 0] = rho0
    vel[:, 0] = v0
    status[:, 0] = int(status0)
    arc[:, 0] = arclen0
    v = np.full(n, float(v0))
    s = np.full(n, float(arclen0))
    st = np.full(n, int(status0), dtype=np.int8)
    for tau in range(1, h):
        a = accels[:, tau - 1]
        v_next = v + a * delta
        neg = v_next < 0.0
        denom = np.where(neg, np.abs(a), 1.0)
        disp = np.where(neg, v * v / (2.0 * denom), v * delta + 0.5 * a * delta * delta)
        v = np.where(neg, 0.0, v_next)
        s = s + disp
        r_t, th_t, _ = reference_pose_batch(path, s)
        st = np.where((st == int(Status.ENTER)) & (r_t <= thr),
                      int(Status.INSIDE), st).astype(np.int8)
        st = np.where((st == int(Status.INSIDE)) & (r_t > thr),
                      int(Status.EXIT), st).astype(np.int8)
        theta[:, tau] = th_t
        rho[:, tau] = r_t
        vel[:, tau] = v
        status[:, tau] = st
        arc[:, tau] = s
    return theta, rho, vel, status, arc


def all_paths(geom):
    """Every navigation path and every hypothesis path of ``geom``."""
    kinds = [PathKind(m, a) for m in Maneuver for a in range(geom.spec.ways)]
    paths = [geom.path(k) for k in kinds]
    paths += [geom.entry_hypothesis(k) for k in kinds]
    paths += [geom.exit_hypothesis(arm) for arm in range(geom.spec.ways)]
    paths.append(geom.circle_hypothesis())
    return paths


def boundary_arclens(path):
    """0, every segment start with both float neighbours, and past the end."""
    out = [0.0]
    for s in segment_starts(path)[1:].tolist():
        out += [math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf)]
    return out + [path.total_length, path.total_length + 7.5]
