"""Single-vehicle longitudinal dynamics along a navigation path.

A vehicle is a point constrained to its path; its configuration is the polar
position about the roundabout centre, forward speed, and traversal status.
One control step applies a constant acceleration for ``delta`` seconds with
the usual kinematic update

    arclen' = arclen + v*delta + a*delta^2 / 2,    v' = v + a*delta,

except that braking through zero stops at the standstill point: when
``v + a*delta < 0`` the vehicle travels ``v^2 / (2|a|)`` and ends with
``v' = 0`` (no reversing).  This update lives in one scalar kernel,
``_advance``, which both ``step`` and ``rollout`` use.

Status advances monotonically enter -> inside -> exit against the occupancy
disc of radius ``r_in + diameter``: a vehicle becomes *inside* when its
centre distance first drops to that radius and *exit* when the distance first
exceeds it again.  Because centre distance is monotone along each block of
every path built here, this hysteresis rule is equivalent to switching at the
two crossing arclens.

``rollout`` takes a batch of requests (a simulation step's worth) and
advances every strategy of the first-stage alphabet of each in scalar code;
then it maps the later stage arclens of all requests on one path to poses
with a single ``pose_batch`` call, one per distinct path in the batch.  Poses
stay on ``pose_batch`` rather than the scalar ``pose`` because numpy's
``arctan2`` and ``hypot`` differ from libm's in the last ulp at some points
(about 3% of line and arc points sampled on the default geometry), so a
scalar rollout would not reproduce the same arrays bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .geometry import NavigationPath, Status

#: vehicle occupancy diameter [m]; also the collision distance
VEHICLE_DIAMETER = 4.5

__all__ = ["Configuration", "Rollout", "VEHICLE_DIAMETER", "step", "advance_status",
           "rollout"]


@dataclass(frozen=True)
class Configuration:
    """Vehicle state: polar pose, speed, status, and optional path coordinate.

    ``arclen`` binds the configuration to a point on a specific path; it is
    None for configurations observed of *other* vehicles, whose paths are
    unknown.
    """

    r: float
    theta: float
    v: float
    status: Status
    arclen: float | None = None

    def xy(self):
        return self.r * math.cos(self.theta), self.r * math.sin(self.theta)


# plain names: enum attribute lookup would dominate the per-stage status update
_ENTER, _INSIDE, _EXIT = Status.ENTER, Status.INSIDE, Status.EXIT


def advance_status(status: Status, rho: float, threshold: float) -> Status:
    """One hysteresis update of the traversal status given centre distance."""
    if status == _ENTER and rho <= threshold:
        return _INSIDE
    if status == _INSIDE and rho > threshold:
        return _EXIT
    return status


def _check_inputs(v: float, delta: float) -> None:
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if v < 0.0:
        raise ValueError(f"speed must be non-negative, got {v}")


def _advance(s: float, v: float, a: float, delta: float) -> tuple[float, float]:
    """One kinematic step from arclen ``s`` at speed ``v``: ``(s', v')``."""
    v_next = v + a * delta
    if v_next < 0.0:
        return s + v * v / (2.0 * abs(a)), 0.0  # brake to standstill mid-step
    return s + (v * delta + 0.5 * a * delta * delta), v_next


def step(x: Configuration, a: float, delta: float, path: NavigationPath,
         diameter: float = VEHICLE_DIAMETER) -> Configuration:
    """Apply acceleration ``a`` for ``delta`` seconds along ``path``."""
    _check_inputs(x.v, delta)
    if x.arclen is None:
        raise ValueError("configuration is not bound to a path position")
    arclen, v_next = _advance(x.arclen, x.v, a, delta)
    rho, theta, _ = path.pose(arclen)
    status = advance_status(x.status, rho, path.r_in + diameter)
    return Configuration(r=rho, theta=theta, v=v_next, status=status, arclen=arclen)


@dataclass
class Rollout:
    """States of one vehicle under every candidate strategy.

    All arrays are ``(n_strategies, horizon)``; column ``tau`` is the state
    at stage ``tau``, so column 0 repeats the shared start state and column
    1 is the first state the strategy's acceleration produces.
    """

    theta: np.ndarray
    rho: np.ndarray
    v: np.ndarray
    status: np.ndarray  # int8 Status codes


def rollout(requests: Sequence[tuple], accels: Sequence[float], horizon: int, delta: float,
            diameter: float = VEHICLE_DIAMETER) -> List[Rollout]:
    """``step`` over every strategy of every request: same kernel, same hysteresis.

    Each request ``(path, arclen0, v0, status0)`` gets one ``Rollout``, in
    request order.  Strategy ``i`` applies the first-stage acceleration
    ``accels[i]`` at stage 0 and coasts for the remaining ``horizon - 2``
    steps; that is the whole strategy space, as only the first stage is ever
    executed.  Stage 0 comes from scalar ``pose``; the later stage arclens
    of all requests on one path go through one ``pose_batch`` call (see the
    module docstring for why).
    """
    accels = [float(a) for a in accels]
    shape = (len(requests), len(accels), horizon)
    rho, theta = np.empty(shape), np.empty(shape)
    arcs, vels, on_path = [], [], {}
    for k, (path, arclen0, v0, _) in enumerate(requests):
        v0, arclen0 = float(v0), float(arclen0)
        _check_inputs(v0, delta)
        rho[k, :, 0], theta[k, :, 0], _ = path.pose(arclen0)
        for a in accels:
            s, v = _advance(arclen0, v0, a, delta)
            arcs.append([s])
            vels.append([v0, v])
            for _ in range(horizon - 2):
                s, v = _advance(s, v, 0.0, delta)
                arcs[-1].append(s)
                vels[-1].append(v)
        on_path.setdefault(path, []).append(k)
    arcs = np.array(arcs).reshape(shape[:2] + (horizon - 1,))
    for path, ks in on_path.items():
        r_t, th_t, _ = path.pose_batch(arcs[ks].ravel())
        rho[ks, :, 1:] = r_t.reshape(len(ks), len(accels), horizon - 1)
        theta[ks, :, 1:] = th_t.reshape(len(ks), len(accels), horizon - 1)
    codes = []
    for (path, _, _, status0), r_rows in zip(requests, rho[:, :, 1:].tolist()):
        thr = path.r_in + diameter
        for r_row in r_rows:
            st = status0
            codes.append([st] + [st := advance_status(st, r, thr) for r in r_row])
    status = np.array(codes, dtype=np.int8).reshape(shape)
    v = np.array(vels).reshape(shape)
    return [Rollout(theta=theta[k], rho=rho[k], v=v[k], status=status[k])
            for k in range(len(requests))]
