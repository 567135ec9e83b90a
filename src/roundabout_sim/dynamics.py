"""Single-vehicle longitudinal dynamics along a navigation path.

A vehicle is a point constrained to its path; its configuration is the polar
position about the roundabout centre, forward speed, and traversal status.
One control step applies a constant acceleration for ``delta`` seconds with
the usual kinematic update

    arclen' = arclen + v*delta + a*delta^2 / 2,    v' = v + a*delta,

except that braking through zero stops at the standstill point: when
``v + a*delta < 0`` the vehicle travels ``v^2 / (2|a|)`` and ends with
``v' = 0`` (no reversing).  This update lives in one kernel, ``_advance``,
which takes floats or arrays; ``step`` and ``rollout`` both use it.

Status advances monotonically enter -> inside -> exit against the occupancy
disc of radius ``r_in + diameter``: a vehicle becomes *inside* when its
centre distance first drops to that radius and *exit* when the distance first
exceeds it again.  Because centre distance is monotone along each block of
every path built here, this hysteresis rule is equivalent to switching at the
two crossing arclens.  ``advance_status`` applies it to a code or an array.

``rollout`` advances every strategy of a batch of requests (a simulation
step's worth) at once into one ``Rollout`` table.  Only stage 1 applies a
strategy's acceleration: one ``_advance`` call on the requests' ``(R, 1)``
start columns against the ``(S,)`` alphabet.  Every later stage coasts, and
at ``a = 0`` ``_advance`` gives exactly ``v' = v`` and ``s' = s + v*delta``
(``v + 0*delta`` is ``v``, the stop branch is a 0 mask times a finite
number, and the added zeros change no bit), so each coasting stage's arclen
is one ``np.add`` of ``v1*delta`` to the stage before: the same additions in
the same order as stepping stage by stage.  Status comes
from one pass over all stages (``_status_run``), the same codes as iterating
the hysteresis stage by stage.  All later stage arclens map to poses with a
single ``NavigationPath.pose_batch`` call over the batch's distinct paths.
Stage 0 is the caller's, which the simulator poses with the scalar ``pose``
as ``step`` does, so the table is the same bit for bit.  Later stages stay on
``pose_batch`` because numpy's ``arctan2`` and ``hypot`` differ from libm's
in the last ulp at some points (about 3% of line and arc points sampled on
the default geometry), so rollouts of the two kinds would not agree bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


# plain ints: an enum attribute lookup would dominate a scalar status update, and
# comparing an array with an enum member costs several times a plain int
_ENTER, _INSIDE, _EXIT = int(Status.ENTER), int(Status.INSIDE), int(Status.EXIT)
_STATUS = tuple(Status)  # by code


def advance_status(status, rho, threshold):
    """One hysteresis update of status codes given centre distance: floats or arrays.

    Enter -> inside at or below ``threshold`` and inside -> exit above it are
    each one code up, so the update adds the two masks (an int for a
    ``Status``, the array's own dtype for an array of codes).
    """
    return (status + ((status == _ENTER) & (rho <= threshold))
            + ((status == _INSIDE) & (rho > threshold)))


def _status_run(start, rho, threshold):
    """``advance_status`` iterated along the last axis, in one pass: int8 codes ``(..., h)``.

    ``rho`` holds the centre distances of stages ``1..h-1``; ``start`` (the
    codes of stage 0) and ``threshold`` broadcast against it, a last axis of
    1 included.  A vehicle has entered by stage ``t`` if it started past
    enter or was in the disc at some stage up to ``t``; it has left by ``t``
    if it started exited or was out of the disc at some stage whose previous
    stage had entered.  Its code is the sum of the two running ors.  "Out"
    is "not in", which differs from ``advance_status`` only at a NaN
    distance, and ``pose_batch`` returns none.
    """
    inside = np.empty(rho.shape[:-1] + (rho.shape[-1] + 1,), dtype=bool)
    inside[..., :1] = start != _ENTER
    np.less_equal(rho, threshold, out=inside[..., 1:])
    entered = np.logical_or.accumulate(inside, axis=-1)
    left = np.empty_like(inside)
    left[..., :1] = start == _EXIT
    np.greater(entered[..., :-1], inside[..., 1:], out=left[..., 1:])  # entered, now out
    np.logical_or.accumulate(left, axis=-1, out=left)
    return np.add(entered, left, dtype=np.int8)


def _check_inputs(s, v, delta: float) -> None:
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not s >= 0.0:  # also rejects NaN
        raise ValueError(f"arclen must be non-negative, got {s}")
    if not v >= 0.0:  # also rejects NaN
        raise ValueError(f"speed must be non-negative, got {v}")


def _advance(s, v, a, delta):
    """One kinematic step from arclen ``s`` at speed ``v``: ``(s', v')``, floats or arrays.

    Each branch's displacement is multiplied by its 0/1 mask, which is exact
    and needs no numpy call on floats; where the vehicle keeps going, 1 added
    to the divisor keeps a zero ``a`` from dividing (a stop needs ``a < 0``).
    """
    v_next = v + a * delta
    go, stop = v_next >= 0.0, v_next < 0.0
    disp = go * (v * delta + 0.5 * a * delta * delta) + stop * (v * v / (2.0 * abs(a) + go))
    return s + disp, abs(go * v_next)  # abs: a stop's -0.0 becomes 0.0


def step(x: Configuration, a: float, delta: float, path: NavigationPath,
         diameter: float = VEHICLE_DIAMETER) -> Configuration:
    """Apply acceleration ``a`` for ``delta`` seconds along ``path``."""
    if x.arclen is None:
        raise ValueError("configuration is not bound to a path position")
    _check_inputs(x.arclen, x.v, delta)
    arclen, v_next = _advance(x.arclen, x.v, a, delta)
    rho, theta, _ = path.pose(arclen)
    status = _STATUS[advance_status(x.status, rho, path.r_in + diameter)]
    return Configuration(r=rho, theta=theta, v=v_next, status=status, arclen=arclen)


@dataclass
class Rollout:
    """States of a batch of vehicles under every candidate strategy.

    All arrays are ``(request, strategy, stage)``, so stage 0 repeats each
    shared start state and stage 1 is the first state a strategy produces.
    """

    theta: np.ndarray
    rho: np.ndarray
    v: np.ndarray
    status: np.ndarray  # int8 Status codes


def rollout(requests: Sequence[tuple], accels: Sequence[float], horizon: int, delta: float,
            diameter: float = VEHICLE_DIAMETER) -> Rollout:
    """``step`` over every strategy of a non-empty batch: same kernel, same hysteresis.

    Each request ``(path, arclen0, v0, rho0, theta0, status0)``, its stage 0
    posed as ``path.pose(arclen0)``, gets one row of the returned table, in
    request order; the paths share one ``r_in`` and so one status threshold.
    Strategy ``i`` applies the first-stage acceleration ``accels[i]`` at stage
    0 and coasts for the remaining ``horizon - 2`` steps: the whole strategy
    space, as only the first stage is ever executed.
    """
    paths = {}
    which = np.array([paths.setdefault(req[0], len(paths)) for req in requests])
    start = np.array([req[1:] for req in requests], dtype=float).T  # arclen, v, rho, theta, code
    r_in = {path.r_in for path in paths}
    if len(r_in) != 1:
        raise ValueError("a batch's paths must share one r_in")
    _check_inputs(*start[:2].min(axis=1).tolist(), delta)  # min propagates a NaN
    table = np.empty((4, len(requests), len(accels), horizon))
    table[..., 0] = start[:4, :, None]
    arc, v, rho, theta = table
    arc[:, :, 1], v[:, :, 1] = _advance(start[0, :, None], start[1, :, None],
                                        np.array(accels, float), delta)
    v[:, :, 2:] = v[:, :, 1:2]
    coast = v[:, :, 1] * delta
    for t in range(2, horizon):
        np.add(arc[:, :, t - 1], coast, out=arc[:, :, t])
    rho[:, :, 1:], theta[:, :, 1:], _ = NavigationPath.pose_batch(
        list(paths), which[:, None, None], arc[:, :, 1:])
    status = _status_run(start[4, :, None, None], rho[:, :, 1:], r_in.pop() + diameter)
    return Rollout(theta=theta, rho=rho, v=v, status=status)
