"""Stage costs traded off by each vehicle: keep clear of neighbours, keep speed.

The per-step cost of a vehicle is a convex combination, weighted by its
aggressiveness ``w``, of a safety term and a speed term:

    cost = (1 - w) * safe + w * speed.

The safety term is the worse of a front-vehicle and a back-vehicle penalty;
both grow quadratically as the gap ``d`` closes on the interaction range
``D`` and jump to an effectively infinite wall ``E_inf`` when the gap drops
below a context-dependent comfort threshold (``D_en`` when merging into
circulating traffic, the following distance ``D_c`` otherwise).  A
circulating vehicle discounts queued entering traffic with the softer
coefficient ``C_ins``.  The speed term penalises deviation from the
reference speed ``v_l``, overspeeding much harder than dawdling, with
creeping punished more inside the roundabout than on approach/exit lanes.

Pair gaps combine the counter-clockwise driving-circle arc between the two
position angles with the radial offset:

    d(i, j) = hypot(r_in * ((theta_j - theta_i) mod 2pi), rho_i - rho_j)

so that a queue on an approach lane (tiny angular gap, matching radial
spacing) measures its true spacing rather than collapsing to zero, while on
the driving circle the radial term vanishes and the gap is the pure arc
length.  The hypot form (rather than the sum) matters at merges, where the
gap splits between both components: a comfort wall at ``D_c`` then still
guarantees roughly ``D_c`` of true clearance, whereas a summed gap of ``D_c``
can shrink to ``D_c / sqrt(2)`` of actual separation.

``pair_sides`` prices ordered pairs of a rollout table's rows and
``speed_sums`` each row's speed term, so one call of each over a step's table
serves every game of the step.  ``pair_safety`` sums each ordered pair's
discounted safety cost from its sides: in a two-player game each player has
one candidate neighbour, so that is the player's whole safety term, priced
once per step for every two-player game and re-estimation.
``payoff_tensors`` turns one game's speed and pair rows into one
discounted-cost array ``(K, S, ..., S)``, a tensor per player with one
strategy axis per player, players and axes in ascending id order, which the
game solver consumes directly.  A ``(K, B)`` weight matrix adds a batch axis
after the player axis, which is how the estimator prices one game under every
candidate aggressiveness in one call.  The scalar per-vehicle forms of the
same terms live in ``tests/oracles.py`` as the independent reference the
tensors are checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI, Status

# side windows on the ccw gap in [0, 2pi), front then back: [0, pi] and (0, pi)
_WINDOW_LO = np.array([-np.inf, 0.0]).reshape(2, 1, 1, 1, 1)
_WINDOW_HI = np.array([math.pi, math.nextafter(math.pi, 0.0)]).reshape(2, 1, 1, 1, 1)

__all__ = ["CostParams", "horizon_weights", "pair_sides", "pair_safety", "speed_sums",
           "payoff_tensors"]


@dataclass(frozen=True)
class CostParams:
    """Cost coefficients; defaults are the reference parameterisation."""

    lam: float = 0.8        # per-step discount
    E_inf: float = 1e12     # hard-wall cost
    C: float = 10.0         # proximity coefficient, circulating pairs
    C_ins: float = 1.0      # proximity coefficient toward entering traffic
    C_en: float = 1.0       # speed-tracking coefficient while entering/exiting
    C_in: float = 10.0      # speed-tracking coefficient while inside
    C_o: float = 1e3        # overspeed coefficient
    D: float = 30.0         # interaction range [m]
    D_en: float = 10.0      # merge comfort distance [m]
    D_c: float = 6.0        # following comfort distance [m]
    v_l: float = 11.0       # reference speed [m/s]

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"discount lam must be in (0, 1), got {self.lam}")
        for name in ("E_inf", "C", "C_ins", "C_en", "C_in", "C_o", "D", "D_en", "D_c", "v_l"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.D_c < self.D_en < self.D:
            raise ValueError("comfort distances must satisfy D_c < D_en < D")
        if not self.C_ins < self.C:
            raise ValueError("C_ins must be smaller than C")
        if not (self.C_o > self.C_in and self.C_o > self.C_en):
            raise ValueError("overspeed coefficient C_o must dominate C_in and C_en")


def horizon_weights(lam: float, horizon: int) -> np.ndarray:
    """Discount weights ``lam**tau`` for the horizon stages ``tau = 0..h-1``."""
    return lam ** np.arange(horizon)


@functools.lru_cache(maxsize=8)
def _tables(params: CostParams, horizon: int):
    """Discount weights, then by status code ``3 * ego + other`` the range a pair
    counts within (none once either exited), the proximity coefficient and the
    comfort wall (none where ``C_ins`` applies, ``D_en`` when merging)."""
    ego, other = np.divmod(np.arange(9), 3)
    soft = (ego == Status.INSIDE) & (other == Status.ENTER)
    merge = (ego == Status.ENTER) & (other == Status.INSIDE)
    reach = np.where((ego == Status.EXIT) | (other == Status.EXIT), -np.inf, params.D)
    coef = np.where(soft, params.C_ins, params.C)
    wall = np.where(soft, -np.inf, np.where(merge, params.D_en, params.D_c))
    return horizon_weights(params.lam, horizon), reach, coef, wall


@functools.lru_cache(maxsize=8)
def pair_order(K: int):
    """Ordered pairs ``p != q`` of K players, ego-major: lists of ``p`` and ``q``."""
    ego, other = np.nonzero(~np.eye(K, dtype=bool))
    return ego.tolist(), other.tolist()


def pair_sides(table, ego, other, rev, params: CostParams, r_in: float) -> np.ndarray:
    """Front and back ``(candidate gap, side cost)`` of ordered pairs of a rollout table's rows.

    Pair ``n`` is rows ``ego[n]`` and ``other[n]``, its reverse pair
    ``rev[n]``; ``pair_order(K)`` gives one game's.  The result is ``(2, 2,
    P, S, S, h)``, indexed ``[value, side, n, i, j, t]``: gap (0) or cost
    (1), front (0) or back (1), ego playing ``i``, other playing ``j``, stage
    ``t``.  A gap of ``inf`` marks a vehicle outside ego's window on that
    side, whose cost is 0.  The back gap and distance from ``p`` to ``q`` are
    the front ones from ``q`` to ``p``, a transpose: each gap is still
    reduced from its own raw angle difference (a mod of the negated front gap
    would round tiny gaps to zero).  All operations are elementwise over
    pairs, so a pair's prices do not depend on the call's other pairs.
    """
    theta, rho, stat = table.theta, table.rho, table.status
    _, reach, coef, wall = _tables(params, theta.shape[-1])
    # take on index arrays, not fancy indexing: a list index measured 2-5x the gather's time
    # on a step's few rows, and the lookups by int8 ``code`` 1.4x
    ego, other, rev = (np.asarray(rows, np.intp) for rows in (ego, other, rev))
    gap = (theta.take(other, axis=0)[:, None] - theta.take(ego, axis=0)[:, :, None]) % TWO_PI
    d = np.hypot(r_in * gap, np.abs(rho.take(ego, axis=0)[:, :, None]
                                    - rho.take(other, axis=0)[:, None]))
    gap = np.array([gap, gap.take(rev, axis=0).transpose(0, 2, 1, 3)])
    d = np.array([d, d.take(rev, axis=0).transpose(0, 2, 1, 3)])
    code = 3 * stat.take(ego, axis=0)[:, :, None] + stat.take(other, axis=0)[:, None]

    # in place where it is free: a whole step's pairs make these arrays a run's memory peak
    skip = ~((d < reach.take(code)) & (gap > _WINDOW_LO) & (gap <= _WINDOW_HI))
    val = coef.take(code) * (params.D - d) ** 2
    val += np.where(d <= wall.take(code), params.E_inf, 0.0)
    # putmask, not a boolean-mask store, which measured 2.3x its time on these arrays
    np.putmask(gap, skip, np.inf)
    np.putmask(val, skip, 0.0)
    return np.array([gap, val])


def pair_safety(sides: np.ndarray, params: CostParams) -> np.ndarray:
    """Discounted safety cost of ordered pairs, each pair alone: ``(P, S, S)`` from ``pair_sides``.

    Entry ``[n, i, j]`` is the cost to pair ``n``'s ego, playing ``i`` against
    its other playing ``j``, of the worse of its front and back side, summed
    over the horizon: a two-player game's safety term.  It is the same
    ``np.maximum``, weights and sum over the contiguous horizon axis that
    ``_nearest_safe`` applies after its selection, which a single candidate
    leaves as is, so the two agree bit for bit.
    """
    stage = np.maximum(sides[1, 0], sides[1, 1])
    stage *= _tables(params, sides.shape[-1])[0]
    return stage.sum(axis=-1)


def speed_sums(table, params: CostParams) -> np.ndarray:
    """Discounted speed cost of every strategy of every row of a rollout table: ``(R, S)``.  A
    row depends on its rollout alone, so one call prices a step's rollouts for all its games."""
    v, stat = table.v, table.status
    dv2 = (params.v_l - v) ** 2
    speed = np.where(v > params.v_l, params.C_o * dv2,
                     np.where(stat == int(Status.ENTER), params.C_en * dv2,
                              params.C_in * dv2))
    return (speed * _tables(params, v.shape[-1])[0]).sum(axis=-1)


@functools.lru_cache(maxsize=8)
def _joint_index(K: int, S: int):
    """Flat gather indices over the joint strategy space, whose digits ``d`` are the players'
    strategies in ascending id order.  Speed, ``(K, S**K)``: player ``p`` reads entry ``(p, d_p)``
    of the game's ``(K, S)`` rows.  Pairs, ``(K - 1, K, S**K)``: ``p``'s pair with the other ``q``
    at rank ``r`` reads entry ``(p(K-1) + r, d_p, d_q)`` of its ``(K(K-1), S, S)`` blocks."""
    digits = np.indices((S,) * K).reshape(K, -1)
    speed = np.arange(K)[:, None] * S + digits
    pairs = np.array([[((p * (K - 1) + r) * S + digits[p]) * S + digits[r + (r >= p)]
                       for p in range(K)] for r in range(K - 1)], dtype=np.intp)
    return speed, pairs.reshape(K - 1, K, S**K)


@functools.lru_cache(maxsize=8)
def _joint_buffers(K: int, SK: int, h: int):
    """Scratch arrays of ``_nearest_safe`` for one joint shape: the running best and the current
    rank's ``(gap, cost)`` gathers, ``(2, 2, K, SK, h)`` each, their side-wise comparison mask,
    and the ``(K, SK, h)`` discounted stage costs."""
    joint = (2, 2, K, SK, h)
    return (np.empty(joint), np.empty(joint), np.empty(joint[1:], dtype=bool),
            np.empty((K, SK, h)))


def _nearest_safe(sides, pairs: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Every player's discounted safety cost over the joint strategy space: ``(K, S**K)``.

    Takes one game's ``pair_sides`` rows, ``(2, 2, K(K-1), S, S, h)``, and
    ``_joint_index``'s pair indices.  Each rank's gather reads every player's
    block with that other into a contiguous ``(2, 2, K, S**K, h)`` joint
    array, all players and both sides at once.  The nearest-by-angle
    neighbour per side is a running strict minimum over the other players in
    ascending id order, which keeps the first (lowest-id) tie like argmin.
    The horizon stays the contiguous last axis of the discounted sum, which
    fixes its addition order.

    ``payoff_tensors`` calls it for K >= 3 only: with one other player the
    selection has a single candidate, which ``pair_safety`` prices directly.

    The joint arrays live across calls, one set per shape (``_joint_buffers``),
    and only the returned sum is new, so nothing a call returns points into
    them; calls must not overlap, and a process prices one game at a time.  A
    four-player game's gathers are 320 KB each, large enough that the
    allocator hands freed ones back to the kernel, so fresh arrays cost every
    such game its page faults again.  ``take`` fills them with
    ``mode="clip"``, since under the default ``"raise"`` it gathers into a
    temporary first; clipping changes nothing because every index of
    ``_joint_index(K, S)`` is below ``K(K-1) S S``, the block count that
    ``payoff_tensors`` checks ``sides`` against.
    """
    blocks = sides.reshape(2, 2, -1, sides.shape[-1])
    best, cur, less, stage = _joint_buffers(*pairs.shape[1:], blocks.shape[-1])
    np.take(blocks, pairs[0], axis=2, out=best, mode="clip")
    for i in pairs[1:]:
        np.take(blocks, i, axis=2, out=cur, mode="clip")
        np.less(cur[0], best[0], out=less)
        np.copyto(best, cur, where=less)
    np.maximum(best[1, 0], best[1, 1], out=stage)
    stage *= wts
    return stage.sum(axis=-1)


def payoff_tensors(speed: np.ndarray, w, pairs: np.ndarray, params: CostParams) -> np.ndarray:
    """Discounted game costs over the joint strategy space: one ``(K,) + (S,) * K`` array.

    ``speed`` holds the ``speed_sums`` rows of the game's players, ``(K, S)``,
    *in ascending vehicle-id order* (neighbour ties resolve to the earlier
    player); all players share one strategy alphabet of size ``S``.
    ``pairs`` holds the rows of the game's ``K(K-1)`` ordered pairs in
    ``pair_order(K)``: for K = 2 their ``pair_safety`` rows, ``(2, S, S)``,
    for K >= 3 their ``pair_sides`` rows; a one-player game reads none.  Rows
    of another alphabet size raise ``ValueError``.  Stages where a vehicle
    has exited contribute no pair terms.  Entry ``p`` of the result is player
    ``p``'s cost ``(1 - w[p]) * safe[p] + w[p] * speed[p]``, its strategy
    axes the players' in the same id order.  The weights ``w`` are a ``(K,)``
    vector, or a ``(K, B)`` matrix with one column per game of a batch; the
    result is then ``(K, B) + (S,) * K``.

    Only the nearest-neighbour selection of K >= 3 runs in joint space; a
    two-player game gathers its safety terms from the pair rows through the
    same joint indices.  A one-player game has no pair terms, so its costs
    are ``w * speed``, which for ``w`` in [0, 1] and non-negative speeds is
    ``(1 - w) * 0 + w * speed`` bit for bit.
    """
    K, S = speed.shape
    w = np.asarray(w, dtype=float)
    if K == 1:
        return w[..., None] * speed
    speed_at, pairs_at = _joint_index(K, S)
    if (pairs.shape if K == 2 else pairs.shape[2:5]) != (K * (K - 1), S, S):
        raise ValueError("players must share one strategy alphabet")
    if K == 2:
        safe = pairs.take(pairs_at[0])
    else:
        safe = _nearest_safe(pairs, pairs_at, _tables(params, pairs.shape[-1])[0])
    joint = (K,) + (1,) * (w.ndim - 1) + (S,) * K  # a batch axis, if any, stays 1 here
    w = w.reshape(w.shape + (1,) * K)
    return (1.0 - w) * safe.reshape(joint) + w * speed.take(speed_at).reshape(joint)
