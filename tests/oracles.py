"""Reference implementations that tests compare the production hot paths against.

Each oracle is the straightforward form of a hot path: a linear segment
search for ``pose``, a per-segment-type masked evaluation for
``pose_batch``, a numpy stage loop with one ``pose_batch`` per stage for
``rollout``, per-tensor gathers for ``tensor_equilibrium``, per-unordered-pair
arrays broadcast into joint space for ``payoff_tensors``, and one
equilibrium per candidate weight for the estimator.  The production code must
agree with them bit for bit.  ``SequentialGame`` and ``solve`` walk the game
tree through a payoff callable, an independent check of the tensor solver.
``decide_alone`` and ``pairs_with_reverse`` drive the package's step API one
decision or one game at a time.

The scalar stage costs (``phi_front``, ``phi_back``, ``phi_safe``,
``phi_speed``, ``step_cost``) and neighbour selection (``front_back``) are
the per-vehicle form of ``payoff_tensors``; the geometry and status helpers
state path invariants the simulator relies on but never evaluates.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from roundabout_sim.agent import decide, prepare_step
from roundabout_sim.cost import CostParams, horizon_weights, pair_order
from roundabout_sim.dynamics import VEHICLE_DIAMETER, Configuration, advance_status
from roundabout_sim.game import DEFAULT_ACCELS, order_players
from roundabout_sim.geometry import (
    _ARC,
    _CIRCLE,
    _LINE,
    TWO_PI,
    Geometry,
    Maneuver,
    NavigationPath,
    PathKind,
    Status,
)

# --- geometry and status helpers -------------------------------------------


def path_distance(theta_from: float, theta_to: float, geometry: Geometry) -> float:
    """Driving-circle arc length of the counter-clockwise gap between angles.

    Directional: the gap is measured counter-clockwise from ``theta_from`` to
    ``theta_to``.
    """
    return geometry.r_in * ((theta_to - theta_from) % TWO_PI)


def heading_at(seg, t):
    """Travel direction on segment ``seg`` at offset ``t``."""
    if seg.type == _LINE:
        return math.atan2(seg.by, seg.bx)
    psi = seg.psi0 + seg.orient * t / seg.radius
    return psi + seg.orient * math.pi / 2.0


def heading(path: NavigationPath, arclen: float) -> float:
    """Travel direction in [0, 2pi) at ``arclen`` along ``path``."""
    i = path._segment_index(arclen)
    return heading_at(path.segments[i], arclen - path._starts[i]) % TWO_PI


def total_enter_len(path: NavigationPath) -> float:
    """Arclen of the path's enter block."""
    return sum(s.length for s in path.segments if s.label == Status.ENTER)


def exit_angle(path: NavigationPath) -> float:
    """Direction of the outbound lane, or NaN for a path that never leaves."""
    last = path.segments[-1]
    if last.type == _LINE and last.label == Status.EXIT:
        return math.atan2(last.by, last.bx) % TWO_PI
    return math.nan


def reference_nearest_entry(observed: Configuration, geometry: Geometry) -> NavigationPath:
    """The entry hypothesis nearest to ``observed``, each distance measured by
    mapping the projected arclen back to Cartesian coordinates with ``pose``."""
    x, y = observed.xy()
    best = None
    for h in geometry.entry_hypotheses.values():
        rho, theta, _ = h.pose(h.project(x, y)[0])
        d2 = (rho * math.cos(theta) - x) ** 2 + (rho * math.sin(theta) - y) ** 2
        if best is None or d2 < best[0] - 1e-12:
            best = (d2, h)
    return best[1]


def update_status(x: Configuration, geometry: Geometry,
                  diameter: float = VEHICLE_DIAMETER) -> Configuration:
    """Re-evaluate ``x.status`` against the occupancy disc ``r_in + diameter``."""
    new = advance_status(x.status, x.r, geometry.r_in + diameter)
    return x if new == x.status else replace(x, status=new)


def build_strategies(accels: Sequence[float] = DEFAULT_ACCELS, horizon: int = 4) -> np.ndarray:
    """(S, horizon) schedule matrix: one acceleration now, coast afterwards."""
    out = np.zeros((len(accels), horizon))
    out[:, 0] = accels
    return out


# --- scalar stage costs ----------------------------------------------------


def beta(d: float, threshold: float, params: CostParams) -> float:
    """Hard comfort wall: prohibitive once the gap is at or below threshold."""
    return params.E_inf if d <= threshold else 0.0


def _phi_pair(ego_status: Status, other_status: Status, d: float, params: CostParams) -> float:
    q = (params.D - d) ** 2
    if ego_status == Status.INSIDE and other_status == Status.ENTER:
        return params.C_ins * q
    if ego_status == Status.ENTER and other_status == Status.INSIDE:
        return params.C * q + beta(d, params.D_en, params)
    return params.C * q + beta(d, params.D_c, params)


def phi_front(ego_status: Status, front_status: Optional[Status], d: Optional[float],
              params: CostParams) -> float:
    """Proximity cost toward the front neighbour; zero when there is none."""
    if front_status is None or d is None:
        return 0.0
    return _phi_pair(ego_status, front_status, d, params)


def phi_back(ego_status: Status, back_status: Optional[Status], d: Optional[float],
             params: CostParams) -> float:
    """Proximity cost toward the back neighbour; zero when there is none."""
    if back_status is None or d is None:
        return 0.0
    return _phi_pair(ego_status, back_status, d, params)


def phi_safe(front_cost: float, back_cost: float) -> float:
    return max(front_cost, back_cost)


def phi_speed(v: float, status: Status, params: CostParams) -> float:
    """Speed-tracking cost at speed ``v`` in traversal ``status``.

    The lenient coefficient applies only while entering; past the merge the
    pull toward the limit is ten times stronger.
    """
    dv2 = (params.v_l - v) ** 2
    if v > params.v_l:
        return params.C_o * dv2
    if status == Status.ENTER:
        return params.C_en * dv2
    return params.C_in * dv2


def step_cost(w_agg: float, safe: float, speed: float) -> float:
    """Aggressiveness-weighted combination of the two stage terms."""
    if not 0.0 <= w_agg <= 1.0:
        raise ValueError(f"aggressiveness must be in [0, 1], got {w_agg}")
    return (1.0 - w_agg) * safe + w_agg * speed


def pair_distance(cfg_from: Configuration, cfg_to: Configuration, geometry: Geometry) -> float:
    """Composite gap: hypot of ccw arc from ``cfg_from`` to ``cfg_to`` and radial offset."""
    return math.hypot(path_distance(cfg_from.theta, cfg_to.theta, geometry),
                      cfg_from.r - cfg_to.r)


def front_back(ego: Configuration, others: Mapping[int, Configuration],
               geometry: Geometry, params: CostParams,
               ) -> Tuple[Optional[Tuple[int, float]], Optional[Tuple[int, float]]]:
    """Nearest relevant neighbours of ``ego`` among ``others``.

    The front neighbour is the vehicle with the smallest ccw angular gap ahead
    in [0, pi], the back neighbour the smallest gap behind in (0, pi); both
    must be within the interaction range ``D`` in composite distance.  Ties
    go to the lower vehicle id.  Returns ``(front, back)`` as ``(id, d)``
    pairs or ``None``.

    Vehicles that have exited take no further part in the interaction: an
    exited ego has no neighbours, and exited others are never selected.
    """
    if ego.status == Status.EXIT:
        return None, None
    front = back = None
    front_key = back_key = None
    for vid in sorted(others):
        other = others[vid]
        if other.status == Status.EXIT:
            continue
        fgap = (other.theta - ego.theta) % TWO_PI
        if fgap <= math.pi:
            d = math.hypot(geometry.r_in * fgap, ego.r - other.r)
            if d < params.D and (front_key is None or fgap < front_key):
                front_key, front = fgap, (vid, d)
        bgap = (ego.theta - other.theta) % TWO_PI
        if 0.0 < bgap < math.pi:
            d = math.hypot(geometry.r_in * bgap, ego.r - other.r)
            if d < params.D and (back_key is None or bgap < back_key):
                back_key, back = bgap, (vid, d)
    return front, back


# --- references for the production hot paths -------------------------------


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
    paths = [geom.paths[k] for k in kinds]
    paths += [geom.entry_hypotheses[k] for k in kinds]
    paths += list(geom.exit_hypotheses)
    paths.append(geom.circle)
    return paths


def boundary_arclens(path):
    """0, every segment start with both float neighbours, and past the end."""
    out = [0.0]
    for s in segment_starts(path)[1:].tolist():
        out += [math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf)]
    return out + [path.total_length, path.total_length + 7.5]


@dataclass
class SequentialGame:
    """Game tree described by a leaf-payoff callable.

    ``players`` lists ids in decision order; ``payoff`` maps a full strategy
    profile (indices, decision order) to the per-player cost vector in the
    same order.
    """

    players: Sequence[int]
    n_strategies: Sequence[int]
    payoff: Callable[[Tuple[int, ...]], Sequence[float]]
    evaluations: int = field(default=0, init=False)

    def __post_init__(self):
        if len(self.players) != len(self.n_strategies):
            raise ValueError("one strategy count per player required")


def solve(game: SequentialGame):
    """Backward-induction equilibrium by lazy depth-first search.

    Evaluates the payoff callable exactly ``prod(n_strategies)`` times (once
    per leaf).  Returns ``(profile, payoffs)`` with both in decision order.
    Ties at any node keep the earliest strategy.
    """
    K = len(game.players)

    def descend(prefix):
        k = len(prefix)
        if k == K:
            game.evaluations += 1
            return prefix, np.asarray(game.payoff(prefix), dtype=float)
        best = None
        for s in range(game.n_strategies[k]):
            cand = descend(prefix + (s,))
            if best is None or cand[1][k] < best[1][k]:
                best = cand
        return best

    return descend(())


def reference_tensor_equilibrium(costs, order):
    """``tensor_equilibrium`` with one ``take_along_axis`` per tensor per level."""
    K = len(costs)
    if sorted(order) != list(range(K)):
        raise ValueError("order must be a permutation of the player axes")
    cur = list(costs)
    chosen = {}
    for k in reversed(range(K)):
        ax = order[k]
        idx = np.argmin(cur[ax], axis=ax, keepdims=True)  # first minimum wins
        chosen[ax] = idx
        cur = [np.take_along_axis(c, idx, axis=ax) for c in cur]
    profile = {}
    for k in range(K):
        ax = order[k]
        at = tuple(profile.get(a, 0) for a in range(K))
        profile[ax] = int(chosen[ax][at])
    prof = tuple(profile[a] for a in range(K))
    payoffs = np.array([float(costs[p][prof]) for p in range(K)])
    return prof, payoffs


def _pair_arrays(theta, rho, p, q, h, shape):
    """ccw gaps p->q and q->p plus radial offset, broadcast into profile space."""
    diff = theta[q][None, :, :] - theta[p][:, None, :]
    fgap = diff % TWO_PI
    bgap = (-diff) % TWO_PI
    dr = np.abs(rho[p][:, None, :] - rho[q][None, :, :])
    if p > q:
        # reshape consumes buffer axes in order; put the lower axis first
        fgap = np.swapaxes(fgap, 0, 1)
        bgap = np.swapaxes(bgap, 0, 1)
        dr = np.swapaxes(dr, 0, 1)
    view = [1] * len(shape) + [h]
    view[p], view[q] = shape[p], shape[q]
    return fgap.reshape(view), bgap.reshape(view), dr.reshape(view)


def reference_payoff_tensors(trajs, w, params, r_in):
    """``payoff_tensors`` from per-unordered-pair arrays and joint-space side costs."""
    K = len(trajs)
    h = trajs[0].theta.shape[1]
    shape = tuple(t.theta.shape[0] for t in trajs)
    theta = [t.theta for t in trajs]
    rho = [t.rho for t in trajs]
    wts = horizon_weights(params.lam, h)
    inside = int(Status.INSIDE)
    enter = int(Status.ENTER)
    exited = int(Status.EXIT)

    stat_v, v_v = [], []
    for k in range(K):
        view = [1] * (K + 1)
        view[k], view[-1] = shape[k], h
        stat_v.append(trajs[k].status.reshape(view))
        v_v.append(trajs[k].v.reshape(view))

    pairs = {}
    for a in range(K):
        for b in range(a + 1, K):
            fg, bg, dr = _pair_arrays(theta, rho, a, b, h, shape)
            alive = (stat_v[a] != exited) & (stat_v[b] != exited)
            d_fg = np.hypot(r_in * fg, dr)
            d_bg = np.hypot(r_in * bg, dr)
            fg_ok = alive & (d_fg < params.D)
            bg_ok = alive & (d_bg < params.D)
            pairs[a, b] = (
                np.where(fg_ok & (fg <= math.pi), fg, np.inf),            # a front
                np.where(bg_ok & (bg > 0.0) & (bg < math.pi), bg, np.inf),  # a back
                np.where(bg_ok & (bg <= math.pi), bg, np.inf),            # b front
                np.where(fg_ok & (fg > 0.0) & (fg < math.pi), fg, np.inf),  # b back
                d_fg, d_bg,
            )

    safe_out, speed_out, cost_out = [], [], []
    for p in range(K):
        est, ev = stat_v[p], v_v[p]
        best = {"front": None, "back": None}
        for q in range(K):
            if q == p:
                continue
            a, b = (p, q) if p < q else (q, p)
            f_a, b_a, f_b, b_b, d_fg, d_bg = pairs[a, b]
            if p == a:
                cand = {"front": (f_a, d_fg), "back": (b_a, d_bg)}
            else:
                cand = {"front": (f_b, d_bg), "back": (b_b, d_fg)}
            for side, (gap, d) in cand.items():
                cur = best[side]
                if cur is None:
                    best[side] = (gap, d, stat_v[q])
                else:
                    m = gap < cur[0]
                    best[side] = (np.where(m, gap, cur[0]),
                                  np.where(m, d, cur[1]),
                                  np.where(m, stat_v[q], cur[2]))

        est_enter = est == enter
        est_inside = est == inside
        sides = []
        for side in ("front", "back"):
            if best[side] is None:
                sides.append(0.0)
                continue
            gap, d, st = best[side]
            exists = np.isfinite(gap)
            quad = (params.D - d) ** 2
            wall_thr = np.where(est_enter & (st == inside), params.D_en, params.D_c)
            val = np.where(est_inside & (st == enter),
                           params.C_ins * quad,
                           params.C * quad + np.where(d <= wall_thr, params.E_inf, 0.0))
            sides.append(np.where(exists, val, 0.0))

        safe = np.maximum(sides[0], sides[1])
        dv2 = (params.v_l - ev) ** 2
        speed = np.where(ev > params.v_l, params.C_o * dv2,
                         np.where(est_enter, params.C_en * dv2, params.C_in * dv2))

        safe_sum = np.broadcast_to((safe * wts).sum(axis=-1), shape)
        speed_sum = np.broadcast_to((speed * wts).sum(axis=-1), shape)
        safe_out.append(safe_sum)
        speed_out.append(speed_sum)
        cost_out.append((1.0 - w[p]) * safe_sum + w[p] * speed_sum)
    return cost_out, safe_out, speed_out


def reference_reestimate(state, j, obs_j, cost_params, agent_params, delta, r_in):
    """The estimator's weight fit on the frozen game: one equilibrium per weight."""
    ids = sorted((state.vid, j))
    keys, slots, _ = state.prep.games[state.vid]  # the game's rows of the step, by id
    rolls = {vid: state.prep.table[slots[list(keys).index(vid)]] for vid in ids}
    _, safe, speed = reference_payoff_tensors([rolls[v] for v in ids], [0.0, 0.0],
                                              cost_params, r_in)
    axis_of = {vid: k for k, vid in enumerate(ids)}
    # the game's order came from these same two weights (w_hat[j] is only
    # rewritten after the fit)
    order_axes = [axis_of[v] for v in order_players({state.vid: state.w_agg,
                                                     j: state.w_hat[j]})]
    v_prev = float(rolls[j].v[0, 0])
    a_obs = (obs_j.v - v_prev) / delta
    prev_est = state.w_hat[j]
    best = None
    for w in agent_params.w_grid:
        w_ego = state.w_agg if agent_params.estimator_ego_uses_true_weight else w
        wt = {state.vid: w_ego, j: w}
        costs = [(1.0 - wt[ids[k]]) * safe[k] + wt[ids[k]] * speed[k] for k in range(2)]
        prof, _ = reference_tensor_equilibrium(costs, order_axes)
        v1 = float(rolls[j].v[prof[axis_of[j]], 1])
        err = abs((v1 - v_prev) / delta - a_obs)
        key = (err, abs(w - prev_est), w)
        if best is None or key < best[0]:
            best = (key, w)
    return best[1]


# --- the step API driven one decision or one game at a time ----------------

def decide_alone(state, obs, ego_path, geometry, cost_params, game_params, agent_params,
                 delta, diameter=VEHICLE_DIAMETER):
    """``decide`` on a step prepared for this one view (``update_estimates`` ran on ``obs``)."""
    prep = prepare_step([(state, obs, ego_path)], cost_params, game_params, agent_params,
                        delta, geometry.r_in, diameter)
    return decide(state, obs, prep, cost_params, game_params, agent_params, delta, diameter)


def pairs_with_reverse(K):
    """``pair_order(K)`` and each pair's reverse: a game's ``ego, other, rev`` for ``pair_sides``."""
    ego, other = pair_order(K)
    pairs = list(zip(ego, other))
    return ego, other, [pairs.index((q, p)) for p, q in pairs]
