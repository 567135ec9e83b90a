"""Per-vehicle decision logic: observe, estimate neighbours, play the game.

Each vehicle runs the same loop every control step:

1. **Observe** its neighbourhood: itself plus up to two vehicles ahead and
   one behind (smallest angular gaps within the interaction range).  Only
   kinematic state ``(rho, theta, v, status)`` of others is visible — never
   their route, aggressiveness, or path coordinate.

2. **Estimate** what it cannot see.  Every neighbour gets a hypothesis path
   (entering via the nearest entry geometry, circulating indefinitely, or
   exiting at the next arm — chosen from its status, radial position, and
   radial trend) and an aggressiveness estimate, initialised to 0.5.  When a
   neighbour's observed position deviates from the position predicted for it
   at the previous step by more than ``eps_dev``, the estimator replays last
   step's two-player game between itself and that neighbour under every
   candidate weight (one batched solve over the rollouts and pair prices
   frozen at decision time) and keeps the weight whose equilibrium
   first-stage acceleration best explains the observed speed change; ties
   stick near the previous estimate, then prefer the smaller weight.  The
   hypothesis path is re-estimated at the same time.

3. **Decide** by building the sequential game among the observed vehicles
   (most aggressive first, by estimated weight; ego uses its true weight) and
   applying the first acceleration of its own equilibrium strategy, reading
   its game's rows of the step's one rollout table and prices (``prepare_step``).
   The position it predicts for each neighbour is read off the same table: the
   stage-1 pose of the neighbour's row under its equilibrium strategy.  That
   pose comes from ``pose_batch``, so it can differ from a scalar ``step`` in
   the last ulp (see ``dynamics``); it only meets the ``eps_dev`` threshold.
   ``step`` stays imported and exported here although nothing here calls it,
   because the traced benchmark wraps ``agent.step`` and needs the name.

A deadlock breaker keeps the system live: when every observed vehicle
(including ego) is at a standstill, the vehicle flips a private coin and, on
success, accelerates — unless it is still entering while a circulating
neighbour is present, in which case it keeps yielding.  The coin is drawn
from a per-vehicle stream whenever the standstill condition holds, so runs
stay reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, NamedTuple, Optional

import numpy as np

from .cost import CostParams, pair_order, pair_safety, pair_sides, payoff_tensors, speed_sums
from .dynamics import VEHICLE_DIAMETER, Configuration, Rollout, rollout
from .dynamics import step  # unused: bench/run_bench.py --trace 1 patches agent.step
from .game import GameParams, order_players, tensor_equilibrium
from .geometry import TWO_PI, Geometry, NavigationPath, Status

DEFAULT_W_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
#: ``prepare_step``'s output: ``table`` and ``speed`` have a row per distinct key of the step;
#: ``games`` maps a decider to its players' keys by id, their rows and its pairs' rows
#: (``pair_order``), which index axis 2 of ``sides`` and axis 0 of ``safe``, each pair's
#: ``pair_safety`` and so the safety term of a two-player game
StepPrep = NamedTuple("StepPrep", [("table", Rollout), ("games", dict), ("speed", np.ndarray),
                                   ("sides", np.ndarray), ("safe", np.ndarray)])

__all__ = [
    "AgentParams",
    "AgentState",
    "DecisionResult",
    "StepPrep",
    "observe",
    "estimate_path",
    "update_estimates",
    "prepare_step",
    "decide",
    "step",
]


@dataclass(frozen=True)
class AgentParams:
    """Estimator and liveness knobs."""

    w_grid: tuple = DEFAULT_W_GRID
    initial_estimate: float = 0.5
    eps_dev: float = 0.3        # position deviation that triggers re-estimation [m]
    eps_r: float = 0.5          # radial slack around the driving circle [m]
    deadlock_prob: float = 0.5
    deadlock_accel: float = 10.0
    deadlock_speed_eps: float = 1e-6
    estimator_ego_uses_true_weight: bool = False
    # ego plus at most 2 ahead and 1 behind are ever observed, so the default
    # of 4 never trims; only caps of 1-3 drop the angularly farthest
    player_cap: int = 4

    def __post_init__(self):
        if not self.w_grid or any(not 0.0 <= w <= 1.0 for w in self.w_grid):
            raise ValueError("w_grid must be non-empty with weights in [0, 1]")
        if list(self.w_grid) != sorted(self.w_grid):
            raise ValueError("w_grid must be ascending")
        if not 0.0 <= self.initial_estimate <= 1.0:
            raise ValueError("initial_estimate must be in [0, 1]")
        for name in ("eps_dev", "eps_r", "deadlock_speed_eps"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.deadlock_prob <= 1.0:
            raise ValueError("deadlock_prob must be a probability")
        if self.player_cap < 1:
            raise ValueError("player_cap must be at least 1")


@dataclass
class AgentState:
    """Everything one vehicle remembers between steps.

    ``prep`` (the step it last decided in, whose ``games[vid]`` holds its
    game's rows) and ``order`` freeze the last game this vehicle played; the
    estimator replays it when a neighbour strays from its prediction in
    ``pred_xy``.
    """

    vid: int
    w_agg: float
    rng: np.random.Generator
    w_hat: Dict[int, float] = field(default_factory=dict)
    est_path: Dict[int, NavigationPath] = field(default_factory=dict)
    prev_obs: Dict[int, Configuration] = field(default_factory=dict)
    pred_xy: Dict[int, tuple] = field(default_factory=dict)
    prep: Optional[StepPrep] = None
    order: tuple = ()


@dataclass(slots=True)
class DecisionResult:
    accel: float
    override: bool
    profile: Dict[int, int]     # strategy index per game participant
    weights: Dict[int, float]   # weight table used (ego entry is its true weight)


def observe(ego_id: int, configs: Mapping[int, Configuration], geometry: Geometry,
            params: CostParams) -> Dict[int, Configuration]:
    """Ego's view: itself plus <= 2 nearest ahead and 1 behind, paths hidden.

    Vehicles that have completed their traversal (status exit) are no longer
    relevant and are excluded.  Neighbour configurations are stripped of the
    path coordinate: position, speed, and status are observable, routes are
    not.
    """
    ego = configs[ego_id]
    ahead, behind = [], []
    for vid in sorted(configs):
        if vid == ego_id:
            continue
        c = configs[vid]
        if c.status == Status.EXIT:
            continue
        fgap = (c.theta - ego.theta) % TWO_PI
        bgap = (ego.theta - c.theta) % TWO_PI
        if fgap <= math.pi:
            if math.hypot(geometry.r_in * fgap, ego.r - c.r) < params.D:
                ahead.append((fgap, vid))
        elif 0.0 < bgap < math.pi:
            if math.hypot(geometry.r_in * bgap, ego.r - c.r) < params.D:
                behind.append((bgap, vid))
    ahead.sort()
    behind.sort()
    out = {ego_id: ego}
    for _, vid in ahead[:2] + behind[:1]:
        c = configs[vid]
        out[vid] = Configuration(r=c.r, theta=c.theta, v=c.v, status=c.status)
    return out


def _next_arm_ahead(theta, arm_angles, grace=0.3):
    # smallest ccw angle to an arm, allowing `grace` of overshoot for a
    # vehicle already abreast of its departure point
    return min(range(len(arm_angles)),
               key=lambda m: (arm_angles[m] - theta + grace) % TWO_PI)


def _nearest_entry(observed: Configuration, geometry: Geometry) -> NavigationPath:
    return _nearest_entry_at(geometry, observed.r, observed.theta)


@functools.lru_cache(maxsize=64)
def _nearest_entry_at(geometry: Geometry, r: float, theta: float) -> NavigationPath:
    """The entry hypothesis nearest to the observed position ``(r, theta)``, first minimum wins.

    A pure function of the position and the geometry, which hashes by identity,
    so the one scan serves every observer of a vehicle in a step, a stopped
    vehicle from step to step and a spawn pose from run to run; the bound keeps
    a campaign's ever-new positions from piling up.  Float keys merge 0.0 and
    -0.0, which no ``pose`` returns: its theta is wrapped with ``%`` and its rho
    is a distance.
    """
    x, y = r * math.cos(theta), r * math.sin(theta)  # as ``Configuration.xy``
    best = None
    for h in geometry.entry_hypotheses.values():
        d2 = h.project(x, y)[1]
        if best is None or d2 < best[0] - 1e-12:
            best = (d2, h)
    return best[1]


def estimate_path(observed: Configuration, geometry: Geometry,
                  prev: Optional[Configuration] = None,
                  eps_r: float = 0.5) -> NavigationPath:
    """Hypothesis path for an observed vehicle that is entering or inside.

    Entering vehicles are matched to the nearest entry geometry; vehicles on
    the driving circle are assumed to circulate until contradicted; a vehicle
    drifting radially outward (needs the previous observation, ``prev``) is
    assumed to exit at the next arm ahead.  Exited vehicles never reach it:
    ``observe`` drops them.
    """
    if observed.status == Status.ENTER:
        return _nearest_entry(observed, geometry)
    if observed.r <= geometry.r_in + eps_r:
        return geometry.circle
    if prev is not None and observed.r > prev.r + 1e-9:
        return geometry.exit_hypotheses[_next_arm_ahead(observed.theta, geometry.arm_angles)]
    return _nearest_entry(observed, geometry)


def _game_keys(state: AgentState, obs: Mapping[int, Configuration], ego_path: NavigationPath,
               player_cap: int) -> Dict[int, tuple]:
    """Rollout key ``(path, configuration)`` of each player of ``state.vid``'s game, by
    id: beyond ``player_cap``, ego and its ``player_cap - 1`` angularly nearest
    neighbours.  Ego rolls out on its own path, a neighbour on its hypothesis."""
    ego = obs[state.vid]
    ids = sorted(obs)
    if len(ids) > player_cap:
        ranked = sorted((min((obs[j].theta - ego.theta) % TWO_PI,
                             (ego.theta - obs[j].theta) % TWO_PI), j)
                        for j in ids if j != state.vid)
        ids = sorted({state.vid} | {j for _, j in ranked[:player_cap - 1]})
    return {vid: (ego_path if vid == state.vid else state.est_path[vid], obs[vid]) for vid in ids}


def prepare_step(views, cost_params: CostParams, game_params: GameParams,
                 agent_params: AgentParams, delta: float, r_in: float,
                 diameter: float = VEHICLE_DIAMETER) -> StepPrep:
    """Every rollout, speed row and pair price the games of ``views`` need.

    ``views`` holds ``(state, obs, ego_path)`` per deciding vehicle (at least
    one), after ``update_estimates``.  One call each rolls out the games'
    distinct keys (``rollout``), prices their rows (``speed_sums``) and every
    game's ordered pairs, deduplicated by their two rows (``pair_sides``),
    then sums each pair's safety cost (``pair_safety``), which every
    two-player game and re-estimation reads instead of the sides; a step
    whose games are all one-player prices no pair.  A neighbour's rollout
    starts posed at its projection, ego's at its configuration, which
    ``init_scenario`` or ``step`` posed at its arclen with the same ``pose``."""
    slot, rows, games = {}, {}, {}
    for state, obs, ego_path in views:
        keys = _game_keys(state, obs, ego_path, agent_params.player_cap)
        ks = [slot.setdefault(key, len(slot)) for key in keys.values()]
        games[state.vid] = keys, ks, [rows.setdefault((ks[p], ks[q]), len(rows))
                                      for p, q in zip(*pair_order(len(ks)))]
    requests = []
    for path, c in slot:
        s, rho, theta = c.arclen, c.r, c.theta
        if s is None:
            s = path.project(*c.xy())[0]
            rho, theta, _ = path.pose(s)
        requests.append((path, s, c.v, rho, theta, c.status))
    table = rollout(requests, game_params.strategy_accels, game_params.horizon, delta, diameter)
    if rows:
        sides = pair_sides(table, [p for p, _ in rows], [q for _, q in rows],
                           [rows[q, p] for p, q in rows], cost_params, r_in)
        safe = pair_safety(sides, cost_params)
    else:  # every game is one-player
        S = len(game_params.strategy_accels)
        sides, safe = np.empty((2, 2, 0, S, S, game_params.horizon)), np.empty((0, S, S))
    return StepPrep(table, games, speed_sums(table, cost_params), sides, safe)


def decide(state: AgentState, obs: Mapping[int, Configuration], prep: StepPrep,
           cost_params: CostParams, game_params: GameParams,
           agent_params: AgentParams) -> DecisionResult:
    """One decision round for ``state.vid`` given its observation ``obs``.

    ``update_estimates`` must have run on the same ``obs``: every neighbour's
    weight and hypothesis path are read from ``state``.  The game's rows (one
    gather each) come from ``prep``, prepared for views that hold this one:
    pair safety for two players, pair sides for more.
    Each neighbour's predicted position is the stage-1 pose of its row under
    its equilibrium strategy.
    """
    ego_id = state.vid
    keys, slots, rows = prep.games[ego_id]
    weights = {vid: state.w_agg if vid == ego_id else state.w_hat[vid] for vid in keys}
    # take, not fancy indexing: a list index measured 2.5-4x the time of the gather
    speed = prep.speed.take(slots, axis=0)
    pairs = prep.sides.take(rows, axis=2) if len(slots) > 2 else prep.safe.take(rows, axis=0)

    order = tuple(order_players(weights))
    profile = _play(speed, weights, order, pairs, cost_params)
    accel = float(game_params.strategy_accels[profile[ego_id]])

    override = False
    if all(obs[v].v < agent_params.deadlock_speed_eps for v in obs):
        draw = state.rng.random()  # consumed whenever everyone is stopped
        yielding = obs[ego_id].status == Status.ENTER and any(
            obs[j].status == Status.INSIDE for j in obs if j != ego_id)
        if draw < agent_params.deadlock_prob and not yielding:
            accel = agent_params.deadlock_accel
            override = True

    state.prep, state.order = prep, order
    rho, theta = prep.table.rho, prep.table.theta
    state.pred_xy = {}
    for vid, k in zip(keys, slots):
        if vid != ego_id:  # stage-1 pose under its strategy, mapped as ``Configuration.xy`` does
            r, th = float(rho[k, profile[vid], 1]), float(theta[k, profile[vid], 1])
            state.pred_xy[vid] = r * math.cos(th), r * math.sin(th)
    return DecisionResult(accel=accel, override=override, profile=profile, weights=weights)


def _play(speed, weights, order, pairs, cost_params):
    """Solve the game of ``weights``' players, moving in ``order``, over their speed rows (by id)
    and pair rows: a strategy index per player, or a list (one per game) when every weight is a
    column of ``B``.  One cost array, players by id, goes from ``payoff_tensors`` to the solver."""
    ids = sorted(weights)
    costs = payoff_tensors(speed, [weights[v] for v in ids], pairs, cost_params)
    prof = tensor_equilibrium(costs, [ids.index(v) for v in order if v in weights])
    return dict(zip(ids, prof.T.tolist() if isinstance(prof, np.ndarray) else prof))


def _reestimate(state: AgentState, j: int, obs_j: Configuration,
                cost_params: CostParams, agent_params: AgentParams, delta: float) -> float:
    """Replay last step's two-player game under every candidate weight; pick the best fit.

    One ``payoff_tensors`` call with a ``(2, B)`` matrix of candidate weights
    prices the games, solved as one batch, on the game frozen in ``state``:
    nothing is priced again, ego's and ``j``'s speed rows of the step are
    selected by id and the ``pair_safety`` rows of ``(ego, j)`` and ``(j,
    ego)`` in their ``pair_order``, whatever the size of the frozen game.
    """
    keys, slots, rows = state.prep.games[state.vid]
    ids, pair = list(keys), {state.vid, j}
    ego, other = pair_order(len(ids))
    # take, not fancy indexing, as in ``decide``
    safe = state.prep.safe.take([rows[n] for n, (p, q) in enumerate(zip(ego, other))
                                 if {ids[p], ids[q]} == pair], axis=0)
    speed = state.prep.speed.take([slots[k] for k, vid in enumerate(ids) if vid in pair], axis=0)
    grid = np.array(agent_params.w_grid, dtype=float)
    w_ego = (np.full_like(grid, state.w_agg)
             if agent_params.estimator_ego_uses_true_weight else grid)
    profile = _play(speed, {state.vid: w_ego, j: grid}, state.order, safe, cost_params)
    v_j = state.prep.table.v[slots[ids.index(j)]]
    v_prev, v1 = v_j[0, 0], v_j[:, 1].take(profile[j])
    a_obs = (obs_j.v - v_prev) / delta
    err = np.abs((v1 - v_prev) / delta - a_obs)
    prev_est = state.w_hat[j]
    return min(zip(err.tolist(), (abs(w - prev_est) for w in agent_params.w_grid),
                   agent_params.w_grid))[2]


def update_estimates(state: AgentState, obs: Mapping[int, Configuration],
                     geometry: Geometry, cost_params: CostParams,
                     agent_params: AgentParams, delta: float) -> None:
    """Reconcile predictions with observations before deciding this step."""
    ego_id = state.vid
    for vid in obs:
        if vid == ego_id:
            continue
        c = obs[vid]
        if vid not in state.w_hat:
            state.w_hat[vid] = agent_params.initial_estimate
            state.est_path[vid] = estimate_path(c, geometry, eps_r=agent_params.eps_r)
            continue
        pred = state.pred_xy.get(vid)
        x, y = c.xy()
        if pred is not None and math.hypot(x - pred[0], y - pred[1]) > agent_params.eps_dev:
            state.w_hat[vid] = _reestimate(state, vid, c, cost_params, agent_params, delta)
            state.est_path[vid] = estimate_path(
                c, geometry, prev=state.prev_obs.get(vid), eps_r=agent_params.eps_r)
    state.prev_obs = {vid: obs[vid] for vid in obs if vid != ego_id}
