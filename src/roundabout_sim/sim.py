"""Closed-loop multi-vehicle simulation.

Synchronous stepping over the same pre-move world, in three passes: every
negotiating vehicle observes and updates its estimates; one
``agent.prepare_step`` rolls out the step's games' distinct players in one
table and prices their speed and ordered pairs, one call each (skipped on a
step where no vehicle negotiates); every vehicle commits an acceleration.
Then all vehicles move together.  Vehicles negotiate only while entering or
inside: once a vehicle has left the occupancy disc on its exit leg it stops
taking part — it is invisible to the others, runs no game, simply speeds back
up toward the limit, and no longer counts toward collision or proximity
metrics.  It despawns after a step it began in the exit state and ended a
removal margin past the disc, so every exit leaves an ``exit`` trace row.  A
run ends on the first collision between active vehicles (centre distance
under one vehicle diameter), when every vehicle has left, or at the step cap
(censored).

Scenario initialisation is reproducible: a seed sequence is split into one
scenario stream (route kind, initial speed, and aggressiveness per vehicle,
drawn in vehicle order) plus one private stream per vehicle for its deadlock
coin, so runs with the same seed are bit-identical regardless of how many
coins end up being flipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .agent import AgentParams, AgentState, decide, observe, prepare_step, update_estimates
from .cost import CostParams
from .dynamics import VEHICLE_DIAMETER, Configuration, step
from .game import GameParams
from .geometry import Geometry, Maneuver, NavigationPath, PathKind, Status

__all__ = [
    "SimParams",
    "Vehicle",
    "TraceRow",
    "RunResult",
    "init_scenario",
    "max_vehicles",
    "min_pairwise",
    "run_simulation",
]

#: aggressiveness values vehicles are drawn from
W_CHOICES = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


@dataclass(frozen=True)
class SimParams:
    delta: float = 0.25          # control period [s]
    max_steps: int = 400
    spawn_spacing: float = 10.0  # gap between queued spawns on one arm [m]
    removal_margin: float = 5.0  # past the occupancy disc before despawn [m]
    vehicle_diameter: float = VEHICLE_DIAMETER

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        for name in ("spawn_spacing", "vehicle_diameter"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.spawn_spacing < self.vehicle_diameter:
            raise ValueError(f"spawn_spacing {self.spawn_spacing} is below vehicle_diameter "
                             f"{self.vehicle_diameter}: vehicles queued on one arm would "
                             "spawn overlapping")
        if self.removal_margin < 0.0:
            raise ValueError("removal_margin must be non-negative")


@dataclass
class Vehicle:
    vid: int
    path: NavigationPath
    w_agg: float
    config: Configuration
    exit_step: Optional[int] = None
    removed: bool = False


@dataclass(frozen=True)
class TraceRow:
    """One vehicle-step: pre-move state plus the action committed for it.

    ``pred`` holds the first-stage acceleration this vehicle's game assigned
    to each co-player — its prediction of what they will do this step.
    Terminal rows (final post-move states) carry ``accel=None``.
    """

    t: int
    vid: int
    r: float
    theta: float
    v: float
    status: Status
    accel: Optional[float]
    est: Dict[int, float]
    override: bool
    pred: Dict[int, float] = field(default_factory=dict)


@dataclass
class RunResult:
    n_vehicles: int
    seed: int
    rows: List[TraceRow]
    n_steps: int
    collision: Optional[Tuple[int, int, int]]  # (step, vid_a, vid_b)
    mission_steps: Dict[int, Optional[int]]
    min_distance: float
    censored: bool
    true_w: Dict[int, float]
    delta: float
    diameter: float


def max_vehicles(ways: int) -> int:
    """Most vehicles a ``ways``-arm roundabout spawns: a lead and a trail slot per arm."""
    return 2 * ways


def init_scenario(n_vehicles: int, geometry: Geometry, seed: int,
                  sim_params: SimParams, cost_params: CostParams,
                  ) -> Tuple[Dict[int, Vehicle], Dict[int, AgentState]]:
    """Spawn ``n_vehicles`` on the approach lanes, round-robin over arms.

    Each arm holds at most two queued vehicles (a lead slot one spacing into
    the lane and a trail slot at the lane start), capping the scenario at
    ``max_vehicles``.
    """
    ways = geometry.spec.ways
    if not 1 <= n_vehicles <= max_vehicles(ways):
        raise ValueError(
            f"n_vehicles must be in [1, {max_vehicles(ways)}] for a {ways}-way roundabout")
    children = np.random.SeedSequence(seed).spawn(n_vehicles + 1)
    rng = np.random.default_rng(children[0])
    maneuvers = list(Maneuver)
    vehicles: Dict[int, Vehicle] = {}
    agents: Dict[int, AgentState] = {}
    for i in range(n_vehicles):
        arm, slot = i % ways, i // ways
        path = geometry.paths[PathKind(maneuvers[int(rng.integers(len(maneuvers)))], arm)]
        v0 = float(rng.uniform(0.0, cost_params.v_l))
        w = float(W_CHOICES[int(rng.integers(len(W_CHOICES)))])
        s0 = sim_params.spawn_spacing * (1 - slot)
        rho, theta, _ = path.pose(s0)
        vehicles[i] = Vehicle(
            vid=i, path=path, w_agg=w,
            config=Configuration(r=rho, theta=theta, v=v0, status=Status.ENTER,
                                 arclen=s0))
        agents[i] = AgentState(vid=i, w_agg=w, rng=np.random.default_rng(children[1 + i]))
    return vehicles, agents


def min_pairwise(polar: Sequence[Tuple[float, float]],
                 ) -> Tuple[float, Optional[Tuple[int, int]]]:
    """Closest centre distance among ``(r, theta)`` positions and its index pair.

    The first pair attaining the minimum wins; fewer than two positions give
    ``(inf, None)``.
    """
    best, pair = math.inf, None
    pts = [(r * math.cos(theta), r * math.sin(theta)) for r, theta in polar]
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            d = math.hypot(pts[a][0] - pts[b][0], pts[a][1] - pts[b][1])
            if d < best:
                best, pair = d, (a, b)
    return best, pair


def _cruise_accel(v: float, v_l: float, delta: float, accels) -> float:
    """Open-road acceleration for a vehicle that has left the negotiation.

    Picks from the strategy alphabet the input whose post-step speed is
    largest without exceeding the limit.  When no input gets there in one
    step (the strongest brake is too weak, or the alphabet cannot brake at
    all), it falls back to the input with the lowest post-step speed.
    """
    best = fallback = None
    for a in accels:
        v_next = max(0.0, v + a * delta)
        if v_next <= v_l and (best is None or (v_next, a) > best):
            best = (v_next, a)
        if fallback is None or (v_next, a) < fallback:
            fallback = (v_next, a)
    return best[1] if best is not None else fallback[1]


def run_simulation(n_vehicles: int, seed: int, geometry: Geometry,
                   cost_params: CostParams = CostParams(),
                   game_params: GameParams = GameParams(),
                   agent_params: AgentParams = AgentParams(),
                   sim_params: SimParams = SimParams()) -> RunResult:
    """Run one scenario to completion and collect its trace and metrics."""
    vehicles, agents = init_scenario(n_vehicles, geometry, seed, sim_params, cost_params)
    diameter = sim_params.vehicle_diameter
    removal_r = geometry.r_in + diameter + sim_params.removal_margin
    rows: List[TraceRow] = []
    collision = None
    min_distance, _ = min_pairwise([(v.config.r, v.config.theta) for v in vehicles.values()])
    t = 0
    while t < sim_params.max_steps:
        live = {vid: v for vid, v in vehicles.items() if not v.removed}
        configs = {vid: v.config for vid, v in live.items()}
        views = {}
        for vid in sorted(live):
            if configs[vid].status != Status.EXIT:
                obs = views[vid] = observe(vid, configs, geometry, cost_params)
                update_estimates(agents[vid], obs, geometry, cost_params, agent_params,
                                 sim_params.delta)
        prep = prepare_step([(agents[vid], obs, live[vid].path) for vid, obs in views.items()],
                            cost_params, game_params, agent_params, sim_params.delta,
                            geometry.r_in, diameter) if views else None
        now: List[TraceRow] = []
        for vid in sorted(live):
            cfg = configs[vid]
            if vid not in views:
                # out of the negotiation: just get back up to speed and leave
                accel = _cruise_accel(cfg.v, cost_params.v_l, sim_params.delta,
                                      game_params.strategy_accels)
                est, override, pred = {}, False, {}
            else:
                d = decide(agents[vid], views[vid], prep, cost_params, game_params, agent_params)
                accel, est, override = d.accel, d.weights, d.override
                pred = {j: float(game_params.strategy_accels[d.profile[j]])
                        for j in d.profile if j != vid}
            now.append(TraceRow(t=t, vid=vid, r=cfg.r, theta=cfg.theta, v=cfg.v,
                                status=cfg.status, accel=accel, est=est,
                                override=override, pred=pred))
        rows.extend(now)
        for row in now:
            veh = live[row.vid]
            veh.config = step(veh.config, row.accel, sim_params.delta, veh.path, diameter)
            if veh.exit_step is None and veh.config.status == Status.EXIT:
                veh.exit_step = t + 1
            if row.status == Status.EXIT and veh.config.r > removal_r:
                veh.removed = True
        t += 1
        active = [(vid, v) for vid, v in vehicles.items()
                  if not v.removed and v.config.status != Status.EXIT]
        if len(active) >= 2:
            dmin, pair = min_pairwise([(v.config.r, v.config.theta) for _, v in active])
            min_distance = min(min_distance, dmin)
            if dmin < diameter:
                collision = (t, active[pair[0]][0], active[pair[1]][0])
                break
        if all(v.removed for v in vehicles.values()):
            break
    for vid, veh in sorted(vehicles.items()):
        if not veh.removed:
            c = veh.config
            rows.append(TraceRow(t=t, vid=vid, r=c.r, theta=c.theta, v=c.v,
                                 status=c.status, accel=None, est={}, override=False))
    censored = (collision is None and t >= sim_params.max_steps
                and any(v.config.status != Status.EXIT for v in vehicles.values()))
    return RunResult(
        n_vehicles=n_vehicles,
        seed=seed,
        rows=rows,
        n_steps=t,
        collision=collision,
        mission_steps={vid: v.exit_step for vid, v in vehicles.items()},
        min_distance=min_distance,
        censored=censored,
        true_w={vid: v.w_agg for vid, v in vehicles.items()},
        delta=sim_params.delta,
        diameter=diameter,
    )
