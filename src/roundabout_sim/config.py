"""Experiment configuration: file format, defaults, and seed resolution.

Config files are line-oriented ``key = value`` text with ``[section]``
headers.  ``#`` starts a comment, blank lines are ignored, and an empty
file yields the all-defaults configuration.  Unknown sections or keys are
rejected, as are duplicate assignments; every value is pushed through the
owning module's dataclass so its invariants are checked before any run
starts.

Sections and keys::

    [geometry]  ways, r_in, r_en, approach_len, theta1, theta2, theta3,
                entrance_angles            (comma-separated radians)
    [cost]      lambda, E_inf, C, C_ins, C_en, C_in, C_o, D, D_en, D_c, v_l
    [game]      horizon, strategy_accels   (comma-separated m/s^2)
    [agent]     w_grid, initial_estimate, eps_dev, eps_r, deadlock_prob,
                deadlock_accel, deadlock_speed_eps,
                estimator_ego_uses_true_weight, player_cap
    [sim]       delta, max_steps, spawn_spacing, removal_margin,
                vehicle_diameter
    [output]    out, traces

Campaign rows live at top level (before any section header)::

    campaign = 6 x 1000 seed 42      # n_vehicles x n_runs, optional seed
    seed = 7                         # default base seed for rows without one

A row's vehicles must fit the roundabout's two spawn slots per arm
(``sim.max_vehicles``).  Rows without an explicit seed fall back to the
resolved base seed; with no ``campaign`` lines the default sweep (4..8 vehicles
up to ``sim.max_vehicles``, 200 runs each) is used.  Base-seed precedence:
``--seed`` flag, then the ``ROUNDABOUT_SIM_SEED`` environment variable, then
the config ``seed`` key, then 42.  Run *i* of a row uses ``base_seed + i``.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .agent import AgentParams
from .cost import CostParams
from .game import GameParams
from .geometry import RoundaboutSpec
from .sim import SimParams, max_vehicles

DEFAULT_SEED = 42
DEFAULT_RUNS = 200
DEFAULT_VEHICLE_COUNTS = (4, 5, 6, 7, 8)
SEED_ENV_VAR = "ROUNDABOUT_SIM_SEED"


class ConfigError(ValueError):
    """Raised on malformed or invalid configuration text."""


@dataclass(frozen=True)
class CampaignRow:
    n_vehicles: int
    n_runs: int
    base_seed: Optional[int] = None  # None = inherit the resolved base seed


@dataclass(frozen=True)
class ExperimentConfig:
    spec: RoundaboutSpec = field(default_factory=RoundaboutSpec)
    cost: CostParams = field(default_factory=CostParams)
    game: GameParams = field(default_factory=GameParams)
    agent: AgentParams = field(default_factory=AgentParams)
    sim: SimParams = field(default_factory=SimParams)
    campaign: Tuple[CampaignRow, ...] = ()
    seed: Optional[int] = None
    out: Optional[str] = None
    traces: bool = False


def _int(s: str) -> int:
    return int(s, 10)


def _bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _float(s: str) -> float:
    # every float key is a finite quantity, and NaN slips past the dataclasses' range checks
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {s!r}")
    return x


def _float_tuple(s: str) -> Tuple[float, ...]:
    parts = [p.strip() for p in s.split(",")]
    if parts == [""]:
        return ()
    return tuple(_float(p) for p in parts)


# converter per field annotation (annotations are postponed, so strings)
_CONVERTERS = {"int": _int, "float": _float, "bool": _bool, "tuple": _float_tuple}
_RENAMED = {"lam": "lambda"}  # field -> config key, where they differ


def _section(cls) -> Dict[str, tuple]:
    """Config key -> (dataclass field, converter) for every field of ``cls``."""
    return {_RENAMED.get(f.name, f.name): (f.name, _CONVERTERS[f.type])
            for f in dataclasses.fields(cls)}


# section -> config key -> (dataclass field, converter)
_SECTIONS: Dict[str, Dict[str, tuple]] = {
    "geometry": _section(RoundaboutSpec),
    "cost": _section(CostParams),
    "game": _section(GameParams),
    "agent": _section(AgentParams),
    "sim": _section(SimParams),
    "output": {"out": ("out", str), "traces": ("traces", _bool)},
}

_TOP_LEVEL = ("campaign", "seed")

_CAMPAIGN_RE = re.compile(
    r"^(\d+)\s*x\s*(\d+)(?:\s+seed\s+(\d+))?$", re.IGNORECASE)


def _parse_campaign(value: str, line_no: int) -> CampaignRow:
    m = _CAMPAIGN_RE.match(value)
    if m is None:
        raise ConfigError(
            f"line {line_no}: campaign must look like "
            f"'<n_vehicles> x <n_runs> [seed <s>]', got {value!r}")
    n, runs = int(m.group(1)), int(m.group(2))
    seed = int(m.group(3)) if m.group(3) is not None else None
    return CampaignRow(n, runs, seed)


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text into a fully validated :class:`ExperimentConfig`.

    Raises :class:`ConfigError` with the offending line number on syntax
    errors and with the violated invariant on semantic ones.
    """
    section = ""
    values: Dict[str, dict] = {name: {} for name in _SECTIONS}
    campaign: List[Tuple[int, CampaignRow]] = []  # with its line number
    seed: Optional[int] = None
    seen = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {line_no}: unterminated section header")
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, _, value = (p.strip() for p in line.partition("="))
        if not key or not value:
            raise ConfigError(f"line {line_no}: expected 'key = value'")

        if not section:
            if key == "campaign":
                campaign.append((line_no, _parse_campaign(value, line_no)))
                continue
            if key == "seed":
                if "seed" in seen:
                    raise ConfigError(f"line {line_no}: duplicate key 'seed'")
                seen.add("seed")
                try:
                    seed = _int(value)
                except ValueError:
                    raise ConfigError(f"line {line_no}: seed must be an integer")
                if seed < 0:
                    raise ConfigError(f"line {line_no}: seed must be >= 0")
                continue
            raise ConfigError(
                f"line {line_no}: key {key!r} is not valid outside a section "
                f"(top-level keys: {', '.join(_TOP_LEVEL)})")

        fields = _SECTIONS[section]
        if key not in fields:
            raise ConfigError(f"line {line_no}: unknown key {key!r} in [{section}]")
        if (section, key) in seen:
            raise ConfigError(f"line {line_no}: duplicate key {key!r} in [{section}]")
        seen.add((section, key))
        field_name, conv = fields[key]
        try:
            values[section][field_name] = conv(value)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: bad value for {key!r}: {exc}")

    try:
        cfg = ExperimentConfig(
            spec=RoundaboutSpec(**values["geometry"]),
            cost=CostParams(**values["cost"]),
            game=GameParams(**values["game"]),
            agent=AgentParams(**values["agent"]),
            sim=SimParams(**values["sim"]),
            campaign=tuple(row for _, row in campaign),
            seed=seed,
            out=values["output"].get("out"),
            traces=values["output"].get("traces", False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    cap = max_vehicles(cfg.spec.ways)
    for line_no, row in campaign:
        if not 1 <= row.n_vehicles <= cap:
            raise ConfigError(f"line {line_no}: campaign row {row.n_vehicles} x {row.n_runs} needs "
                              f"1 to {cap} vehicles on a {cfg.spec.ways}-way roundabout")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def resolve_base_seed(config: ExperimentConfig,
                      flag_seed: Optional[int] = None,
                      env: Optional[Dict[str, str]] = None) -> int:
    """Base seed precedence: flag > environment > config > built-in default."""
    if flag_seed is not None:
        return flag_seed
    env = os.environ if env is None else env
    raw = env.get(SEED_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw, 10)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")
        if value < 0:
            raise ConfigError(f"{SEED_ENV_VAR} must be >= 0")
        return value
    if config.seed is not None:
        return config.seed
    return DEFAULT_SEED


def resolved_campaign(config: ExperimentConfig,
                      flag_seed: Optional[int] = None,
                      flag_runs: Optional[int] = None,
                      env: Optional[Dict[str, str]] = None,
                      ) -> List[CampaignRow]:
    """Final campaign rows with every base seed and run count filled in.

    ``--runs`` rewrites the run count of every row; ``--seed`` (and the
    seed environment variable / config key, in precedence order) fills rows
    that did not pin their own seed.  A flag seed also overrides pinned
    row seeds, so one flag reseeds the whole campaign.
    """
    base = resolve_base_seed(config, flag_seed, env)
    rows = list(config.campaign)
    if not rows:
        cap = max_vehicles(config.spec.ways)
        rows = [CampaignRow(n, DEFAULT_RUNS) for n in DEFAULT_VEHICLE_COUNTS if n <= cap]
    out = []
    for row in rows:
        seed = base if (flag_seed is not None or row.base_seed is None) \
            else row.base_seed
        runs = flag_runs if flag_runs is not None else row.n_runs
        if runs < 0:
            raise ConfigError("run count must be >= 0")
        out.append(CampaignRow(row.n_vehicles, runs, seed))
    return out
