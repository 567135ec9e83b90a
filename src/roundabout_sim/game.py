"""Finite sequential game over acceleration strategies.

Each decision round is a perfect-information sequential game: players move in
a fixed order, every player sees the choices made before it, and each picks
the strategy minimising its own discounted cost given that all later players
will do the same.  The solution is the subgame-perfect equilibrium found by
backward induction; ties always resolve to the earliest strategy in the
canonical alphabet order, so the outcome is deterministic.

A strategy is one first-stage acceleration from the alphabet — brake hard,
brake, coast, accelerate, floor it — followed by coasting to the end of the
horizon, which matches receding-horizon execution where only the first stage
is ever applied.

``tensor_equilibrium`` runs the induction as vectorised argmin/gather passes
over one precomputed ``(K, S, ..., S)`` cost array from ``payoff_tensors``,
players and strategy axes in ascending id order.  A batch axis after the
player axis solves a batch of games of one shape in one call, which is how
the estimator replays a game under every candidate aggressiveness at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "DEFAULT_ACCELS",
    "GameParams",
    "order_players",
    "tensor_equilibrium",
]

#: first-stage acceleration alphabet [m/s^2]
DEFAULT_ACCELS = (-50.0, -10.0, 0.0, 10.0, 30.0)


@dataclass(frozen=True)
class GameParams:
    """Shape of the decision game."""

    horizon: int = 4
    strategy_accels: tuple = DEFAULT_ACCELS

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2 for strategies to matter")
        if len(self.strategy_accels) < 2:
            raise ValueError("need at least two strategies")


def order_players(weights: Mapping[int, float]) -> list:
    """Decision order: most aggressive first, ties to the lower id."""
    return sorted(weights, key=lambda vid: (-weights[vid], vid))


def tensor_equilibrium(costs, order: Sequence[int]):
    """Backward induction over the players' cost tensors.

    ``costs`` is one ``(K,) + (S,) * K`` array as ``payoff_tensors`` returns
    it (a list of K equal-shape tensors converts): ``costs[p]`` is player
    ``p``'s cost with one axis per player, axis ``p`` its own strategy.
    ``order`` lists the players in decision order.  Returns the equilibrium
    profile, a tuple of strategy indices by player, not by decision order.
    A ``(K, B) + (S,) * K`` array holds ``B`` independent games of one shape;
    the result is then a ``(B, K)`` int array of profiles.

    One transpose and one gather put the players and their strategy axes into
    decision order in one contiguous copy, so each induction level is one
    ``argmin`` over the last axis (the first minimum wins) and one flat
    gather of the earlier movers.
    """
    costs = np.asarray(costs)
    K = len(costs)
    if sorted(order) != list(range(K)):
        raise ValueError("order must be a permutation of the player axes")
    lead = [1] if costs.ndim == K + 2 else []
    staged = costs.transpose([0] + lead + [1 + len(lead) + a for a in order]).take(order, axis=0)
    mover, rest = staged[-1], staged[:-1]
    picks = {}
    for k in reversed(range(K)):
        idx = mover.argmin(axis=-1)
        picks[order[k]] = idx
        if k:
            n = mover.shape[-1]
            flat = np.arange(0, idx.size * n, n) + idx.ravel()
            gathered = rest.reshape(k, -1).take(flat, axis=1).reshape((k,) + idx.shape)
            mover, rest = gathered[-1], gathered[:-1]
    at = (np.arange(len(costs[0])),) if lead else ()
    chosen = {}
    for a in order:
        chosen[a] = picks[a][at]
        at += (chosen[a],)
    if lead:
        return np.array([chosen[a] for a in range(K)]).T
    return tuple(int(chosen[a]) for a in range(K))
