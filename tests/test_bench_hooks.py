"""Tooling guards for the traced benchmark, which the test suite does not run.

``bench/run_bench.py --trace 1`` measures layers by replacing named functions
where their callers look them up, and on ``dense8`` it checks pinned game
sizes of n=8 seeds 42..51.  A refactor that renames or drops a wrapped
function, or changes what ``payoff_tensors`` takes first, breaks only that
benchmark, so these tests install its hooks on a fake tracer that checks
each target and replay the pinned counts with a plain counting wrapper.
"""

import importlib.util
import pathlib
import sys
from collections import Counter

import pytest

from roundabout_sim import agent, sim
from roundabout_sim.config import parse_config
from roundabout_sim.geometry import build_roundabout

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


class FakeTracer:
    def __init__(self):
        self.targets = []

    def patch(self, owner, attr_name, span, **kw):
        assert hasattr(owner, attr_name), f"{span}: {owner!r} has no {attr_name!r}"
        assert callable(getattr(owner, attr_name)), f"{span}: {attr_name!r} is not callable"
        self.targets.append((owner.__name__, attr_name))


@pytest.fixture
def run_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run_bench imports its sibling tracer
    spec = importlib.util.spec_from_file_location("run_bench", BENCH / "run_bench.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "run_bench", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_target_exists(run_bench):
    fake = FakeTracer()
    run_bench.install_tracer(fake, run_bench.load_program())
    # the 17 wrapped layers listed in install_tracer
    assert len(fake.targets) == 17
    assert ("NavigationPath", "pose_batch") in fake.targets
    assert ("roundabout_sim.agent", "step") in fake.targets


def test_pinned_n8_game_sizes(run_bench, monkeypatch):
    # the benchmark reads a game's size as len of payoff_tensors' first argument
    # and sorts each call by the wrapped caller it runs under
    caller = [None]
    calls = []
    real_payoff = agent.payoff_tensors

    def under(name, real):
        def wrapped(*args):
            outer, caller[0] = caller[0], name
            try:
                return real(*args)
            finally:
                caller[0] = outer
        return wrapped

    monkeypatch.setattr(agent, "payoff_tensors",
                        lambda *args: calls.append((caller[0], len(args[0])))
                        or real_payoff(*args))
    monkeypatch.setattr(sim, "decide", under("decide", sim.decide))
    monkeypatch.setattr(sim, "update_estimates", under("update", sim.update_estimates))
    cfg = parse_config("")
    geometry = build_roundabout(cfg.spec)
    for seed in range(42, 52):
        sim.run_simulation(8, seed, geometry, cfg.cost, cfg.game, cfg.agent, cfg.sim)
    by_k = Counter(k for name, k in calls if name == "decide")
    reestimates = sum(name == "update" for name, _ in calls)
    assert dict(by_k) == {1: 643, 2: 2300, 3: 1413, 4: 175}
    assert reestimates == 1026
    assert len(calls) == sum(by_k.values()) + reestimates
    assert list(run_bench.PINNED_N8_SEEDS) == list(range(42, 52))
    assert run_bench.PINNED_N8_DECISIONS_BY_K == dict(by_k)
    assert run_bench.PINNED_N8_REESTIMATES == reestimates
