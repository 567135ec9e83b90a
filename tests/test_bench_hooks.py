"""Tooling guard: every function the benchmark's tracer wraps still exists.

``bench/run_bench.py --trace 1`` measures layers by replacing named functions
where their callers look them up.  A refactor that renames or drops one of
them breaks only the traced benchmark, which the test suite does not run, so
this installs the benchmark's hooks on a fake tracer that checks each target.
"""

import importlib.util
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


class FakeTracer:
    def __init__(self):
        self.targets = []

    def patch(self, owner, attr_name, span, **kw):
        assert hasattr(owner, attr_name), f"{span}: {owner!r} has no {attr_name!r}"
        assert callable(getattr(owner, attr_name)), f"{span}: {attr_name!r} is not callable"
        self.targets.append((owner.__name__, attr_name))


def test_every_benchmark_hook_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run_bench imports its sibling tracer
    spec = importlib.util.spec_from_file_location("run_bench", BENCH / "run_bench.py")
    run_bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "run_bench", run_bench)  # its dataclasses look it up
    spec.loader.exec_module(run_bench)
    fake = FakeTracer()
    run_bench.install_tracer(fake, run_bench.load_program())
    # the 17 wrapped layers listed in install_tracer
    assert len(fake.targets) == 17
    assert ("NavigationPath", "pose_batch") in fake.targets
    assert ("roundabout_sim.agent", "step") in fake.targets
