"""The command-line scripts and the benchmark self-test, each run as a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(args, cwd, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=timeout)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


class TestScripts:
    def test_single_run_demo(self, tmp_path):
        lines = run([str(ROOT / "scripts" / "single_run_demo.py"), "--n", "2"], tmp_path)
        assert lines[0].startswith("t =")
        assert "all vehicles exited" in lines

    def test_campaign_then_summarize_traces(self, tmp_path):
        lines = run([str(ROOT / "scripts" / "run_campaign.py"), "--runs", "1", "--traces",
                     "--out", "camp", "--jobs", "1"], tmp_path)
        assert lines[0].startswith("n=4: 1 runs, 0 collisions")
        assert (tmp_path / "camp" / "traces" / "n8").is_dir()
        again = run([str(ROOT / "scripts" / "summarize_traces.py"), "camp/traces"], tmp_path)
        assert again[0].startswith("n=4: 1 runs, 0 collisions")
        assert len([line for line in again if line.startswith("n=")]) == 5


class TestBenchmark:
    def test_selftest_passes(self):
        # the benchmark wraps functions where their callers look them up; its
        # self-test fails when a layer it traces is no longer called that way
        lines = run(["bench/selftest.py"], ROOT, timeout=600)
        assert lines[-1] == "selftest passed"
