"""The command-line scripts and the benchmark self-test, run as subprocesses; the
statistics of the benchmark pair comparison, imported."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


class TestAbInproc:
    def test_one_tree_against_itself(self, tmp_path):
        lines = run([str(ROOT / "scripts" / "ab_inproc.py"), str(ROOT), str(ROOT), "--n", "2",
                     "--seeds", "5-6", "--repeats", "2"], tmp_path)
        assert lines[0] == "n=2, seeds 5-6, 2 repeats: 4 pairs, rows identical"
        assert lines[2].startswith("  speedup parent/change: total ")
        assert lines[2].endswith(" of 4")

    def test_rows_that_differ_exit_1_naming_the_run(self, tmp_path):
        # a copy whose control period differs moves every position of every run
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        sim = tmp_path / "src" / "roundabout_sim" / "sim.py"
        text = sim.read_text()
        assert "delta: float = 0.25" in text
        sim.write_text(text.replace("delta: float = 0.25", "delta: float = 0.2"))
        out = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_inproc.py"), str(ROOT),
                              str(tmp_path), "--n", "2", "--seeds", "5", "--repeats", "1"],
                             cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert out.returncode == 1 and out.stdout == ""
        assert "rows differ: n=2 seed 5" in out.stderr


class TestBenchmark:
    def test_selftest_passes(self):
        # the benchmark wraps functions where their callers look them up; its
        # self-test fails when a layer it traces is no longer called that way
        lines = run(["bench/selftest.py"], ROOT, timeout=600)
        assert lines[-1] == "selftest passed"


class TestBenchPairs:
    @pytest.fixture(scope="class")
    def bench_pairs(self):
        spec = importlib.util.spec_from_file_location("bench_pairs",
                                                      ROOT / "scripts" / "bench_pairs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_wins_follow_the_better_direction_and_ties_count_for_neither(self, bench_pairs):
        parent = [10.0, 11.0, 12.0, 13.0, 14.0]
        change = [12.0, 11.0, 15.0, 12.0, 16.0]
        up = bench_pairs.compare(parent, change, "higher")
        down = bench_pairs.compare(parent, change, "lower")
        assert (up["wins"], up["losses"]) == (3, 1) and (down["wins"], down["losses"]) == (1, 3)
        assert up["parent"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
        assert up["change"]["median"] == 12.0 and up["ratio"] == 1.0
        assert not up["beyond_parent_iqr"]
        far = bench_pairs.compare(parent, [20.0] * 5, "higher")
        assert far["wins"] == 5 and far["ratio"] == 20.0 / 12.0 and far["beyond_parent_iqr"]

    def test_single_pair_zero_median_and_unpaired_runs(self, bench_pairs):
        one = bench_pairs.compare([0.0], [1.0], "higher")
        assert one["parent"] == {"q1": 0.0, "median": 0.0, "q3": 0.0}
        assert one["ratio"] is None and one["wins"] == 1 and one["beyond_parent_iqr"]
        with pytest.raises(ValueError):
            bench_pairs.compare([1.0, 2.0], [1.0], "higher")

    def test_src_digest_names_the_source_files_only(self, bench_pairs, tmp_path):
        pkg = tmp_path / "src" / "pkg"
        (pkg / "__pycache__").mkdir(parents=True)
        (pkg / "a.py").write_text("x = 1\n")
        first = bench_pairs.src_sha256(tmp_path)
        (pkg / "__pycache__" / "a.pyc").write_bytes(b"\0")
        (tmp_path / "README.md").write_text("outside src\n")
        assert bench_pairs.src_sha256(tmp_path) == first
        (pkg / "a.py").write_text("x = 2\n")
        assert bench_pairs.src_sha256(tmp_path) != first

    @pytest.mark.parametrize("correct, exit_code", [(False, 1), (True, 2), (True, 0)])
    def test_exits_1_naming_a_run_that_failed(self, bench_pairs, tmp_path, capsys,
                                              correct, exit_code):
        # each checkout's bench/run_bench.py is a stand-in that writes a report the
        # way the benchmark does; the change side's run of seed 8 is the bad one
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
        stand_in = f"""import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
workload, seed = args["--workload"], int(args["--seed"])
bad = Path.cwd().name == "change" and seed == 8
out = Path(".bench_out") / f"{{workload}}-seed{{seed}}-trace0.json"
out.parent.mkdir(exist_ok=True)
out.write_text(json.dumps({{"result": {{"correct": {correct} or not bad, "metrics": {metrics!r}}},
                            "info": {{"summary_sha256": "x"}}}}))
sys.exit({exit_code} if bad else 0)
"""
        for side in ("parent", "change"):
            (tmp_path / side / "bench").mkdir(parents=True)
            (tmp_path / side / "bench" / "run_bench.py").write_text(stand_in)
        report = tmp_path / "pairs.json"
        code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                                 "--workload", "dense8", "--pairs", "3", "--seed", "7",
                                 "--out", str(report)])
        out, err = capsys.readouterr()
        if correct and exit_code == 0:
            assert code == 0 and err == "" and "all correct: True" in out
        else:
            assert code == 1 and "all correct: False" in out
            assert "change dense8 seed 8" in err and "seed 7" not in err
        # every run records the minor page faults of its process, and each side's median prints
        res = json.loads(report.read_text())["workloads"]["dense8"]
        for side in ("parent", "change"):
            faults = [r["minor_faults"] for r in res[side]]
            assert all(isinstance(f, int) and f > 0 for f in faults)
            assert res["minor_faults_median"][side] == sorted(faults)[1]
        medians = res["minor_faults_median"]
        assert (f"minor page faults per run, median: parent {medians['parent']:g}, "
                f"change {medians['change']:g}") in out
