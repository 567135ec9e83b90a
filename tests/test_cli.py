"""Harness round-trips: trace files, summary reports, CLI behaviour."""

import csv
import json
import math
import os

import pytest

from roundabout_sim import cli
from roundabout_sim.cli import (
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    main,
    run_campaign,
    run_stats,
    summarize,
    trace_stats,
    write_trace,
)
from roundabout_sim.config import parse_config
from roundabout_sim.dynamics import VEHICLE_DIAMETER
from roundabout_sim.game import GameParams
from roundabout_sim.geometry import RoundaboutSpec, build_roundabout
from roundabout_sim.sim import SimParams, run_simulation


@pytest.fixture(scope="module")
def geom():
    return build_roundabout(RoundaboutSpec())


SMALL = "campaign = 2 x 3\ncampaign = 4 x 3\n"


class TestTraceRoundTrip:
    """write_trace -> trace_stats must agree with the simulator's own metrics."""

    def roundtrip(self, result, tmp_path):
        # run_stats reads trace rows; the simulator keeps its own tally of the same facts
        stats = run_stats(result)
        assert stats.collided == (result.collision is not None)
        assert stats.censored == result.censored
        assert stats.min_distance == result.min_distance
        if result.collision is None and not result.censored:
            exits = [result.mission_steps[vid] * result.delta
                     for vid in sorted(result.mission_steps)]
            assert stats.mission_mean_s == math.fsum(exits) / len(exits)
        else:
            assert stats.mission_mean_s is None
        path = str(tmp_path / f"run_{result.seed:08d}.csv")
        write_trace(result, path)
        return trace_stats(path)

    def test_normal_run(self, geom, tmp_path):
        r = run_simulation(5, 2, geom)
        assert self.roundtrip(r, tmp_path) == run_stats(r)

    def test_censored_run(self, geom, tmp_path):
        r = run_simulation(6, 4, geom, sim_params=SimParams(max_steps=3))
        stats = self.roundtrip(r, tmp_path)
        assert stats.censored and stats == run_stats(r)

    def test_collision_run(self, geom, tmp_path):
        r = run_simulation(8, 3, geom,
                           game_params=GameParams(strategy_accels=(29.0, 30.0)))
        stats = self.roundtrip(r, tmp_path)
        assert stats.collided and stats == run_stats(r)
        assert stats.mission_mean_s is None

    def test_single_vehicle_run(self, geom, tmp_path):
        r = run_simulation(1, 9, geom)
        stats = self.roundtrip(r, tmp_path)
        assert math.isinf(stats.min_distance) and stats == run_stats(r)

    def test_trace_format(self, geom, tmp_path):
        r = run_simulation(4, 7, geom)
        path = str(tmp_path / "run_00000007.csv")
        write_trace(r, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TRACE_COLUMNS
        assert rows[1][0] == "0.0"
        assert {rec[0] for rec in rows[1:5]} == {"0.0"}   # one row per vehicle
        assert rows[5][0] == "0.25"                        # t advances in seconds
        first = rows[1]
        assert first[5] == "enter"
        self_entries = dict(kv.split("=") for kv in first[7].split(";"))
        assert first[1] in self_entries                    # own true weight present


class TestReports:
    @pytest.mark.parametrize("text, diameter, collisions", [
        (SMALL, VEHICLE_DIAMETER, 0),
        # a vehicle can leave the removal radius in the step it exits
        (SMALL + "[sim]\nremoval_margin = 0.0\n", VEHICLE_DIAMETER, 0),
        # seed 58 collides at n=6 only with the wider disc; traces need it passed back
        (SMALL + "campaign = 6 x 2 seed 57\n[sim]\nvehicle_diameter = 6.0\n", 6.0, 1),
    ], ids=["default", "removal_margin_0", "vehicle_diameter_6"])
    def test_summarize_reproduces_campaign_report(self, tmp_path, text, diameter, collisions):
        report, errors = run_campaign(parse_config(text), str(tmp_path), traces=True, jobs=1)
        assert errors == []
        assert summarize(str(tmp_path / "traces"), diameter=diameter) == report
        assert sum(row.collisions for row in report.rows) == collisions
        assert sum(row.censored_runs for row in report.rows) == 0

    def test_jobs_do_not_change_results(self, tmp_path):
        cfg = parse_config(SMALL)
        rep1, _ = run_campaign(cfg, str(tmp_path / "a"), traces=True, jobs=1)
        rep2, _ = run_campaign(cfg, str(tmp_path / "b"), traces=True, jobs=3)
        assert rep1 == rep2
        csv_a = (tmp_path / "a" / "summary.csv").read_bytes()
        csv_b = (tmp_path / "b" / "summary.csv").read_bytes()
        assert csv_a == csv_b
        trace = os.path.join("traces", "n4", "run_00000044.csv")
        assert (tmp_path / "a" / trace).read_bytes() == (tmp_path / "b" / trace).read_bytes()

    def test_pool_capped_at_task_count(self, tmp_path, monkeypatch):
        # a stand-in pool records its size and runs the tasks in this process
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, tasks, chunksize=1):
                return map(func, tasks)

        cfg = parse_config("campaign = 2 x 2\n")
        ref, _ = run_campaign(cfg, str(tmp_path / "serial"), jobs=1)
        monkeypatch.setattr(cli, "Pool", RecordingPool)
        report, errors = run_campaign(cfg, str(tmp_path / "pool"), jobs=16)
        assert sizes == [2]
        assert errors == [] and report == ref
        assert ((tmp_path / "pool" / "summary.csv").read_bytes()
                == (tmp_path / "serial" / "summary.csv").read_bytes())

    def test_summary_files_mirror_each_other(self, tmp_path):
        report, _ = run_campaign(parse_config(SMALL), str(tmp_path), jobs=1)
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == SUMMARY_COLUMNS
        assert len(rows) == 1 + len(report.rows)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert [r["n_vehicles"] for r in doc["rows"]] == [2, 4]
        assert set(doc["rows"][0]) == set(SUMMARY_COLUMNS)
        buckets = doc["aggressiveness_buckets"]
        assert len(buckets["min_distance_m"]) == 6
        assert len(buckets["mission_time_s"]) == 6
        lows = [b["w_lo"] for b in buckets["min_distance_m"]]
        assert lows == pytest.approx([0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        total = sum(b["count"] for b in buckets["min_distance_m"])
        assert total == 6  # every finite-distance run lands in one bucket

    def test_malformed_trace_named_and_counted(self, tmp_path, capsys):
        run_campaign(parse_config("campaign = 2 x 2\n"), str(tmp_path),
                     traces=True, jobs=1)
        sub = tmp_path / "traces" / "n2"
        header = ",".join(TRACE_COLUMNS) + "\n"
        bad = {
            "run_99999999.csv": "not,a,trace\n1,2,3\n",
            "run_99999998.csv": header,                          # no data rows
            "run_99999997.csv": header + "1" * 200_000 + "\n",   # over csv's field limit
            "run_99999996.csv": header + "0.0,0,40.0,0.0,5.0,enter,0.0,,0\n",  # no own weight
            "run_99999994.csv": header + "0.0,0,40.0,0.0,5.0,entre,0.0,0=0.5,0\n",  # status
            "run_99999993.csv": header + "0.0,0,40.0,nan,5.0,enter,0.0,0=0.5,0\n",  # theta
            "run_99999992.csv": header + "0.0,0,40.0,0.0,5.0,enter,0.0,0=nan,0\n",  # weight
            "run_99999991.csv": header + "0.0,0,40.0,0.0,5.0,enter,0.0,0=2.5,0\n",  # weight > 1
        }
        for fname, text in bad.items():
            (sub / fname).write_text(text)
        (sub / "run_99999995.csv").mkdir()                      # a directory, not a file
        (sub / "notes.txt").write_text("ignored\n")
        report = summarize(str(tmp_path / "traces"))
        assert report.warnings == len(bad) + 1
        assert report.rows[0].runs == 2
        err = capsys.readouterr().err
        assert all(fname in err for fname in bad) and "run_99999995.csv" in err

    @pytest.mark.parametrize("field, value", [
        (5, "entre"), (5, ""), (0, "nan"), (2, "inf"), (3, "nan"), (3, "-inf"),
        (7, "0=0.5;1=nan"), (7, "0=0.5;1=2.5"), (7, "0=0.5;1=-0.1")])
    def test_rows_outside_the_trace_format_raise(self, tmp_path, field, value):
        # a misspelt status or a non-finite coordinate would otherwise read as a
        # run without collision and with an infinite minimum distance; a nan own
        # weight would stop summarize in the aggressiveness buckets, and one outside
        # [0, 1] would skew the average weight without a warning
        rows = [["0.0", "0", "40.0", "0.0", "5.0", "enter", "0.0", "0=0.5;1=0.5", "0"],
                ["0.0", "1", "40.0", "3.0", "5.0", "enter", "0.0", "0=0.5;1=0.5", "0"]]
        path = tmp_path / "run_00000001.csv"

        def write():
            path.write_text("\n".join(",".join(r) for r in [TRACE_COLUMNS] + rows) + "\n")

        write()
        assert trace_stats(str(path)).min_distance < math.inf
        rows[1][field] = value
        write()
        with pytest.raises(cli.TraceFormatError):
            trace_stats(str(path))

    def test_failed_run_reports_its_seed_and_traceback(self, tmp_path, monkeypatch):
        def broken_model(n, seed, *args):
            raise RuntimeError("model broke")

        monkeypatch.setattr(cli, "run_simulation", broken_model)
        report, errors = run_campaign(parse_config("campaign = 4 x 1\n"), str(tmp_path),
                                      jobs=1, flag_seed=7)
        assert report.rows == () and len(errors) == 1
        assert errors[0].startswith("n=4 seed=7: model broke\n")
        assert "Traceback" in errors[0] and "in broken_model" in errors[0]

    def test_zero_run_rows_drop_out(self, tmp_path):
        report, errors = run_campaign(parse_config("campaign = 4 x 0\n"),
                                      str(tmp_path), jobs=1)
        assert errors == []
        assert report.rows == ()


class TestMain:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "roundabout-sim" in capsys.readouterr().out

    def test_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("campaign = 2 x 2\n[sim]\nmax_steps = 120\n")
        code = main(["--config", str(cfg), "--out", str(tmp_path / "res"),
                     "--traces", "--jobs", "1", "--seed", "5"])
        assert code == 0
        assert (tmp_path / "res" / "summary.csv").exists()
        assert (tmp_path / "res" / "summary.json").exists()
        assert (tmp_path / "res" / "traces" / "n2" / "run_00000005.csv").exists()
        assert "n=2: 2 runs" in capsys.readouterr().out

    def test_bad_config_is_reported(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[cost]\nlambda = 1.5\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "lam must be in (0, 1)" in capsys.readouterr().err

    def test_campaign_row_the_ring_cannot_hold_stops_before_any_run(
            self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "crowded.cfg"
        cfg.write_text("campaign = 4 x 2\ncampaign = 9 x 2\n")
        monkeypatch.setattr(cli, "run_simulation", lambda *args: pytest.fail("a run started"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "r"), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert "line 2: campaign row 9 x 2" in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()
