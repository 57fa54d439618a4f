import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_export(commit, dest):
    dest.mkdir(parents=True)
    (dest / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "end_to_end": [{"name": "wall_s", "better": "lower"}]}))


def fake_perfbench(cmd, cwd, **kwargs):
    """The stdout of `perfbench/run.py` in the checkout cwd: job lines, then
    the env block and the result line."""
    workload, seed = cmd[cmd.index("--workload") + 1], int(cmd[cmd.index("--seed") + 1])
    if workload == "bounds":
        return subprocess.CompletedProcess(cmd, 1, "", "worker failed with status 1")
    side = Path(cwd).name
    env = {"commit": side, "src_sha256": side, "seed": seed, "python": "3"}
    # the change is faster by 0.01 s per unit of seed, all of it in job "slow"
    value = (0.1 - (0.01 if side == "change" else 0.0)) * seed
    result = {"correct": True, "failed": 0, "attempted": 1,
              "metrics": {"wall_s": {"value": value, "unit": "s"}}}
    lines = [f"job {workload}/slow: median {value - 0.001:.4f} s over 3 passes",
             f"job {workload}/fast: median 0.0010 s over 3 passes",
             "ops: attempted 1, failed 0, fail_frac 0.0000",
             json.dumps({"env": env}), json.dumps(result)]
    return subprocess.CompletedProcess(cmd, 0, "\n".join(lines) + "\n", "")


@pytest.fixture
def faked(bench_pairs, monkeypatch):
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_pairs, "export", fake_export)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_perfbench)
    return bench_pairs


def test_record_keeps_finished_workloads_when_a_run_fails(faked, tmp_path):
    out = tmp_path / "BENCH_test.json"
    with pytest.raises(SystemExit) as failure:
        faked.main(["--tag", "test", "--parent", "p", "--change", "c",
                    "--pairs", "series=1-2", "--pairs", "bounds=3",
                    "--workdir", str(tmp_path), "--out", str(out)])
    assert failure.value.code not in (0, None)
    message = str(failure.value.code)
    assert "bounds" in message and "seed 3" in message
    assert message.startswith(("parent run", "change run"))

    record = json.loads(out.read_text())
    assert list(record["end_to_end"]) == ["series"]
    series = record["end_to_end"]["series"]
    assert series["seeds"] == [1, 2]
    assert series["metrics"]["wall_s"]["parent_runs"] == [0.1, 0.2]
    assert series["metrics"]["wall_s"]["change_runs"] == [0.09, 0.18]
    # the per-seed differences change - parent are -0.01 and -0.02
    assert series["metrics"]["wall_s"]["paired_difference"] == {
        "median": -0.015, "q1": -0.0175, "q3": -0.0125}
    # the job lines' medians, in the order perfbench prints them
    jobs = series["jobs"]
    assert list(jobs) == ["slow", "fast"]
    assert jobs["slow"]["parent"]["runs"] == [0.099, 0.199]
    assert jobs["slow"]["change"]["runs"] == [0.089, 0.179]
    assert jobs["slow"]["paired_difference"] == {"median": -0.015, "q1": -0.0175,
                                                 "q3": -0.0125}
    assert jobs["fast"]["paired_difference"] == {"median": 0.0, "q1": 0.0, "q3": 0.0}
    assert record["parent"] == {"commit": "p", "src_sha256": "parent"}
    assert record["change_src_sha256"] == "change"
    assert record["env"] == {"python": "3"}
    # the exports are removed
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_record_holds_paired_differences_of_traced_metrics(faked, tmp_path):
    out = tmp_path / "BENCH_test.json"
    assert faked.main(["--tag", "test", "--parent", "p", "--change", "c",
                       "--pairs", "series=1", "--traced", "sampling=2-3",
                       "--trace-metrics", "wall_s",
                       "--workdir", str(tmp_path), "--out", str(out)]) == 0
    traced = json.loads(out.read_text())["traced_sampling"]["wall_s"]
    assert traced["parent"]["runs"] == [0.2, 0.3]
    assert traced["change"]["runs"] == [0.18, 0.27]
    assert traced["paired_difference"] == {"median": -0.025, "q1": -0.0275,
                                           "q3": -0.0225}


def fake_cli(clock):
    """A stand-in for `subprocess.run` of `python -m markedgibbs.cli`: it
    writes the config's report and a log into the run directory and advances
    ``clock`` by 0.3 s in the parent's checkout and 0.2 s in the change's.
    The change writes another report for configs named ``*_drift.json``, and
    one that differs from run to run for configs named ``*_noisy.json``."""
    def run(cmd, cwd, env, **kwargs):
        assert cmd[1:4] == ["-m", "markedgibbs.cli", "--config"]
        config = json.loads((Path(cwd) / cmd[4]).read_text())
        side = Path(env["PYTHONPATH"]).parent.name
        if config.get("fail") == side:
            return subprocess.CompletedProcess(cmd, 2, "", "bad config")
        body = "same"
        if side == "change" and cmd[4].endswith("_drift.json"):
            body = "changed"
        if side == "change" and cmd[4].endswith("_noisy.json"):
            body = str(clock[0])
        (Path(cwd) / config["out"]).write_text(body)
        (Path(cwd) / "log.txt").write_text("same")
        clock[0] += 0.3 if side == "parent" else 0.2
        return subprocess.CompletedProcess(cmd, 0, "", "")
    return run


@pytest.fixture
def faked_cli(bench_pairs, monkeypatch):
    configs = {"a.json": {"out": "a_report.json"},
               "b_drift.json": {"out": "b_report.json"},
               "d_noisy.json": {"out": "d_report.json"},
               "c.json": {"out": "c_report.json", "fail": "change"}}

    def export(commit, dest):
        fake_export(commit, dest)
        (dest / "configs").mkdir()
        for name, config in configs.items():
            (dest / "configs" / name).write_text(json.dumps(config))
    clock = [0.0]
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_cli(clock))
    monkeypatch.setattr(bench_pairs.time, "perf_counter", lambda: clock[0])
    return bench_pairs


def test_record_holds_interleaved_cold_cli_runs(faked_cli, tmp_path):
    out = tmp_path / "BENCH_test.json"
    assert faked_cli.main(["--tag", "test", "--parent", "p", "--change", "c",
                           "--cli-configs", "configs/a.json", "configs/b_drift.json",
                           "--workdir", str(tmp_path), "--out", str(out)]) == 0
    cli = json.loads(out.read_text())["cli"]
    assert list(cli) == ["configs/a.json", "configs/b_drift.json"]
    runs = faked_cli.CLI_RUNS
    a = cli["configs/a.json"]
    assert a["runs"] == runs
    # the side that runs first alternates, across configs too
    assert a["first_in_pair"] == ["parent", "change"] * (runs // 2) + ["parent"] * (runs % 2)
    assert cli["configs/b_drift.json"]["first_in_pair"][0] == \
        ("change" if runs % 2 else "parent")
    assert a["wall_s"]["parent"]["runs"] == [0.3] * runs
    assert a["wall_s"]["change"]["runs"] == [0.2] * runs
    assert a["wall_s"]["paired_difference"] == {"median": -0.1, "q1": -0.1, "q3": -0.1}
    assert a["change_better_pairs"] == runs
    assert a["change_over_parent_median"] == round(0.2 / 0.3, 4)
    assert a["repeats_identical"] == {"parent": True, "change": True}
    assert a["files_differing"] == []
    # the drifting report differs between the sides, the log does not
    drift = cli["configs/b_drift.json"]
    assert drift["repeats_identical"] == {"parent": True, "change": True}
    assert drift["files_differing"] == ["b_report.json"]
    # the exports and run directories are removed
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_record_names_the_side_whose_repeats_differ(faked_cli, tmp_path):
    out = tmp_path / "BENCH_test.json"
    assert faked_cli.main(["--tag", "test", "--parent", "p", "--change", "c",
                           "--cli-configs", "configs/d_noisy.json",
                           "--workdir", str(tmp_path), "--out", str(out)]) == 0
    noisy = json.loads(out.read_text())["cli"]["configs/d_noisy.json"]
    assert noisy["repeats_identical"] == {"parent": True, "change": False}
    assert noisy["files_differing"] == ["d_report.json"]


def test_failing_cli_run_names_its_side_and_config(faked_cli, tmp_path):
    out = tmp_path / "BENCH_test.json"
    with pytest.raises(SystemExit) as failure:
        faked_cli.main(["--tag", "test", "--parent", "p", "--change", "c",
                        "--cli-configs", "configs/a.json", "configs/c.json",
                        "--workdir", str(tmp_path), "--out", str(out)])
    message = str(failure.value.code)
    assert message.startswith("change untimed run of configs/c.json failed")
    assert list(json.loads(out.read_text())["cli"]) == ["configs/a.json"]


def test_nothing_to_run_is_a_usage_error(bench_pairs):
    with pytest.raises(SystemExit) as failure:
        bench_pairs.main(["--tag", "test"])
    assert failure.value.code == 2
