#!/usr/bin/env python3
"""Paired perfbench runs of two commits, written as one BENCH_<tag>.json record.

Example, from the root of the repository:

    python scripts/bench_pairs.py --tag sampling_chain --change-note "..." \\
        --pairs sampling=201-210 --pairs series=301-303 --pairs bounds=401-403 \\
        --traced sampling=501-505 --trace-metrics potential.cross_phi.calls \\
        gibbsmc.mcmc.proposals_per_s gibbsmc.spill.s \\
        --cli-configs configs/toy_sample.json configs/verify.json

The committed files of the parent and of the change (default HEAD~1 and HEAD)
are exported with `git archive` into a scratch directory, so both sides run
exactly what is committed and the repository gains no worktree. For every
workload and seed the script runs `perfbench/run.py --trace 0` once per side,
alternating which side runs first, and records per end-to-end metric each
side's median and quartiles, the median and quartiles of the per-seed paired
differences (change - parent), the pairs the change won, their median ratio
and every run. Per perfbench job it records the same for the job medians
that the `job <workload>/<name>: median ... s` lines print. `--traced` runs
`--trace 1` the same way, every seed on both sides, and records per
`--trace-metrics` value each side's median, quartiles and runs, and the
paired differences. `--cli-configs` times cold `markedgibbs --config` runs
of each named config, ``CLI_RUNS`` per side after one untimed run per side,
parent and change alternating which runs first, each in a fresh directory,
and records the same summary of their wall seconds, whether each side's
runs all wrote the same bytes, and the names of the files that the two
sides wrote differently. The record also holds the environment block that
perfbench prints.
It is written after every finished workload, so a failing run, which stops the
script with a message naming its side, workload and seed, loses only the
workload it belongs to.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
ENV_KEYS_PER_SIDE = ("commit", "src_sha256", "seed")
JOB_LINE = re.compile(r"job [^/\s]+/(\S+): median (\S+) s over ")
# cold CLI runs per side and config
CLI_RUNS = 5


def seeds_of(spec: str) -> list[int]:
    """'201-205' or '5,11,23' -> list of seeds."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def workload_seeds(spec: str) -> tuple[str, list[int]]:
    name, sep, seeds = spec.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEEDS, got {spec!r}")
    return name, seeds_of(seeds)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """The commit's files, without .git, in dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=REPO,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, dict]:
    """(result line, env block) of one perfbench run in the checkout; the
    result's ``jobs`` maps each job to the median seconds its line prints."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench exited with status {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["jobs"] = {m[1]: float(m[2]) for m in map(JOB_LINE.match, lines) if m}
    return result, json.loads(lines[-2])["env"]


def paired_runs(checkouts: dict[str, Path], workload: str, seeds: list[int],
                seconds: float, trace: int, orders) -> tuple[dict, list[str], dict]:
    """(runs per side, side run first per seed, env per side): one run per side
    and seed, the side that runs first taken from the ``orders`` cycle."""
    runs = {s: [] for s in SIDES}
    first = []
    envs = {}
    for seed in seeds:
        order = next(orders)
        first.append(order[0])
        for side in order:
            try:
                result, envs[side] = run_bench(checkouts[side], workload, seed, seconds,
                                               trace)
            except (OSError, RuntimeError, ValueError, KeyError,
                    subprocess.SubprocessError) as exc:
                raise SystemExit(f"{side} run of {workload}, seed {seed}, trace {trace} "
                                 f"failed: {exc}") from exc
            runs[side].append(result)
            print(f"{workload} seed {seed} trace {trace} {side}: "
                  f"correct {result['correct']}", flush=True)
    return runs, first, envs


def run_cli(checkout: Path, config: str, rundir: Path) -> tuple[float, dict]:
    """(wall seconds, sha256 of every file it wrote) of one cold
    `markedgibbs --config` process of the checkout's config, run in a fresh
    directory ``rundir`` that holds a copy of the config."""
    rundir.mkdir(parents=True)
    shutil.copy(checkout / config, rundir)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "markedgibbs.cli", "--config",
                           Path(config).name], cwd=rundir, env=env,
                          capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"markedgibbs exited with status {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    outputs = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(rundir.iterdir()) if f.name != Path(config).name}
    shutil.rmtree(rundir)
    return wall, outputs


def differing_files(parent: list[dict], change: list[dict]) -> list[str]:
    """The names of the files whose digests, over all runs of a side, are not
    the same set on both sides; a file that one side did not write has the
    digest None in that run."""
    names = {name for out in parent + change for name in out}
    return sorted(name for name in names
                  if {out.get(name) for out in parent} != {out.get(name) for out in change})


def paired_cli_runs(checkouts: dict[str, Path], config: str, rundir: Path,
                    orders) -> dict:
    """``CLI_RUNS`` cold runs of one config per side, the side that runs
    first taken from the ``orders`` cycle, after one untimed run per side
    (the first run of an export also writes its bytecode caches): each
    side's wall seconds and their paired differences, the pairs the change
    won, whether each side's runs all wrote the same files with the same
    bytes, and the files that differ between the sides."""
    walls = {s: [] for s in SIDES}
    outputs = {s: [] for s in SIDES}
    first = []
    runs = [(-1, SIDES)] + [(i, next(orders)) for i in range(CLI_RUNS)]
    for i, order in runs:
        if i >= 0:
            first.append(order[0])
        for side in order:
            name = f"run {i}" if i >= 0 else "untimed run"
            try:
                wall, out = run_cli(checkouts[side], config, rundir / f"{side}{i}")
            except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
                raise SystemExit(f"{side} {name} of {config} failed: {exc}") from exc
            outputs[side].append(out)
            if i >= 0:
                walls[side].append(wall)
            print(f"{config} {name} {side}: done", flush=True)
    wins = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
    return {"command": f"python -m markedgibbs.cli --config {Path(config).name} in a "
                       f"fresh directory holding a copy of {config}, with "
                       f"PYTHONPATH=<checkout>/src",
            "runs": CLI_RUNS, "first_in_pair": first,
            "wall_s": side_summary(walls), "change_better_pairs": wins,
            "change_over_parent_median": round(
                float(np.median(walls["change"]) / np.median(walls["parent"])), 4),
            "repeats_identical": {s: all(out == outputs[s][0] for out in outputs[s])
                                  for s in SIDES},
            "files_differing": differing_files(outputs["parent"], outputs["change"])}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def paired_difference(vals: dict[str, list[float]]) -> dict:
    """Median and quartiles of the per-seed differences, change - parent: a
    drift of the host within the round moves both runs of a pair, so it
    leaves these apart from the change's effect."""
    return quartiles([c - p for p, c in zip(vals["parent"], vals["change"])])


def side_summary(vals: dict[str, list[float]]) -> dict:
    """Each side's median, quartiles and runs, and the paired differences."""
    return {**{s: {**quartiles(vals[s]), "runs": [round(v, 4) for v in vals[s]]}
               for s in SIDES},
            "paired_difference": paired_difference(vals)}


def summarize(runs: dict[str, list[dict]], seeds: list[int], first: list[str],
              better: dict[str, str]) -> dict:
    out = {"seeds": seeds, "pairs": len(seeds), "first_in_pair": first,
           "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
           "failed_ops": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
           "attempted_ops": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
           "metrics": {}}
    for name, direction in better.items():
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        ratio = float(np.median(vals["change"]) / np.median(vals["parent"]))
        out["metrics"][name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "parent": quartiles(vals["parent"]), "change": quartiles(vals["change"]),
            "paired_difference": paired_difference(vals),
            "change_better_pairs": wins,
            "change_over_parent_median": round(ratio, 4),
            "parent_runs": [round(v, 4) for v in vals["parent"]],
            "change_runs": [round(v, 4) for v in vals["change"]]}
    # the jobs every run of both sides timed, in the order perfbench prints them
    jobs = [name for name in runs["parent"][0].get("jobs", {})
            if all(name in r.get("jobs", {}) for s in SIDES for r in runs[s])]
    out["jobs"] = {name: side_summary({s: [r["jobs"][name] for r in runs[s]]
                                       for s in SIDES}) for name in jobs}
    return out


def write_record(out: Path, record: dict) -> None:
    out.write_text(json.dumps({**record, "notes": []}, indent=1) + "\n")
    print(f"wrote {out}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tag", required=True, help="record name: BENCH_<tag>.json")
    ap.add_argument("--change-note", default="", help="what the change does")
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--pairs", type=workload_seeds, action="append", default=[],
                    metavar="WORKLOAD=SEEDS", help="e.g. sampling=201-210 or series=5,11")
    ap.add_argument("--traced", type=workload_seeds, action="append", default=[],
                    metavar="WORKLOAD=SEEDS",
                    help="--trace 1 runs of every seed on both sides")
    ap.add_argument("--trace-metrics", nargs="*", default=[])
    ap.add_argument("--cli-configs", nargs="*", default=[], metavar="CONFIG",
                    help="configs, relative to the repository root, whose cold "
                         f"CLI runs are timed {CLI_RUNS} times per side")
    ap.add_argument("--workdir", type=Path, default=None,
                    help="where the two exports go (default: a temporary directory)")
    ap.add_argument("--out", type=Path, default=None,
                    help="output path (default: BENCH_<tag>.json at the repository root)")
    args = ap.parse_args(argv)
    if not (args.pairs or args.cli_configs):
        ap.error("nothing to run: give --pairs or --cli-configs")

    commits = {"parent": git("rev-parse", args.parent),
               "change": git("rev-parse", args.change)}
    out = args.out or REPO / f"BENCH_{args.tag}.json"
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.workdir))
    try:
        checkouts = {s: scratch / s for s in SIDES}
        for side in SIDES:
            export(commits[side], checkouts[side])
        spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        record = {"tag": args.tag, "change": args.change_note,
                  "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                             f"--seconds {seconds:g} --trace <0|1>, run from the root "
                             f"of each checkout; parent and change alternate which "
                             f"runs first",
                  "env": None, "parent": {"commit": commits["parent"]},
                  "change_commit": commits["change"], "change_src_sha256": None,
                  "end_to_end": {}}
        orders = itertools.cycle([SIDES, SIDES[::-1]])
        # the record so far is written after every workload, so a failing run
        # loses only the workload it belongs to
        for workload, seeds in args.pairs:
            runs, first, envs = paired_runs(checkouts, workload, seeds, seconds, 0,
                                            orders)
            record["end_to_end"][workload] = summarize(runs, seeds, first, better)
            record["env"] = {k: v for k, v in envs["parent"].items()
                             if k not in ENV_KEYS_PER_SIDE}
            record["parent"]["src_sha256"] = envs["parent"]["src_sha256"]
            record["change_src_sha256"] = envs["change"]["src_sha256"]
            write_record(out, record)
        for workload, seeds in args.traced:
            runs, first, _ = paired_runs(checkouts, workload, seeds, seconds, 1, orders)
            traced = {"seeds": seeds, "pairs": len(seeds), "first_in_pair": first,
                      "all_correct": all(r["correct"] for s in SIDES for r in runs[s])}
            for name in args.trace_metrics:
                traced[name] = side_summary(
                    {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES})
            record[f"traced_{workload}"] = traced
            write_record(out, record)
        for config in args.cli_configs:
            record.setdefault("cli", {})[config] = paired_cli_runs(
                checkouts, config, scratch / "cli", orders)
            write_record(out, record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
