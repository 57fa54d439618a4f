"""markedgibbs benchmark: the `series`, `bounds` and `sampling` workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload series --seed 1 --seconds 36 --trace 0

It measures the checkout's own `src/` (nothing needs installing): set-up time
from fresh interpreters, then one workload run in a fresh worker interpreter
(perfbench/worker.py) that repeats the workload's job list for --seconds and
checks every output against an independent oracle. All files it writes go
to a scratch directory under `.perfbench_tmp/` in the checkout, removed at
exit. The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1). `--size smoke` runs toy sizes for the benchmark's
own tests. See perfbench/README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("series", "bounds", "sampling")
SETUP_PROBES = {"full": 3, "smoke": 2}
TIME_LIMIT_S = 170.0
# set-up as the benchmark uses the package: import it and build the workload's models
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import jobs; "
         "jobs.build_models(sys.argv[2], jobs.SIZES[sys.argv[3]])")
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(checkout: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(checkout / "src")
    env.update({k: "1" for k in SINGLE_THREAD})
    return env


def import_times(stderr: str) -> tuple[float, float]:
    """(markedgibbs cumulative, scipy self total) seconds from -X importtime."""
    mg = scipy = 0.0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)", line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "markedgibbs":
            mg = cum_us / 1e6
        if name == "scipy" or name.startswith("scipy."):
            scipy += self_us / 1e6
    return mg, scipy


def measure_setup(workload: str, size: str, env: dict, cwd: Path, trace: bool) -> dict:
    """Median over fresh interpreters of the time to import and build models."""
    walls, mg, sp = [], [], []
    flags = ["-X", "importtime"] if trace else []
    for _ in range(SETUP_PROBES[size]):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *flags, "-c", PROBE, str(HERE), workload, size],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        if trace:
            a, b = import_times(proc.stderr)
            mg.append(a)
            sp.append(b)
    out = {"setup_s": statistics.median(walls)}
    if trace:
        out["import.markedgibbs_s"] = statistics.median(mg)
        out["import.scipy_s"] = statistics.median(sp)
    return out


def environment(checkout: Path, seed: int, versions: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    commit = None
    if (checkout / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(path.relative_to(checkout).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu": cpu, "platform": platform.platform(),
            **versions,
            "blas_threads": {k: "1" for k in SINGLE_THREAD},
            "commit": commit, "src_sha256": digest.hexdigest(), "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=tuple(SETUP_PROBES), default="full")
    args = ap.parse_args(argv)

    started = time.perf_counter()
    # on SIGTERM unwind normally, so subprocess.run kills the child and the
    # scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    checkout = Path.cwd().resolve()
    if not (checkout / "src" / "markedgibbs" / "__init__.py").is_file():
        print("run from the root of a markedgibbs checkout (src/markedgibbs missing)",
              file=sys.stderr)
        return 2
    scratch_root = checkout / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        env = child_env(checkout)
        setup = measure_setup(args.workload, args.size, env, tmp, bool(args.trace))
        result_path = tmp / "result.json"
        sys.stdout.flush()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size, "--out", str(result_path)],
            env=env, cwd=tmp, timeout=max(1.0, TIME_LIMIT_S - (time.perf_counter() - started)))
        if proc.returncode != 0 or not result_path.is_file():
            print(f"worker failed with status {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text())
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        import layers
        values = {**res["layer"], **setup}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
        correct = res["failed"] == 0 and abs(res["accounting_gap_s"]) <= 1e-6
        print(f"trace: {res['traced_passes']} traced passes, accounting gap "
              f"{res['accounting_gap_s']:.2e} s")
    else:
        metrics = {"wall_s": {"value": res["wall_s"], "unit": "s"},
                   "setup_s": {"value": setup["setup_s"], "unit": "s"},
                   "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}
        correct = res["failed"] == 0
        walls = res["pass_walls"]
        print(f"passes: {len(walls)} timed, wall_s median {res['wall_s']:.4f} s, "
              f"pass walls {[round(w, 4) for w in walls]}")
    print(f"ops: attempted {res['attempted']}, failed {res['failed']}, "
          f"fail_frac {res['failed'] / res['attempted']:.4f}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"env": environment(checkout, args.seed, res["versions"])}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
