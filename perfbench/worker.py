"""One workload run in a fresh interpreter: warm-up, timed passes, checks.

Started by run.py with PYTHONPATH set to the checkout's `src/`, one thread
per BLAS pool and the run's scratch directory as the working directory. A
pass runs the workload's job list once, closed-loop and sequentially, after
clearing markedgibbs' memo caches so every pass pays what a fresh process
pays. The first pass is a warm-up: it is not timed, it records the
per-order integration evidence, and its outputs are the reference that the
oracles check and that every later pass must reproduce exactly. Timed passes
follow while the next one is expected to end within --seconds of the start
of the warm-up.

With --trace 1 untraced and traced passes alternate; the per-layer metrics
come from the traced pass with the median wall time, and the tracing
overhead is the difference of the two medians.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def _caches() -> list:
    """cache_clear of every memoised markedgibbs module-level function."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "markedgibbs" or name.startswith("markedgibbs."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    out.append(obj.cache_clear)
    return out


def run_pass(job_list, caches, tracer=None):
    """Run every job once; returns (wall seconds, outputs, errors, job seconds)."""
    for clear in caches:
        clear()
    outs, errors, times = {}, {}, {}
    root = tracer.open("pass") if tracer else None
    t_pass = time.perf_counter()
    for job in job_list:
        sid = tracer.open("job", job=job.name) if tracer else None
        t0 = time.perf_counter()
        try:
            outs[job.name] = job.run(outs)
        except (Exception, SystemExit) as exc:  # a failing op is counted, not fatal
            errors[job.name] = f"{type(exc).__name__}: {exc}"
        finally:
            times[job.name] = time.perf_counter() - t0
            if tracer:
                tracer.close(sid)
    wall = time.perf_counter() - t_pass
    if tracer:
        tracer.close(root)
    return wall, outs, errors, times


def integration_evidence(spans) -> dict[str, list[str]]:
    """Per job: for each order n, the method used and the nodes evaluated."""
    nodes = defaultdict(int)
    for span in spans:
        if span.name == "lpintegrate.node_gen":
            nodes[span.parent] += span.attrs.get("rows", 0)
    table = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for i, span in enumerate(spans):
        if span.name == "lpintegrate.integral":
            job = spans[span.parent].attrs["job"]
            kind = "monte_carlo" if span.attrs["mc"] else "tensor_grid"
            cell = table[job][span.attrs["n"], kind]
            cell[0] += 1
            cell[1] += nodes[i]
    return {job: [f"n={n} {kind} integrals={c} nodes={k}"
                  for (n, kind), (c, k) in sorted(rows.items())]
            for job, rows in table.items()}


def traffic_evidence(workload: str, outs: dict) -> list[str]:
    lines = []
    if workload == "series":
        ex = outs.get("expand", {}).get("report", {}).get("results", {}).get("expansion")
        if ex:
            lines.append(f"expand: log_z={ex['log_z']!r} tail_bound={ex['tail_bound']:.3e} "
                         f"integration_error={ex['integration_error']:.3e}")
    elif workload == "bounds":
        for name, out in outs.items():
            if name.startswith("radius."):
                r = out["report"]["results"]["radius"]
                lines.append(f"{name}: C(beta)={r['c_beta']:.6g} z*={r['z_star']:.6g}")
            elif name.startswith("tree."):
                lines.append(f"{name}: Q={out:.6g}")
    elif workload == "sampling":
        if "sample" in outs:
            c = outs["sample"]["report"]["results"]["chain"]
            acc = ", ".join(f"{k}={v:.3f}" for k, v in c["acceptance"].items())
            lines.append(f"mcmc: kept={c['sample_count']} mean_count={c['mean_count']:.4f} "
                         f"tau_int={c['tau_int']:.2f} acceptance[{acc}]")
        if "summarize" in outs:
            s = outs["summarize"]
            lines.append(f"rejection: draws={s.sample_count} mean_count={s.mean_count:.4f}")
        if "dlr" in outs:
            d = outs["dlr"]
            lines.append(f"dlr: passed={d.passed} z={d.z_scores}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import markedgibbs
    src = CHECKOUT / "src"
    if src not in Path(markedgibbs.__file__).resolve().parents:
        print(f"markedgibbs imported from {markedgibbs.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import numpy
    import scipy

    import jobs
    import layers
    import oracles
    from tracer import Tracer

    ctx = jobs.Context(workload=args.workload, seed=args.seed,
                       size=jobs.SIZES[args.size], tmp=Path.cwd(),
                       models=jobs.build_models(args.workload, jobs.SIZES[args.size]))
    job_list = jobs.JOB_LISTS[args.workload](ctx)
    caches = _caches()
    tracer = Tracer()
    start = time.perf_counter()
    deadline = start + args.seconds

    tracer.install(layers.EVIDENCE_TARGETS)
    tracer.reset()
    _, ref_outs, ref_errors, _ = run_pass(job_list, caches, tracer)
    evidence = integration_evidence(tracer.spans)
    tracer.uninstall()
    tracer.reset()

    walls = {"untraced": [], "traced": []}
    job_times = defaultdict(list)
    traced_metrics = []
    pass_errors = []  # per timed pass: {job: reason}
    rounds = []  # a round is one untraced pass, plus one traced pass with --trace 1
    while True:
        t_round = time.perf_counter()
        for mode in (("untraced", "traced") if args.trace else ("untraced",)):
            if mode == "traced":
                tracer.install(layers.TARGETS)
                wall, outs, errors, times = run_pass(job_list, caches, tracer)
                tracer.uninstall()
                m = layers.pass_metrics(tracer.spans)
                m["cli.report_bytes"] = sum(o.get("report_bytes", 0) for o in outs.values()
                                            if isinstance(o, dict))
                traced_metrics.append((wall, m))
                tracer.reset()
            else:
                wall, outs, errors, times = run_pass(job_list, caches)
                for name, t in times.items():
                    job_times[name].append(t)
            walls[mode].append(wall)
            for name in outs:
                if name not in ref_outs or outs[name] != ref_outs[name]:
                    errors.setdefault(name, "output differs from the warm-up pass")
            pass_errors.append(errors)
        rounds.append(time.perf_counter() - t_round)
        # stop before a round that would end past the deadline
        if time.perf_counter() + statistics.median(rounds) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = oracles.CHECKS[args.workload](ctx, ref_outs)
    bad = {name: msg for name, msg in verdict.items() if msg}
    names = [job.name for job in job_list]
    failed = 0
    failures = []
    for errors in [ref_errors] + pass_errors:
        for name in names:
            reason = errors.get(name) or bad.get(name)
            if reason:
                failed += 1
                failures.append(f"{name}: {reason}")

    for name in names:
        for line in evidence.get(name, []):
            print(f"evidence {args.workload}/{name}: {line}")
    for line in traffic_evidence(args.workload, ref_outs):
        print(f"evidence {args.workload}/{line}")
    for name in names:
        if job_times[name]:
            print(f"job {args.workload}/{name}: median {statistics.median(job_times[name]):.4f} s "
                  f"over {len(job_times[name])} passes")
    for line in sorted(set(failures)):
        print(f"FAILED {line}")

    result = {
        "attempted": len(names) * (1 + len(pass_errors)),
        "failed": failed,
        "pass_walls": walls["untraced"],
        "wall_s": statistics.median(walls["untraced"]),
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.trace:
        traced = sorted(traced_metrics, key=lambda wm: wm[0])
        _, m = traced[(len(traced) - 1) // 2]
        m["trace.overhead_s"] = (statistics.median(walls["traced"])
                                 - statistics.median(walls["untraced"]))
        result["layer"] = m
        result["accounting_gap_s"] = layers.accounting_gap(m)
        result["traced_passes"] = len(traced)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
