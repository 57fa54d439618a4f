"""Workload job lists: inputs made from the seed, one list per workload.

Every job is one operation a user would run. Jobs the CLI can express go
through `markedgibbs.cli.main` with a config file written into the run's
scratch directory (reports, spills and configs never land in the source
tree); the rest call the library's public functions. Jobs look their callees
up as module attributes at call time, so the tracer's patches apply.

Sizes: `full` is what the benchmark measures; `smoke` is the same job list at
toy sizes, for the benchmark's own tests.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from markedgibbs import cli, cluster, gibbsmc
from markedgibbs.lpintegrate import QuadratureScheme, philox_rng
from markedgibbs.model import Box, FiniteConfiguration, MarkedPoint, canonicalize

SIZES = {
    "full": {
        # series
        "series_grid": [48, 24, 12, 8, 5, 3],
        "expand_order": 5,
        "corr_grid": [48, 24, 16],
        "ideal_grid": 16,
        "avg_order": 3,
        "ldp_grid": [32, 16, 8, 6, 4, 3],
        "ldp_order": 3,
        "direct_order": 8,
        "mc_samples": 20000,
        # bounds
        "radius_grid": {"ideal": 16, "toy-repulsive-spin": 16,
                        "toy-repulsive-spin-rc": 16, "hard-core": 16,
                        "planar-rotator": 4, "ferrofluid": 4, "continuum-potts": 4,
                        "toy-periodic-2": 8, "toy-2d": 16, "planar-rotator-2d": 2},
        "tree_max_points": 7,
        # sampling
        "sample_side": 12.0,
        "sweeps": 8000,
        "burn_in": 1000,
        "draws": 4000,
        "dlr_samples": 1500,
    },
    "smoke": {
        "series_grid": [12, 6, 4, 3, 2, 2],
        "expand_order": 5,
        "corr_grid": [8, 6, 4],
        "ideal_grid": 6,
        "avg_order": 2,
        "ldp_grid": [8, 6, 4, 3, 2, 2],
        "ldp_order": 2,
        "direct_order": 7,
        "mc_samples": 500,
        "radius_grid": {"ideal": 4, "toy-repulsive-spin": 4,
                        "toy-repulsive-spin-rc": 4, "hard-core": 4,
                        "planar-rotator": 2, "ferrofluid": 2, "continuum-potts": 2,
                        "toy-periodic-2": 4, "toy-2d": 4, "planar-rotator-2d": 2},
        "tree_max_points": 5,
        "sample_side": 4.0,
        "sweeps": 600,
        "burn_in": 100,
        "draws": 300,
        "dlr_samples": 200,
    },
}

SAMPLE_Z = 0.35  # about half of the toy model's certified radius z* = 0.758
SERIES_Z = 0.05
LDP_REGION = Box((0.3,), (0.7,))
DLR_INNER = Box((0.25,), (0.75,))
Z_BOUND = 4.5  # stated z-score bound of the statistical checks (MCMC vs exact, DLR)


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]  # gets this pass's earlier outputs by job name


@dataclass
class Context:
    workload: str
    seed: int
    size: dict
    tmp: Path
    models: dict
    inputs: dict = field(default_factory=dict)  # seeded inputs the oracles reuse


# ---------------------------------------------------------------------------
# model specs (the set-up that `setup_s` times)


def _radius_specs() -> dict[str, dict]:
    """Model configs of the radius jobs, in CLI config form."""
    specs = {name: {"name": name, "z": SERIES_Z, "beta": 1.0}
             for name in ("ideal", "toy-repulsive-spin", "toy-repulsive-spin-rc",
                          "hard-core", "planar-rotator", "ferrofluid",
                          "continuum-potts")}
    specs["toy-periodic-2"] = {
        "space": {"dimension": 1, "side_lengths": [2.0], "boundary": "periodic"},
        "marks": {"kind": "discrete", "labels": [1.0, -1.0], "weights": [0.5, 0.5]},
        "potential": {"name": "toy-repulsive-spin"}, "z": SERIES_Z, "beta": 1.0}
    specs["toy-2d"] = {"name": "toy-repulsive-spin", "z": SERIES_Z, "beta": 1.0,
                       "params": {"dimension": 2}}
    specs["planar-rotator-2d"] = {"name": "planar-rotator", "z": SERIES_Z,
                                  "beta": 1.0, "params": {"dimension": 2}}
    return specs


def model_configs(workload: str, size: dict) -> dict[str, dict]:
    if workload == "series":
        return {"toy": {"name": "toy-repulsive-spin", "z": SERIES_Z, "beta": 1.0},
                "ideal": {"name": "ideal", "z": SERIES_Z, "beta": 1.0},
                "toy-rc": {"name": "toy-repulsive-spin-rc", "z": SERIES_Z, "beta": 1.0}}
    if workload == "bounds":
        return _radius_specs()
    if workload == "sampling":
        return {"toy": {"name": "toy-repulsive-spin", "z": SAMPLE_Z, "beta": 1.0,
                        "params": {"side": size["sample_side"]}},
                "toy-rc": {"name": "toy-repulsive-spin-rc", "z": SAMPLE_Z, "beta": 1.0}}
    raise ValueError(f"unknown workload {workload!r}")


def build_models(workload: str, size: dict) -> dict:
    from markedgibbs.potential import model_from_dict
    return {key: model_from_dict(cfg)
            for key, cfg in model_configs(workload, size).items()}


# ---------------------------------------------------------------------------
# seeded inputs


def seeded_points(rng: np.random.Generator, count: int, d: int = 1,
                  lower: float = 0.05, upper: float = 0.95) -> FiniteConfiguration:
    pos = lower + rng.random((count, d)) * (upper - lower)
    marks = rng.choice([1.0, -1.0], size=count)
    return canonicalize([MarkedPoint(tuple(float(x) for x in p), float(m))
                         for p, m in zip(pos, marks)])


def _rows(config: FiniteConfiguration) -> list:
    return [list(p.position) + [p.mark] for p in config.points]


def series_scheme(ctx: Context) -> QuadratureScheme:
    return QuadratureScheme.tensor(tuple(ctx.size["series_grid"]),
                                   mc_fallback_samples=ctx.size["mc_samples"],
                                   seed=ctx.seed)


def tree_splits(ctx: Context) -> list[tuple[int, int, FiniteConfiguration]]:
    """(anchor count, total, points): a single anchor at every size from 2 to
    the cap, and one seeded multi-anchor split at every size from 3."""
    rng = philox_rng(ctx.seed, 2)
    model = ctx.models["toy-repulsive-spin"]
    out = []
    for total in range(2, ctx.size["tree_max_points"] + 1):
        anchors = [1] + ([int(rng.integers(2, total))] if total >= 3 else [])
        for l in anchors:
            cfg = seeded_points(rng, total, lower=0.0, upper=model.space.side_lengths[0])
            out.append((l, total, cfg))
    return out


# ---------------------------------------------------------------------------
# CLI jobs


def cli_job(ctx: Context, name: str, config: dict) -> Job:
    report = ctx.tmp / f"{name}_report.json"
    path = ctx.tmp / f"{name}.json"
    path.write_text(json.dumps({**config, "out": str(report)}, indent=1))

    def run(_outs):
        code = cli.main(["--config", str(path)])
        if code != 0:
            raise RuntimeError(f"markedgibbs exited with status {code}")
        body = report.read_text()
        out = {"report": json.loads(body), "report_bytes": len(body.encode())}
        if config.get("sample_file"):
            out["spill_sha256"] = hashlib.sha256(
                Path(config["sample_file"]).read_bytes()).hexdigest()
        return out
    return Job(name, run)


# ---------------------------------------------------------------------------
# workloads


def series_jobs(ctx: Context) -> list[Job]:
    size = ctx.size
    rng = philox_rng(ctx.seed, 1)
    toy, toy_rc = ctx.models["toy"], ctx.models["toy-rc"]
    box = toy.space.box
    point_sets = [seeded_points(rng, k) for k in (1, 2, 3)]
    ideal_set = seeded_points(rng, 2)
    ldp_configs = [FiniteConfiguration(),
                   seeded_points(rng, 1, lower=0.31, upper=0.69),
                   seeded_points(rng, 2, lower=0.31, upper=0.69)]
    ctx.inputs = {"point_sets": point_sets}
    scheme_cfg = {"kind": "tensor_grid", "points_per_axis": size["series_grid"],
                  "mc_fallback_samples": size["mc_samples"]}

    def averaged(_outs):
        return cluster.averaged_correlation(toy, box, 1, size["avg_order"],
                                            series_scheme(ctx))

    def limit_density(_outs):
        scheme = QuadratureScheme.tensor(tuple(size["ldp_grid"]),
                                         mc_fallback_samples=size["mc_samples"],
                                         seed=ctx.seed)
        profile = cluster.limit_density_profile(toy_rc, LDP_REGION,
                                                size["ldp_order"], scheme)
        return {"log_normalizer": profile.log_normalizer,
                "densities": [profile.density(c) for c in ldp_configs]}

    def direct(_outs):
        return cluster.partition_direct_truncated(
            toy, box, FiniteConfiguration(), size["direct_order"], series_scheme(ctx))

    return [
        cli_job(ctx, "expand", {
            "command": "expand", "model": model_configs("series", size)["toy"],
            "order": size["expand_order"], "scheme": scheme_cfg, "seed": ctx.seed}),
        cli_job(ctx, "correlate", {
            "command": "correlate", "model": model_configs("series", size)["toy"],
            "order": 3, "seed": ctx.seed, "reference_grid_size": 8,
            "scheme": {"kind": "tensor_grid", "points_per_axis": size["corr_grid"]},
            "points": [_rows(s) for s in point_sets]}),
        cli_job(ctx, "ideal_correlate", {
            "command": "correlate", "model": model_configs("series", size)["ideal"],
            "order": 3, "seed": ctx.seed, "reference_grid_size": 8,
            "scheme": {"kind": "tensor_grid", "points_per_axis": size["ideal_grid"]},
            "points": [_rows(ideal_set)]}),
        Job("averaged_correlation", averaged),
        Job("limit_density", limit_density),
        Job("partition_direct", direct),
    ]


def bounds_jobs(ctx: Context) -> list[Job]:
    size = ctx.size
    jobs = [cli_job(ctx, f"radius.{key}", {
        "command": "radius", "model": spec,
        "reference_grid_size": size["radius_grid"][key], "seed": ctx.seed})
        for key, spec in _radius_specs().items()]

    def tails(outs):
        out = {}
        for key in _radius_specs():
            c_beta = outs[f"radius.{key}"]["report"]["results"]["radius"]["c_beta"]
            model = ctx.models[key]
            out[key] = {"c_beta": c_beta,
                        "tail": [cluster.tail_bound(model, n0, c_beta)
                                 for n0 in range(1, 7)],
                        "correlation_tail": [cluster.correlation_tail_bound(
                            model, n0, c_beta) for n0 in range(1, 7)]}
        return out
    jobs.append(Job("tail_bounds", tails))

    model = ctx.models["toy-repulsive-spin"]
    splits = tree_splits(ctx)
    ctx.inputs = {"splits": splits}
    for l, total, cfg in splits:
        def tree(_outs, l=l, cfg=cfg):
            omega = cfg.subset(range(l))
            zeta = cfg.subset(range(l, len(cfg)))
            return cluster.tree_bound_q_multi(omega, zeta, model)
        jobs.append(Job(f"tree.{total}pts.{l}anchor", tree))
    return jobs


def sampling_jobs(ctx: Context) -> list[Job]:
    size = ctx.size
    toy, toy_rc = ctx.models["toy"], ctx.models["toy-rc"]
    box = toy.space.box
    spill = ctx.tmp / "samples.txt"

    def rejection(_outs):
        return gibbsmc.rejection_sample_batch(toy, box, gibbsmc.EMPTY_BOUNDARY,
                                              size["draws"], philox_rng(ctx.seed, 3))

    def summarize(outs):
        return gibbsmc.summarize_samples(outs["rejection"], toy, box)

    def dlr(_outs):
        return gibbsmc.dlr_check(toy_rc, DLR_INNER, toy_rc.space.box,
                                 n_samples=size["dlr_samples"], seed=ctx.seed,
                                 z_threshold=Z_BOUND, locality_trials=100)

    return [
        cli_job(ctx, "sample", {
            "command": "sample", "model": model_configs("sampling", size)["toy"],
            "sampler": {"sweeps": size["sweeps"], "burn_in": size["burn_in"],
                        "thinning": 1},
            "seed": ctx.seed, "reference_grid_size": 4,
            "sample_file": str(spill)}),
        Job("rejection", rejection),
        Job("summarize", summarize),
        Job("dlr", dlr),
    ]


JOB_LISTS = {"series": series_jobs, "bounds": bounds_jobs, "sampling": sampling_jobs}
