"""Command-line driver: model configuration, experiment execution, report emission.

One JSON configuration file per run plus flag overrides; reports are
machine-readable JSON (optionally with a CSV table) carrying full provenance.
Reports contain no timestamps, so identical configurations produce
byte-identical bodies regardless of the worker-count flag.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import verify as verify_mod
from .cluster import (convergence_radius, correlation_truncated,
                      default_series_scheme, log_partition_truncated)
from .errors import ConfigError, DuplicatePosition, MarkedGibbsError
from .gibbsmc import (EMPTY_BOUNDARY, SampleStream, SamplerConfig, mcmc_run,
                      write_sample_file)
from .lpintegrate import QuadratureScheme
from .model import Box, FiniteConfiguration, MarkedPoint, ModelSpec, canonicalize
from .potential import model_from_dict

SCHEMA_VERSION = "markedgibbs-report-v1"
COMMANDS = ("radius", "expand", "correlate", "sample", "verify")


def _json_default(obj):
    """Coerce numpy scalars that leak into report payloads."""
    import numpy as np
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


@dataclass
class RunConfig:
    command: str
    model_cfg: dict
    region: dict | None = None
    order: int = 4
    scheme_cfg: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    format: str = "report"
    points: list = field(default_factory=list)
    sampler_cfg: dict = field(default_factory=dict)
    sample_file: str | None = None
    reference_grid_size: int = 48


CONFIG_KEYS = ("command", "model", "region", "order", "scheme", "seed", "out",
               "format", "points", "sampler", "sample_file", "reference_grid_size")
SCHEME_KEYS = tuple(f.name for f in fields(QuadratureScheme))
SAMPLER_KEYS = tuple(f.name for f in fields(SamplerConfig))


def _check_keys(what: str, data, known: tuple[str, ...]):
    """A config object must be a JSON object with known keys only."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} key {unknown[0]!r}; known: {sorted(known)}")


def _int_entry(data: dict, key: str, default: int, minimum: int) -> int:
    try:
        value = int(data.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be an integer: {exc}") from exc
    if value < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {value}")
    return value


def load_config(path: str | None, overrides: dict) -> RunConfig:
    data: dict = {}
    if path:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _check_keys("config", data, CONFIG_KEYS)
    data.update({k: v for k, v in overrides.items() if v is not None})
    command = data.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")
    if "model" not in data and command != "verify":
        raise ConfigError("config needs a 'model' entry")
    model_cfg = data.get("model", {"name": "toy-repulsive-spin"})
    if isinstance(model_cfg, str):
        model_cfg = {"name": model_cfg}
    scheme_cfg = data.get("scheme", {})
    _check_keys("scheme", scheme_cfg, SCHEME_KEYS)
    sampler_cfg = data.get("sampler", {})
    _check_keys("sampler", sampler_cfg, SAMPLER_KEYS)
    fmt = data.get("format", "report")
    if fmt not in ("report", "csv"):
        raise ConfigError("format must be 'report' or 'csv'")
    return RunConfig(
        command=command,
        model_cfg=model_cfg,
        region=data.get("region"),
        order=_int_entry(data, "order", 4, 1 if command == "expand" else 0),
        scheme_cfg=scheme_cfg,
        seed=_int_entry(data, "seed", 0, 0),
        out=data.get("out"),
        format=fmt,
        points=data.get("points", []),
        sampler_cfg=sampler_cfg,
        sample_file=data.get("sample_file"),
        reference_grid_size=_int_entry(data, "reference_grid_size",
                                       {"radius": 48, "expand": 32}.get(command, 24),
                                       1),
    )


def _build_scheme(cfg: dict, seed: int) -> QuadratureScheme:
    """The default series scheme with the config's entries in place of its own."""
    plan = default_series_scheme(int(cfg.get("seed", seed)))
    common = {"seed": plan.seed, "mark_rule": cfg.get("mark_rule", plan.mark_rule),
              "mark_nodes": int(cfg.get("mark_nodes", plan.mark_nodes))}
    kind = cfg.get("kind", plan.kind)
    if kind == "monte_carlo":
        return QuadratureScheme.monte_carlo(
            int(cfg.get("samples", plan.mc_fallback_samples)), **common)
    pts = cfg.get("points_per_axis", plan.points_per_axis)
    if isinstance(pts, list):
        pts = tuple(int(p) for p in pts)
    fallback = cfg.get("mc_fallback_samples", plan.mc_fallback_samples)
    return QuadratureScheme(
        kind=kind, points_per_axis=pts,
        mc_fallback_samples=None if fallback is None else int(fallback), **common)


def _region_box(model: ModelSpec, cfg: dict | None) -> Box:
    if cfg is None:
        return model.space.box
    try:
        box = Box(tuple(float(x) for x in cfg["lower"]),
                  tuple(float(x) for x in cfg["upper"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad region: {exc}") from exc
    if box.dimension != model.space.dimension or not model.space.box.contains_box(box):
        raise ConfigError(f"region {box} leaves the model's box")
    return box


def _point_sets(model: ModelSpec, region: Box, row_sets) -> list[FiniteConfiguration]:
    """Correlate's point sets: lists of [x..., mark] rows at distinct positions
    inside the region."""
    d = model.space.dimension
    try:
        if any(len(row) != d + 1 for rows in row_sets for row in rows):
            raise ValueError(f"a point row needs {d} coordinates plus a mark")
        sets = [canonicalize([MarkedPoint(tuple(row[:d]), row[d]) for row in rows])
                for rows in row_sets]
    except (TypeError, ValueError, DuplicatePosition) as exc:
        raise ConfigError(f"bad correlate points: {exc}") from exc
    if not sets or not all(region.contains_point(p.position) for s in sets for p in s):
        raise ConfigError("correlate needs a 'points' list of sets of [x..., mark] "
                          "rows inside the region")
    bad = [p.mark for s in sets for p in s if not model.marks.contains(p.mark)]
    if bad:
        raise ConfigError(f"bad correlate points: mark {bad[0]!r} is not in the "
                          f"model's {model.marks.kind} mark space")
    return sets


def _provenance(model: ModelSpec, run: RunConfig, scheme: QuadratureScheme | None) -> dict:
    pot = model.potential
    return {
        "model": pot.name,
        "parameters": {k: v for k, v in sorted(pot.params.items())},
        "stability_B": pot.stability_B,
        "range_R": pot.range_R,
        "z": model.z,
        "beta": model.beta,
        "mark_space": model.marks.kind,
        "box_sides": list(model.space.side_lengths),
        "boundary": model.space.boundary,
        "seed": run.seed,
        "scheme": scheme.echo() if scheme else None,
        "generator": "philox",
    }


def _cmd_radius(model: ModelSpec, run: RunConfig) -> dict:
    report = convergence_radius(model, run.reference_grid_size)
    return {"radius": report.to_dict()}


def _cmd_expand(model: ModelSpec, run: RunConfig, region: Box,
                scheme: QuadratureScheme) -> dict:
    report = log_partition_truncated(model, region, run.order, scheme,
                                     run.reference_grid_size)
    return {"expansion": report.to_dict()}


def _cmd_correlate(model: ModelSpec, run: RunConfig, region: Box,
                   scheme: QuadratureScheme) -> dict:
    results = []
    for row_set, points in zip(run.points, _point_sets(model, region, run.points)):
        est = correlation_truncated(points, model, region, run.order, scheme)
        results.append({"points": row_set, "rho": est.value, "error": est.error,
                        "terms": list(est.terms)})
    certificate = convergence_radius(model, run.reference_grid_size).to_dict()
    return {"correlations": results,
            "truncation_order": run.order,
            "certificate": certificate,
            "normalization": "series-in-z; no activity prefactor on fixed points"}


def _cmd_sample(model: ModelSpec, run: RunConfig, region: Box) -> dict:
    cfg = dict(run.sampler_cfg)
    cfg.setdefault("seed", run.seed)
    try:
        sampler = SamplerConfig(**cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sampler: {exc}") from exc
    stream = SampleStream(model.space.dimension) if run.sample_file else None
    stats = mcmc_run(model, region, EMPTY_BOUNDARY, sampler, stream=stream)
    if run.sample_file:
        write_sample_file(run.sample_file, stream, model.space.dimension)
    certificate = convergence_radius(model, run.reference_grid_size).to_dict()
    return {"chain": stats.to_dict(),
            "sample_file": run.sample_file,
            "certificate": certificate,
            "rho_normalization": "mean count / (z * reference mass)"}


def _cmd_verify(run: RunConfig, echo) -> dict:
    results = verify_mod.run_all(echo=echo)
    return {"checks": [{"name": r.name, "passed": r.passed, "margin": r.margin}
                       for r in results],
            "all_passed": all(r.passed for r in results)}


def _write_csv(path: Path, payload: dict):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if "expansion" in payload["results"]:
            writer.writerow(["order", "coefficient", "error"])
            exp = payload["results"]["expansion"]
            for i, (c, e) in enumerate(zip(exp["coefficients"],
                                           exp["coefficient_errors"]), start=1):
                writer.writerow([i, repr(c), repr(e)])
        elif "correlations" in payload["results"]:
            writer.writerow(["index", "rho", "error"])
            for i, row in enumerate(payload["results"]["correlations"]):
                writer.writerow([i, repr(row["rho"]), repr(row["error"])])
        elif "chain" in payload["results"]:
            writer.writerow(["bin_left", "bin_right", "pair_count"])
            chain = payload["results"]["chain"]
            edges = chain["pair_histogram_edges"]
            for left, right, cnt in zip(edges, edges[1:],
                                        chain["pair_histogram_counts"]):
                writer.writerow([repr(left), repr(right), repr(cnt)])
        else:
            writer.writerow(["key", "value"])
            for k, v in sorted(payload["results"].items()):
                writer.writerow([k, json.dumps(v, sort_keys=True)])


def run(config: RunConfig, echo=print) -> int:
    """Execute one run; returns the process exit status."""
    model = None
    scheme = None
    if config.command != "verify":
        model = model_from_dict(config.model_cfg)
        try:
            scheme = _build_scheme(config.scheme_cfg, config.seed)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad scheme: {exc}") from exc

    if config.command == "radius":
        results = _cmd_radius(model, config)
    elif config.command == "expand":
        results = _cmd_expand(model, config, _region_box(model, config.region), scheme)
    elif config.command == "correlate":
        results = _cmd_correlate(model, config, _region_box(model, config.region),
                                 scheme)
    elif config.command == "sample":
        results = _cmd_sample(model, config, _region_box(model, config.region))
    else:
        results = _cmd_verify(config, echo)

    payload = {
        "schema": SCHEMA_VERSION,
        "command": config.command,
        "provenance": (_provenance(model, config, scheme) if model is not None
                       else {"seed": config.seed}),
        "results": results,
    }
    body = json.dumps(payload, sort_keys=True, indent=2,
                      default=_json_default) + "\n"
    if config.out:
        Path(config.out).write_text(body)
        if config.format == "csv":
            _write_csv(Path(config.out).with_suffix(".csv"), payload)
    else:
        echo(body)
    if config.command == "verify" and not results["all_passed"]:
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="markedgibbs",
        description="Cluster-expansion toolkit for marked Gibbs point processes")
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--command", choices=COMMANDS,
                        help="override the command from the config")
    parser.add_argument("--seed", type=int, help="override the seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted but not used yet; runs are single-process")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--format", choices=("report", "csv"),
                        help="emit a CSV table next to the report")
    args = parser.parse_args(argv)
    overrides = {"command": args.command, "seed": args.seed, "out": args.out,
                 "format": args.format}
    try:
        config = load_config(args.config, overrides)
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MarkedGibbsError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
