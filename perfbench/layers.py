"""Which markedgibbs functions are traced, and the per-layer metrics made from
their spans.

Every traced span name maps to exactly one self-time metric, so the self-time
metrics plus `trace.unattributed_s` (the benchmark's own pass and job glue)
add up to `trace.wall_s`.
"""
from __future__ import annotations

import math
import os
from collections import defaultdict

from tracer import Span, Target, self_times


def _set(key, value):
    def hook(attrs, args, kwargs, result):
        attrs[key] = value(args, kwargs, result)
    return hook


def _integral_attrs(attrs, args, kwargs, result):
    attrs["n"] = len(args[1])
    attrs["mc"] = int(args[3].kind == "monte_carlo")


def _node_attrs(attrs, args, kwargs, item):
    attrs["rows"] = attrs.get("rows", 0) + item[0].shape[0]


def _ursell_attrs(attrs, args, kwargs, result):
    # ursell_batch(model, fixed, positions, marks)
    attrs["rows"] = args[2].shape[0]
    attrs["ground"] = len(args[1]) + args[2].shape[1]


def _kbar_attrs(attrs, args, kwargs, result):
    # kbar_batch_split(model, positions, marks, fixed_count)
    attrs["rows"] = args[1].shape[0]
    attrs["ground"] = args[1].shape[1]


def _tree_item(attrs, args, kwargs, item):
    attrs["trees"] = attrs.get("trees", 0) + 1


def _chain_attrs(attrs, args, kwargs, stats):
    attrs["proposals"] = sum(stats.attempts.values())
    attrs["accepts"] = sum(stats.accepts.values())
    attrs["mean_count"] = stats.mean_count
    attrs["tau_int"] = stats.tau_int
    attrs["ess"] = stats.sample_count / stats.tau_int


TARGETS = [
    Target("markedgibbs.cli", "run", "cli.run"),
    Target("markedgibbs.lpintegrate", "lp_integral", "lpintegrate.lp_integral"),
    Target("markedgibbs.lpintegrate", "product_region_integral", "lpintegrate.integral",
           _integral_attrs),
    Target("markedgibbs.lpintegrate", "product_node_batches", "lpintegrate.node_gen",
           _node_attrs),
    Target("markedgibbs.cluster", "ursell_batch", "cluster.ursell", _ursell_attrs),
    Target("markedgibbs.cluster", "kbar_batch_split", "cluster.kbar", _kbar_attrs),
    Target("markedgibbs.cluster", "tree_bound_q_multi", "cluster.tree_bound"),
    Target("markedgibbs.cluster", "convergence_radius", "cluster.radius"),
    Target("markedgibbs.combinat", "enumerate_trees", "combinat.enumerate_trees",
           _tree_item),
    Target("markedgibbs.starcalc", "star_exp", "starcalc.star_exp"),
    Target("markedgibbs.potential", "check_integrability", "potential.c_beta"),
    Target("markedgibbs.potential", "pair_phi_matrix", "potential.pair_phi",
           _set("rows", lambda a, k, r: math.prod(a[1].shape[:-2]))),
    Target("markedgibbs.potential", "cross_phi_matrix", "potential.cross_phi"),
    Target("markedgibbs.model", "MarkSpace.sample", "model.mark_sample"),
    Target("markedgibbs.gibbsmc", "mcmc_run", "gibbsmc.mcmc", _chain_attrs),
    Target("markedgibbs.gibbsmc", "rejection_sample_batch", "gibbsmc.rejection",
           _set("draws", lambda a, k, r: len(r))),
    Target("markedgibbs.gibbsmc", "summarize_samples", "gibbsmc.summarize"),
    Target("markedgibbs.gibbsmc", "write_sample_file", "gibbsmc.spill",
           _set("bytes", lambda a, k, r: os.path.getsize(a[0]))),
    Target("markedgibbs.gibbsmc", "dlr_check", "gibbsmc.dlr"),
]

# the warm-up pass traces only the integration layer, for the per-order evidence
EVIDENCE_TARGETS = [t for t in TARGETS if t.span in ("lpintegrate.integral",
                                                     "lpintegrate.node_gen")]

# span name -> its self-time metric; "pass" and "job" are the benchmark's own
SELF_METRIC = {
    "cli.run": "cli.run.self_s",
    "lpintegrate.node_gen": "lpintegrate.node_gen_s",
    **{t.span: f"{t.span}.s" for t in TARGETS
       if t.span not in ("cli.run", "lpintegrate.node_gen")},
}
GLUE_SPANS = ("pass", "job")

# (name, unit, better): the per-layer metrics, in BENCHMARK.json order
PER_LAYER = [
    ("import.markedgibbs_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("lpintegrate.integrals", "count", "lower"),
    ("lpintegrate.nodes", "count", "lower"),
    ("lpintegrate.node_gen_s", "s", "lower"),
    ("lpintegrate.mc_orders", "count", "lower"),
    ("lpintegrate.integral.s", "s", "lower"),
    ("lpintegrate.lp_integral.s", "s", "lower"),
    ("cluster.ursell.rows", "count", "lower"),
    ("cluster.ursell.s", "s", "lower"),
    ("cluster.kbar.rows", "count", "lower"),
    ("cluster.kbar.s", "s", "lower"),
    ("cluster.max_ground", "points", "lower"),
    ("cluster.tree_bound.calls", "count", "lower"),
    ("cluster.tree_bound.s", "s", "lower"),
    ("cluster.radius.s", "s", "lower"),
    ("combinat.trees_enumerated", "count", "lower"),
    ("combinat.enumerate_trees.s", "s", "lower"),
    ("starcalc.star_exp.calls", "count", "lower"),
    ("starcalc.star_exp.s", "s", "lower"),
    ("potential.c_beta.calls", "count", "lower"),
    ("potential.c_beta.s", "s", "lower"),
    ("potential.pair_phi.calls", "count", "lower"),
    ("potential.pair_phi.rows", "count", "lower"),
    ("potential.pair_phi.s", "s", "lower"),
    ("potential.cross_phi.calls", "count", "lower"),
    ("potential.cross_phi.s", "s", "lower"),
    ("model.mark_sample.calls", "count", "lower"),
    ("model.mark_sample.s", "s", "lower"),
    ("gibbsmc.mcmc.proposals", "count", "higher"),
    ("gibbsmc.mcmc.proposals_per_s", "1/s", "higher"),
    ("gibbsmc.mcmc.accept_frac", "fraction", "higher"),
    ("gibbsmc.mcmc.mean_count", "points", "higher"),
    ("gibbsmc.mcmc.tau_int", "sweeps", "lower"),
    ("gibbsmc.mcmc.ess_per_s", "1/s", "higher"),
    ("gibbsmc.mcmc.s", "s", "lower"),
    ("gibbsmc.rejection.draws", "count", "higher"),
    ("gibbsmc.rejection.draws_per_s", "1/s", "higher"),
    ("gibbsmc.rejection.s", "s", "lower"),
    ("gibbsmc.summarize.s", "s", "lower"),
    ("gibbsmc.spill.s", "s", "lower"),
    ("gibbsmc.spill_bytes", "bytes", "lower"),
    ("gibbsmc.dlr.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (its root span is spans[0])."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    attr = defaultdict(float)
    max_ground = 0
    for span, st in zip(spans, selfs):
        if span.name not in SELF_METRIC and span.name not in GLUE_SPANS:
            raise ValueError(f"span {span.name!r} has no self-time metric")
        calls[span.name] += 1
        self_s[span.name] += st
        incl_s[span.name] += span.duration
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                attr[span.name, key] += value
        max_ground = max(max_ground, span.attrs.get("ground", 0))

    m = {metric: self_s[span] for span, metric in SELF_METRIC.items()}
    mcmc_calls = calls["gibbsmc.mcmc"]
    m.update({
        "lpintegrate.integrals": calls["lpintegrate.integral"],
        "lpintegrate.nodes": attr["lpintegrate.node_gen", "rows"],
        "lpintegrate.mc_orders": attr["lpintegrate.integral", "mc"],
        "cluster.ursell.rows": attr["cluster.ursell", "rows"],
        "cluster.kbar.rows": attr["cluster.kbar", "rows"],
        "cluster.max_ground": max_ground,
        "cluster.tree_bound.calls": calls["cluster.tree_bound"],
        "combinat.trees_enumerated": attr["combinat.enumerate_trees", "trees"],
        "starcalc.star_exp.calls": calls["starcalc.star_exp"],
        "potential.c_beta.calls": calls["potential.c_beta"],
        "potential.pair_phi.calls": calls["potential.pair_phi"],
        "potential.pair_phi.rows": attr["potential.pair_phi", "rows"],
        "potential.cross_phi.calls": calls["potential.cross_phi"],
        "model.mark_sample.calls": calls["model.mark_sample"],
        "gibbsmc.mcmc.proposals": attr["gibbsmc.mcmc", "proposals"],
        "gibbsmc.mcmc.proposals_per_s": _ratio(attr["gibbsmc.mcmc", "proposals"],
                                               incl_s["gibbsmc.mcmc"]),
        "gibbsmc.mcmc.accept_frac": _ratio(attr["gibbsmc.mcmc", "accepts"],
                                           attr["gibbsmc.mcmc", "proposals"]),
        "gibbsmc.mcmc.mean_count": _ratio(attr["gibbsmc.mcmc", "mean_count"], mcmc_calls),
        "gibbsmc.mcmc.tau_int": _ratio(attr["gibbsmc.mcmc", "tau_int"], mcmc_calls),
        "gibbsmc.mcmc.ess_per_s": _ratio(attr["gibbsmc.mcmc", "ess"], incl_s["gibbsmc.mcmc"]),
        "gibbsmc.rejection.draws": attr["gibbsmc.rejection", "draws"],
        "gibbsmc.rejection.draws_per_s": _ratio(attr["gibbsmc.rejection", "draws"],
                                                incl_s["gibbsmc.rejection"]),
        "gibbsmc.spill_bytes": attr["gibbsmc.spill", "bytes"],
        "trace.wall_s": spans[0].duration,
        "trace.unattributed_s": sum(self_s[name] for name in GLUE_SPANS),
        "trace.spans": len(spans),
    })
    return m


def accounting_gap(m: dict[str, float]) -> float:
    """Traced wall time minus the self times and unattributed time."""
    parts = [m[name] for name in SELF_METRIC.values()] + [m["trace.unattributed_s"]]
    return m["trace.wall_s"] - math.fsum(parts)
