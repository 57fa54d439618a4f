"""Independent checks of every job's output, run outside the timed passes.

Each check returns {job name: None if the output is right, else a message}.
Tolerances are the ones the repository's tests use for the same identity;
the statistical checks use the stated z-score bound `jobs.Z_BOUND`
because the benchmark varies its seed on every run.
"""
from __future__ import annotations

import math

import numpy as np

from markedgibbs import cluster, gibbsmc
from markedgibbs.lpintegrate import philox_rng
from markedgibbs.model import FiniteConfiguration

import jobs

KBAR_TOL = 1e-12      # kbar routes, relative to the flow scale (test_kbar_routes_agree)
URSELL_TOL = 1e-10    # Ursell vs connected-graph sum (verify.check_ursell_triangle)
TREE_TOL = 1e-10      # closed form vs recursion (verify.check_q_closed_form)
IDENTITY_TOL = 1e-10  # averaged correlation vs z d/dz log Z, same nodes
TAIL_TOL = 1e-12      # closed-form geometric tails vs explicit partial sums
# dense-grid C(beta) oracle per radius job: (midpoint nodes per unit length in
# 1-D or per axis in 2-D, relative tolerance). Where |Mayer| jumps (hard core,
# range cut) the midpoint rule is first order, so those use the hard-core
# geometry test's 1e-3 on a finer grid; in 2-D the checker's own 48^2
# midpoint grid sets the tolerance.
DENSE_C_BETA = {"toy-repulsive-spin": (4000, 1e-6), "toy-periodic-2": (4000, 1e-6),
                "planar-rotator": (4000, 1e-6), "ferrofluid": (4000, 1e-6),
                "toy-repulsive-spin-rc": (20000, 1e-3), "hard-core": (20000, 1e-3),
                "continuum-potts": (20000, 1e-3),
                "toy-2d": (96, 1e-3), "planar-rotator-2d": (96, 1e-3)}


def _flow_scale(model, n, *values):
    return max(*(abs(v) for v in values), math.exp(model.beta * model.potential.stability_B * n))


def _guard(results: dict, names, fn):
    """Run one check; a crash inside it (missing or malformed output) fails it."""
    try:
        msg = fn()
    except Exception as exc:  # noqa: BLE001 - any crash is a failed check
        msg = f"check raised {type(exc).__name__}: {exc}"
    for name in names:
        if results.get(name) is None:
            results[name] = msg


# ---------------------------------------------------------------------------
# series


def _kbar_routes(ctx, points: FiniteConfiguration, stream: int) -> str | None:
    model = ctx.models["toy"]
    rng = philox_rng(ctx.seed, 100 + stream)
    for n in range(0, 4):
        for _ in range(3):
            zeta = jobs.seeded_points(rng, n) if n else FiniteConfiguration()
            if zeta.position_set() & points.position_set():
                continue
            pos = zeta.positions_array().reshape(1, n, 1)
            batch = float(cluster.kbar_batch(model, points, pos,
                                             zeta.marks_array().reshape(1, n))[0])
            rec = cluster.kbar_recursive(points, zeta, model)
            scale = _flow_scale(model, len(points) + n, batch, rec)
            if abs(batch - rec) / scale > KBAR_TOL:
                return f"kbar_batch {batch!r} vs kbar_recursive {rec!r} at n={n}"
    return None


def _ursell_routes(ctx) -> str | None:
    model = ctx.models["toy-rc"]
    rng = philox_rng(ctx.seed, 200)
    lo, hi = jobs.LDP_REGION.lower[0], jobs.LDP_REGION.upper[0]
    for m in range(1, 4):
        for j in range(0, 6 - m):
            inner = jobs.seeded_points(rng, m, lower=lo, upper=hi)
            collar = jobs.seeded_points(rng, j, lower=0.0, upper=lo) if j else FiniteConfiguration()
            cfg = inner.union(collar)
            batch = float(cluster.ursell_batch(model, FiniteConfiguration(),
                                               cfg.positions_array()[None],
                                               cfg.marks_array()[None])[0])
            direct = cluster.ursell_direct(cfg, model)
            if abs(batch - direct) / _flow_scale(model, len(cfg), batch, direct) > URSELL_TOL:
                return f"ursell_batch {batch!r} vs connected-graph sum {direct!r}"
    return None


def check_series(ctx, outs) -> dict:
    res: dict = {}
    toy = ctx.models["toy"]

    def log_z():
        ex = outs["expand"]["report"]["results"]["expansion"]
        direct = outs["partition_direct"]
        budget = ex["tail_bound"] + ex["integration_error"] + direct.error + 1e-9
        diff = abs(ex["log_z"] - math.log(direct.value))
        return None if diff <= budget else f"log Z series vs direct: {diff:.3e} > {budget:.3e}"
    _guard(res, ("expand", "partition_direct"), log_z)

    def correlate():
        rows = outs["correlate"]["report"]["results"]["correlations"]
        sets = ctx.inputs["point_sets"]
        if len(rows) != len(sets) or not all(math.isfinite(r["rho"]) for r in rows):
            return "correlate report has missing or non-finite values"
        for i, pts in enumerate(sets):
            msg = _kbar_routes(ctx, pts, i)
            if msg:
                return msg
        return None
    _guard(res, ("correlate",), correlate)

    def ideal():
        rho = outs["ideal_correlate"]["report"]["results"]["correlations"][0]["rho"]
        return None if rho == 1.0 else f"ideal-gas correlation {rho!r} != 1"
    _guard(res, ("ideal_correlate",), ideal)

    def averaged():
        coefs = outs["expand"]["report"]["results"]["expansion"]["coefficients"]
        norm = toy.z * toy.mass()
        pred = [j * coefs[j - 1] / norm for j in range(1, ctx.size["avg_order"] + 2)]
        got = outs["averaged_correlation"].value
        scale = max(1.0, sum(abs(p) for p in pred))
        if abs(got - math.fsum(pred)) > IDENTITY_TOL * scale:
            return f"averaged correlation {got!r} vs z d/dz log Z {math.fsum(pred)!r}"
        return None
    _guard(res, ("averaged_correlation",), averaged)

    def limit_density():
        out = outs["limit_density"]
        dens = out["densities"]
        if dens[0] != math.exp(-out["log_normalizer"]):
            return "empty-configuration density is not exp(-log normalizer)"
        if not all(math.isfinite(v) and v > 0 for v in dens):
            return f"non-positive or non-finite density in {dens}"
        return _ursell_routes(ctx)
    _guard(res, ("limit_density",), limit_density)
    return res


# ---------------------------------------------------------------------------
# bounds


def _reference_family(model, grid: int) -> np.ndarray:
    """The reference positions the checker scans: its grid and the doubled one."""
    space = model.space
    d = space.dimension
    meshes = []
    for g in (grid, 2 * grid):
        per_axis = max(2, round(g ** (1.0 / d)))
        axes = [space.side_lengths[k] * (np.arange(per_axis) + 0.5) / per_axis
                for k in range(d)]
        meshes.append(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d))
    return np.concatenate(meshes)


def _mark_rule(marks):
    """Reference marks and integration weights: exact for discrete marks, the
    32-node periodic trapezoid or Gauss-Legendre rule otherwise."""
    if marks.kind == "discrete":
        return np.asarray(marks.labels), np.asarray(marks.weights)
    if marks.kind == "circle":
        return 2 * math.pi * np.arange(32) / 32, np.full(32, marks.total_mass / 32)
    x, w = np.polynomial.legendre.leggauss(32)
    half = 0.5 * (marks.upper - marks.lower)
    return (marks.lower + half * (x + 1.0),
            w * half * marks.total_mass / (marks.upper - marks.lower))


def dense_c_beta(model, grid: int, nodes: int) -> float:
    """max over the checker's reference family of the |Mayer| mass, integrated
    in position by a dense midpoint rule instead of adaptive quadrature."""
    space = model.space
    d = space.dimension
    counts = [round(nodes * s) if d == 1 else nodes for s in space.side_lengths]
    axes = [s * (np.arange(n) + 0.5) / n for s, n in zip(space.side_lengths, counts)]
    xs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    cell = space.volume / xs.shape[0]
    marks, weights = _mark_rule(model.marks)
    best = 0.0
    for ref in _reference_family(model, grid):
        r = space.distance_batch(xs, ref)[:, None, None]
        for t in marks:
            phi = model.potential.radial_gated(r, marks[None, :, None], np.asarray(t))
            phi = np.broadcast_to(phi, (xs.shape[0], marks.size, 1))[:, :, 0]
            inf = np.isinf(phi)
            absf = np.where(inf, 1.0, np.abs(np.expm1(-model.beta * np.where(inf, 0.0, phi))))
            best = max(best, float(np.sum(absf @ weights) * cell))
    return best


def check_bounds(ctx, outs) -> dict:
    res: dict = {}
    for key in jobs._radius_specs():
        name = f"radius.{key}"
        model = ctx.models[key]

        def radius(name=name, key=key, model=model):
            rep = outs[name]["report"]["results"]["radius"]
            c, z_star = rep["c_beta"], rep["z_star"]
            if key == "ideal":
                return None if c == 0.0 and z_star == math.inf else f"ideal C(beta)={c!r}"
            want = 1.0 / (2 * math.e * math.exp(2 * model.beta * model.potential.stability_B) * c)
            if abs(z_star - want) > 1e-12 * want or rep["within_radius"] != (model.z < z_star):
                return f"z* {z_star!r} inconsistent with C(beta) {c!r}"
            if key == "hard-core" and abs(c - 0.2) > 1e-3 * 0.2:
                return f"hard-core C(beta) {c!r} vs covered length 0.2"
            nodes, tol = DENSE_C_BETA[key]
            oracle = dense_c_beta(model, ctx.size["radius_grid"][key], nodes)
            if abs(c - oracle) > tol * oracle:
                return f"C(beta) {c!r} vs dense grid {oracle!r}"
            return None
        _guard(res, (name,), radius)

    def tails():
        for key, out in outs["tail_bounds"].items():
            model = ctx.models[key]
            c = out["c_beta"]
            e2bb = math.exp(2 * model.beta * model.potential.stability_B)
            q = 2 * model.z * math.e * c * e2bb
            x = model.z * math.e * c * e2bb
            for n0, tail, ctail in zip(range(1, 7), out["tail"], out["correlation_tail"]):
                if c == 0.0:
                    if tail != 0.0 or ctail != 0.0:
                        return f"{key}: nonzero tail with C(beta)=0"
                    continue
                want = math.fsum(model.mass() / c * q ** k for k in range(n0, n0 + 400))
                cwant = e2bb * math.e * math.fsum((k + 1) * x ** k
                                                   for k in range(n0, n0 + 400))
                if abs(tail - want) > TAIL_TOL * want or abs(ctail - cwant) > TAIL_TOL * cwant:
                    return f"{key}: tail bound from order {n0} off its partial sum"
        return None
    _guard(res, ("tail_bounds",), tails)

    model = ctx.models["toy-repulsive-spin"]
    for l, total, cfg in ctx.inputs["splits"]:
        name = f"tree.{total}pts.{l}anchor"

        def tree(name=name, l=l, cfg=cfg):
            got = outs[name]
            want = cluster.tree_bound_recursive(cfg.subset(range(l)),
                                                cfg.subset(range(l, len(cfg))), model)
            return None if abs(got - want) <= TREE_TOL * abs(want) else \
                f"tree majorant {got!r} vs recursion {want!r}"
        _guard(res, (name,), tree)
    return res


# ---------------------------------------------------------------------------
# sampling


def check_sampling(ctx, outs) -> dict:
    res: dict = {}
    toy = ctx.models["toy"]
    box = toy.space.box
    bound = jobs.Z_BOUND

    def chain_vs_exact():
        chain = outs["sample"]["report"]["results"]["chain"]
        iid = outs["summarize"]
        for key in ("mean_energy", "rho_hat"):
            se = math.hypot(chain[f"{key}_se"], getattr(iid, f"{key}_se"))
            z = abs(chain[key] - getattr(iid, key)) / se
            if not z <= bound:
                return f"MCMC vs rejection {key}: z={z:.2f} > {bound}"
        return None
    _guard(res, ("sample", "rejection"), chain_vs_exact)

    def spill():
        chain = outs["sample"]["report"]["results"]["chain"]
        path = ctx.tmp / "samples.txt"
        back = gibbsmc.read_sample_file(path)
        if len(back) != chain["sample_count"]:
            return f"spill holds {len(back)} samples, chain kept {chain['sample_count']}"
        if float(np.asarray([len(c) for c in back], dtype=float).mean()) != chain["mean_count"]:
            return "spill mean count differs from the chain's"
        again = ctx.tmp / "samples_roundtrip.txt"
        gibbsmc.write_sample_file(again, back, toy.space.dimension)
        if again.read_bytes() != path.read_bytes():
            return "spill does not survive a read/write round trip"
        return None
    _guard(res, ("sample",), spill)

    def rejection():
        draws = outs["rejection"]
        if len(draws) != ctx.size["draws"]:
            return f"{len(draws)} draws, asked for {ctx.size['draws']}"
        for cfg in draws:
            pos = [p.position for p in cfg.points]
            if pos != sorted(set(pos)) or not all(box.contains_point(p) for p in pos):
                return "a draw is not a canonical configuration inside the box"
        return None
    _guard(res, ("rejection",), rejection)

    def summarize():
        draws, stats = outs["rejection"], outs["summarize"]
        counts = np.asarray([len(c) for c in draws], dtype=float)
        want = float(counts.mean())
        if stats.sample_count != len(draws) or stats.mean_count != want:
            return "summary count statistics differ from the draws"
        if abs(stats.rho_hat - want / (toy.z * toy.mass())) > 1e-15 * stats.rho_hat:
            return "summary density is not mean count / (z * mass)"
        return None
    _guard(res, ("summarize",), summarize)

    def dlr():
        rep = outs["dlr"]
        if not rep.passed or rep.locality_violations:
            return f"DLR check failed: z={rep.z_scores}, violations={rep.locality_violations}"
        return None
    _guard(res, ("dlr",), dlr)
    return res


CHECKS = {"series": check_series, "bounds": check_bounds, "sampling": check_sampling}
