"""Numerical Lebesgue-Poisson integration.

The measure weights n-point components by z^n/n!, so an integral of a
symmetric integrand family f is sum_n (z^n/n!) times the n-fold product
integral over region x marks. Tensor midpoint grids serve low total dimension
(d*n <= 6); above that seeded Monte Carlo is mandatory. A tensor grid
enumerates each symmetric block of slots (a run of slots sharing one
``SlotDomain`` object) once, as multisets of single-slot nodes with
multinomial weights, so an integrand must be symmetric within each such run.
All reductions run in a fixed chunked order so results are bit-reproducible
and worker-count independent; the PRNG is counter-based (Philox).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NonFiniteIntegrand, SchemeMismatch
from .model import Box, FiniteConfiguration, MarkedPoint, ModelSpec

TENSOR_DIMENSION_CAP = 6
TENSOR_NODE_BUDGET = 1 << 23
_CHUNK = 1 << 18
# the mark kind that each explicit mark rule needs
MARK_RULE_KINDS = {"exact_discrete": "discrete", "trapezoid": "circle",
                   "gauss": "interval"}


def philox_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic counter-based generator; extra ints select substreams."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed,) + stream)))


@dataclass(frozen=True)
class QuadratureScheme:
    """Node plan for the n-fold position-mark integrals.

    ``points_per_axis`` may be a single count or a tuple indexed by the particle
    number n (the last entry repeats beyond the tuple). Each ``mark_rule``
    needs one mark kind: "exact_discrete" discrete marks, "trapezoid" (periodic)
    circle marks, "gauss" (Gauss-Legendre) interval marks; "auto" picks the
    one that fits.
    """

    kind: str  # "tensor_grid" | "monte_carlo"
    points_per_axis: int | tuple[int, ...] | None = None
    samples: int | None = None
    seed: int = 0
    mark_rule: str = "auto"  # "auto" | "exact_discrete" | "trapezoid" | "gauss"
    mark_nodes: int = 16
    mc_fallback_samples: int | None = None

    def __post_init__(self):
        if self.kind not in ("tensor_grid", "monte_carlo"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "tensor_grid":
            pts = self.points_per_axis
            ok = (isinstance(pts, int) and pts > 0) or (
                isinstance(pts, tuple) and pts and all(p > 0 for p in pts))
            if not ok:
                raise ValueError("tensor_grid needs positive points_per_axis")
        else:
            if not self.samples or self.samples <= 0:
                raise ValueError("monte_carlo needs a positive sample count")
        if self.mark_nodes <= 0:
            raise ValueError("mark node count must be positive")
        if self.mc_fallback_samples is not None and self.mc_fallback_samples <= 0:
            raise ValueError("mc_fallback_samples must be positive")
        if self.mark_rule != "auto" and self.mark_rule not in MARK_RULE_KINDS:
            raise ValueError(f"unknown mark rule {self.mark_rule!r}")

    @staticmethod
    def tensor(points_per_axis, mark_rule="auto", mark_nodes=16,
               mc_fallback_samples=None, seed=0) -> "QuadratureScheme":
        pts = points_per_axis if isinstance(points_per_axis, int) else tuple(points_per_axis)
        return QuadratureScheme(kind="tensor_grid", points_per_axis=pts,
                                mark_rule=mark_rule, mark_nodes=mark_nodes,
                                mc_fallback_samples=mc_fallback_samples, seed=seed)

    @staticmethod
    def monte_carlo(samples: int, seed: int = 0, mark_rule="auto",
                    mark_nodes=16) -> "QuadratureScheme":
        return QuadratureScheme(kind="monte_carlo", samples=samples, seed=seed,
                                mark_rule=mark_rule, mark_nodes=mark_nodes)

    def grid_points_for(self, n: int) -> int:
        pts = self.points_per_axis
        if isinstance(pts, int):
            return pts
        return pts[min(n - 1, len(pts) - 1)]

    def echo(self) -> dict:
        return {
            "kind": self.kind,
            "points_per_axis": self.points_per_axis,
            "samples": self.samples,
            "seed": self.seed,
            "mark_rule": self.mark_rule,
            "mark_nodes": self.mark_nodes,
            "mc_fallback_samples": self.mc_fallback_samples,
            "generator": "philox",
        }


@dataclass(frozen=True)
class IntegralEstimate:
    """Value with a nonnegative error figure (grid refinement delta or MC s.e.)."""

    value: float
    error: float
    scheme_echo: dict
    terms: tuple[float, ...] = ()
    term_errors: tuple[float, ...] = ()

    def __post_init__(self):
        if self.error < 0:
            raise ValueError("error must be nonnegative")


def resolve_mark_rule(model: ModelSpec, scheme: QuadratureScheme) -> str:
    kind = model.marks.kind
    rule = scheme.mark_rule
    if rule == "auto":
        return next(r for r, k in MARK_RULE_KINDS.items() if k == kind)
    if MARK_RULE_KINDS[rule] != kind:
        raise SchemeMismatch(f"mark rule {rule!r} needs {MARK_RULE_KINDS[rule]} "
                             f"marks, not {kind}")
    return rule


def mark_nodes_weights(model: ModelSpec, scheme: QuadratureScheme
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Single-point mark nodes and weights; weights sum to the mark mass."""
    marks = model.marks
    rule = resolve_mark_rule(model, scheme)
    if rule == "exact_discrete":
        return np.asarray(marks.labels), np.asarray(marks.weights, dtype=float)
    if rule == "trapezoid":
        m = scheme.mark_nodes
        return (2.0 * math.pi * np.arange(m) / m,
                np.full(m, marks.total_mass / m))
    nodes, weights = np.polynomial.legendre.leggauss(scheme.mark_nodes)
    half = 0.5 * (marks.upper - marks.lower)
    density = marks.total_mass / (marks.upper - marks.lower)
    return marks.lower + half * (nodes + 1.0), weights * half * density


def _position_nodes(region: Box, per_axis: int, hole: Box | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-rule nodes over the region; weights sum to the volume.

    With a hole, each axis is cut at the hole faces strictly inside the
    region, and each piece gets max(1, round(per_axis * length / side)) cells,
    so no cell straddles a hole face; the weights are the cell volumes. The
    nodes inside the hole stay (see ``_single_nodes``).
    """
    d = region.dimension
    axes, widths = [], []
    for k in range(d):
        lo, hi = region.lower[k], region.upper[k]
        faces = () if hole is None else (hole.lower[k], hole.upper[k])
        cuts = [lo, *sorted(c for c in faces if lo < c < hi), hi]
        nodes, cells = [], []
        for a, b in zip(cuts, cuts[1:]):
            count = max(1, round(per_axis * (b - a) / (hi - lo)))
            h = (b - a) / count
            nodes.append(a + (np.arange(count) + 0.5) * h)
            cells.append(np.full(count, h))
        axes.append(np.concatenate(nodes))
        widths.append(np.concatenate(cells))
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    if hole is None:
        weights = np.full(mesh.shape[0], region.volume / mesh.shape[0])
    else:
        weights = math.prod(np.meshgrid(*widths, indexing="ij")).ravel()
    return mesh, weights


@dataclass(frozen=True)
class SlotDomain:
    """Integration domain of one particle slot: a box, minus an optional hole."""

    box: Box
    hole: Box | None = None


def _single_nodes(model, domain: SlotDomain, per_axis: int, scheme
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pos, pw = _position_nodes(domain.box, per_axis, domain.hole)
    mv, mw = mark_nodes_weights(model, scheme)
    npos, nmark = pos.shape[0], mv.shape[0]
    positions = np.repeat(pos, nmark, axis=0)
    marks = np.tile(mv, npos)
    weights = np.repeat(pw, nmark) * np.tile(mw, npos)
    if domain.hole is not None:
        weights[domain.hole.contains_batch(positions)] = 0.0
    keep = weights != 0.0
    return positions[keep], marks[keep], weights[keep]


def _multisets(size: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nondecreasing k-tuples over range(size) in lexicographic order, with the
    number k!/prod(mult!) of ordered tuples that each one stands for.

    int32 throughout: the node budget keeps size and the row count far below
    2^31, and the counts are at most k! <= 720.
    """
    idx = np.zeros((1, 0), dtype=np.int32)
    counts = np.ones(1, dtype=np.int32)
    run = np.zeros(1, dtype=np.int32)  # each row's trailing run of equal indices
    for j in range(k):
        last = idx[:, -1] if j else np.zeros(1, dtype=np.int32)
        reps = size - last  # row r continues with last[r], ..., size - 1
        starts = np.cumsum(reps, dtype=np.int32) - reps
        rows = np.repeat(np.arange(idx.shape[0], dtype=np.int32), reps)
        nxt = np.arange(rows.size, dtype=np.int32) - np.repeat(starts - last, reps)
        repeat = np.zeros(rows.size, dtype=bool)
        repeat[starts] = j > 0  # the first continuation repeats the last index
        run = np.where(repeat, run[rows] + 1, 1)
        counts = counts[rows] * (j + 1) // run
        idx = np.column_stack([idx[rows], nxt])
    return idx, counts


def product_node_batches(model: ModelSpec, domains: Sequence[SlotDomain],
                         scheme: QuadratureScheme
                         ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (positions (K,n,d), marks (K,n), weights (K,)) chunks for an
    n-fold product integral with one domain per particle slot.

    On a tensor grid, each maximal run of consecutive slots that hold the same
    ``SlotDomain`` object (``is``, not ``==``) is one symmetric block: its
    nodes are the multisets of single-slot nodes, each weighted by the
    multinomial count of ordered tuples it stands for. The integrand must be
    symmetric under permutations within each block; the sum then equals the
    full ordered product with about prod(run length!) fewer rows. Give slots
    that are not interchangeable distinct domain objects. Single-slot nodes of
    weight zero are dropped, and the node budget counts the nodes kept; if a
    slot keeps none, nothing is yielded. Monte Carlo draws ordered slots and
    needs no symmetry.
    """
    n = len(domains)
    d = model.space.dimension
    if n == 0:
        yield np.zeros((1, 0, d)), np.zeros((1, 0)), np.ones(1)
        return
    if scheme.kind == "tensor_grid":
        if d * n > TENSOR_DIMENSION_CAP:
            raise SchemeMismatch(
                f"tensor grid over {d * n} dimensions exceeds the cap "
                f"{TENSOR_DIMENSION_CAP}; use Monte Carlo")
        per_axis = scheme.grid_points_for(n)
        runs = [list(run) for _, run in groupby(domains, key=id)]
        singles = [_single_nodes(model, run[0], per_axis, scheme) for run in runs]
        total = math.prod(s[2].size ** len(run) for s, run in zip(singles, runs))
        if total > TENSOR_NODE_BUDGET:
            raise SchemeMismatch(
                f"tensor grid would enumerate {total} nodes at order n={n}; "
                "lower points_per_axis for this order or use Monte Carlo")
        if total == 0:  # a slot without nodes of nonzero weight: the integral is 0
            return
        tables = [_multisets(s[2].size, len(run)) for s, run in zip(singles, runs)]
        sizes = [idx.shape[0] for idx, _ in tables]
        rows = math.prod(sizes)
        for start in range(0, rows, _CHUNK):
            stop = min(start + _CHUNK, rows)
            picks = np.unravel_index(np.arange(start, stop), sizes)
            positions, marks, weights = [], [], np.ones(stop - start)
            for (pos, mk, w), (idx, counts), pick in zip(singles, tables, picks):
                sel = idx[pick]  # (K, run length)
                positions.append(pos[sel])
                marks.append(mk[sel])
                weights = weights * counts[pick] * np.prod(w[sel], axis=1)
            yield (np.concatenate(positions, axis=1), np.concatenate(marks, axis=1),
                   weights)
        return

    # Monte Carlo: iid draws per slot in its box, weight = product of box masses /
    # samples, and 0 for a draw in a slot's hole
    rng = philox_rng(scheme.seed, n)
    total_samples = scheme.samples
    base_mass = math.prod(dom.box.volume for dom in domains) * \
        model.marks.total_mass ** n
    done = 0
    while done < total_samples:
        k = min(_CHUNK, total_samples - done)
        positions = np.empty((k, n, d))
        marks = np.empty((k, n))
        keep = np.ones(k, dtype=bool)
        for j, dom in enumerate(domains):
            lo = np.asarray(dom.box.lower)
            hi = np.asarray(dom.box.upper)
            positions[:, j, :] = lo + rng.random((k, d)) * (hi - lo)
            marks[:, j] = model.marks.sample(rng, k)
            if dom.hole is not None:
                keep &= ~dom.hole.contains_batch(positions[:, j, :])
        weights = np.where(keep, base_mass / total_samples, 0.0)
        yield positions, marks, weights
        done += k


def marked_point_nodes(model: ModelSpec, region: Box, n: int,
                       scheme: QuadratureScheme
                       ) -> Iterator[tuple[tuple[MarkedPoint, ...], float]]:
    """Stream (n-tuple of MarkedPoint, weight) nodes for the n-fold integral.

    All n slots share one domain, so a tensor grid yields each multiset of
    single-point nodes once (points in nondecreasing node order), weighted by
    the multinomial count of ordered tuples times the product of the
    single-point weights; this integrates symmetric functions only.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    domains = [SlotDomain(region)] * n
    for positions, marks, weights in product_node_batches(model, domains, scheme):
        for row in range(positions.shape[0]):
            pts = tuple(MarkedPoint(tuple(positions[row, j]), float(marks[row, j]))
                        for j in range(n))
            yield pts, float(weights[row])


def resolve_scheme_for_order(scheme: QuadratureScheme, d: int, n: int
                             ) -> QuadratureScheme:
    """Swap a tensor grid for its Monte Carlo fallback above the dimension cap."""
    if scheme.kind == "tensor_grid" and d * n > TENSOR_DIMENSION_CAP:
        if scheme.mc_fallback_samples is None:
            raise SchemeMismatch(
                f"order n={n} needs {d * n} grid dimensions; set "
                "mc_fallback_samples or use a Monte Carlo scheme")
        return QuadratureScheme.monte_carlo(scheme.mc_fallback_samples,
                                            seed=scheme.seed,
                                            mark_rule=scheme.mark_rule,
                                            mark_nodes=scheme.mark_nodes)
    return scheme


BatchIntegrand = Callable[[int, np.ndarray, np.ndarray], np.ndarray]


def scalar_integrand(fn: Callable[[FiniteConfiguration], float]) -> BatchIntegrand:
    """Adapt a configuration-level function to the batch integrand interface."""
    def batched(n: int, positions: np.ndarray, marks: np.ndarray) -> np.ndarray:
        out = np.empty(positions.shape[0])
        for row in range(positions.shape[0]):
            pts = [MarkedPoint(tuple(positions[row, j]), float(marks[row, j]))
                   for j in range(n)]
            out[row] = fn(FiniteConfiguration(tuple(sorted(pts, key=lambda p: p.position))))
        return out
    return batched


def product_region_integral(model: ModelSpec, domains: Sequence[SlotDomain],
                            integrand: BatchIntegrand, scheme: QuadratureScheme
                            ) -> tuple[float, float]:
    """One n-fold product integral; returns (value, error figure).

    The integrand must be symmetric under permutations of the slots within
    each run of consecutive slots that share one ``SlotDomain`` object; see
    ``product_node_batches``. Grid error is the difference against a halved
    grid; MC error is the standard error of the mean.
    """
    n = len(domains)

    def run(sch) -> tuple[float, float, int]:
        # per-chunk partial sums, reduced once in chunk order
        sums, sq, count = [], [], 0
        for positions, marks, weights in product_node_batches(model, domains, sch):
            vals = np.asarray(integrand(n, positions, marks), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise NonFiniteIntegrand("integrand returned NaN or an infinity")
            contrib = weights * vals
            sums.append(np.sum(contrib))
            sq.append(np.sum(contrib * contrib))
            count += contrib.shape[0]
        return float(np.sum(sums)), float(np.sum(sq)), count

    if scheme.kind == "tensor_grid":
        value, _, _ = run(scheme)
        per_axis = scheme.grid_points_for(n)
        coarse_pts = max(1, per_axis // 2)
        coarse = replace(scheme, points_per_axis=coarse_pts)
        coarse_value, _, _ = run(coarse)
        return value, abs(value - coarse_value)

    value, sumsq, count = run(scheme)
    # value = sum_i v_i with v_i = w_i f_i; s.e.(value) = sqrt(K * Var(v))
    var = max(0.0, sumsq - value * value / count) / max(1, count - 1)
    return value, math.sqrt(var * count)


def lp_integral(f: BatchIntegrand, model: ModelSpec, domain: Box | SlotDomain,
                N: int, scheme: QuadratureScheme,
                fixed: Sequence[SlotDomain] = ()) -> IntegralEstimate:
    """Truncated Lebesgue-Poisson integral sum_{n<=N} (z^n/n!) I_n(f).

    I_n integrates f over the ``fixed`` slots (no activity factor), then n
    slots on one fresh ``SlotDomain`` of ``domain``: f must be symmetric within
    those n slots and within each run of fixed slots sharing a domain object.
    Every order, n = 0 included, is one ``product_region_integral``.
    """
    d = model.space.dimension
    slot = replace(domain) if isinstance(domain, SlotDomain) else SlotDomain(domain)
    terms, errors = [], []
    for n in range(N + 1):
        sch = resolve_scheme_for_order(scheme, d, len(fixed) + n)
        value, err = product_region_integral(model, [*fixed, *[slot] * n], f, sch)
        factor = model.z ** n / math.factorial(n)
        terms.append(factor * value)
        errors.append(factor * err)
    return IntegralEstimate(value=float(np.sum(np.asarray(terms))),
                            error=float(np.sum(np.asarray(errors))),
                            scheme_echo=scheme.echo(),
                            terms=tuple(terms), term_errors=tuple(errors))
