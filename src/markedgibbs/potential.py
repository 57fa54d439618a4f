"""Pair potentials, energies, built-in models, and checks for the global conditions.

Potential values live in R union {+inf}. An infinite pair value propagates as
Boltzmann factor exactly 0 and Mayer factor exactly -1; finite-range
potentials evaluate to exactly 0 at or beyond the range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from .errors import (OverlappingConfigurations, QuadratureFailure,
                     StabilityViolation)
from .lpintegrate import (QuadratureScheme, _position_nodes, gauss_legendre,
                          mark_nodes_weights)
from .model import (Box, FiniteConfiguration, MarkSpace, MarkedPoint,
                    ModelSpec, PositionSpace, _is_number, canonicalize)

INF = math.inf
# nodes per Gauss-Legendre panel of the C(beta) rule
_PANEL_NODES = 32


@dataclass(frozen=True, eq=False)
class PairPotential:
    """Symmetric pair interaction phi(x_hat, y_hat) = radial(d(x,y), s_x, s_y),
    d being the metric of the model's position space.

    ``radial`` must be symmetric in the marks and vectorized over numpy
    arrays. ``stability_B`` is declared by the model author and only falsified
    at runtime. If ``range_R`` is set the potential is forced to exactly 0 at
    distances >= range_R. ``breakpoints`` lists the radii below range_R where
    ``radial`` jumps; the C(beta) quadrature cuts its panels there.
    """

    name: str
    radial: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    stability_B: float = 0.0
    range_R: float | None = None
    breakpoints: tuple[float, ...] = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.range_R is not None and not 0 <= self.range_R < INF:
            raise ValueError(f"range_R must be None or finite and >= 0, "
                             f"got {self.range_R}")
        if not all(0 <= b < INF for b in self.breakpoints):
            raise ValueError(f"breakpoints must be finite and >= 0, "
                             f"got {self.breakpoints}")

    def radial_gated(self, r: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Vectorized pair values with the finite-range gate applied."""
        vals = np.asarray(self.radial(r, s, t), dtype=float)
        if self.range_R is not None:
            vals = np.where(np.asarray(r) >= self.range_R, 0.0, vals)
        return vals


def pair_value(model: ModelSpec, p: MarkedPoint, q: MarkedPoint) -> float:
    """phi(p, q) of the model's potential, one pair at a time: the scalar
    oracle of the batched pair values."""
    phi = model.potential
    r = model.space.distance(p.position, q.position)
    if phi.range_R is not None and r >= phi.range_R:
        return 0.0
    return float(phi.radial(np.asarray(r), np.asarray(p.mark), np.asarray(q.mark)))


def boltzmann_factor(phi_value: float, beta: float) -> float:
    """exp(-beta*phi) with +inf mapped to exactly 0."""
    if math.isinf(phi_value):
        return 0.0
    return math.exp(-beta * phi_value)


def mayer_factor(phi_value: float, beta: float) -> float:
    """exp(-beta*phi) - 1 with +inf mapped to exactly -1."""
    if math.isinf(phi_value):
        return -1.0
    return math.expm1(-beta * phi_value)


def boltzmann_factor_batch(phi: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta*phi) for beta > 0; +inf gives exactly 0."""
    return np.exp(-beta * phi)


def mayer_factor_batch(phi: np.ndarray, beta: float) -> np.ndarray:
    """expm1(-beta*phi) for beta > 0; +inf gives exactly -1."""
    return np.expm1(-beta * phi)


# point counts below which upper_pairs keeps its arrays: 0.7 MB for all of
# them; above it the O(n^2) pair work dwarfs building the indices
_CACHED_UPPER_PAIRS = 64


def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


_cached_triu = lru_cache(maxsize=None)(_triu)


def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, the i < j pairs of n points, read-only
    because callers share them; cached below ``_CACHED_UPPER_PAIRS`` points."""
    return _cached_triu(n) if n < _CACHED_UPPER_PAIRS else _triu(n)


def pair_phi_matrix(model: ModelSpec, positions: np.ndarray,
                    marks: np.ndarray) -> np.ndarray:
    """Pair values of a batch, one per unordered pair i < j:
    (K, M, d), (K, M) -> (K, M(M-1)/2), in ``upper_pairs(M)`` order."""
    iu, ju = upper_pairs(marks.shape[-1])
    # take, not fancy indexing: its C-contiguous result keeps every pair
    # value C-contiguous, so a row sums in the order of a 1-D sum
    r = model.space.distance_batch(positions.take(iu, axis=-2), positions.take(ju, axis=-2))
    return model.potential.radial_gated(r, marks.take(iu, axis=-1), marks.take(ju, axis=-1))


def pair_index(m: int) -> np.ndarray:
    """(m, m) table of each pair's position in ``upper_pairs(m)`` order, the
    same at (i, j) and (j, i); the diagonal holds m(m-1)/2, one past the last
    pair."""
    iu, ju = upper_pairs(m)
    index = np.full((m, m), iu.size)
    index[iu, ju] = index[ju, iu] = np.arange(iu.size)
    return index


def square_pair_table(values: np.ndarray, m: int, diagonal: float) -> np.ndarray:
    """Condensed pair values (K, M(M-1)/2) in ``upper_pairs(m)`` order as the
    symmetric (K, m, m) table with ``diagonal`` on its diagonal."""
    padded = np.concatenate(
        [values, np.full(values.shape[:-1] + (1,), diagonal, dtype=values.dtype)], axis=-1)
    return padded.take(pair_index(m), axis=-1)


def cross_phi_matrix(model: ModelSpec, positions_a: np.ndarray, marks_a: np.ndarray,
                     positions_b: np.ndarray, marks_b: np.ndarray) -> np.ndarray:
    """Pair values between two point families, (..., Ma, d) x (..., Mb, d) ->
    (..., Ma, Mb), their leading axes broadcast: one b-family shared by every
    a-family, or a batch of b-families, one per a-family."""
    r = model.space.distance_batch(positions_a[..., :, None, :],
                                   positions_b[..., None, :, :])
    return model.potential.radial_gated(r, marks_a[..., :, None], marks_b[..., None, :])


def boltzmann_weight_batch(model: ModelSpec, positions: np.ndarray, marks: np.ndarray,
                           bpos: np.ndarray, bmarks: np.ndarray,
                           bmask: np.ndarray | None = None) -> np.ndarray:
    """exp(-beta * (E(x) + W(x, boundary))) for each row x of a (K, n, d), (K, n)
    batch: the product of the pair Boltzmann factors in ``upper_pairs(n)``
    order, one per pair i < j, times the product of the boundary cross
    factors, point by point.

    The boundary is shared, (B, d) and (B,) arrays, or one per row, (K, B, d)
    and (K, B) arrays whose entries ``bmask`` (K, B) marks as real. A padded
    entry contributes a factor of exactly 1.0, so a row's weight is the bits
    of its weight against its real entries alone.
    """
    k, n = marks.shape
    weights = np.ones(k)
    if n > 1:
        weights = boltzmann_factor_batch(pair_phi_matrix(model, positions, marks),
                                         model.beta).prod(axis=-1)
    if n and bmarks.size:
        cross = cross_phi_matrix(model, positions, marks, bpos, bmarks)
        cb = boltzmann_factor_batch(cross, model.beta)
        if bmask is not None:
            cb = np.where(bmask[:, None, :], cb, 1.0)
        weights = weights * cb.reshape(k, -1).prod(axis=-1)
    return weights


def energy(omega: FiniteConfiguration, model: ModelSpec) -> float:
    """Total pair energy; 0 on the empty and single-point configurations."""
    pts = omega.points
    total = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            v = pair_value(model, pts[i], pts[j])
            if math.isinf(v):
                return INF
            total += v
    return total


def interaction(omega: FiniteConfiguration, zeta: FiniteConfiguration,
                model: ModelSpec) -> float:
    """Interaction energy between two position-disjoint configurations."""
    if omega.position_set() & zeta.position_set():
        raise OverlappingConfigurations("configurations share a position")
    total = 0.0
    for p in omega.points:
        for q in zeta.points:
            v = pair_value(model, p, q)
            if math.isinf(v):
                return INF
            total += v
    return total


def conditional_energy(region: Box, omega: FiniteConfiguration,
                       model: ModelSpec) -> float:
    """Energy of the region part plus its interaction with the exterior part."""
    inside = tuple(p for p in omega.points if region.contains_point(p.position))
    outside = tuple(p for p in omega.points if not region.contains_point(p.position))
    e_in = energy(FiniteConfiguration(inside), model)
    if math.isinf(e_in):
        return INF
    w = interaction(FiniteConfiguration(inside), FiniteConfiguration(outside), model)
    if math.isinf(w):
        return INF
    return e_in + w


# ---------------------------------------------------------------------------
# Condition (I): integrability constant


@dataclass(frozen=True)
class IntegrabilityReport:
    c_beta: float
    finite: bool
    refinement_delta: float
    grid_size: int
    argmax_position: tuple[float, ...]  # reference point where c_beta was found
    argmax_mark: float
    reference_points: int  # (position, mark) reference points evaluated


# elements per chunk of the C(beta) |Mayer| table, 128 KiB of float64 per
# temporary; chunks of 2^18 elements, 2 MiB per temporary, left the faster
# C(beta) passes churning a larger heap
_C_BETA_CHUNK = 1 << 14


def _axis_rule(ref: float, side: float, radii: list[float], periodic: bool
               ) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [0, side], one panel
    between consecutive cuts at ref +- radii (and +-side/2, every cut wrapped
    by +-side, when periodic), clipped to the axis."""
    ref = float(ref)
    offsets = radii + ([side / 2] if periodic else [])
    cuts = [ref + o for o in offsets] + [ref - o for o in offsets]
    if periodic:
        cuts = [c + shift for shift in (-side, 0.0, side) for c in cuts]
    # a dozen floats: sorted in Python, where np.unique would import numpy.ma
    cuts = np.array(sorted({min(max(c, 0.0), side) for c in cuts + [0.0, side]}))
    lo, half = cuts[:-1, None], 0.5 * np.diff(cuts)[:, None]
    x, w = gauss_legendre(_PANEL_NODES)
    return (lo + half * (x + 1.0)).ravel(), (half * w).ravel()


def _node_chunks(model: ModelSpec, refs: np.ndarray, step: int):
    """``(k, positions, weights)`` of each run of at most ``step`` nodes of
    reference point k's tensor rule, the ``_axis_rule`` of each axis, in
    order."""
    space, phi = model.space, model.potential
    radii = [0.0, *phi.breakpoints] + ([phi.range_R] if phi.range_R is not None else [])
    for k, ref in enumerate(refs):
        rules = [_axis_rule(x0, side, radii, space.boundary == "periodic")
                 for x0, side in zip(ref, space.side_lengths)]
        pos = np.stack(np.meshgrid(*(x for x, _ in rules), indexing="ij"), axis=-1)
        pos = pos.reshape(-1, space.dimension)
        pw = reduce(np.multiply.outer, [w for _, w in rules]).ravel()
        for i in range(0, pw.size, step):
            yield k, pos[i:i + step], pw[i:i + step]


def _batches(chunks, rows: int):
    """Consecutive chunks in lists of at most ``rows`` nodes together."""
    batch, size = [], 0
    for chunk in chunks:
        if batch and size + chunk[2].size > rows:
            yield batch
            batch, size = [], 0
        batch.append(chunk)
        size += chunk[2].size
    if batch:
        yield batch


def _abs_mayer_masses(model: ModelSpec, refs: np.ndarray, marks: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
    """Integral of |e^{-beta phi(., (ref, t))} - 1| over box x marks, one row
    per reference position ref of ``refs`` (K, d), one column per reference
    mark t in ``marks``.

    Each reference point adds its nodes' ``pw @ |f|`` in chunks of ``step``
    nodes (``_C_BETA_CHUNK`` elements of the mark-pair table), in order, so
    its masses keep their bits whichever points share its batch. Consecutive
    chunks, of one point or several, are evaluated together, at most ``step``
    nodes at a time, so no temporary holds more than ``_C_BETA_CHUNK``
    elements.

    ``radial`` is symmetric in the marks, so the mark-pair table is evaluated
    on the pairs s <= t only and mirrored before the sum over s.
    """
    space, phi = model.space, model.potential
    n = marks.size
    iu, ju = np.triu_indices(n)
    s, t = marks[iu], marks[ju]
    step = max(1, _C_BETA_CHUNK // iu.size)
    upper = np.zeros((len(refs), iu.size))
    for batch in _batches(_node_chunks(model, refs, step), step):
        sizes = [w.size for _, _, w in batch]
        at = np.repeat(refs[[k for k, _, _ in batch]], sizes, axis=0)
        r = space.distance_batch(np.concatenate([p for _, p, _ in batch]), at)[:, None]
        vals = np.broadcast_to(phi.radial_gated(r, s, t), (r.shape[0], iu.size))
        absf = np.abs(mayer_factor_batch(vals, model.beta))
        start = 0
        for (k, _, w), size in zip(batch, sizes):
            upper[k] += w @ absf[start:start + size]
            start += size
    table = np.empty((len(refs), n, n))
    table[:, iu, ju] = upper
    table[:, ju, iu] = upper
    return np.array([weights @ tab for tab in table])


def _orthant_references(box: Box, per_axis: int) -> np.ndarray:
    """The midpoint reference grid's points whose index on every axis is below
    ceil(per_axis / 2): one point of each orbit of the mirror maps
    x_k -> lower_k + upper_k - x_k. Selected by index, because for odd
    per_axis the centre midpoint can round above the box centre."""
    refs, _ = _position_nodes(box, per_axis)
    d = box.dimension
    keep = (slice((per_axis + 1) // 2),) * d
    return refs.reshape((per_axis,) * d + (d,))[keep].reshape(-1, d)


def check_integrability(model: ModelSpec,
                        reference_grid_size: int = 48) -> IntegrabilityReport:
    """Estimate C(beta), the ess-sup over reference points of the absolute Mayer mass.

    The ess-sup is taken as a maximum over a reference family: the midpoint
    grid with max(2, round(g^(1/d))) points per axis, at g and at 2g (their
    gap is the refinement_delta), crossed with the mark nodes of
    ``lpintegrate.mark_nodes_weights`` at 32 nodes (the labels of discrete
    marks). A maximum over a grid estimates the ess-sup; it is not a rigorous
    upper bound.

    Only part of that family is evaluated, with the same maximum. The box,
    the midpoint grid and both metrics (free and minimum-image) are invariant
    under each mirror map x_k -> side_k - x_k, and the mass is a function of
    the distances to the reference point, so a reference point and its
    mirror images have one mass: each axis keeps its first ceil(p/2) of p
    midpoints. When g and 2g give the same points per axis (d >= 2 at small
    g) the grid is evaluated once, and refinement_delta is 0 by construction,
    not evidence of convergence. The minimum-image metric is translation
    invariant, so a periodic box evaluates one position (the first midpoint
    at g) per mark node, and refinement_delta is 0 in the same sense. The
    report names the kept reference point
    (position and mark) where the maximum was found, and the number of
    (position, mark) points evaluated.

    For each reference point the mass is one composite Gauss-Legendre rule in
    every dimension: 32 nodes per panel, each axis cut at the reference
    coordinate, at +-range_R and at +-each declared ``breakpoints`` radius
    around it, and in a periodic box also at +-side/2, with every cut wrapped
    by +-side; cuts are clipped to the box. In one dimension that puts every
    kink and jump of the integrand on a panel edge. Oracles: dense midpoint
    grids and the full, unreduced reference family (tests/test_potential.py),
    and the covered length of a hard core.
    """
    marks, weights = mark_nodes_weights(model, QuadratureScheme.tensor(1, mark_nodes=32))
    d = model.space.dimension
    per_axis = {g: max(2, round(g ** (1.0 / d)))
                for g in (reference_grid_size, 2 * reference_grid_size)}
    # the minimum-image metric is translation invariant: on a periodic box
    # the first midpoint of the requested grid stands for both grids
    keep = 1 if model.space.boundary == "periodic" else None
    found = {}  # points per axis -> (max mass, its position, its mark)
    evaluated = 0
    for p in list(dict.fromkeys(per_axis.values()))[:keep]:
        refs = _orthant_references(model.space.box, p)[:keep]
        masses = _abs_mayer_masses(model, refs, marks, weights)
        if not np.all(np.isfinite(masses)):
            raise QuadratureFailure("non-finite Mayer mass at reference point")
        i, j = np.unravel_index(np.argmax(masses), masses.shape)
        found[p] = (float(masses[i, j]), refs[i], marks[j])
        evaluated += masses.size

    coarse = found[per_axis[reference_grid_size]]
    fine = found.get(per_axis[2 * reference_grid_size], coarse)
    c_coarse, c_fine = coarse[0], fine[0]
    c_beta, position, mark = fine if c_fine > c_coarse else coarse
    delta = abs(c_fine - c_coarse) / max(abs(c_fine), 1e-300)
    return IntegrabilityReport(c_beta=c_beta, finite=math.isfinite(c_beta),
                               refinement_delta=delta, grid_size=reference_grid_size,
                               argmax_position=tuple(float(x) for x in position),
                               argmax_mark=float(mark), reference_points=evaluated)


# ---------------------------------------------------------------------------
# Condition (S): stability spot check


@dataclass(frozen=True)
class StabilityReport:
    trials: int
    max_n: int
    worst_margin: float
    passed: bool


def spot_check_stability(model: ModelSpec, trials: int = 1000, max_n: int = 6,
                         seed: int = 0) -> StabilityReport:
    """Falsification-only check of E(omega) >= -B|omega| on random configurations."""
    rng = np.random.Generator(np.random.Philox(seed))
    space, phi = model.space, model.potential
    sides = np.asarray(space.side_lengths)
    worst = INF
    for _ in range(trials):
        n = int(rng.integers(0, max_n + 1))
        pos = rng.random((n, space.dimension)) * sides
        mks = model.marks.sample(rng, n)
        config = canonicalize([MarkedPoint(tuple(p), float(m)) for p, m in zip(pos, mks)])
        e = energy(config, model)
        if math.isinf(e):
            continue
        margin = e + phi.stability_B * n
        worst = min(worst, margin)
        if margin < -1e-12 * max(1.0, abs(e)):
            raise StabilityViolation(
                f"E={e:.6g} < -B*n={-phi.stability_B * n:.6g} for n={n}",
                witness=config)
    return StabilityReport(trials=trials, max_n=max_n,
                           worst_margin=worst, passed=True)


# ---------------------------------------------------------------------------
# Built-in model registry: one Profile row per model. Each potential function
# maps a row's parameters to the PairPotential fields other than name and
# params.


def _constant_radial(value: float):
    def radial(r, s, t):
        return np.broadcast_to(np.float64(value), np.broadcast_shapes(
            np.shape(r), np.shape(s), np.shape(t))).copy()
    return radial


def _toy(p: dict) -> dict:
    ell, coupling = p["ell"], p["coupling"]

    def radial(r, s, t):
        return (1.0 + coupling * s * t) * np.exp(-(r / ell) ** 2)
    return {"radial": radial, "range_R": p["range_cut"]}


def _hard_core(p: dict) -> dict:
    r0 = p["r0"]

    def radial(r, s, t):
        return np.where(np.asarray(r) < r0, INF, 0.0)
    return {"radial": radial, "range_R": r0}


def _rotator(p: dict) -> dict:
    a, ell_phi, j0, ell_j = p["a"], p["ell_phi"], p["j0"], p["ell_j"]

    # repulsive radial core minus a ferromagnetic angle coupling; with
    # a >= j0 and ell_phi >= ell_j the value is pointwise nonnegative
    def radial(r, s, t):
        return a * np.exp(-r / ell_phi) - j0 * np.exp(-r / ell_j) * np.cos(s - t)
    return {"radial": radial}


def _ferrofluid(p: dict) -> dict:
    a, j0, ell = p["a"], p["j0"], p["ell"]

    def radial(r, s, t):
        return (a + j0 * s * t) * np.exp(-(r / ell) ** 2)
    return {"radial": radial}


def _potts(p: dict) -> dict:
    a, r2, r1 = p["a"], p["r2"], p["r1"]

    def radial(r, s, t):
        r = np.asarray(r, dtype=float)
        rep = a * np.maximum(0.0, 1.0 - r / r2) ** 2
        same = np.asarray(s) == np.asarray(t)
        vals = np.where(same, 0.0, rep)
        return np.where(r < r1, INF, vals)
    return {"radial": radial, "range_R": r2, "breakpoints": (float(r1),)}


def _constant(p: dict) -> dict:
    # for c < 0, E = c N(N-1)/2 falls below -B N at large N for every B
    if p["value"] < 0:
        raise ValueError(f"a constant potential below 0 is unstable, got {p['value']!r}")
    return {"radial": _constant_radial(p["value"]), "stability_B": p["declared_B"]}


def _spin_marks(p: dict) -> MarkSpace:
    return MarkSpace.discrete([1.0, -1.0], [0.5, 0.5])


def _potts_marks(p: dict) -> MarkSpace:
    q = int(p["q"])
    return MarkSpace.discrete([float(i) for i in range(1, q + 1)], [1.0 / q] * q)


@dataclass(frozen=True)
class Profile:
    """One built-in model: its potential's parameters with their defaults,
    the potential built from them, and the default marks.

    ``mark_defaults`` are parameters that shape the default marks alone, so
    the inline form, whose marks are given, takes none of them.
    """

    defaults: dict
    potential: Callable[[dict], dict]
    marks: Callable[[dict], MarkSpace] = _spin_marks
    mark_defaults: dict = field(default_factory=dict)


_TOY = {"ell": 0.2, "coupling": 0.5, "range_cut": None}

REGISTRY: dict[str, Profile] = {
    "ideal": Profile({}, lambda p: {"radial": _constant_radial(0.0), "range_R": 0.0}),
    "toy-repulsive-spin": Profile(_TOY, _toy),
    "toy-repulsive-spin-rc": Profile({**_TOY, "range_cut": 0.3}, _toy),
    "hard-core": Profile({"r0": 0.1}, _hard_core),
    "planar-rotator": Profile({"a": 1.0, "ell_phi": 0.25, "j0": 0.5, "ell_j": 0.2},
                              _rotator, marks=lambda p: MarkSpace.circle(mass=1.0)),
    "ferrofluid": Profile({"a": 1.0, "j0": 0.5, "ell": 0.25}, _ferrofluid,
                          marks=lambda p: MarkSpace.interval(-1.0, 1.0, mass=1.0)),
    "continuum-potts": Profile({"a": 1.0, "r2": 0.2, "r1": 0.05}, _potts,
                               marks=_potts_marks, mark_defaults={"q": 3}),
    "constant": Profile({"value": 0.5, "declared_B": 0.0}, _constant),
}
# the registry form's box, a cube; no potential reads it
_BOX = {"side": 1.0, "dimension": 1, "boundary": "free"}


def _number(key: str, value):
    """``value`` itself; a ValueError unless it is a finite number."""
    if not _is_number(value):
        raise ValueError(f"{key!r} must be a finite number, got {value!r}")
    return value


def _numbers(key: str, values) -> tuple[float, ...]:
    """A list or tuple of finite numbers as a tuple of floats; a ValueError
    otherwise."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{key!r} must be a list of numbers, got {values!r}")
    return tuple(float(_number(key, v)) for v in values)


def _params(defaults: dict, overrides: dict) -> dict:
    """The defaults with the overrides in place of their own.

    An unknown key is a ValueError, and so is a value that is not a finite
    number (``boundary`` is a string, and a ``range_cut`` default of None may
    stay None), a length scale ``ell*`` <= 0, or a ``q`` or ``dimension`` that
    is not a whole number >= 1.
    """
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ValueError(f"unknown parameter {unknown[0]!r}; known: {sorted(defaults)}")
    p = {**defaults, **overrides}
    for key, value in p.items():
        if key == "boundary" or (value is None and defaults[key] is None):
            continue
        _number(key, value)
        if key.startswith("ell") and value <= 0:
            raise ValueError(f"length scale {key!r} must be positive, got {value!r}")
        if key in ("q", "dimension"):
            _whole_number(key, value)
    return p


def _whole_number(key: str, value) -> int:
    """``value`` as an int; a ValueError unless it is a whole number >= 1."""
    if not _is_number(value) or value < 1 or value != int(value):
        raise ValueError(f"{key!r} must be a whole number >= 1, got {value!r}")
    return int(value)


def _profile(name: str) -> Profile:
    if name not in REGISTRY:
        raise KeyError(f"unknown model {name!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[name]


def _potential(name: str, p: dict) -> PairPotential:
    """The named profile's potential at the parameters ``p``, which its
    ``params`` record."""
    return PairPotential(name=name, params=p, **REGISTRY[name].potential(p))


def build_model(name: str, z: float = 0.05, beta: float = 1.0,
                **params) -> ModelSpec:
    """Instantiate a registered model with parameter overrides: the profile's
    own parameters, and ``side``, ``dimension`` and ``boundary``, which set
    the box and stay out of the potential's ``params``."""
    profile = _profile(name)
    p = _params({**profile.defaults, **profile.mark_defaults, **_BOX}, params)
    d = int(p.pop("dimension"))
    space = PositionSpace(dimension=d, side_lengths=(p.pop("side"),) * d,
                          boundary=p.pop("boundary"))
    return ModelSpec(space, profile.marks(p), _potential(name, p), z, beta)


MODEL_KEYS = ("name", "z", "beta", "params")
INLINE_MODEL_KEYS = ("space", "marks", "potential", "z", "beta")
SPACE_KEYS = ("dimension", "side_lengths", "boundary")
MARK_KEYS = {"discrete": ("kind", "labels", "weights"), "circle": ("kind", "mass"),
             "interval": ("kind", "lower", "upper", "mass")}
POTENTIAL_KEYS = ("name", "params")


def model_from_dict(cfg: dict) -> ModelSpec:
    """Build a model from the documented configuration mapping.

    Either ``{"name": ..., "z": ..., "beta": ..., "params": {...}}`` for a
    registry entry, or an inline spec with explicit ``space`` and ``marks``
    plus a registered potential name. A key that is not one of these, or not
    one of its mapping's own keys, is a ConfigError that names it, and so is
    a number of the model (activity, inverse temperature, box sides, mark
    labels, weights, bounds and mass) that is not a finite number: a JSON
    ``true`` or ``"2"`` is not read as 1.0 or 2.0.
    """
    from .errors import ConfigError, check_keys
    registry = isinstance(cfg, dict) and "name" in cfg
    check_keys("model", cfg, MODEL_KEYS if registry else INLINE_MODEL_KEYS)
    try:
        z = _number("z", cfg.get("z", 0.05))
        beta = _number("beta", cfg.get("beta", 1.0))
        if registry:
            return build_model(cfg["name"], z=z, beta=beta, **cfg.get("params", {}))
        sp = cfg["space"]
        check_keys("space", sp, SPACE_KEYS)
        space = PositionSpace(dimension=_whole_number("dimension", sp["dimension"]),
                              side_lengths=_numbers("side_lengths", sp["side_lengths"]),
                              boundary=sp.get("boundary", "free"))
        mk = cfg["marks"]
        kind = mk.get("kind") if isinstance(mk, dict) else None
        if kind not in MARK_KEYS:
            raise ValueError(f"marks must be an object whose kind is one of "
                             f"{sorted(MARK_KEYS)}")
        check_keys(f"{kind} marks", mk, MARK_KEYS[kind])
        if kind == "discrete":
            marks = MarkSpace.discrete(_numbers("labels", mk["labels"]),
                                       _numbers("weights", mk["weights"]))
        elif kind == "circle":
            marks = MarkSpace.circle(_number("mass", mk.get("mass", 1.0)))
        else:
            marks = MarkSpace.interval(_number("lower", mk["lower"]),
                                       _number("upper", mk["upper"]),
                                       _number("mass", mk.get("mass", 1.0)))
        pot_cfg = cfg["potential"]
        check_keys("potential", pot_cfg, POTENTIAL_KEYS)
        name = pot_cfg["name"]
        potential = _potential(name, _params(_profile(name).defaults,
                                             pot_cfg.get("params", {})))
        return ModelSpec(space, marks, potential, z, beta)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model configuration: {exc}") from exc
