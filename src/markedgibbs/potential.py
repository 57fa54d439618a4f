"""Pair potentials, energies, built-in models, and checks for the global conditions.

Potential values live in R union {+inf}. An infinite pair value propagates as
Boltzmann factor exactly 0 and Mayer factor exactly -1; finite-range
potentials evaluate to exactly 0 at or beyond the range.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from .errors import (OverlappingConfigurations, QuadratureFailure,
                     StabilityViolation)
from .lpintegrate import (_CHUNK, QuadratureScheme, _position_nodes,
                          mark_nodes_weights)
from .model import (Box, FiniteConfiguration, MarkSpace, MarkedPoint,
                    ModelSpec, PositionSpace, canonicalize)

INF = math.inf
_PANEL_RULE = np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True, eq=False)
class PairPotential:
    """Symmetric pair interaction phi(x_hat, y_hat) = radial(d(x,y), s_x, s_y).

    ``radial`` must be symmetric in the marks and vectorized over numpy
    arrays. ``stability_B`` is declared by the model author and only falsified
    at runtime. If ``range_R`` is set the potential is forced to exactly 0 at
    distances >= range_R. ``breakpoints`` lists the radii below range_R where
    ``radial`` jumps; the C(beta) quadrature cuts its panels there.
    """

    name: str
    space: PositionSpace
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

    def evaluate(self, p: MarkedPoint, q: MarkedPoint) -> float:
        r = self.space.distance(p.position, q.position)
        if self.range_R is not None and r >= self.range_R:
            return 0.0
        return float(self.radial(np.asarray(r), np.asarray(p.mark), np.asarray(q.mark)))

    def radial_gated(self, r: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Vectorized pair values with the finite-range gate applied."""
        vals = np.asarray(self.radial(r, s, t), dtype=float)
        if self.range_R is not None:
            vals = np.where(np.asarray(r) >= self.range_R, 0.0, vals)
        return vals


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


def pair_phi_matrix(phi: PairPotential, positions: np.ndarray,
                    marks: np.ndarray) -> np.ndarray:
    """All pair values for a batch: (K, M, d), (K, M) -> (K, M, M), zero diagonal."""
    r = phi.space.distance_batch(positions[..., :, None, :], positions[..., None, :, :])
    vals = phi.radial_gated(r, marks[..., :, None], marks[..., None, :])
    m = vals.shape[-1]
    idx = np.arange(m)
    vals[..., idx, idx] = 0.0
    return vals


def cross_phi_matrix(phi: PairPotential, positions_a: np.ndarray, marks_a: np.ndarray,
                     positions_b: np.ndarray, marks_b: np.ndarray) -> np.ndarray:
    """Pair values between two point families: (..., Ma, d) x (Mb, d) -> (..., Ma, Mb)."""
    r = phi.space.distance_batch(positions_a[..., :, None, :], positions_b[None, :, :])
    return phi.radial_gated(r, marks_a[..., :, None], marks_b[None, :])


def boltzmann_weight_batch(model: ModelSpec, positions: np.ndarray, marks: np.ndarray,
                           bpos: np.ndarray, bmarks: np.ndarray) -> np.ndarray:
    """exp(-beta * (E(x) + W(x, boundary))) for each row x of a (K, n, d), (K, n)
    batch, against boundary arrays (B, d), (B,): the product over i < j of the
    pair Boltzmann factors times the product of the boundary cross factors."""
    k, n = marks.shape
    weights = np.ones(k)
    if n > 1:
        bf = boltzmann_factor_batch(pair_phi_matrix(model.potential, positions, marks),
                                    model.beta)
        iu, ju = upper_pairs(n)
        weights = bf[:, iu, ju].prod(axis=-1)
    if n and bmarks.size:
        cross = cross_phi_matrix(model.potential, positions, marks, bpos, bmarks)
        cb = boltzmann_factor_batch(cross, model.beta)
        weights = weights * cb.reshape(k, -1).prod(axis=-1)
    return weights


def energy(omega: FiniteConfiguration, phi: PairPotential) -> float:
    """Total pair energy; 0 on the empty and single-point configurations."""
    pts = omega.points
    total = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            v = phi.evaluate(pts[i], pts[j])
            if math.isinf(v):
                return INF
            total += v
    return total


def interaction(omega: FiniteConfiguration, zeta: FiniteConfiguration,
                phi: PairPotential) -> float:
    """Interaction energy between two position-disjoint configurations."""
    if omega.position_set() & zeta.position_set():
        raise OverlappingConfigurations("configurations share a position")
    total = 0.0
    for p in omega.points:
        for q in zeta.points:
            v = phi.evaluate(p, q)
            if math.isinf(v):
                return INF
            total += v
    return total


def conditional_energy(region: Box, omega: FiniteConfiguration,
                       phi: PairPotential) -> float:
    """Energy of the region part plus its interaction with the exterior part."""
    inside = tuple(p for p in omega.points if region.contains_point(p.position))
    outside = tuple(p for p in omega.points if not region.contains_point(p.position))
    e_in = energy(FiniteConfiguration(inside), phi)
    if math.isinf(e_in):
        return INF
    w = interaction(FiniteConfiguration(inside), FiniteConfiguration(outside), phi)
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


def _axis_rule(ref: float, side: float, radii: list[float], periodic: bool
               ) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [0, side], one panel
    between consecutive cuts at ref +- radii (and +-side/2, every cut wrapped
    by +-side, when periodic), clipped to the axis."""
    offsets = np.asarray(radii + ([side / 2] if periodic else []))
    cuts = ref + np.concatenate([offsets, -offsets])
    if periodic:
        cuts = np.concatenate([cuts - side, cuts, cuts + side])
    cuts = np.unique(np.clip(np.append(cuts, (0.0, side)), 0.0, side))
    lo, half = cuts[:-1, None], 0.5 * np.diff(cuts)[:, None]
    x, w = _PANEL_RULE
    return (lo + half * (x + 1.0)).ravel(), (half * w).ravel()


def _abs_mayer_masses(phi: PairPotential, model: ModelSpec, ref: np.ndarray,
                      marks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Integral of |e^{-beta phi(., (ref, t))} - 1| over box x marks, one per
    reference mark t in ``marks``."""
    space = model.space
    radii = [0.0, *phi.breakpoints] + ([phi.range_R] if phi.range_R is not None else [])
    rules = [_axis_rule(x0, side, radii, space.boundary == "periodic")
             for x0, side in zip(ref, space.side_lengths)]
    pos = np.stack(np.meshgrid(*(x for x, _ in rules), indexing="ij"), axis=-1)
    r = space.distance_batch(pos.reshape(-1, space.dimension), ref)
    pw = reduce(np.multiply.outer, [w for _, w in rules]).ravel()
    n = marks.size
    step = max(1, _CHUNK // n ** 2)
    masses = np.zeros(n)
    for i in range(0, r.size, step):
        rc = r[i:i + step, None, None]
        vals = phi.radial_gated(rc, marks[:, None], marks[None, :])
        absf = np.abs(mayer_factor_batch(np.broadcast_to(vals, (rc.shape[0], n, n)),
                                         model.beta))
        masses += weights @ (pw[i:i + step] @ absf.reshape(rc.shape[0], -1)).reshape(n, n)
    return masses


def check_integrability(phi: PairPotential, model: ModelSpec,
                        reference_grid_size: int = 48) -> IntegrabilityReport:
    """Estimate C(beta), the ess-sup over reference points of the absolute Mayer mass.

    The ess-sup is taken as a maximum over a reference family: the midpoint
    grid with max(2, round(g^(1/d))) points per axis, at g and at 2g (their
    gap is the refinement_delta), crossed with the mark nodes of
    ``lpintegrate.mark_nodes_weights`` at 32 nodes (the labels of discrete
    marks). A maximum over a grid estimates the ess-sup; it is not a rigorous
    upper bound.

    For each reference point the mass is one composite Gauss-Legendre rule in
    every dimension: 32 nodes per panel, each axis cut at the reference
    coordinate, at +-range_R and at +-each declared ``breakpoints`` radius
    around it, and in a periodic box also at +-side/2, with every cut wrapped
    by +-side; cuts are clipped to the box. In one dimension that puts every
    kink and jump of the integrand on a panel edge. Oracles: dense midpoint
    grids over the same reference family (tests/test_potential.py), and the
    covered length of a hard core.
    """
    marks, weights = mark_nodes_weights(model, QuadratureScheme.tensor(1, mark_nodes=32))

    def c_on_grid(g: int) -> float:
        per_axis = max(2, round(g ** (1.0 / model.space.dimension)))
        refs, _ = _position_nodes(model.space.box, per_axis)
        best = 0.0
        for ref in refs:
            masses = _abs_mayer_masses(phi, model, ref, marks, weights)
            if not np.all(np.isfinite(masses)):
                raise QuadratureFailure("non-finite Mayer mass at reference point")
            best = max(best, float(masses.max()))
        return best

    c_coarse = c_on_grid(reference_grid_size)
    c_fine = c_on_grid(2 * reference_grid_size)
    c_beta = max(c_coarse, c_fine)
    delta = abs(c_fine - c_coarse) / max(abs(c_fine), 1e-300)
    return IntegrabilityReport(c_beta=c_beta, finite=math.isfinite(c_beta),
                               refinement_delta=delta, grid_size=reference_grid_size)


# ---------------------------------------------------------------------------
# Condition (S): stability spot check


@dataclass(frozen=True)
class StabilityReport:
    trials: int
    max_n: int
    worst_margin: float
    passed: bool


def spot_check_stability(phi: PairPotential, model: ModelSpec, trials: int = 1000,
                         max_n: int = 6, seed: int = 0) -> StabilityReport:
    """Falsification-only check of E(omega) >= -B|omega| on random configurations."""
    rng = np.random.Generator(np.random.Philox(seed))
    space = model.space
    sides = np.asarray(space.side_lengths)
    worst = INF
    for _ in range(trials):
        n = int(rng.integers(0, max_n + 1))
        pos = rng.random((n, space.dimension)) * sides
        mks = model.marks.sample(rng, n)
        config = canonicalize([MarkedPoint(tuple(p), float(m)) for p, m in zip(pos, mks)])
        e = energy(config, phi)
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
# Built-in model registry

def _toy_repulsive_spin_radial(ell: float, coupling: float):
    def radial(r, s, t):
        return (1.0 + coupling * s * t) * np.exp(-(r / ell) ** 2)
    return radial


def _hard_core_radial(r0: float):
    def radial(r, s, t):
        return np.where(np.asarray(r) < r0, INF, 0.0)
    return radial


def _constant_radial(value: float):
    def radial(r, s, t):
        return np.broadcast_to(np.float64(value), np.broadcast_shapes(
            np.shape(r), np.shape(s), np.shape(t))).copy()
    return radial


def _rotator_radial(a: float, ell_phi: float, j0: float, ell_j: float):
    # repulsive radial core minus a ferromagnetic angle coupling; with
    # a >= j0 and ell_phi >= ell_j the value is pointwise nonnegative
    def radial(r, s, t):
        return a * np.exp(-r / ell_phi) - j0 * np.exp(-r / ell_j) * np.cos(s - t)
    return radial


def _ferrofluid_radial(a: float, j0: float, ell: float):
    def radial(r, s, t):
        return (a + j0 * s * t) * np.exp(-(r / ell) ** 2)
    return radial


def _potts_radial(a: float, r2: float, r1: float):
    def radial(r, s, t):
        r = np.asarray(r, dtype=float)
        rep = a * np.maximum(0.0, 1.0 - r / r2) ** 2
        same = np.asarray(s) == np.asarray(t)
        vals = np.where(same, 0.0, rep)
        return np.where(r < r1, INF, vals)
    return radial


def _space(d: int, side: float, boundary: str) -> PositionSpace:
    return PositionSpace(dimension=d, side_lengths=(side,) * d, boundary=boundary)


def _params(defaults: dict, overrides: dict) -> dict:
    """A builder's defaults with the overrides in place of its own.

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
        if not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise ValueError(f"parameter {key!r} must be a finite number, got {value!r}")
        if key.startswith("ell") and value <= 0:
            raise ValueError(f"length scale {key!r} must be positive, got {value!r}")
        if key in ("q", "dimension") and (value < 1 or value != int(value)):
            raise ValueError(f"{key!r} must be a whole number >= 1, got {value!r}")
    return p


def _build_toy(z, beta, params):
    p = _params({"ell": 0.2, "coupling": 0.5, "side": 1.0, "dimension": 1,
                 "boundary": "free", "range_cut": None}, params)
    space = _space(int(p["dimension"]), p["side"], p["boundary"])
    marks = MarkSpace.discrete([1.0, -1.0], [0.5, 0.5])
    pot = PairPotential(
        name="toy-repulsive-spin", space=space,
        radial=_toy_repulsive_spin_radial(p["ell"], p["coupling"]),
        stability_B=0.0, range_R=p["range_cut"], params=dict(p))
    return ModelSpec(space=space, marks=marks, potential=pot, z=z, beta=beta)


def _build_toy_rc(z, beta, params):
    spec = _build_toy(z, beta, {"range_cut": 0.3, **params})
    return spec.replace(potential=replace(spec.potential, name="toy-repulsive-spin-rc"))


def _build_ideal(z, beta, params):
    p = _params({"side": 1.0, "dimension": 1, "boundary": "free"}, params)
    space = _space(int(p["dimension"]), p["side"], p["boundary"])
    marks = MarkSpace.discrete([1.0, -1.0], [0.5, 0.5])
    pot = PairPotential(name="ideal", space=space, radial=_constant_radial(0.0),
                        stability_B=0.0, range_R=0.0, params=dict(p))
    return ModelSpec(space=space, marks=marks, potential=pot, z=z, beta=beta)


def _build_hard_core(z, beta, params):
    p = _params({"r0": 0.1, "side": 1.0, "dimension": 1, "boundary": "free"}, params)
    space = _space(int(p["dimension"]), p["side"], p["boundary"])
    marks = MarkSpace.discrete([1.0, -1.0], [0.5, 0.5])
    pot = PairPotential(name="hard-core", space=space,
                        radial=_hard_core_radial(p["r0"]),
                        stability_B=0.0, range_R=p["r0"], params=dict(p))
    return ModelSpec(space=space, marks=marks, potential=pot, z=z, beta=beta)


def _build_rotator(z, beta, params):
    p = _params({"a": 1.0, "ell_phi": 0.25, "j0": 0.5, "ell_j": 0.2,
                 "side": 1.0, "dimension": 1, "boundary": "free"}, params)
    space = _space(int(p["dimension"]), p["side"], p["boundary"])
    marks = MarkSpace.circle(mass=1.0)
    pot = PairPotential(name="planar-rotator", space=space,
                        radial=_rotator_radial(p["a"], p["ell_phi"], p["j0"], p["ell_j"]),
                        stability_B=0.0, range_R=None, params=dict(p))
    return ModelSpec(space=space, marks=marks, potential=pot, z=z, beta=beta)


def _build_ferrofluid(z, beta, params):
    p = _params({"a": 1.0, "j0": 0.5, "ell": 0.25, "side": 1.0, "dimension": 1,
                 "boundary": "free"}, params)
    space = _space(int(p["dimension"]), p["side"], p["boundary"])
    marks = MarkSpace.interval(-1.0, 1.0, mass=1.0)
    pot = PairPotential(name="ferrofluid", space=space,
                        radial=_ferrofluid_radial(p["a"], p["j0"], p["ell"]),
                        stability_B=0.0, range_R=None, params=dict(p))
    return ModelSpec(space=space, marks=marks, potential=pot, z=z, beta=beta)


def _build_potts(z, beta, params):
    p = _params({"q": 3, "a": 1.0, "r2": 0.2, "r1": 0.05, "side": 1.0, "dimension": 1,
                 "boundary": "free"}, params)
    q = int(p["q"])
    space = _space(int(p["dimension"]), p["side"], p["boundary"])
    marks = MarkSpace.discrete([float(i) for i in range(1, q + 1)], [1.0 / q] * q)
    pot = PairPotential(name="continuum-potts", space=space,
                        radial=_potts_radial(p["a"], p["r2"], p["r1"]),
                        stability_B=0.0, range_R=p["r2"],
                        breakpoints=(float(p["r1"]),), params=dict(p))
    return ModelSpec(space=space, marks=marks, potential=pot, z=z, beta=beta)


def _build_constant(z, beta, params):
    p = _params({"value": -1.0, "declared_B": 0.0, "side": 1.0, "dimension": 1,
                 "boundary": "free"}, params)
    space = _space(int(p["dimension"]), p["side"], p["boundary"])
    marks = MarkSpace.discrete([1.0, -1.0], [0.5, 0.5])
    pot = PairPotential(name="constant", space=space,
                        radial=_constant_radial(p["value"]),
                        stability_B=p["declared_B"], range_R=None, params=dict(p))
    return ModelSpec(space=space, marks=marks, potential=pot, z=z, beta=beta)


REGISTRY: dict[str, Callable] = {
    "ideal": _build_ideal,
    "toy-repulsive-spin": _build_toy,
    "toy-repulsive-spin-rc": _build_toy_rc,
    "hard-core": _build_hard_core,
    "planar-rotator": _build_rotator,
    "ferrofluid": _build_ferrofluid,
    "continuum-potts": _build_potts,
    "constant": _build_constant,
}


def build_model(name: str, z: float = 0.05, beta: float = 1.0,
                **params) -> ModelSpec:
    """Instantiate a registered model with parameter overrides."""
    if name not in REGISTRY:
        raise KeyError(f"unknown model {name!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[name](z, beta, params)


def model_from_dict(cfg: dict) -> ModelSpec:
    """Build a model from the documented configuration mapping.

    Either ``{"name": ..., "z": ..., "beta": ..., "params": {...}}`` for a
    registry entry, or an inline spec with explicit ``space`` and ``marks``
    plus a registered potential name.
    """
    from .errors import ConfigError
    if "name" in cfg:
        try:
            return build_model(cfg["name"], z=cfg.get("z", 0.05),
                               beta=cfg.get("beta", 1.0), **cfg.get("params", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad model configuration: {exc}") from exc
    try:
        sp = cfg["space"]
        space = PositionSpace(dimension=int(sp["dimension"]),
                              side_lengths=tuple(float(x) for x in sp["side_lengths"]),
                              boundary=sp.get("boundary", "free"))
        mk = cfg["marks"]
        if mk["kind"] == "discrete":
            marks = MarkSpace.discrete(mk["labels"], mk["weights"])
        elif mk["kind"] == "circle":
            marks = MarkSpace.circle(mk.get("mass", 1.0))
        else:
            marks = MarkSpace.interval(mk["lower"], mk["upper"], mk.get("mass", 1.0))
        pot_cfg = cfg["potential"]
        base = build_model(pot_cfg["name"], z=cfg.get("z", 0.05),
                           beta=cfg.get("beta", 1.0),
                           dimension=space.dimension,
                           side=space.side_lengths[0],
                           boundary=space.boundary,
                           **pot_cfg.get("params", {}))
        pot = replace(base.potential, space=space)
        return ModelSpec(space=space, marks=marks, potential=pot,
                         z=cfg.get("z", 0.05), beta=cfg.get("beta", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model configuration: {exc}") from exc
