"""Ursell coefficients, tree-graph bounds, convergence certificates, truncated series.

The Ursell table is ln* of the Boltzmann table (`starcalc.star_log_batch`,
the Moebius inversion of the cluster decomposition of the Gibbs factor),
O(3^n) per configuration and vectorized over quadrature-node batches.
Connected-graph sums survive only as a small-n oracle. For finite-range
potentials, Ursell values on range-disconnected subsets are exactly zero
(every connected graph carries a zero Mayer factor), and the tables enforce
that exactly.

Four identities replace enumerations, each pinned to an oracle:

- kbar(omega; zeta) = (exp*(-k) * D_omega rho)(zeta), and exp*(-k) is the
  star-inverse of the Boltzmann table rho (Ruelle 1969, ch. 4), so kbar needs
  rho^{*-1} (`starcalc.star_inverse_batch`) on the subsets of zeta only;
  oracle `kbar_recursive`.
- Sums over labeled trees, and over forests with one anchor per tree, are
  minors of the |Mayer| Laplacian (all-minors matrix-tree theorem, Chaiken
  1982), evaluated by subtraction-free elimination; oracle
  `tree_bound_recursive`.
- The numerator of the local limit density at xi, the star-exponential over
  the subsets S of xi of the collar series of k(S + eta), is one collar series
  of kbar(xi; eta): kbar sums prod k over the partitions of xi + eta whose
  blocks all meet xi, and the Lebesgue-Poisson measure factorizes over
  blocks. Oracle: that exterior-Ursell route in the tests.
- The normalizer of that density, the sum of the cluster integrals of k that
  meet the region, is log Xi(region + collar) - log Xi(collar): two plain
  Ursell series, one over the collar's box and one over the collar, a box
  whose hole is the region. The collar's grid is cut at the region's faces,
  so no cell straddles them. Oracle: the double loop over region and collar
  counts in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from . import starcalc
from .combinat import enumerate_connected_graphs
from .errors import (InfiniteCBeta, IntegrationFailure, NonFiniteIntegrand,
                     OutsideRadius, OverlappingConfigurations,
                     RequiresFiniteRange, SizeLimit)
from .lpintegrate import (BatchIntegrand, IntegralEstimate, QuadratureScheme,
                          SlotDomain, lp_integral)
from .model import Box, FiniteConfiguration, MarkedPoint, ModelSpec
from .potential import (boltzmann_factor_batch, boltzmann_weight_batch,
                        check_integrability, mayer_factor, mayer_factor_batch,
                        pair_phi_matrix)

URSELL_SIZE_CAP = 16
TREE_ZETA_CAP = 8
KBAR_GROUND_CAP = 12


# ---------------------------------------------------------------------------
# batched subset tables


def _combined_arrays(model: ModelSpec, fixed: FiniteConfiguration,
                     positions: np.ndarray, marks: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Put fixed points first, node points after: (K, m+n, d), (K, m+n)."""
    k_rows = positions.shape[0]
    m = len(fixed)
    d = model.space.dimension
    if m:
        fpos = np.broadcast_to(fixed.positions_array(), (k_rows, m, d))
        fmarks = np.broadcast_to(fixed.marks_array(), (k_rows, m))
        positions = np.concatenate([fpos, positions], axis=1)
        marks = np.concatenate([fmarks, marks], axis=1)
    return positions, marks


def _one_row(model: ModelSpec, cfg: FiniteConfiguration
             ) -> tuple[np.ndarray, np.ndarray]:
    """A configuration as a one-row batch: (1, n, d), (1, n)."""
    n = len(cfg)
    return (cfg.positions_array().reshape(1, n, model.space.dimension),
            cfg.marks_array().reshape(1, n))


def _rho_table(bfac: np.ndarray) -> np.ndarray:
    """Subset Boltzmann weights as incremental pair-factor products: (K, 2^M).

    Building by products (not exponentials of energy sums) keeps the exact
    factorization over range-disconnected parts: out-of-range factors are
    exactly 1 and multiplying by 1.0 is the float identity.
    """
    k_rows, m_pts, _ = bfac.shape
    rho = np.empty((k_rows, 1 << m_pts))
    rho[:, 0] = 1.0
    for mask in range(1, 1 << m_pts):
        low_bit = mask & -mask
        low = low_bit.bit_length() - 1
        rest = mask ^ low_bit
        acc = rho[:, rest].copy()
        r = rest
        while r:
            j = (r & -r).bit_length() - 1
            acc *= bfac[:, low, j]
            r &= r - 1
        rho[:, mask] = acc
    return rho


def _adjacency_bits(model: ModelSpec, positions: np.ndarray) -> np.ndarray | None:
    """Per-row range-proximity adjacency as vertex bitmasks, or None if no range."""
    rng = model.potential.range_R
    if rng is None:
        return None
    k_rows, m_pts, _ = positions.shape
    if m_pts == 0:
        return np.zeros((k_rows, 0), dtype=np.int64)
    dist = model.space.distance_batch(positions[:, :, None, :], positions[:, None, :, :])
    close = dist < rng
    idx = np.arange(m_pts)
    close[:, idx, idx] = False
    weights = (1 << idx).astype(np.int64)
    return (close * weights[None, None, :]).sum(axis=2).astype(np.int64)


def _connected_rows(adj_bits: np.ndarray, mask: int) -> np.ndarray:
    """Which batch rows have a connected proximity graph on the given subset."""
    low = (mask & -mask).bit_length() - 1
    comp = np.full(adj_bits.shape[0], 1 << low, dtype=np.int64)
    bits = [b for b in range(adj_bits.shape[1]) if mask >> b & 1]
    for _ in range(len(bits) - 1):
        new = comp.copy()
        for v in bits:
            has = (comp >> v) & 1
            new |= has * adj_bits[:, v]
        new &= mask
        if np.array_equal(new, comp):
            break
        comp = new
    return comp == mask


def _pair_tables(model: ModelSpec, positions: np.ndarray, marks: np.ndarray
                 ) -> np.ndarray:
    """Pair Boltzmann factors of each row: (K, M, M)."""
    return boltzmann_factor_batch(pair_phi_matrix(model.potential, positions, marks),
                                  model.beta)


def _ursell_tables(model: ModelSpec, positions: np.ndarray, marks: np.ndarray
                   ) -> np.ndarray:
    """Ursell values on every subset of each row's points: (K, 2^M).

    ln* of the Boltzmann table, zeroed on range-disconnected subsets.
    """
    bfac = _pair_tables(model, positions, marks)
    adj_bits = _adjacency_bits(model, positions)
    connected = None if adj_bits is None else partial(_connected_rows, adj_bits)
    return starcalc.star_log_batch(_rho_table(bfac), connected)


def ursell_batch(model: ModelSpec, fixed: FiniteConfiguration,
                 positions: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """k(fixed + nodes) for a batch of node tuples: returns (K,)."""
    positions, marks = _combined_arrays(model, fixed, positions, marks)
    return _ursell_tables(model, positions, marks)[:, -1]


def kbar_batch_split(model: ModelSpec, positions: np.ndarray, marks: np.ndarray,
                     fixed_count: int) -> np.ndarray:
    """Two-argument cluster coefficient over combined point arrays.

    The first ``fixed_count`` slots form the anchored argument omega, the rest
    the varying one zeta. Since exp*(-k) = rho^{*-1}, the coefficient
    kbar(omega; zeta) = (rho^{*-1} * D_omega rho)(zeta) needs tables on the
    subsets of zeta only:

        rho(omega) * sum over T <= zeta of rho^{*-1}(T) rho(R) prod b_ij,

    with R = zeta \\ T and the product over i in omega, j in R. Vectorized
    over the batch; `kbar_recursive` is the oracle.
    """
    k_rows = positions.shape[0]
    m = fixed_count
    n = positions.shape[1] - m
    if m == 0:
        return np.full(k_rows, 1.0 if n == 0 else 0.0)
    bfac = _pair_tables(model, positions, marks)
    rho = _rho_table(bfac[:, m:, m:])
    cross = bfac[:, :m, m:].prod(axis=1)
    attached = np.empty_like(rho)
    attached[:, 0] = 1.0
    for mask in range(1, 1 << n):
        low_bit = mask & -mask
        low = low_bit.bit_length() - 1
        attached[:, mask] = attached[:, mask ^ low_bit] * cross[:, low]
    attached *= rho
    iu, ju = np.triu_indices(m, 1)
    rho_omega = bfac[:, iu, ju].prod(axis=-1)
    complement = ((1 << n) - 1) ^ np.arange(1 << n)
    inverse = starcalc.star_inverse_batch(rho)
    return rho_omega * (inverse * attached[:, complement]).sum(axis=1)


def kbar_batch(model: ModelSpec, fixed: FiniteConfiguration,
               positions: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """kbar of a fixed anchor configuration against node batches: (K,)."""
    positions, marks = _combined_arrays(model, fixed, positions, marks)
    return kbar_batch_split(model, positions, marks, len(fixed))


# ---------------------------------------------------------------------------
# scalar spec surface


@dataclass(frozen=True)
class UrsellTable:
    """Ursell values for every subset of a ground configuration."""

    ground: FiniteConfiguration
    values: np.ndarray

    def value(self, indices: Sequence[int]) -> float:
        mask = 0
        for i in indices:
            mask |= 1 << i
        return float(self.values[mask])

    @property
    def full(self) -> float:
        return float(self.values[-1])

    def as_functional(self) -> starcalc.ConfigFunctional:
        return starcalc.ConfigFunctional(len(self.ground), self.values.copy())


def boltzmann_functional(omega: FiniteConfiguration, model: ModelSpec
                         ) -> starcalc.ConfigFunctional:
    """Subset table of Gibbs factors exp(-beta E) on the ground configuration."""
    bfac = _pair_tables(model, *_one_row(model, omega))
    return starcalc.ConfigFunctional(len(omega), _rho_table(bfac)[0])


def ursell_direct(omega: FiniteConfiguration, model: ModelSpec) -> float:
    """Oracle: sum over connected graphs of Mayer-factor products (n <= 5).

    Each graph is its edge set, so its term is the product of f over the
    edges; the one-vertex graph has no edges and gives 1.
    """
    n = len(omega)
    if n == 0:
        return 0.0
    pts = omega.points
    f = {}
    for i in range(n):
        for j in range(i + 1, n):
            f[(i, j)] = mayer_factor(model.potential.evaluate(pts[i], pts[j]),
                                     model.beta)
    return math.fsum(math.prod(f[e] for e in edges)
                     for edges in enumerate_connected_graphs(n))


def ursell_table(omega: FiniteConfiguration, model: ModelSpec) -> UrsellTable:
    """Ursell values on all subsets via the anchored subset recursion."""
    n = len(omega)
    if n > URSELL_SIZE_CAP:
        raise SizeLimit(f"ground of {n} points exceeds the cap {URSELL_SIZE_CAP}")
    return UrsellTable(omega, _ursell_tables(model, *_one_row(model, omega))[0])


def _split_disjoint(omega: FiniteConfiguration, zeta: FiniteConfiguration):
    if omega.position_set() & zeta.position_set():
        raise OverlappingConfigurations("fixed and varying points overlap")


def kbar(omega: FiniteConfiguration, zeta: FiniteConfiguration,
         model: ModelSpec) -> float:
    """Two-argument cluster coefficient (exp*(-k) * D_omega rho)(zeta).

    One row of `kbar_batch`, which evaluates it as rho^{*-1} * D_omega rho on
    the subsets of zeta; the recursion `kbar_recursive` is the oracle.
    """
    _split_disjoint(omega, zeta)
    if len(omega) + len(zeta) > KBAR_GROUND_CAP:
        raise SizeLimit(f"combined ground exceeds {KBAR_GROUND_CAP}")
    return float(kbar_batch(model, omega, *_one_row(model, zeta))[0])


def kbar_recursive(omega: FiniteConfiguration, zeta: FiniteConfiguration,
                   model: ModelSpec) -> float:
    """Anchored recursion for the two-argument coefficient (test-only path)."""
    _split_disjoint(omega, zeta)
    points = omega.points + zeta.points
    m = len(omega.points)
    total = len(points)
    beta = model.beta
    pot = model.potential
    bolt = np.zeros((total, total))
    mayer = np.zeros((total, total))
    for i in range(total):
        for j in range(total):
            if i != j:
                v = pot.evaluate(points[i], points[j])
                mayer[i, j] = mayer_factor(v, beta)
                bolt[i, j] = 1.0 + mayer[i, j]

    @lru_cache(maxsize=None)
    def rec(wmask: int, zmask: int) -> float:
        if wmask == 0:
            return 1.0 if zmask == 0 else 0.0
        x0 = (wmask & -wmask).bit_length() - 1
        rest = wmask ^ (1 << x0)
        w_factor = 1.0
        r = rest
        while r:
            j = (r & -r).bit_length() - 1
            w_factor *= bolt[x0, j]
            r &= r - 1
        acc = 0.0
        u = zmask
        while True:
            prod = 1.0
            r = u
            while r:
                j = (r & -r).bit_length() - 1
                prod *= mayer[x0, j]
                r &= r - 1
            acc += prod * rec(rest | u, zmask ^ u)
            if u == 0:
                break
            u = (u - 1) & zmask
        return w_factor * acc

    wmask = (1 << m) - 1
    zmask = ((1 << total) - 1) ^ wmask
    return rec(wmask, zmask)


# ---------------------------------------------------------------------------
# tree-graph bounds


def _forest_det_batch(w: np.ndarray, sink: np.ndarray) -> np.ndarray:
    """det of the reduced Laplacian diag(sum_k w_jk + sink_j) - w: (K,).

    w is a (K, n, n) batch of nonnegative edge weights (diagonal ignored) and
    sink a (K, n) batch of weights toward the removed anchors. By the
    all-minors matrix-tree theorem the determinant is the weighted sum over
    spanning forests in which every tree holds exactly one anchor. Gaussian
    elimination in the subtraction-free form of Grassmann-Taksar-Heyman: each
    pivot is the remaining row weight plus the sink weight, and eliminating a
    vertex only adds nonnegative weight to the edges and sinks it leaves
    behind. A zero pivot is an isolated vertex, so the determinant is 0.
    """
    w = np.array(w, dtype=float)
    sink = np.array(sink, dtype=float)
    det = np.ones(w.shape[0])
    for p in range(w.shape[1] - 1, -1, -1):
        pivot = w[:, p, :p].sum(axis=-1) + sink[:, p]
        det *= pivot
        share = w[:, :p, p] / np.where(pivot > 0.0, pivot, 1.0)[:, None]
        w[:, :p, :p] += share[:, :, None] * w[:, p, None, :p]
        sink[:, :p] += share * sink[:, p, None]
    return det


def tree_abs_sum_batch(abs_mayer: np.ndarray) -> np.ndarray:
    """Sum over labeled trees of the product of |Mayer| edge weights: (K,).

    The cofactor at vertex 0 of the |Mayer| Laplacian (matrix-tree theorem);
    pinned by the Cayley counts and, through `tree_bound_q_multi`, by
    `tree_bound_recursive`.
    """
    return _forest_det_batch(abs_mayer[:, 1:, 1:], abs_mayer[:, 0, 1:])


def _abs_mayer_matrix(model: ModelSpec, points: Sequence[MarkedPoint]) -> np.ndarray:
    pos = np.asarray([p.position for p in points], dtype=float)[None, :, :]
    mks = np.asarray([p.mark for p in points], dtype=float)[None, :]
    phi_m = pair_phi_matrix(model.potential, pos, mks)
    return np.abs(mayer_factor_batch(phi_m, model.beta))[0]


def tree_bound_q(anchor: MarkedPoint, zeta: FiniteConfiguration,
                 model: ModelSpec) -> float:
    """Single-anchor tree majorant: e^{2 beta B (|zeta|+1)} times the tree sum."""
    return tree_bound_q_multi(FiniteConfiguration((anchor,)), zeta, model)


def tree_bound_q_multi(omega: FiniteConfiguration, zeta: FiniteConfiguration,
                       model: ModelSpec) -> float:
    """Multi-anchor majorant e^{2 beta B (|omega|+|zeta|)} det L_zeta,zeta.

    L is the |Mayer| Laplacian on omega + zeta. By the all-minors matrix-tree
    theorem its zeta block's determinant sums, over the spanning forests with
    one omega anchor per tree, the product of |Mayer| edge weights, which is
    the ordered-partition sum of single-anchor tree majorants over zeta.
    `tree_bound_recursive` is the oracle.
    """
    _split_disjoint(omega, zeta)
    l = len(omega)
    if l == 0:
        return 1.0 if len(zeta) == 0 else 0.0
    e2bb = math.exp(2.0 * model.beta * model.potential.stability_B)
    abs_mayer = _abs_mayer_matrix(model, omega.points + zeta.points)[None]
    det = _forest_det_batch(abs_mayer[:, l:, l:], abs_mayer[:, :l, l:].sum(axis=1))
    return e2bb ** (l + len(zeta)) * float(det[0])


def tree_bound_recursive(omega: FiniteConfiguration, zeta: FiniteConfiguration,
                         model: ModelSpec, anchor_policy: str = "first") -> float:
    """Solve the anchored majorant recursion; equals the closed form for any policy.

    ``anchor_policy`` picks the anchor inside the evolving first argument:
    "first" (lowest combined index) or "last" (highest).
    """
    _split_disjoint(omega, zeta)
    total_pts = len(omega) + len(zeta)
    if total_pts > TREE_ZETA_CAP:
        raise SizeLimit(f"|omega|+|zeta| exceeds the cap {TREE_ZETA_CAP}")
    points = omega.points + zeta.points
    e2bb = math.exp(2.0 * model.beta * model.potential.stability_B)
    if total_pts == 0:
        return 1.0
    abs_mayer = _abs_mayer_matrix(model, points) if total_pts > 1 else np.zeros((1, 1))

    def pick(mask: int) -> int:
        if anchor_policy == "first":
            return (mask & -mask).bit_length() - 1
        if anchor_policy == "last":
            return mask.bit_length() - 1
        raise ValueError(f"unknown anchor policy {anchor_policy!r}")

    @lru_cache(maxsize=None)
    def rec(wmask: int, zmask: int) -> float:
        if wmask == 0:
            return 1.0 if zmask == 0 else 0.0
        x0 = pick(wmask)
        base = wmask ^ (1 << x0)
        acc = 0.0
        u = zmask
        while True:
            prod = 1.0
            r = u
            while r:
                j = (r & -r).bit_length() - 1
                prod *= abs_mayer[x0, j]
                r &= r - 1
            acc += prod * rec(base | u, zmask ^ u)
            if u == 0:
                break
            u = (u - 1) & zmask
        return e2bb * acc

    wmask = (1 << len(omega)) - 1
    zmask = ((1 << total_pts) - 1) ^ wmask
    return rec(wmask, zmask)


# ---------------------------------------------------------------------------
# convergence certificate and truncated series


@dataclass(frozen=True)
class RadiusReport:
    z_star: float
    c_beta: float
    within_radius: bool
    reference_grid_size: int
    refinement_delta: float  # relative gap of C(beta) between grid g and 2g

    def to_dict(self) -> dict:
        return {"z_star": self.z_star, "c_beta": self.c_beta,
                "within_radius": self.within_radius,
                "reference_grid_size": self.reference_grid_size,
                "refinement_delta": self.refinement_delta}


def convergence_radius(model: ModelSpec, reference_grid_size: int = 48) -> RadiusReport:
    """Activity radius estimate 1/(2e * e^{2 beta B} * C(beta)).

    C(beta) is the maximum of ``check_integrability`` over a reference grid,
    an estimate of the essential supremum rather than a rigorous upper bound,
    so z_star and within_radius are estimates too.
    """
    report = check_integrability(model.potential, model, reference_grid_size)
    if not report.finite:
        raise InfiniteCBeta("integrability constant is not finite")
    c = report.c_beta
    if c == 0.0:
        z_star = math.inf
    else:
        z_star = 1.0 / (2.0 * math.e *
                        math.exp(2.0 * model.beta * model.potential.stability_B) * c)
    return RadiusReport(z_star=z_star, c_beta=c,
                        within_radius=model.z < z_star,
                        reference_grid_size=reference_grid_size,
                        refinement_delta=report.refinement_delta)


def tail_bound(model: ModelSpec, from_order: int,
               c_beta: float | None = None) -> float:
    """Geometric bound on the series mass discarded from the given order on."""
    if c_beta is None:
        c_beta = check_integrability(model.potential, model).c_beta
    if c_beta == 0.0:
        return 0.0
    q = 2.0 * model.z * math.e * c_beta * \
        math.exp(2.0 * model.beta * model.potential.stability_B)
    if q >= 1.0:
        raise OutsideRadius(f"geometric ratio q={q:.4g} >= 1")
    prefactor = model.mass() / c_beta
    return prefactor * q ** from_order / (1.0 - q)


def default_series_scheme(seed: int = 0) -> QuadratureScheme:
    return QuadratureScheme.tensor((96, 48, 24, 14, 8, 6),
                                   mc_fallback_samples=20000, seed=seed)


def _series(what: str, f: BatchIntegrand, model: ModelSpec,
            domain: Box | SlotDomain, N: int, scheme: QuadratureScheme | None,
            fixed: Sequence[SlotDomain] = ()) -> IntegralEstimate:
    """One truncated Lebesgue-Poisson series (`lp_integral`) on the given or
    the default scheme; a NaN or infinite integrand is an IntegrationFailure."""
    try:
        return lp_integral(f, model, domain, N, scheme or default_series_scheme(),
                           fixed)
    except NonFiniteIntegrand as exc:
        raise IntegrationFailure(f"{what} integral failed: {exc}") from exc


def _ursell_integrand(model: ModelSpec, absolute: bool = False) -> BatchIntegrand:
    """k(nodes), or |k|, as a batch integrand; k of no points is 0."""
    def integrand(n, positions, marks):
        vals = ursell_batch(model, FiniteConfiguration(), positions, marks)
        return np.abs(vals) if absolute else vals
    return integrand


def _kbar_integrand(model: ModelSpec, points: FiniteConfiguration) -> BatchIntegrand:
    """kbar(points; nodes) as a batch integrand."""
    def integrand(n, positions, marks):
        return kbar_batch(model, points, positions, marks)
    return integrand


def ursell_series_terms(model: ModelSpec, region: Box, N: int,
                        scheme: QuadratureScheme | None = None,
                        absolute: bool = False) -> IntegralEstimate:
    """Truncated series sum_n (z^n/n!) Int k (or |k|) over n region points."""
    return _series("coefficient",
                   _ursell_integrand(model, absolute),
                   model, region, N, scheme)


@dataclass(frozen=True)
class ExpansionReport:
    """Truncated log-partition series with its convergence certificate."""

    truncation_order: int
    coefficients: tuple[float, ...]
    coefficient_errors: tuple[float, ...]
    log_z: float
    integration_error: float
    tail_bound: float
    z_star: float
    c_beta: float
    within_radius: bool
    scheme_echo: dict

    def __post_init__(self):
        if self.tail_bound < 0:
            raise ValueError("tail bound must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "truncation_order": self.truncation_order,
            "coefficients": list(self.coefficients),
            "coefficient_errors": list(self.coefficient_errors),
            "log_z": self.log_z,
            "integration_error": self.integration_error,
            "tail_bound": self.tail_bound,
            "z_star": self.z_star,
            "c_beta": self.c_beta,
            "within_radius": self.within_radius,
            "scheme": self.scheme_echo,
        }


def log_partition_truncated(model: ModelSpec, region: Box, N: int,
                            scheme: QuadratureScheme | None = None,
                            radius_grid: int = 32) -> ExpansionReport:
    """Truncated cluster series for log of the empty-boundary partition function."""
    if N < 1:
        raise ValueError("need N >= 1")
    est = ursell_series_terms(model, region, N, scheme)
    radius = convergence_radius(model, radius_grid)
    if radius.within_radius:
        tail = tail_bound(model, N + 1, c_beta=radius.c_beta)
    else:
        tail = math.inf
    return ExpansionReport(
        truncation_order=N,
        coefficients=est.terms[1:],
        coefficient_errors=est.term_errors[1:],
        log_z=est.value,
        integration_error=est.error,
        tail_bound=tail,
        z_star=radius.z_star,
        c_beta=radius.c_beta,
        within_radius=radius.within_radius,
        scheme_echo=est.scheme_echo,
    )


def partition_direct_truncated(model: ModelSpec, region: Box,
                               boundary: FiniteConfiguration, N: int,
                               scheme: QuadratureScheme | None = None
                               ) -> IntegralEstimate:
    """Direct truncated partition function with a fixed exterior configuration.

    The energy in the exponent is the conditional one: pair energy of the new
    points plus their interaction with the boundary (the boundary's internal
    energy is a constant that the specification normalizes away).
    """
    if N < 0:
        raise ValueError("need N >= 0")
    bpos = boundary.positions_array()
    bmarks = boundary.marks_array()

    def integrand(n, positions, marks):
        return boltzmann_weight_batch(model, positions, marks, bpos, bmarks)

    return _series("direct series", integrand, model, region, N, scheme)


def correlation_truncated(points: FiniteConfiguration, model: ModelSpec,
                          region: Box, N: int,
                          scheme: QuadratureScheme | None = None
                          ) -> IntegralEstimate:
    """Truncated correlation series: sum_n (z^n/n!) Int kbar(points, nodes).

    Follows the normalization without an activity prefactor for the fixed
    points; the n = 0 term is kbar(points, empty).
    """
    for p in points:
        if not region.contains_point(p.position):
            raise ValueError(f"correlation point {p.position} outside the region")
    return _series("correlation", _kbar_integrand(model, points), model, region, N,
                   scheme)


def averaged_correlation(model: ModelSpec, region: Box, m: int, N: int,
                         scheme: QuadratureScheme | None = None) -> IntegralEstimate:
    """Reference-measure average of the m-point correlation over the region.

    Integrates the fixed points out as extra slots, then divides by the
    region mass to the m-th power; for m = 1 this equals the expected count
    divided by z times the mass.
    """
    def integrand(total, positions, marks):
        return kbar_batch_split(model, positions, marks, m)

    # kbar(omega; zeta) is symmetric within omega and within zeta, not across
    # them: the fixed slots are one block, lp_integral's varying slots another
    est = _series("averaged correlation", integrand, model, region, N, scheme,
                  fixed=[SlotDomain(region)] * m)
    norm = model.mass(region) ** m
    return IntegralEstimate(value=est.value / norm, error=est.error / norm,
                            scheme_echo=est.scheme_echo,
                            terms=tuple(t / norm for t in est.terms),
                            term_errors=tuple(e / norm for e in est.term_errors))


def correlation_tail_bound(model: ModelSpec, from_order: int,
                           c_beta: float | None = None) -> float:
    """Bound on the discarded mass of a 1-point correlation series.

    Combines the tree majorant of the two-argument coefficient with the
    integral tree bound and the tree-count factorial estimate:
    term_n <= e^{2 beta B} * e * (n+1) * (z e C e^{2 beta B})^n.
    """
    if c_beta is None:
        c_beta = check_integrability(model.potential, model).c_beta
    if c_beta == 0.0:
        return 0.0
    e2bb = math.exp(2.0 * model.beta * model.potential.stability_B)
    x = model.z * math.e * c_beta * e2bb
    if x >= 1.0:
        raise OutsideRadius(f"geometric ratio {x:.4g} >= 1")
    n0 = from_order
    # sum_{n>=n0} (n+1) x^n = x^{n0} (n0 + 1 - n0 x) / (1-x)^2
    series = x ** n0 * (n0 + 1 - n0 * x) / (1.0 - x) ** 2
    return e2bb * math.e * series


# ---------------------------------------------------------------------------
# local density of the limiting measure


def _collar_domain(model: ModelSpec, region: Box) -> SlotDomain | None:
    """The range collar of the region: its range-expanded box (the whole box
    if periodic) with the region as the hole; None for a zero range."""
    rng = model.potential.range_R
    if rng is None:
        raise RequiresFiniteRange("local limit density needs a finite-range potential")
    if rng == 0.0:
        return None
    if model.space.boundary == "periodic":
        bbox = model.space.box
    else:
        bbox = region.expand(rng).clip_to(model.space.box)
    return SlotDomain(bbox, hole=region)


@dataclass(frozen=True, eq=False)
class LocalDensityProfile:
    """Reusable local description of the limiting measure on a sub-box.

    Caches the normalizer so repeated density evaluations share it. Exterior
    contributions integrate over the range collar of the sub-box; the
    coefficients vanish exactly on range-disconnected configurations, which is
    what localizes the exterior integral. Every series here keeps at most
    ``order`` points in total: the density's collar points, and the
    normalizer's points in the region and its collar.
    """

    model: ModelSpec
    region: Box
    order: int
    scheme: QuadratureScheme
    collar: SlotDomain | None
    log_normalizer: float

    def density(self, config: FiniteConfiguration) -> float:
        """Density of the limiting measure at the configuration, w.r.t. the
        Lebesgue-Poisson reference measure on the sub-box.

        The numerator is the collar series sum_n (z^n/n!) Int kbar(config; eta)
        over n collar points eta; without a collar only kbar(config; empty) is
        left.
        """
        for p in config:
            if not self.region.contains_point(p.position):
                raise ValueError("configuration leaves the profiled region")
        if config.is_empty:
            return math.exp(-self.log_normalizer)
        numerator = _series("density", _kbar_integrand(self.model, config), self.model,
                            self.collar or self.region,
                            self.order if self.collar else 0, self.scheme).value
        return numerator * math.exp(-self.log_normalizer)


def limit_density_profile(model: ModelSpec, region: Box, N: int,
                          scheme: QuadratureScheme | None = None
                          ) -> LocalDensityProfile:
    """Build the local density profile, computing its normalizer once."""
    scheme = scheme or default_series_scheme()
    collar = _collar_domain(model, region)
    integrand = _ursell_integrand(model)
    # the clusters that meet the region: log Xi(region + collar) - log Xi(collar)
    log_norm = _series("normalizer", integrand, model,
                       collar.box if collar else region, N, scheme).value
    if collar:
        log_norm -= _series("normalizer", integrand, model, collar, N, scheme).value
    return LocalDensityProfile(model=model, region=region, order=N, scheme=scheme,
                               collar=collar, log_normalizer=log_norm)
