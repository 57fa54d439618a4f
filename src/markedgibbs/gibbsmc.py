"""Finite-volume Gibbs specifications, exact rejection sampling, grand-canonical
MCMC, estimators, and DLR/locality checks.

Samplers never emit coinciding positions (collisions regenerate), chains are
reproducible given a seed, and the specification weight of a finite-range
potential depends only on the range collar of the boundary, bit-exactly.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import (AcceptanceTooLow, DuplicatePosition, EnergyDrift,
                     RegionOutOfBounds, RequiresFiniteRange)
from .lpintegrate import philox_rng
from .model import Box, FiniteConfiguration, MarkedPoint, ModelSpec, canonicalize
from .potential import (boltzmann_weight_batch, cross_phi_matrix,
                        pair_phi_matrix, upper_pairs)


@dataclass(frozen=True)
class BoundaryCondition:
    """A fixed exterior configuration for a region."""

    exterior: FiniteConfiguration = FiniteConfiguration()

    def validate_for(self, region: Box):
        for p in self.exterior:
            if region.contains_point(p.position):
                raise RegionOutOfBounds("boundary point inside the active region")


EMPTY_BOUNDARY = BoundaryCondition()


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    sweeps: int = 10000
    burn_in: int = 1000
    thinning: int = 1
    p_birth: float = 0.3
    p_death: float = 0.3
    p_move: float = 0.3
    p_mark: float = 0.1
    move_step: float | None = None  # default: 10% of the region's smallest side

    def __post_init__(self):
        probs = (self.p_birth, self.p_death, self.p_move, self.p_mark)
        # comparisons that a NaN or an infinity fails
        if not (all(p >= 0 for p in probs) and abs(sum(probs) - 1.0) <= 1e-12):
            raise ValueError("proposal probabilities must be finite, nonnegative "
                             "and sum to 1")
        if self.move_step is not None and not 0 < self.move_step < math.inf:
            raise ValueError(f"move_step must be finite and positive, got {self.move_step}")
        if self.thinning < 1 or self.burn_in < 0:
            raise ValueError("thinning must be >= 1 and burn_in >= 0")
        if len(range(self.burn_in, self.sweeps, self.thinning)) < 2:
            raise ValueError("sweeps, burn_in and thinning must keep at least 2 samples")


@dataclass
class ChainStats:
    sweeps: int
    burn_in: int
    thinning: int
    sample_count: int
    attempts: dict[str, int]
    accepts: dict[str, int]
    mean_count: float
    rho_hat: float
    rho_hat_se: float
    tau_int: float
    mean_energy: float
    mean_energy_se: float
    pair_histogram_edges: tuple[float, ...]
    pair_histogram_counts: tuple[float, ...]

    @property
    def acceptance(self) -> dict[str, float]:
        return {k: (self.accepts[k] / self.attempts[k] if self.attempts[k] else 0.0)
                for k in self.attempts}

    def to_dict(self) -> dict:
        return {**asdict(self), "acceptance": self.acceptance}


# ---------------------------------------------------------------------------
# marked Poisson sampling


def _draw_points(model: ModelSpec, region: Box, n: int,
                 rng: np.random.Generator) -> FiniteConfiguration:
    lo = np.asarray(region.lower)
    hi = np.asarray(region.upper)
    while True:
        pos = lo + rng.random((n, region.dimension)) * (hi - lo)
        marks = model.marks.sample(rng, n)
        pts = [MarkedPoint(tuple(p), float(m)) for p, m in zip(pos, marks)]
        if len({p.position for p in pts}) == n:
            return canonicalize(pts)


def poisson_sample(model: ModelSpec, region: Box,
                   rng: np.random.Generator) -> FiniteConfiguration:
    """One draw from the marked Poisson law on the region."""
    n = int(rng.poisson(model.z * model.mass(region)))
    return _draw_points(model, region, n, rng)


# ---------------------------------------------------------------------------
# ragged sample streams


def _size_groups(counts: np.ndarray):
    """Same-size groups of a ragged sample stream with at least 2 points.

    Sample i holds the ``counts[i]`` flat rows that follow those of the
    samples before it. Yields ``(n, rows, idx)`` per point count n: the
    samples with n points and their (len(rows), n) flat row indices.
    """
    starts = np.cumsum(counts) - counts
    for n in np.unique(counts[counts >= 2]).tolist():
        rows = np.flatnonzero(counts == n)
        yield n, rows, starts[rows, None] + np.arange(n)


def _grown(buf: np.ndarray, filled: int, rows: int) -> np.ndarray:
    """A buffer with ``rows`` leading rows that starts with buf's first
    ``filled`` rows."""
    out = np.empty((rows,) + buf.shape[1:])
    out[:filled] = buf[:filled]
    return out


class SampleStream:
    """Samples as one ragged stream: counts, flat positions and flat marks.

    Sample i is the ``counts[i]`` rows of ``positions`` (rows, d) and
    ``marks`` (rows,) that follow those of the samples before it, in the
    order they were appended. The buffers grow by doubling; the array
    properties are read-only views of the filled part.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self._counts: list[int] = []
        self._positions = np.empty((16, dimension))
        self._marks = np.empty(16)
        self._rows = 0

    def __len__(self) -> int:
        return len(self._counts)

    def append(self, positions: np.ndarray, marks: np.ndarray) -> None:
        """Add one sample given as (n, d) positions and (n,) marks."""
        end = self._rows + marks.shape[0]
        if end > self._marks.size:
            cap = max(end, 2 * self._marks.size)
            self._positions = _grown(self._positions, self._rows, cap)
            self._marks = _grown(self._marks, self._rows, cap)
        self._positions[self._rows:end] = positions
        self._marks[self._rows:end] = marks
        self._counts.append(end - self._rows)
        self._rows = end

    @classmethod
    def from_configurations(cls, samples: Sequence[FiniteConfiguration],
                            dimension: int) -> "SampleStream":
        """The configurations as a stream, each one's points in its own order."""
        stream = cls(dimension)
        samples = list(samples)
        points = [p for s in samples for p in s.points]
        stream._counts = [len(s) for s in samples]
        stream._positions = np.asarray([p.position for p in points],
                                       dtype=float).reshape(-1, dimension)
        stream._marks = np.asarray([p.mark for p in points], dtype=float)
        stream._rows = len(points)
        return stream

    @property
    def counts(self) -> np.ndarray:
        return np.asarray(self._counts, dtype=np.intp)

    @property
    def positions(self) -> np.ndarray:
        view = self._positions[:self._rows]
        view.flags.writeable = False
        return view

    @property
    def marks(self) -> np.ndarray:
        view = self._marks[:self._rows]
        view.flags.writeable = False
        return view

    def canonical_rows(self) -> np.ndarray:
        """Flat row order that sorts every sample's points by position, as
        `canonicalize` sorts them, one group of same-size samples at a time.
        A sample with coinciding positions is a DuplicatePosition error."""
        positions = self.positions
        order = np.arange(self._rows)
        for _, _, idx in _size_groups(self.counts):
            pos = positions[idx]
            # lexsort's last key is the primary one: coordinate 0
            perm = np.lexsort(pos.transpose(2, 0, 1)[::-1], axis=-1)
            rows = np.take_along_axis(idx, perm, axis=1)
            ordered = positions[rows]
            if (ordered[:, 1:] == ordered[:, :-1]).all(axis=-1).any():
                raise DuplicatePosition("a sample has coinciding positions")
            order[idx] = rows
        return order

    def configurations(self) -> list[FiniteConfiguration]:
        """The samples as canonical configurations."""
        order = self.canonical_rows()
        out = []
        start = 0
        for n in self._counts:
            # one sample's rows at a time, so no list of every row is built
            rows = order[start:start + n]
            out.append(FiniteConfiguration(tuple(
                MarkedPoint(tuple(p), m) for p, m in
                zip(self._positions[rows].tolist(), self._marks[rows].tolist()))))
            start += n
        return out


# ---------------------------------------------------------------------------
# specification weight and energies


def _pair_energy_batch(model: ModelSpec, positions: np.ndarray,
                       marks: np.ndarray) -> np.ndarray:
    """Pair energies of a (K, n, d), (K, n) batch: 0.0 below two points,
    +inf where any pair is."""
    k, n = marks.shape
    if n < 2:
        return np.zeros(k)
    iu, ju = upper_pairs(n)
    # contiguous rows, so each row sums in the order of a 1-D sum
    vals = np.ascontiguousarray(
        pair_phi_matrix(model.potential, positions, marks)[:, iu, ju])
    return np.where(np.isinf(vals).any(axis=1), math.inf, vals.sum(axis=1))


def _config_energy_arrays(model: ModelSpec, positions: np.ndarray,
                          marks: np.ndarray) -> float:
    """Pair energy of one configuration given as arrays (may be +inf)."""
    return float(_pair_energy_batch(model, positions[None], marks[None])[0])


def _interaction_sum(model: ModelSpec, positions: np.ndarray, marks: np.ndarray,
                     bpos: np.ndarray, bmarks: np.ndarray) -> float:
    if positions.shape[0] == 0 or bpos.shape[0] == 0:
        return 0.0
    cross = cross_phi_matrix(model.potential, positions[None], marks[None],
                             bpos, bmarks)[0]
    if np.any(np.isinf(cross)):
        return math.inf
    return float(np.sum(cross))


def specification_weight(candidate: FiniteConfiguration,
                         boundary: BoundaryCondition, model: ModelSpec,
                         region: Box) -> float:
    """Unnormalized conditional density exp(-beta E_region(boundary + candidate)).

    The K=1 row of `boltzmann_weight_batch`, a sequential product of pair and
    cross Boltzmann factors. A boundary point beyond the range collar adds
    factors of exactly 1.0, the float identity, so the weight is bit-identical
    under any change outside the collar; exp(-beta*(E+W)) is not, since a
    pairwise-summed W regroups its terms when exact zeros are added.
    """
    for p in candidate:
        if not region.contains_point(p.position):
            raise RegionOutOfBounds("candidate point outside the region")
    boundary.validate_for(region)
    return float(boltzmann_weight_batch(
        model, candidate.positions_array()[None], candidate.marks_array()[None],
        boundary.exterior.positions_array(), boundary.exterior.marks_array())[0])


# ---------------------------------------------------------------------------
# exact rejection sampling


def _boundary_inflation(model: ModelSpec, region: Box,
                        boundary: BoundaryCondition) -> float:
    """Stability constant B' covering both the pair energy and the boundary term.

    The pair bound phi >= -2B gives -W(point, boundary) <= 2B * (number of
    boundary points that can interact), which is the collar count for
    finite-range potentials.
    """
    b = model.potential.stability_B
    ext = boundary.exterior
    if len(ext) == 0 or b == 0.0:
        return b
    rng_r = model.potential.range_R
    if rng_r is None:
        near = len(ext)
    else:
        collar = region.expand(rng_r)
        near = sum(1 for p in ext if collar.contains_point(p.position))
    return b * (1.0 + 2.0 * near)


def _proposal_rate(model: ModelSpec, region: Box, boundary: BoundaryCondition,
                   acceptance_floor: float) -> tuple[float, float]:
    """B' and the Poisson mean lambda = z e^{beta B'} |region| of the inflated
    proposal law, once the boundary is checked to lie outside the region and
    the guaranteed acceptance exp(-lambda) to clear the floor."""
    boundary.validate_for(region)
    b_prime = _boundary_inflation(model, region, boundary)
    lam = model.z * math.exp(model.beta * b_prime) * model.mass(region)
    if math.exp(-lam) < acceptance_floor:
        raise AcceptanceTooLow(
            f"guaranteed acceptance exp(-{lam:.3g}) below floor {acceptance_floor}")
    return b_prime, lam


def rejection_sample(model: ModelSpec, region: Box,
                     boundary: BoundaryCondition, rng: np.random.Generator,
                     acceptance_floor: float = 1e-6,
                     max_proposals: int = 1_000_000) -> FiniteConfiguration:
    """Exact draw from the finite-volume specification.

    Proposes from the marked Poisson law at inflated activity z*e^{beta B'} and
    accepts with probability exp(-beta E_region) * exp(-beta B' n) <= 1, so the
    output law is exactly the specification.
    """
    b_prime, lam = _proposal_rate(model, region, boundary, acceptance_floor)
    for _ in range(max_proposals):
        n = int(rng.poisson(lam))
        cand = _draw_points(model, region, n, rng)
        weight = specification_weight(cand, boundary, model, region)
        if rng.random() < weight * math.exp(-model.beta * b_prime * n):
            return cand
    raise AcceptanceTooLow("no acceptance within the proposal budget")


def rejection_sample_batch(model: ModelSpec, region: Box,
                           boundary: BoundaryCondition, count: int,
                           rng: np.random.Generator,
                           acceptance_floor: float = 1e-6
                           ) -> list[FiniteConfiguration]:
    """Vectorized exact draws; energies are evaluated in same-size groups."""
    b_prime, lam = _proposal_rate(model, region, boundary, acceptance_floor)
    beta = model.beta
    lo = np.asarray(region.lower)
    hi = np.asarray(region.upper)
    d = region.dimension
    bpos = boundary.exterior.positions_array()
    bmarks = boundary.exterior.marks_array()
    kept = SampleStream(d)
    while len(kept) < count:
        batch = max(1024, int(1.5 * (count - len(kept))))
        ns = rng.poisson(lam, size=batch)
        us = rng.random(batch)
        # an empty proposal has weight 1 and is always accepted
        accepted = ns == 0
        # a row's index in its size group; empty proposals are row 0 of group 0
        slot = np.zeros(batch, dtype=np.intp)
        groups = {0: (np.empty((1, 0, d)), np.empty((1, 0)))}
        for n in np.unique(ns[ns > 0]).tolist():
            rows = np.flatnonzero(ns == n)
            k = rows.size
            pos = lo + rng.random((k, n, d)) * (hi - lo)
            marks = model.marks.sample(rng, k * n).reshape(k, n)
            weights = boltzmann_weight_batch(model, pos, marks, bpos, bmarks)
            iu, ju = upper_pairs(n)
            collision = (pos[:, iu] == pos[:, ju]).all(axis=-1).any(axis=-1)
            accepted[rows] = ((us[rows] < weights * math.exp(-beta * b_prime * n))
                              & ~collision)
            slot[rows] = np.arange(k)
            groups[n] = (pos, marks)
        # keep proposal order so the kept prefix stays an i.i.d. sample; only
        # the rows of that prefix become configurations
        for row in np.flatnonzero(accepted)[:count - len(kept)].tolist():
            pos, marks = groups[int(ns[row])]
            kept.append(pos[slot[row]], marks[slot[row]])
    return kept.configurations()


# ---------------------------------------------------------------------------
# grand-canonical MCMC


def _pair_bins(region: Box) -> np.ndarray:
    """Edges of 32 equal pair-distance bins up to the region's longest side."""
    return np.linspace(0.0, max(u - l for l, u in zip(region.lower, region.upper)),
                       33)


def _pair_histogram(model: ModelSpec, pair_bins: np.ndarray, counts: np.ndarray,
                    positions: np.ndarray) -> np.ndarray:
    """Upper-triangle pair-distance counts of a ragged sample stream (counts
    plus flat positions), one group of same-size samples at a time."""
    hist = np.zeros(len(pair_bins) - 1)
    for n, _, idx in _size_groups(counts):
        pos = positions[idx]
        iu, ju = upper_pairs(n)
        hist += np.histogram(model.space.distance_batch(pos[:, iu], pos[:, ju]),
                             bins=pair_bins)[0]
    return hist


def _tau_int(series: np.ndarray) -> float:
    """Integrated autocorrelation time by the initial-positive-sequence rule."""
    n = series.size
    if n < 8:
        return 1.0
    x = series - series.mean()
    var = float(np.dot(x, x)) / n
    if var == 0.0:
        return 1.0
    tau = 1.0
    for lag in range(1, n // 2):
        rho = float(np.dot(x[:-lag], x[lag:])) / ((n - lag) * var)
        if rho <= 0:
            break
        tau += 2.0 * rho
    return tau


def _mean_se(values: np.ndarray, tau: float = 1.0) -> tuple[float, float]:
    """Mean of a series and its standard error, counting k / tau effective
    samples in k values with integrated autocorrelation time tau."""
    return (float(values.mean()),
            float(values.std(ddof=1)) / math.sqrt(values.size / tau))


_KINDS = ("birth", "death", "move", "mark")


def _chain_stats(model: ModelSpec, region: Box, counts: np.ndarray,
                 energies: np.ndarray, pair_bins: np.ndarray,
                 pair_counts: np.ndarray, iid: bool, sweeps: int, burn_in: int,
                 thinning: int, attempts: dict[str, int],
                 accepts: dict[str, int]) -> ChainStats:
    """ChainStats of the kept point counts and energies. Standard errors use
    each series' integrated autocorrelation time, or tau = 1 for i.i.d.
    samples."""
    tau = 1.0 if iid else _tau_int(counts)
    mean_count, se_count = _mean_se(counts, tau)
    mean_e, se_e = _mean_se(energies, 1.0 if iid else _tau_int(energies))
    denom = model.z * model.mass(region)
    return ChainStats(
        sweeps=sweeps, burn_in=burn_in, thinning=thinning,
        sample_count=counts.size, attempts=attempts, accepts=accepts,
        mean_count=mean_count,
        rho_hat=mean_count / denom, rho_hat_se=se_count / denom,
        tau_int=tau, mean_energy=mean_e, mean_energy_se=se_e,
        pair_histogram_edges=tuple(pair_bins.tolist()),
        pair_histogram_counts=tuple(pair_counts.tolist()),
    )


def _check_energy(tracked: float, exact: float) -> None:
    if not abs(exact - tracked) <= 1e-9 * max(1.0, abs(tracked)):
        raise EnergyDrift(f"tracked chain energy {tracked!r} differs from the "
                          f"recomputed {exact!r}")


# points plus pairs of kept states that mcmc_run buffers before binning them
_FLUSH_PAIRS = 1 << 17
# state points that mcmc_run's buffers hold before they double
_STATE_CAPACITY = 16
# pair values mcmc_run's cache holds at most (8 MiB); a chain whose state
# outgrows it drops the cache and evaluates the potential instead
_CACHE_VALUES = 1 << 20


def _energy_of(values: np.ndarray) -> float:
    """Sum of pair values, +inf if any is."""
    if np.isinf(values).any():
        return math.inf
    return float(values.sum())


def _without(row: np.ndarray, idx: int) -> np.ndarray:
    """A pair-value row without entry idx, in order."""
    return np.concatenate([row[:idx], row[idx + 1:]])


def mcmc_run(model: ModelSpec, region: Box, boundary: BoundaryCondition,
             sampler: SamplerConfig, stream: SampleStream | None = None
             ) -> ChainStats:
    """Metropolis-Hastings chain targeting the finite-volume specification.

    Birth, death, move, and mark-resample proposals with the standard
    grand-canonical acceptance ratios; detailed balance holds w.r.t. the
    specification. A move and a mark resample each draw a candidate for one
    point and share one Metropolis replace step. Reproducible for a fixed
    config.

    The state is a position and a mark buffer, the n state rows followed by
    the boundary rows, which double when the state outgrows them, plus a
    cache of the pair values between the state points and with the boundary.
    Each state point keeps a fixed cache slot and ``order[:n]`` lists the
    slots in chain order, so a death moves O(n) entries. A birth, move or
    mark proposal evaluates the potential once, against all rows; an
    accepted one stores that row, for both points of each pair (the
    potential is symmetric). A death's delta and a replace step's old value
    are sums of cached values. A state that would make the cache outgrow
    ``_CACHE_VALUES`` drops it for the rest of the chain, which then
    evaluates those sums, in the same order, with one potential call each.

    The energy is tracked incrementally from the local energy of each
    accepted proposal. It is recomputed from scratch, without the cache, at
    kept states 1, 2, 4, 8, ... and at the end, and checked against the last
    point's local energy whenever the chain empties (a cached one catches a
    cache that lost track of the values the energy added); a gap above
    1e-9 * max(1, |E|) raises EnergyDrift.

    Each kept state is appended to ``stream`` when one is given. The chain
    also records the kept point counts plus one flat position buffer, and
    builds the pair histogram from it one group of same-size states at a
    time, whenever the buffer holds about ``_FLUSH_PAIRS`` points plus pairs
    and once after the chain, so memory stays bounded on long chains.
    """
    boundary.validate_for(region)
    rng = philox_rng(sampler.seed)
    beta = model.beta
    mass = model.mass(region)
    lo = np.asarray(region.lower)
    hi = np.asarray(region.upper)
    d = region.dimension
    sides = np.asarray(model.space.side_lengths)
    step = sampler.move_step
    if step is None:
        step = 0.1 * float((hi - lo).min())
    bpos = boundary.exterior.positions_array().reshape(-1, d)
    bmarks = boundary.exterior.marks_array()
    nb = bmarks.size
    # rows :n of pts and mks are the state, rows n:n + nb the boundary
    n = 0
    cap = _STATE_CAPACITY
    pts = _grown(bpos, nb, cap + nb)
    mks = _grown(bmarks, nb, cap + nb)
    # cache: state point i keeps slot order[i]; pair[s, t] is the value between
    # slots s and t and bpair[s] slot s's values with the boundary rows
    cached = True
    order = np.empty(0, dtype=np.intp)
    free: list[int] = []
    pair, bpair = np.empty((0, 0)), np.empty((0, nb))
    attempts = dict.fromkeys(_KINDS, 0)
    accepts = dict.fromkeys(_KINDS, 0)
    counts = []
    energies = []
    pair_bins = _pair_bins(region)
    pair_counts = np.zeros(len(pair_bins) - 1)
    kept_positions = bytearray()  # rows of the kept states not yet binned
    binned = 0  # kept states already in pair_counts
    pending = 0  # points plus pairs in kept_positions

    def bin_kept() -> None:
        nonlocal pair_counts, kept_positions, binned, pending
        pair_counts += _pair_histogram(model, pair_bins, np.asarray(counts[binned:]),
                                       np.frombuffer(kept_positions).reshape(-1, d))
        kept_positions, binned, pending = bytearray(), len(counts), 0

    def cross_row(pos: np.ndarray, mark: float, others: np.ndarray,
                  others_mark: np.ndarray) -> np.ndarray:
        """Pair values of one point with each of the rows ``others``."""
        if not others_mark.size:
            return np.zeros(0)
        return cross_phi_matrix(model.potential, pos[None, None, :],
                                np.asarray([[mark]]), others, others_mark)[0, 0]

    def held(idx: int) -> np.ndarray:
        """State point idx's values with the other state rows, then the
        boundary rows."""
        if cached:
            s = order[idx]
            row = pair[s].take(order[:n])
            return np.concatenate([row[:idx], row[idx + 1:], bpair[s]])
        return cross_row(pts[idx], mks[idx], np.delete(pts[:n + nb], idx, axis=0),
                         np.delete(mks[:n + nb], idx))

    def store(s: int, row: np.ndarray) -> None:
        live = order[:n]
        pair[s, live] = pair[live, s] = row[:n]
        bpair[s] = row[n:]

    def check_state() -> None:
        _check_energy(energy, _config_energy_arrays(model, pts[:n], mks[:n])
                      + _interaction_sum(model, pts[:n], mks[:n], bpos, bmarks))

    # The chain starts empty and rejects every proposal into infinite energy,
    # so the state energy, a death's delta and a replace step's old value
    # are always finite.
    energy = 0.0
    thresholds = np.cumsum([sampler.p_birth, sampler.p_death, sampler.p_move]).tolist()
    for sweep in range(sampler.sweeps):
        kind = _KINDS[bisect_right(thresholds, rng.random())]
        attempts[kind] += 1
        if kind == "birth":
            pos = lo + rng.random(d) * (hi - lo)
            mark = float(model.marks.sample(rng, 1)[0])
            # an exact position collision is a null proposal
            if not (pts[:n] == pos).all(axis=1).any():
                row = cross_row(pos, mark, pts[:n + nb], mks[:n + nb])
                delta = _energy_of(row)
                ratio = (model.z * mass / (n + 1)) * \
                    (0.0 if math.isinf(delta) else math.exp(-beta * delta))
                if rng.random() < min(1.0, ratio * sampler.p_death / sampler.p_birth):
                    if n == cap:
                        cap *= 2
                        pts = _grown(pts, n + nb, cap + nb)
                        mks = _grown(mks, n + nb, cap + nb)
                    # row n becomes the new point; the boundary rows move up one
                    pts[n + 1:n + 1 + nb] = pts[n:n + nb]
                    mks[n + 1:n + 1 + nb] = mks[n:n + nb]
                    pts[n], mks[n] = pos, mark
                    if cached and not free:
                        slots = max(_STATE_CAPACITY, 2 * n)
                        if slots * (slots + nb) > _CACHE_VALUES:
                            cached, pair, bpair = False, None, None
                        else:
                            grown = np.empty((slots, slots))
                            bgrown = np.empty((slots, nb))
                            grown[:n, :n], bgrown[:n] = pair, bpair
                            pair, bpair = grown, bgrown
                            order = np.concatenate(
                                [order, np.empty(slots - n, dtype=np.intp)])
                            free = list(range(slots - 1, n - 1, -1))
                    if cached:
                        s = free.pop()
                        store(s, row)
                        order[n] = s
                    n += 1
                    energy += delta
                    accepts[kind] += 1
        elif kind == "death" and n > 0:
            idx = int(rng.integers(n))
            delta = float(held(idx).sum())
            ratio = (n / (model.z * mass)) * math.exp(beta * delta)
            if rng.random() < min(1.0, ratio * sampler.p_birth / sampler.p_death):
                pts[idx:n + nb - 1] = pts[idx + 1:n + nb]
                mks[idx:n + nb - 1] = mks[idx + 1:n + nb]
                if cached:
                    free.append(int(order[idx]))
                    order[idx:n - 1] = order[idx + 1:n]
                n -= 1
                if n == 0:
                    # the last point's local energy is the whole state energy
                    _check_energy(energy, delta)
                energy = energy - delta if n else 0.0
                accepts[kind] += 1
        elif n > 0:
            idx = int(rng.integers(n))
            new_pos, new_mark = pts[idx], mks[idx]
            if kind == "move":
                new_pos = new_pos + (rng.random(d) - 0.5) * 2.0 * step
                if model.space.boundary == "periodic":
                    new_pos = np.mod(new_pos, sides)
            else:
                new_mark = float(model.marks.sample(rng, 1)[0])
            # a move out of the region is a null proposal
            if region.contains_point(tuple(new_pos)):
                # entry idx of the candidate's row pairs it with the point it
                # replaces; neither energy counts it
                row = cross_row(new_pos, new_mark, pts[:n + nb], mks[:n + nb])
                old = float(held(idx).sum())
                new = _energy_of(_without(row, idx))
                log_ratio = -math.inf if math.isinf(new) else -beta * (new - old)
                if math.log(max(rng.random(), 1e-300)) < log_ratio:
                    pts[idx], mks[idx] = new_pos, new_mark
                    if cached:
                        store(order[idx], row)
                    energy += new - old
                    accepts[kind] += 1

        if sweep >= sampler.burn_in and (sweep - sampler.burn_in) % sampler.thinning == 0:
            counts.append(n)
            energies.append(energy)
            kept_positions += pts[:n].tobytes()
            pending += n + n * (n - 1) // 2
            if pending >= _FLUSH_PAIRS:
                bin_kept()
            if stream is not None:
                stream.append(pts[:n], mks[:n])
            if len(counts) & (len(counts) - 1) == 0:  # kept states 1, 2, 4, ...
                check_state()

    check_state()

    bin_kept()
    return _chain_stats(model, region, np.asarray(counts, dtype=float),
                        np.asarray(energies, dtype=float), pair_bins, pair_counts,
                        iid=False, sweeps=sampler.sweeps, burn_in=sampler.burn_in,
                        thinning=sampler.thinning, attempts=attempts,
                        accepts=accepts)


def summarize_samples(samples: Sequence[FiniteConfiguration], model: ModelSpec,
                      region: Box) -> ChainStats:
    """ChainStats-shaped summary for i.i.d. samples (tau = 1).

    Pair histogram and pair energies are computed per group of same-size
    samples. At least 2 samples are needed for a standard error; a sample with
    an infinite pair energy (which the samplers never emit) is a ValueError.
    """
    k = len(samples)
    if k < 2:
        raise ValueError("summarize_samples needs at least 2 samples")
    stream = SampleStream.from_configurations(samples, region.dimension)
    counts, positions, marks = stream.counts, stream.positions, stream.marks
    pair_bins = _pair_bins(region)
    pair_counts = _pair_histogram(model, pair_bins, counts, positions)
    energies = np.zeros(k)
    for _, rows, idx in _size_groups(counts):
        energies[rows] = _pair_energy_batch(model, positions[idx], marks[idx])
    infinite = np.flatnonzero(np.isinf(energies))
    if infinite.size:
        raise ValueError(f"sample {infinite[0]} has an infinite pair energy")
    return _chain_stats(model, region, counts.astype(float), energies, pair_bins,
                        pair_counts, iid=True, sweeps=k, burn_in=0, thinning=1,
                        attempts=dict.fromkeys(_KINDS, 0),
                        accepts=dict.fromkeys(_KINDS, 0))


# ---------------------------------------------------------------------------
# DLR and locality checks


@dataclass(frozen=True)
class DlrReport:
    n_samples: int
    discrepancies: dict[str, float]
    standard_errors: dict[str, float]
    z_scores: dict[str, float]
    locality_trials: int
    locality_violations: int
    passed: bool


def dlr_check(model: ModelSpec, inner_region: Box, outer_region: Box,
              n_samples: int = 20000, seed: int = 0,
              z_threshold: float = 3.0, locality_trials: int = 200) -> DlrReport:
    """Consistency of nested specifications, checked statistically.

    Draws from the outer specification with empty boundary, then resamples the
    inner region conditionally on each draw's own exterior. The statistic,
    keyed ``inner_count``, is the paired difference of inner point counts,
    resampled minus drawn; its mean must vanish within the statistical error
    (at least 2 samples give one). The total count is no second statistic:
    the resample keeps the exterior, so it moves exactly as the inner count.
    Also asserts the structural locality of the weight: boundary changes
    outside the range collar leave it bit-identical.
    """
    if model.potential.range_R is None:
        raise RequiresFiniteRange("the DLR check needs a finite-range potential")
    if not outer_region.contains_box(inner_region):
        raise RegionOutOfBounds("inner region must sit inside the outer region")
    if n_samples < 2:
        raise ValueError("the DLR check needs at least 2 samples")
    rng = philox_rng(seed, 17)
    draws = rejection_sample_batch(model, outer_region, EMPTY_BOUNDARY,
                                   n_samples, rng)

    # group draws by their exterior of the inner region so equal exteriors
    # batch up; the key holds the marks, which MarkedPoint equality ignores
    exteriors: dict[tuple, tuple[FiniteConfiguration, list[int]]] = {}
    for i, cfg in enumerate(draws):
        ext = FiniteConfiguration(tuple(
            p for p in cfg.points if not inner_region.contains_point(p.position)))
        key = tuple((p.position, p.mark) for p in ext.points)
        exteriors.setdefault(key, (ext, []))[1].append(i)

    diffs = np.empty(n_samples)
    for ext, indices in exteriors.values():
        inner_draws = rejection_sample_batch(model, inner_region,
                                             BoundaryCondition(ext),
                                             len(indices), rng)
        for i, inner in zip(indices, inner_draws):
            diffs[i] = len(inner) - (len(draws[i]) - len(ext))

    mean, se = _mean_se(diffs)
    z = abs(mean) / se if se > 0 else 0.0
    violations = collar_locality_trials(model, inner_region,
                                        trials=locality_trials, seed=seed + 1)
    return DlrReport(n_samples=n_samples, discrepancies={"inner_count": mean},
                     standard_errors={"inner_count": se},
                     z_scores={"inner_count": z},
                     locality_trials=locality_trials,
                     locality_violations=violations,
                     passed=z <= z_threshold and not violations)


def collar_locality_trials(model: ModelSpec, region: Box, trials: int = 1000,
                           seed: int = 0) -> int:
    """Exact locality: perturbing the boundary outside the range collar leaves
    the specification weight bit-identical. Returns the violation count."""
    rng_r = model.potential.range_R
    if rng_r is None:
        raise RequiresFiniteRange("locality check needs a finite-range potential")
    rng = philox_rng(seed, 23)
    space_box = model.space.box
    violations = 0
    for _ in range(trials):
        candidate = poisson_sample(model, region, rng)
        near = []
        collar = region.expand(rng_r).clip_to(space_box)
        for _ in range(int(rng.integers(0, 3))):
            pos = np.asarray(collar.lower) + rng.random(region.dimension) * (
                np.asarray(collar.upper) - np.asarray(collar.lower))
            if not region.contains_point(tuple(pos)):
                near.append(MarkedPoint(tuple(pos), float(model.marks.sample(rng, 1)[0])))
        far = []
        for _ in range(int(rng.integers(1, 4))):
            pos = np.asarray(space_box.lower) + rng.random(region.dimension) * (
                np.asarray(space_box.upper) - np.asarray(space_box.lower))
            if not collar.contains_point(tuple(pos)):
                far.append(MarkedPoint(tuple(pos), float(model.marks.sample(rng, 1)[0])))
        base = specification_weight(candidate, BoundaryCondition(
            canonicalize(near)), model, region)
        perturbed = specification_weight(candidate, BoundaryCondition(
            canonicalize(near + far)), model, region)
        if base != perturbed:
            violations += 1
    return violations


# samples write_sample_file converts to Python values at a time
_SPILL_BLOCK = 1024


def write_sample_file(path, samples: SampleStream | Sequence[FiniteConfiguration],
                      dimension: int):
    """Line-delimited sample spill: count then per-point coordinates and mark,
    each sample's points in canonical order. ``samples`` is a SampleStream or
    a sequence of configurations, which is written as its stream."""
    if not isinstance(samples, SampleStream):
        samples = SampleStream.from_configurations(samples, dimension)
    if samples.dimension != dimension:
        raise ValueError(f"a {samples.dimension}-d stream written as d={dimension}")
    order = samples.canonical_rows()
    width = dimension + 1
    counts = samples.counts.tolist()
    offsets = np.concatenate([[0], np.cumsum(counts, dtype=np.intp)]).tolist()
    with open(path, "w") as fh:
        fh.write(f"# markedgibbs-samples v1 d={dimension}\n")
        # one block of samples at a time, so no list of every value is built
        for first in range(0, len(counts), _SPILL_BLOCK):
            last = min(first + _SPILL_BLOCK, len(counts))
            rows = order[offsets[first]:offsets[last]]
            values = np.column_stack([samples.positions[rows],
                                      samples.marks[rows]]).ravel().tolist()
            start = 0
            for n in counts[first:last]:
                end = start + n * width
                fh.write(" ".join([str(n), *map(repr, values[start:end])]) + "\n")
                start = end


def read_sample_file(path) -> list[FiniteConfiguration]:
    """Inverse of write_sample_file. A line that is not a count n followed
    by n(d+1) finite values is a ValueError that names it; a sample with
    coinciding positions is a DuplicatePosition error."""
    out = []
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# markedgibbs-samples v1"):
            raise ValueError("unrecognized sample file header")
        d = int(header.split("d=")[1])
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not (parts and parts[0].isdecimal()
                    and len(parts) == 1 + int(parts[0]) * (d + 1)):
                raise ValueError(f"sample file line {lineno} is not a count n "
                                 f"followed by n*{d + 1} values")
            values = [float(x) for x in parts[1:]]
            if not all(map(math.isfinite, values)):
                raise ValueError(f"sample file line {lineno} holds a NaN or an infinity")
            out.append(canonicalize(
                MarkedPoint(tuple(values[base:base + d]), values[base + d])
                for base in range(0, len(values), d + 1)))
    return out
