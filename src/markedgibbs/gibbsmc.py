"""Finite-volume Gibbs specifications, exact rejection sampling, grand-canonical
MCMC, estimators, and DLR/locality checks.

Samplers never emit coinciding positions (collisions regenerate), chains are
reproducible given a seed, and the specification weight of a finite-range
potential depends only on the range collar of the boundary, bit-exactly.
"""
from __future__ import annotations

import math
import re
from array import array
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import (AcceptanceTooLow, DuplicatePosition, EnergyDrift,
                     RegionOutOfBounds, RequiresFiniteRange, StabilityViolation)
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


def _distinct(values: np.ndarray) -> list:
    """The distinct values of an array, ascending, as Python numbers: the
    values of ``np.unique(values).tolist()``, without the numpy.ma import
    that a plain ``np.unique`` call makes."""
    return sorted(set(values.tolist()))


def _size_groups(counts: np.ndarray):
    """Same-size groups of a ragged sample stream with at least 2 points.

    Sample i holds the ``counts[i]`` flat rows that follow those of the
    samples before it. Yields ``(n, rows, idx)`` per point count n: the
    samples with n points and their (len(rows), n) flat row indices.
    """
    starts = np.cumsum(counts) - counts
    for n in _distinct(counts[counts >= 2]):
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
    order they were appended. The stream keeps each sample's first row, so
    indexing a sample costs the same wherever it lies. The buffers grow by
    doubling; the array properties are read-only views of the filled part.

    Read as a sequence, the stream holds canonical configurations: ``len``,
    iteration and indexing build them, sample by sample, only where a caller
    reads points; a slice is the list of its samples. Two streams are equal when their dimensions, counts,
    positions and marks are, row for row.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        # each sample's first row, then the row count, as int64 items: a list
        # would hold one Python int object per offset above 256
        self._offsets = array("q", [0])
        self._positions = np.empty((16, dimension))
        self._marks = np.empty(16)

    @property
    def _rows(self) -> int:
        return self._offsets[-1]

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __iter__(self):
        order = self.canonical_rows()
        for start, stop in zip(self._offsets, self._offsets[1:]):
            # one sample's rows at a time, so no list of every row is built
            yield FiniteConfiguration(self._points(order[start:stop]))

    def __getitem__(self, i: int | slice) -> FiniteConfiguration | list[FiniteConfiguration]:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        rows = np.arange(self._offsets[i], self._offsets[i + 1])
        return canonicalize(self._points(rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampleStream):
            return NotImplemented
        return (self.dimension == other.dimension and self._offsets == other._offsets
                and np.array_equal(self.positions, other.positions)
                and np.array_equal(self.marks, other.marks))

    __hash__ = None

    def _points(self, rows: np.ndarray) -> tuple[MarkedPoint, ...]:
        return tuple(MarkedPoint(tuple(p), m) for p, m in
                     zip(self._positions[rows].tolist(), self._marks[rows].tolist()))

    def append(self, positions: np.ndarray, marks: np.ndarray) -> None:
        """Add one sample given as (n, d) positions and (n,) marks."""
        self.extend([marks.shape[0]], positions, marks)

    def extend(self, counts: Sequence[int], positions: np.ndarray,
               marks: np.ndarray) -> None:
        """Add samples given as their point counts and flat (rows, d)
        positions and (rows,) marks: sample i is the ``counts[i]`` rows that
        follow those of the samples before it. Counts that are negative or do
        not add up to the rows are a ValueError."""
        counts = np.asarray(counts, dtype=np.intp)
        if (counts < 0).any() or int(counts.sum()) != marks.shape[0]:
            raise ValueError(f"sample counts that sum to {int(counts.sum())} "
                             f"do not split {marks.shape[0]} rows")
        end = self._rows + marks.shape[0]
        if end > self._marks.size:
            cap = max(end, 2 * self._marks.size)
            self._positions = _grown(self._positions, self._rows, cap)
            self._marks = _grown(self._marks, self._rows, cap)
        self._positions[self._rows:end] = positions
        self._marks[self._rows:end] = marks
        self._offsets.frombytes((self._rows + counts.cumsum(dtype=np.int64)).tobytes())

    @classmethod
    def from_arrays(cls, counts: Sequence[int], positions: np.ndarray,
                    marks: np.ndarray) -> "SampleStream":
        """The stream of flat (rows, d) positions and (rows,) marks, sample i
        being the ``counts[i]`` rows after those of the samples before it."""
        stream = cls(positions.shape[1])
        stream._positions = positions
        stream._marks = marks
        stream._offsets.frombytes(np.cumsum(counts, dtype=np.int64).tobytes())
        return stream

    @classmethod
    def from_configurations(cls, samples: Sequence[FiniteConfiguration],
                            dimension: int) -> "SampleStream":
        """The configurations as a stream, each one's points in its own order."""
        samples = list(samples)
        points = [p for s in samples for p in s.points]
        return cls.from_arrays(
            [len(s) for s in samples],
            np.asarray([p.position for p in points], dtype=float).reshape(-1, dimension),
            np.asarray([p.mark for p in points], dtype=float))

    @property
    def counts(self) -> np.ndarray:
        return np.diff(np.array(self._offsets, dtype=np.intp))

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

    def canonical(self) -> "SampleStream":
        """The stream with every sample's rows in canonical order, one gather."""
        order = self.canonical_rows()
        return SampleStream.from_arrays(self.counts, self._positions[order],
                                        self._marks[order])

    def configurations(self) -> list[FiniteConfiguration]:
        """The samples as canonical configurations."""
        return list(self)


# ---------------------------------------------------------------------------
# specification weight and energies

# pairs per block of the chain's from-scratch energy (512 KiB of float64 per
# temporary); below one block it is the unblocked `_pair_energy_batch`
_ENERGY_BLOCK = 1 << 16


def _pair_energy_batch(model: ModelSpec, positions: np.ndarray,
                       marks: np.ndarray) -> np.ndarray:
    """Pair energies of a (K, n, d), (K, n) batch, each the sum of its row of
    ``pair_phi_matrix`` (one value per pair i < j): 0.0 below two points,
    +inf where any pair is."""
    k, n = marks.shape
    if n < 2:
        return np.zeros(k)
    vals = pair_phi_matrix(model, positions, marks)
    return np.where(np.isinf(vals).any(axis=1), math.inf, vals.sum(axis=1))


def _config_energy_arrays(model: ModelSpec, positions: np.ndarray,
                          marks: np.ndarray) -> float:
    """Pair energy of one configuration given as arrays (may be +inf).

    Up to ``_ENERGY_BLOCK`` pairs it is the one row of `_pair_energy_batch`.
    Above, the pairs i < j are evaluated and summed for a block of rows i at
    a time, so memory stays bounded; the blocked sum differs from the one
    sum by roundings only.
    """
    n = marks.shape[0]
    if n * (n - 1) // 2 <= _ENERGY_BLOCK:
        return float(_pair_energy_batch(model, positions[None], marks[None])[0])
    rows = max(1, _ENERGY_BLOCK // n)
    total = 0.0
    for a in range(0, n - 1, rows):
        b = min(a + rows, n - 1)
        vals = cross_phi_matrix(model, positions[a:b], marks[a:b],
                                positions[a + 1:], marks[a + 1:])
        vals = vals[np.arange(a, b)[:, None] < np.arange(a + 1, n)]
        if np.isinf(vals).any():
            return math.inf
        total += float(vals.sum())
    return total


def _interaction_sum(model: ModelSpec, positions: np.ndarray, marks: np.ndarray,
                     bpos: np.ndarray, bmarks: np.ndarray) -> float:
    if positions.shape[0] == 0 or bpos.shape[0] == 0:
        return 0.0
    cross = cross_phi_matrix(model, positions[None], marks[None],
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


def _exp_of(values: np.ndarray) -> np.ndarray:
    """``math.exp`` of each entry, evaluated once per distinct value, so a
    batch of rows keeps the bits of the scalar path."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([math.exp(v) for v in distinct.tolist()])[inverse]


def _boundary_inflation(model: ModelSpec, region: Box, bpos: np.ndarray,
                        bmask: np.ndarray) -> np.ndarray:
    """Stability constants B' covering both the pair energy and the boundary
    term, one per row of (K, B, d) boundary positions whose real entries
    ``bmask`` (K, B) marks.

    The pair bound phi >= -2B gives -W(point, boundary) <= 2B * (number of
    boundary points that can interact), which is the collar count for
    finite-range potentials.
    """
    near = bmask
    rng_r = model.potential.range_R
    if rng_r is not None and bmask.size:
        near = bmask & region.expand(rng_r).contains_batch(bpos)
    return model.potential.stability_B * (1.0 + 2.0 * near.sum(axis=-1))


def _proposal_rates(model: ModelSpec, region: Box, bpos: np.ndarray,
                    bmask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B' and the Poisson mean lambda = z e^{beta B'} |region| of the inflated
    proposal law, one per row of (K, B, d) boundary positions with real
    entries ``bmask`` (K, B), once every real entry is checked to lie
    outside the region and the guaranteed acceptance exp(-lambda) of the
    largest lambda to clear ``_ACCEPTANCE_FLOOR``."""
    if (bmask & region.contains_batch(bpos)).any():
        raise RegionOutOfBounds("boundary point inside the active region")
    b_prime = _boundary_inflation(model, region, bpos, bmask)
    lam = model.z * _exp_of(model.beta * b_prime) * model.mass(region)
    top = float(lam.max(initial=0.0))
    if math.exp(-top) < _ACCEPTANCE_FLOOR:
        raise AcceptanceTooLow(
            f"guaranteed acceptance exp(-{top:.3g}) below floor {_ACCEPTANCE_FLOOR}")
    return b_prime, lam


# the guaranteed acceptance exp(-lambda) the rejection sampler requires
_ACCEPTANCE_FLOOR = 1e-6


def _boundary_rows(boundary: BoundaryCondition, d: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One boundary condition as the K = 1 row of (K, B, d) positions, (K, B)
    marks and their (K, B) mask."""
    ext = boundary.exterior
    return (ext.positions_array().reshape(1, len(ext), d), ext.marks_array()[None],
            np.ones((1, len(ext)), dtype=bool))


# proposals a rejection round draws at least; a small floor, so that a few
# draws, or the last few pending rows, do not draw and weigh a large batch
_MIN_BATCH = 16


def _weighed_proposals(model: ModelSpec, region: Box, ns: np.ndarray,
                       us: np.ndarray, rng: np.random.Generator,
                       b_prime: np.ndarray, bpos: np.ndarray, bmarks: np.ndarray,
                       bmask: np.ndarray, owner: np.ndarray):
    """Draw and weigh proposals of ``ns[i]`` points each, against boundary row
    ``owner[i]`` of (R, B, d) positions, (R, B) marks, (R, B) mask and (R,)
    B' values, one group of same-size proposals at a time in increasing
    size.

    Proposal i is accepted when ``us[i]`` is below its Boltzmann weight times
    exp(-beta B' n) and no two of its points coincide; an empty proposal has
    weight 1 and is always accepted. Returns the accepted mask and, per size
    n > 0, the group's proposal indices with its (k, n, d) positions and
    (k, n) marks.

    A proposal without coinciding points whose weight times exp(-beta B' n)
    exceeds 1 (by more than 1e-12) witnesses that B' is too small, so the
    potential breaks its declared stability bound: it is a
    StabilityViolation, not an acceptance with probability 1.
    """
    lo = np.asarray(region.lower)
    hi = np.asarray(region.upper)
    d = region.dimension
    accepted = ns == 0
    groups = []
    for n in _distinct(ns[ns > 0]):
        rows = np.flatnonzero(ns == n)
        k = rows.size
        pos = lo + rng.random((k, n, d)) * (hi - lo)
        marks = model.marks.sample(rng, k * n).reshape(k, n)
        own = owner[rows]
        weights = boltzmann_weight_batch(model, pos, marks, bpos[own], bmarks[own],
                                         bmask[own])
        iu, ju = upper_pairs(n)
        collision = (pos[:, iu] == pos[:, ju]).all(axis=-1).any(axis=-1)
        ratio = weights * _exp_of(-model.beta * b_prime[own] * n)
        broken = np.flatnonzero((ratio > 1.0 + 1e-12) & ~collision)
        if broken.size:
            g = int(broken[0])
            raise StabilityViolation(
                f"a {n}-point proposal has weight {float(weights[g])!r} above "
                f"exp(beta B' n) for B' = {float(b_prime[own[g]])!r}: the declared "
                f"stability bound B = {model.potential.stability_B!r} does not hold",
                witness=canonicalize(MarkedPoint(tuple(p), m) for p, m in
                                     zip(pos[g].tolist(), marks[g].tolist())))
        accepted[rows] = (us[rows] < ratio) & ~collision
        groups.append((rows, pos, marks))
    return accepted, groups


def _stream_of(pieces: list, count: int, d: int) -> SampleStream:
    """The canonical stream of ``count`` samples given as pieces
    ``(samples, positions, marks)``: sample ``samples[j]`` holds row j of the
    piece's (k, n, d) positions and (k, n) marks. A sample in no piece is
    empty. Each sample's rows are sorted with one `canonical_rows` gather."""
    counts = np.zeros(count, dtype=np.intp)
    for samples, _, marks in pieces:
        counts[samples] = marks.shape[1]
    starts = np.cumsum(counts) - counts
    positions = np.empty((int(counts.sum()), d))
    flat_marks = np.empty(positions.shape[0])
    for samples, pos, marks in pieces:
        rows = (starts[samples, None] + np.arange(marks.shape[1])).ravel()
        positions[rows] = pos.reshape(-1, d)
        flat_marks[rows] = marks.ravel()
    return SampleStream.from_arrays(counts, positions, flat_marks).canonical()


def _rejection_draws(model: ModelSpec, region: Box, bpos: np.ndarray,
                     bmarks: np.ndarray, bmask: np.ndarray, need: np.ndarray,
                     rng: np.random.Generator) -> SampleStream:
    """``need[r]`` exact draws from the finite-volume specification under
    boundary row r of (K, B, d) positions, (K, B) marks and (K, B) mask, as
    one stream in row order. Proposals are marked Poisson at the row's
    inflated activity z e^{beta B'}, accepted with probability
    exp(-beta E_region) e^{-beta B' n} <= 1, so the law is exact. Each round
    every pending row makes max(ceil(``_MIN_BATCH`` / pending rows),
    int(1.5 * its missing draws)) proposals and keeps its first missing
    accepted ones in proposal order: its draws stay an i.i.d. sample.
    """
    b_prime, lam = _proposal_rates(model, region, bpos, bmask)
    left = need.copy()  # draws each row still misses
    nxt = np.cumsum(need) - need  # each row's next sample index
    pieces = []
    pending = np.flatnonzero(left > 0)
    while pending.size:
        owner = np.repeat(pending, np.maximum(-(-_MIN_BATCH // pending.size),
                                              (1.5 * left[pending]).astype(np.intp)))
        # one mean for every pending row draws as a scalar: the same draws
        # without a broadcast over the proposals
        lam0 = lam[pending[0]]
        ns = (rng.poisson(lam0, size=owner.size) if (lam[pending] == lam0).all()
              else rng.poisson(lam[owner]))
        us = rng.random(owner.size)
        accepted, groups = _weighed_proposals(model, region, ns, us, rng, b_prime,
                                              bpos, bmarks, bmask, owner)
        first = np.flatnonzero(accepted)
        own = owner[first]
        # each accepted proposal's rank among its row's accepted ones
        rank = np.arange(first.size) - np.searchsorted(own, own)
        take = rank < left[own]
        own = own[take]
        sample = np.full(owner.size, -1)
        sample[first[take]] = nxt[own] + rank[take]
        for rows, pos, marks in groups:
            which = sample[rows] >= 0
            pieces.append((sample[rows[which]], pos[which], marks[which]))
        got = np.bincount(own, minlength=need.size)
        nxt += got
        left -= got
        pending = pending[left[pending] > 0]
    return _stream_of(pieces, int(need.sum()), region.dimension)


def rejection_sample_batch(model: ModelSpec, region: Box,
                           boundary: BoundaryCondition, count: int,
                           rng: np.random.Generator) -> SampleStream:
    """``count`` exact draws under one boundary condition, as a stream of
    canonical configurations: `_rejection_draws` on one row, so each round
    proposes at least ``_MIN_BATCH`` and 1.5 times the draws still missing.
    """
    bpos, bmarks, bmask = _boundary_rows(boundary, region.dimension)
    return _rejection_draws(model, region, bpos, bmarks, bmask,
                            np.array([count], dtype=np.intp), rng)


def rejection_sample_rows(model: ModelSpec, region: Box, bpos: np.ndarray,
                          bmarks: np.ndarray, bmask: np.ndarray,
                          rng: np.random.Generator) -> SampleStream:
    """One exact draw from the finite-volume specification per row of a batch
    of boundary conditions: (K, B, d) positions and (K, B) marks whose real
    entries ``bmask`` (K, B) marks. Returns the K draws as a stream, in row
    order.

    `_rejection_draws` with one draw per row: each row has its own B' and
    lambda, and each round every pending row makes ceil(``_MIN_BATCH`` /
    pending rows) proposals and keeps the first one it accepts.
    """
    return _rejection_draws(model, region, bpos, bmarks, bmask,
                            np.ones(bmarks.shape[0], dtype=np.intp), rng)


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


# lags whose sums _tau_int takes first; it doubles them until the cut
_TAU_LAGS = 64
# values per chunk of _lag_sums' block transforms (128 KiB of float64)
_TAU_CHUNK = 1 << 14


def _lag_sums(x: np.ndarray, lags: int) -> np.ndarray:
    """sum_t x[t] x[t + lag] for every lag below ``lags``, from transforms of
    size 2 * lags, a chunk of blocks at a time.

    Block b is x[b L:(b + 1) L] for L = ``lags``, zero-padded to 2L. Its
    correlation with x[b L:(b + 2) L] has no wrapped term below lag L, and
    the spectrum of that window is X_b + (-1)^k X_{b+1}, so one transform
    per block serves both.
    """
    n = x.size
    blocks = -(-n // lags)
    per_chunk = max(1, _TAU_CHUNK // lags)
    sign = (-1.0) ** np.arange(lags + 1)
    total = np.zeros(lags + 1, dtype=complex)
    for first in range(0, blocks, per_chunk):
        last = min(first + per_chunk, blocks)
        # this chunk's blocks and the next one, zero-padded past the series
        window = np.zeros((last - first + 1) * lags)
        part = x[first * lags:(last + 1) * lags]
        window[:part.size] = part
        spectra = np.fft.rfft(window.reshape(-1, lags), 2 * lags, axis=1)
        total += (spectra[:-1].conj() * (spectra[:-1] + sign * spectra[1:])).sum(axis=0)
    return np.fft.irfft(total, 2 * lags)[:lags]


def _tau_int(series: np.ndarray) -> float:
    """Integrated autocorrelation time by the initial-positive-sequence rule.

    The lag sums are taken for the lags below L, starting from L =
    ``_TAU_LAGS`` and doubling L until a lag's autocorrelation is <= 0 or L
    reaches n // 2, so the transforms' memory follows the cut, not n.
    """
    n = series.size
    if n < 8:
        return 1.0
    x = series - series.mean()
    var = float(np.dot(x, x)) / n
    if var == 0.0:
        return 1.0
    lags = _TAU_LAGS
    while True:
        lags = min(lags, n // 2)
        k = np.arange(1, lags)
        rho = _lag_sums(x, lags)[1:] / ((n - k) * var)
        # the initial positive sequence: the lags before the first rho <= 0
        cut = np.flatnonzero(rho <= 0)
        if cut.size or lags == n // 2:
            return 1.0 + 2.0 * float(rho[:cut[0] if cut.size else rho.size].sum())
        lags *= 2


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
# sweeps whose randoms mcmc_run draws at once; fixed, not cut to the sweeps
# left, so a chain of N sweeps is a prefix of a longer one with the same seed
_DRAW_BLOCK = 256
# the pair values of a point with an empty block of rows
_NO_VALUES = np.zeros(0)
_NO_VALUES.flags.writeable = False


def _energy_of(values: np.ndarray) -> float:
    """Sum of pair values, +inf if any is: a pair value is finite or +inf,
    so the one sum is +inf exactly when a value is. No values sum to 0.0."""
    return float(values.sum()) if values.size else 0.0


def mcmc_run(model: ModelSpec, region: Box, boundary: BoundaryCondition,
             sampler: SamplerConfig, stream: SampleStream | None = None
             ) -> ChainStats:
    """Metropolis-Hastings chain targeting the finite-volume specification.

    Birth, death, move, and mark-resample proposals with the standard
    grand-canonical acceptance ratios; detailed balance holds w.r.t. the
    specification. A move and a mark resample each draw a candidate for one
    point and share one Metropolis replace step. Reproducible for a fixed
    config.

    The randoms are drawn for ``_DRAW_BLOCK`` sweeps at a time, one generator
    call each: per sweep a kind, an index and an accept uniform, a birth
    position, a move offset and a proposal mark, whether the sweep uses them
    or not. The block size does not depend on the sweeps left, so a chain of
    N sweeps is an exact prefix of a longer chain with the same seed.

    The state is one block of (d + 1)-wide rows, a position and a mark each:
    rows ``:nb`` are the boundary and rows ``nb:nb + n`` the n state points
    in chain order. The block doubles when the state outgrows it. The pair
    cache ``table`` is (cap, nb + cap): row i holds state point i's values
    with every row of the block, 0.0 with itself, which is the row one
    potential call returns for a proposal. A birth, move or mark proposal
    evaluates the potential once, against all rows. An accepted birth
    appends its row; an accepted replace step stores the candidate's row,
    its entry against the point it replaces zeroed. Each store writes the
    transpose too (the potential is symmetric). A death moves the last state
    row into the hole: one row copy, one column copy and a zero on the
    diagonal. A death's delta and a replace step's old value are sums over
    ``table[i, :nb + n]``. A state that would make the table outgrow
    ``_CACHE_VALUES`` drops it for the rest of the chain, which then
    evaluates the same row, zeroed the same way, with one potential call, so
    both paths sum the same values in the same order. A birth onto a state
    position is a null proposal; the state's positions are kept as a
    multiset of tuples, so the test is one lookup (tuples compare as numpy
    does, -0.0 equal to 0.0).

    The energy is tracked incrementally from the local energy of each
    accepted proposal. It is recomputed from scratch, without the cache, at
    kept states 1, 2, 4, 8, ... and at the end, and checked against the last
    point's local energy whenever the chain empties (a cached one catches a
    cache that lost track of the values the energy added); a gap above
    1e-9 * max(1, |E|) raises EnergyDrift.

    A kept state is one copy of its rows into a buffer of kept rows, which
    is flushed whenever it holds about ``_FLUSH_PAIRS`` points plus pairs,
    once after the chain and before an error leaves it: each flush adds the
    rows to the pair histogram, one group of same-size states at a time, and
    to ``stream`` when one is given, so memory stays bounded on long chains
    and the stream holds every state kept before an EnergyDrift.
    """
    boundary.validate_for(region)
    rng = philox_rng(sampler.seed)
    beta = model.beta
    z_mass = model.z * model.mass(region)
    p_birth, p_death = sampler.p_birth, sampler.p_death
    lo = np.asarray(region.lower)
    hi = np.asarray(region.upper)
    bounds = list(zip(region.lower, region.upper))
    d = region.dimension
    periodic = model.space.boundary == "periodic"
    sides = np.asarray(model.space.side_lengths)
    step = sampler.move_step
    if step is None:
        step = 0.1 * float((hi - lo).min())
    bpos = boundary.exterior.positions_array().reshape(-1, d)
    bmarks = boundary.exterior.marks_array()
    nb = bmarks.size
    # rows :nb of the block are the boundary, rows nb:nb + n the state
    n = 0
    cap = _STATE_CAPACITY
    block = np.empty((nb + cap, d + 1))
    block[:nb, :d], block[:nb, d] = bpos, bmarks
    pts, mks = block[:, :d], block[:, d]
    taken: dict[tuple, int] = {}  # how many state points sit at each position
    table = np.empty((cap, nb + cap)) if cap * (nb + cap) <= _CACHE_VALUES else None
    attempts = np.zeros(len(_KINDS), dtype=np.intp)
    accepts = [0] * len(_KINDS)
    counts = []
    energies = []
    pair_bins = _pair_bins(region)
    pair_counts = np.zeros(len(pair_bins) - 1)
    kept = bytearray()  # rows of the kept states not yet flushed
    flushed = 0  # kept states already flushed
    pending = 0  # points plus pairs in kept

    def flush() -> None:
        nonlocal pair_counts, kept, flushed, pending
        rows = np.frombuffer(kept).reshape(-1, d + 1)
        new = counts[flushed:]
        pair_counts += _pair_histogram(model, pair_bins, np.asarray(new), rows[:, :d])
        if stream is not None:
            stream.extend(new, rows[:, :d], rows[:, d])
        kept, flushed, pending = bytearray(), len(counts), 0

    def cross_row(pos: np.ndarray, mark: np.ndarray) -> np.ndarray:
        """Pair values of one point, given as (1, d) and (1,) arrays, with
        every row of the block."""
        if not nb + n:
            return _NO_VALUES
        return cross_phi_matrix(model, pos, mark, pts[:nb + n], mks[:nb + n])[0]

    def held(idx: int) -> np.ndarray:
        """State point idx's values with every row, 0.0 with itself."""
        if table is not None:
            return table[idx, :nb + n]
        row = cross_row(pts[nb + idx:nb + idx + 1], mks[nb + idx:nb + idx + 1])
        row[nb + idx] = 0.0
        return row

    def store(idx: int, row: np.ndarray) -> None:
        """Row idx of the table and its transpose, from state point idx's
        values with the first row.size rows."""
        table[idx, :row.size] = row
        table[:row.size - nb, nb + idx] = row[nb:]

    def leave(key: tuple) -> None:
        """One state point fewer at position key."""
        if taken[key] == 1:
            del taken[key]
        else:
            taken[key] -= 1

    def check_state() -> None:
        state_pts, state_mks = pts[nb:nb + n], mks[nb:nb + n]
        _check_energy(energy, _config_energy_arrays(model, state_pts, state_mks)
                      + _interaction_sum(model, state_pts, state_mks, bpos, bmarks))

    # The chain starts empty and rejects every proposal into infinite energy,
    # so the state energy, a death's delta and a replace step's old value
    # are always finite.
    energy = 0.0
    thresholds = np.cumsum([p_birth, p_death, sampler.p_move])
    next_keep = sampler.burn_in  # the next sweep whose state is kept
    next_check = 1  # the next kept state whose energy is recomputed
    try:
        for first in range(0, sampler.sweeps, _DRAW_BLOCK):
            u_kinds, u_indices, u_accepts = rng.random((_DRAW_BLOCK, 3)).T
            births = lo + rng.random((_DRAW_BLOCK, d)) * (hi - lo)
            offsets = (rng.random((_DRAW_BLOCK, d)) - 0.5) * 2.0 * step
            new_marks = model.marks.sample(rng, _DRAW_BLOCK)
            # 0 birth, 1 death, 2 move, 3 mark: where each uniform falls among
            # the thresholds, a value equal to one counting as above it
            kinds = np.searchsorted(thresholds, u_kinds, side="right")
            used = min(_DRAW_BLOCK, sampler.sweeps - first)
            attempts += np.bincount(kinds[:used], minlength=len(_KINDS))
            kinds, u_indices = kinds.tolist(), u_indices.tolist()
            u_accepts = u_accepts.tolist()
            birth_keys = list(map(tuple, births.tolist()))
            for j, sweep in enumerate(range(first, first + used)):
                kind = kinds[j]
                u_accept = u_accepts[j]
                if kind == 0:
                    key = birth_keys[j]
                    # an exact position collision is a null proposal
                    if key not in taken:
                        row = cross_row(births[j:j + 1], new_marks[j:j + 1])
                        delta = _energy_of(row)
                        ratio = (z_mass / (n + 1)) * \
                            (0.0 if math.isinf(delta) else math.exp(-beta * delta))
                        if u_accept < min(1.0, ratio * p_death / p_birth):
                            if n == cap:
                                cap *= 2
                                block = _grown(block, nb + n, nb + cap)
                                pts, mks = block[:, :d], block[:, d]
                                if table is not None and cap * (nb + cap) <= _CACHE_VALUES:
                                    grown = np.empty((cap, nb + cap))
                                    grown[:n, :nb + n] = table[:n, :nb + n]
                                    table = grown
                                else:
                                    table = None
                            pts[nb + n], mks[nb + n] = births[j], new_marks[j]
                            taken[key] = taken.get(key, 0) + 1
                            if table is not None:
                                store(n, row)
                                table[n, nb + n] = 0.0
                            n += 1
                            energy += delta
                            accepts[0] += 1
                elif kind == 1 and n > 0:
                    idx = min(int(u_indices[j] * n), n - 1)
                    delta = float(held(idx).sum())
                    ratio = (n / z_mass) * math.exp(beta * delta)
                    if u_accept < min(1.0, ratio * p_birth / p_death):
                        leave(tuple(pts[nb + idx].tolist()))
                        # the last state row moves into the hole
                        n -= 1
                        block[nb + idx] = block[nb + n]
                        if table is not None:
                            table[idx, :nb + n] = table[n, :nb + n]
                            table[:n, nb + idx] = table[:n, nb + n]
                            table[idx, nb + idx] = 0.0
                        if n == 0:
                            # the last point's local energy is the whole state energy
                            _check_energy(energy, delta)
                        energy = energy - delta if n else 0.0
                        accepts[1] += 1
                elif kind > 1 and n > 0:
                    idx = min(int(u_indices[j] * n), n - 1)
                    new_pos, new_mark = pts[nb + idx:nb + idx + 1], mks[nb + idx:nb + idx + 1]
                    if kind == 2:
                        new_pos = new_pos + offsets[j]
                        if periodic:
                            new_pos = np.mod(new_pos, sides)
                    else:
                        new_mark = new_marks[j:j + 1]
                    coords = new_pos[0].tolist()
                    # a move out of the region is a null proposal
                    if all(l <= x < u for x, (l, u) in zip(coords, bounds)):
                        # entry nb + idx of the candidate's row pairs it with the
                        # point it replaces; neither energy counts it
                        row = cross_row(new_pos, new_mark)
                        row[nb + idx] = 0.0
                        old = float(held(idx).sum())
                        new = _energy_of(row)
                        log_ratio = -math.inf if math.isinf(new) else -beta * (new - old)
                        if math.log(max(u_accept, 1e-300)) < log_ratio:
                            if kind == 2:
                                leave(tuple(pts[nb + idx].tolist()))
                                key = tuple(coords)
                                taken[key] = taken.get(key, 0) + 1
                            pts[nb + idx], mks[nb + idx] = new_pos[0], new_mark[0]
                            if table is not None:
                                store(idx, row)
                            energy += new - old
                            accepts[kind] += 1

                if sweep == next_keep:
                    next_keep += sampler.thinning
                    counts.append(n)
                    energies.append(energy)
                    if n:
                        kept += block[nb:nb + n].tobytes()
                        pending += n * (n + 1) // 2
                        if pending >= _FLUSH_PAIRS:
                            flush()
                    if len(counts) == next_check:  # kept states 1, 2, 4, ...
                        next_check *= 2
                        check_state()

        check_state()
    finally:
        flush()
    return _chain_stats(model, region, np.asarray(counts, dtype=float),
                        np.asarray(energies, dtype=float), pair_bins, pair_counts,
                        iid=False, sweeps=sampler.sweeps, burn_in=sampler.burn_in,
                        thinning=sampler.thinning,
                        attempts=dict(zip(_KINDS, attempts.tolist())),
                        accepts=dict(zip(_KINDS, accepts)))


def summarize_samples(samples: SampleStream | Sequence[FiniteConfiguration],
                      model: ModelSpec, region: Box) -> ChainStats:
    """ChainStats-shaped summary for i.i.d. samples (tau = 1).

    ``samples`` is a SampleStream or a sequence of configurations, which is
    summarized as its stream. Pair histogram and pair energies are computed
    per group of same-size samples, each energy summed over the pairs of the
    sample's rows in stream order (canonical for the samplers' and
    `read_sample_file`'s streams). At least 2 samples are needed for a
    standard error; a sample with an infinite pair energy (which the samplers
    never emit) is a ValueError.
    """
    k = len(samples)
    if k < 2:
        raise ValueError("summarize_samples needs at least 2 samples")
    stream = samples if isinstance(samples, SampleStream) else \
        SampleStream.from_configurations(samples, region.dimension)
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
    inner region conditionally on each draw's own exterior, every draw in one
    `rejection_sample_rows` batch on the same generator. The statistic,
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
    inner_counts, bpos, bmarks, bmask = _split_exteriors(draws, inner_region)
    resampled = rejection_sample_rows(model, inner_region, bpos, bmarks, bmask, rng)
    diffs = (resampled.counts - inner_counts).astype(float)

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


def _split_exteriors(draws: SampleStream, region: Box):
    """Each draw's count of points inside ``region``, and its points outside
    (its exterior), in row order, padded into (K, nb, d) positions and (K, nb)
    marks with a (K, nb) mask of the real entries; nb is the largest exterior.
    """
    counts = draws.counts
    owner = np.repeat(np.arange(counts.size), counts)
    inside = region.contains_batch(draws.positions)
    inner = np.bincount(owner[inside], minlength=counts.size)
    outer = counts - inner
    rows = np.flatnonzero(~inside)
    # each exterior row's column: its rank among its draw's exterior rows
    cols = np.arange(rows.size) - (np.cumsum(outer) - outer)[owner[rows]]
    shape = (counts.size, int(outer.max(initial=0)))
    bpos = np.zeros(shape + (draws.dimension,))
    bmarks = np.zeros(shape)
    bmask = np.zeros(shape, dtype=bool)
    bpos[owner[rows], cols] = draws.positions[rows]
    bmarks[owner[rows], cols] = draws.marks[rows]
    bmask[owner[rows], cols] = True
    return inner, bpos, bmarks, bmask


def collar_locality_trials(model: ModelSpec, region: Box, trials: int = 1000,
                           seed: int = 0) -> int:
    """Exact locality: perturbing the boundary outside the range collar leaves
    the specification weight bit-identical. Returns the violation count. A
    far point has no image in the unclipped ``region.expand(range_R)``; on a
    periodic box its shifts by +-side count as images. Near points are drawn
    in the collar: on a free box the expanded region clipped to the box, on a
    periodic box the unclipped one, each draw wrapped into the box, so that
    points in range across the wrap are drawn too."""
    rng_r = model.potential.range_R
    if rng_r is None:
        raise RequiresFiniteRange("locality check needs a finite-range potential")
    rng = philox_rng(seed, 23)
    space_box = model.space.box
    periodic = model.space.boundary == "periodic"
    reach = region.expand(rng_r)
    collar = reach if periodic else reach.clip_to(space_box)
    wraps = (-1.0, 0.0, 1.0) if periodic else (0.0,)
    axes = list(zip(reach.lower, reach.upper, model.space.side_lengths))
    violations = 0
    for _ in range(trials):
        candidate = poisson_sample(model, region, rng)
        near = []
        for _ in range(int(rng.integers(0, 3))):
            pos = np.asarray(collar.lower) + rng.random(region.dimension) * (
                np.asarray(collar.upper) - np.asarray(collar.lower))
            if periodic:
                pos = np.mod(pos, model.space.side_lengths)
            if not region.contains_point(tuple(pos)):
                near.append(MarkedPoint(tuple(pos), float(model.marks.sample(rng, 1)[0])))
        far = []
        for _ in range(int(rng.integers(1, 4))):
            pos = np.asarray(space_box.lower) + rng.random(region.dimension) * (
                np.asarray(space_box.upper) - np.asarray(space_box.lower))
            if not all(any(lo <= x + k * side < hi for k in wraps)
                       for x, (lo, hi, side) in zip(pos.tolist(), axes)):
                far.append(MarkedPoint(tuple(pos), float(model.marks.sample(rng, 1)[0])))
        base = specification_weight(candidate, BoundaryCondition(
            canonicalize(near)), model, region)
        perturbed = specification_weight(candidate, BoundaryCondition(
            canonicalize(near + far)), model, region)
        if base != perturbed:
            violations += 1
    return violations


# samples write_sample_file formats at a time
_SPILL_BLOCK = 1024


def _texts_of(values: np.ndarray, text) -> np.ndarray:
    """``text`` of each entry, as an object array, evaluated once per
    distinct bit pattern (so -0.0 and 0.0 keep their own text)."""
    distinct, inverse = np.unique(values.view(f"u{values.itemsize}"),
                                  return_inverse=True)
    return np.array([text(v) for v in distinct.view(values.dtype).tolist()],
                    dtype=object)[inverse]


def write_sample_file(path, samples: SampleStream | Sequence[FiniteConfiguration],
                      dimension: int):
    """Line-delimited sample spill: count then per-point coordinates and mark,
    each sample's points in canonical order. ``samples`` is a SampleStream or
    a sequence of configurations, which is written as its stream.

    A block of ``_SPILL_BLOCK`` samples is written with one join, each
    distinct count and value of the block formatted once (``str`` of the
    count, ``repr`` of each value)."""
    if not isinstance(samples, SampleStream):
        samples = SampleStream.from_configurations(samples, dimension)
    if samples.dimension != dimension:
        raise ValueError(f"a {samples.dimension}-d stream written as d={dimension}")
    order = samples.canonical_rows()
    width = dimension + 1
    counts = samples.counts
    offsets = np.concatenate([[0], np.cumsum(counts)])
    with open(path, "w") as fh:
        fh.write(f"# markedgibbs-samples v1 d={dimension}\n")
        # one block of samples at a time, so no text of every value is built
        for first in range(0, counts.size, _SPILL_BLOCK):
            last = min(first + _SPILL_BLOCK, counts.size)
            rows = order[offsets[first]:offsets[last]]
            values = np.column_stack([samples.positions[rows],
                                      samples.marks[rows]]).ravel()
            sizes = counts[first:last] * width
            # each line is its count's token, "\n<count>", then one " <value>"
            # token per value
            heads = np.cumsum(sizes) - sizes + np.arange(last - first)
            tokens = np.empty(heads.size + values.size, dtype=object)
            tokens[heads] = _texts_of(counts[first:last], "\n{}".format)
            body = np.ones(tokens.size, dtype=bool)
            body[heads] = False
            tokens[body] = _texts_of(values, " {!r}".format)
            fh.write("".join(tokens.tolist())[1:] + "\n")


def read_sample_file(path) -> SampleStream:
    """Inverse of write_sample_file, as a stream whose samples' rows are in
    canonical order. A header that is not
    ``# markedgibbs-samples v1 d=<integer >= 1>``, or a line that is not a
    count n followed by n(d+1) finite numbers, is a ValueError that names
    its line; a sample with coinciding positions is a DuplicatePosition
    error."""
    counts, values = [], []
    with open(path) as fh:
        header = re.fullmatch(r"# markedgibbs-samples v1 d=([1-9][0-9]*)",
                              fh.readline().strip())
        if header is None:
            raise ValueError("sample file line 1 is not the header "
                             "'# markedgibbs-samples v1 d=<integer >= 1>'")
        d = int(header[1])
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not (parts and parts[0].isdecimal()
                    and len(parts) == 1 + int(parts[0]) * (d + 1)):
                raise ValueError(f"sample file line {lineno} is not a count n "
                                 f"followed by n*{d + 1} values")
            try:
                row = [float(x) for x in parts[1:]]
            except ValueError:
                raise ValueError(f"sample file line {lineno} holds a value that "
                                 f"is not a number") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"sample file line {lineno} holds a NaN or an infinity")
            counts.append(int(parts[0]))
            values.extend(row)
    flat = np.asarray(values, dtype=float).reshape(-1, d + 1)
    return SampleStream.from_arrays(counts, flat[:, :d], flat[:, d]).canonical()
