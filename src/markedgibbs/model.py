"""Domain types: boxes, mark spaces, marked points, finite configurations, model specs.

All types are immutable values after construction and safe to share across
parallel workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import DuplicatePosition, RegionOutOfBounds

if TYPE_CHECKING:  # pragma: no cover
    from .potential import PairPotential


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, half-open on each axis: [lower_i, upper_i)."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower/upper dimension mismatch")
        if any(u <= l for l, u in zip(self.lower, self.upper)):
            raise ValueError("box sides must have positive length")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def volume(self) -> float:
        return math.prod(u - l for l, u in zip(self.lower, self.upper))

    def contains_point(self, position: Sequence[float]) -> bool:
        return all(l <= x < u for x, l, u in zip(position, self.lower, self.upper))

    def contains_box(self, other: "Box") -> bool:
        return all(l <= ol and ou <= u for l, u, ol, ou in
                   zip(self.lower, self.upper, other.lower, other.upper))

    def expand(self, margin: float) -> "Box":
        return Box(tuple(l - margin for l in self.lower),
                   tuple(u + margin for u in self.upper))

    def clip_to(self, outer: "Box") -> "Box":
        return Box(tuple(max(l, ol) for l, ol in zip(self.lower, outer.lower)),
                   tuple(min(u, ou) for u, ou in zip(self.upper, outer.upper)))

    def contains_batch(self, positions: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (..., d) array of positions."""
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return np.all((positions >= lo) & (positions < hi), axis=-1)


@dataclass(frozen=True)
class PositionSpace:
    """Rectangular position box with free or periodic boundary."""

    dimension: int
    side_lengths: tuple[float, ...]
    boundary: str = "free"  # "free" | "periodic"

    def __post_init__(self):
        if self.dimension < 1 or len(self.side_lengths) != self.dimension:
            raise ValueError("side_lengths must match the dimension")
        if any(s <= 0 for s in self.side_lengths):
            raise ValueError("side lengths must be strictly positive")
        if self.boundary not in ("free", "periodic"):
            raise ValueError("boundary must be 'free' or 'periodic'")

    @property
    def box(self) -> Box:
        return Box((0.0,) * self.dimension, tuple(self.side_lengths))

    @property
    def volume(self) -> float:
        return math.prod(self.side_lengths)

    def distance(self, a: Sequence[float], b: Sequence[float]) -> float:
        acc = 0.0
        for x, y, side in zip(a, b, self.side_lengths):
            d = abs(x - y)
            if self.boundary == "periodic":
                d = min(d, side - d)
            acc += d * d
        return math.sqrt(acc)

    def distance_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pairwise metric for broadcastable (..., d) position arrays."""
        delta = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        if self.boundary == "periodic":
            sides = np.asarray(self.side_lengths)
            delta = np.minimum(delta, sides - delta)
        return np.sqrt(np.sum(delta * delta, axis=-1))


@dataclass(frozen=True)
class MarkSpace:
    """Mark space with a finite measure: discrete weights, a circle, or an interval.

    The kernel is position-independent; ``total_mass`` is the full measure of
    the mark space.
    """

    kind: str  # "discrete" | "circle" | "interval"
    labels: tuple[float, ...] | None = None
    weights: tuple[float, ...] | None = None
    mass: float | None = None
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        if self.kind == "discrete":
            if not self.labels or not self.weights or len(self.labels) != len(self.weights):
                raise ValueError("discrete marks need matching labels and weights")
            if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
                raise ValueError("discrete weights must be nonnegative with positive sum")
            # the cumulative weights, built as numpy's Generator.choice builds them
            cdf = (np.asarray(self.weights) / self.total_mass).cumsum()
            cdf /= cdf[-1]
            object.__setattr__(self, "_labels_cdf", (np.asarray(self.labels), cdf))
        elif self.kind == "circle":
            if self.mass is None or self.mass <= 0:
                raise ValueError("circle marks need a positive total mass")
        elif self.kind == "interval":
            if self.lower is None or self.upper is None or self.upper <= self.lower:
                raise ValueError("interval marks need lower < upper")
            if self.mass is None or self.mass <= 0:
                raise ValueError("interval marks need a positive total mass")
        else:
            raise ValueError(f"unknown mark kind {self.kind!r}")

    @staticmethod
    def discrete(labels: Sequence[float], weights: Sequence[float]) -> "MarkSpace":
        return MarkSpace(kind="discrete", labels=tuple(float(x) for x in labels),
                         weights=tuple(float(w) for w in weights))

    @staticmethod
    def circle(mass: float = 1.0) -> "MarkSpace":
        return MarkSpace(kind="circle", mass=float(mass))

    @staticmethod
    def interval(lower: float, upper: float, mass: float = 1.0) -> "MarkSpace":
        """Uniform density mass/(upper-lower) on [lower, upper]."""
        return MarkSpace(kind="interval", lower=float(lower), upper=float(upper),
                         mass=float(mass))

    @property
    def total_mass(self) -> float:
        if self.kind == "discrete":
            return float(sum(self.weights))
        return float(self.mass)

    def contains(self, mark: float) -> bool:
        """Whether ``mark`` is a point of the space: one of the discrete
        labels, a finite angle on the circle, or a value in [lower, upper]."""
        if self.kind == "discrete":
            return mark in self.labels
        if self.kind == "circle":
            return math.isfinite(mark)
        return self.lower <= mark <= self.upper

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw marks from the normalized mark measure (discrete: inverse CDF)."""
        if self.kind == "discrete":
            labels, cdf = self._labels_cdf
            return labels[cdf.searchsorted(rng.random(size), side="right")]
        if self.kind == "circle":
            return rng.uniform(0.0, 2.0 * math.pi, size=size)
        return rng.uniform(self.lower, self.upper, size=size)


@dataclass(frozen=True, order=True)
class MarkedPoint:
    """A position together with a scalar mark."""

    position: tuple[float, ...]
    mark: float = field(compare=False, default=0.0)

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(x) for x in self.position))
        object.__setattr__(self, "mark", float(self.mark))


@dataclass(frozen=True)
class FiniteConfiguration:
    """Finite set of marked points, canonically ordered by position.

    Use :func:`canonicalize` to build one from unordered points; the
    constructor trusts its input ordering.
    """

    points: tuple[MarkedPoint, ...] = ()

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> MarkedPoint:
        return self.points[i]

    @property
    def is_empty(self) -> bool:
        return not self.points

    def positions_array(self) -> np.ndarray:
        if not self.points:
            return np.zeros((0, 0))
        return np.asarray([p.position for p in self.points], dtype=float)

    def marks_array(self) -> np.ndarray:
        return np.asarray([p.mark for p in self.points], dtype=float)

    def subset(self, indices: Iterable[int]) -> "FiniteConfiguration":
        idx = sorted(set(indices))
        return FiniteConfiguration(tuple(self.points[i] for i in idx))

    def union(self, other: "FiniteConfiguration") -> "FiniteConfiguration":
        return canonicalize(self.points + other.points)

    def position_set(self) -> set[tuple[float, ...]]:
        return {p.position for p in self.points}


def canonicalize(points: Iterable[MarkedPoint]) -> FiniteConfiguration:
    """Sort points by position and reject coinciding positions.

    Idempotent and insensitive to input order; realizes the permutation
    quotient of tuple spaces by a fixed lexicographic representative.
    """
    ordered = sorted(points, key=lambda p: p.position)
    for a, b in zip(ordered, ordered[1:]):
        if a.position == b.position:
            raise DuplicatePosition(f"coinciding position {a.position}")
    return FiniteConfiguration(tuple(ordered))


def restrict(config: FiniteConfiguration, region: Box,
             space: PositionSpace | None = None) -> FiniteConfiguration:
    """Keep exactly the points whose position lies in ``region``."""
    if space is not None and not space.box.contains_box(region):
        raise RegionOutOfBounds(f"region {region} not inside the model box")
    kept = tuple(p for p in config.points if region.contains_point(p.position))
    return FiniteConfiguration(kept)


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to define the reference measure and the Gibbs weights.

    ``potential`` is a :class:`markedgibbs.potential.PairPotential` built on the
    same position space.
    """

    space: PositionSpace
    marks: MarkSpace
    potential: "PairPotential"
    z: float
    beta: float

    def __post_init__(self):
        if not 0 < self.z < math.inf:  # False for NaN too
            raise ValueError(f"activity z must be finite and positive, got {self.z}")
        if not 0 < self.beta < math.inf:
            raise ValueError(
                f"inverse temperature beta must be finite and positive, got {self.beta}")
        if not math.isfinite(self.space.volume * self.marks.total_mass):
            raise ValueError("reference mass must be finite")

    def mass(self, region: Box | None = None) -> float:
        """Reference measure of region x marks (volume times mark mass)."""
        box = region if region is not None else self.space.box
        return box.volume * self.marks.total_mass

    def replace(self, **kwargs) -> "ModelSpec":
        from dataclasses import replace as _replace
        return _replace(self, **kwargs)
