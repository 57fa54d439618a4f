"""Commutative star-algebra of functionals on sub-configurations of a finite ground.

A functional assigns a real to every subset of {0,...,n-1}, stored densely as
a table of 2**n values indexed by bitmask. The product is the subset
convolution, its unit is the indicator of the empty set, and the exponential
and logarithm are finite sums computed by anchored subset recursion.

The production kernels `star_exp_batch`, `star_log_batch` (Ursell tables)
and `star_inverse_batch` (kbar) act on (K, 2**n) tables, one functional per
row; `star_exp` and `star_log` are their K = 1 rows. Oracles for tests:
`star_mul` (with `math.fsum`), `star_exp_series` and `star_log_series`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import GroundMismatch, NotInIdeal, NotNormalized

GROUND_SIZE_CAP = 16


def _check_ground(n: int, cap: int = GROUND_SIZE_CAP):
    if n < 0 or n > cap:
        raise ValueError(f"ground size {n} outside [0, {cap}]")


@dataclass(frozen=True, eq=False)
class ConfigFunctional:
    """Dense table of subset values on a ground of ``ground_size`` points."""

    ground_size: int
    values: np.ndarray

    def __post_init__(self):
        _check_ground(self.ground_size)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (1 << self.ground_size,):
            raise ValueError("values table must have 2**ground_size entries")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_function(ground_size: int, fn: Callable[[int], float]) -> "ConfigFunctional":
        """Tabulate fn over all bitmasks."""
        _check_ground(ground_size)
        vals = np.array([fn(mask) for mask in range(1 << ground_size)], dtype=float)
        return ConfigFunctional(ground_size, vals)

    def __call__(self, mask: int) -> float:
        return float(self.values[mask])

    def scale(self, c: float) -> "ConfigFunctional":
        return ConfigFunctional(self.ground_size, c * self.values)

    def add(self, other: "ConfigFunctional") -> "ConfigFunctional":
        if other.ground_size != self.ground_size:
            raise GroundMismatch("grounds differ")
        return ConfigFunctional(self.ground_size, self.values + other.values)


def unit(ground_size: int) -> ConfigFunctional:
    """The multiplicative unit: 1 on the empty subset, 0 elsewhere."""
    vals = np.zeros(1 << ground_size)
    vals[0] = 1.0
    return ConfigFunctional(ground_size, vals)


def indicator(ground_size: int, subset: Iterable[int]) -> ConfigFunctional:
    mask = 0
    for i in subset:
        mask |= 1 << i
    vals = np.zeros(1 << ground_size)
    vals[mask] = 1.0
    return ConfigFunctional(ground_size, vals)


def star_mul(a: ConfigFunctional, b: ConfigFunctional) -> ConfigFunctional:
    """(a*b)(S) = sum over T subset S of a(T) b(S\\T)."""
    if a.ground_size != b.ground_size:
        raise GroundMismatch("grounds differ")
    n = a.ground_size
    va, vb = a.values, b.values
    out = np.empty(1 << n)
    for s in range(1 << n):
        terms = []
        t = s
        while True:
            terms.append(va[t] * vb[s ^ t])
            if t == 0:
                break
            t = (t - 1) & s
        out[s] = math.fsum(terms)
    return ConfigFunctional(n, out)


def star_exp_batch(psi: np.ndarray) -> np.ndarray:
    """Star-exponential of each row of a (K, 2^M) table with psi[:, 0] = 0.

    Anchored recursion over the block holding the lowest index x0 of S:
    exp*(psi)(S) = sum over T subset S with x0 in T of psi(T) exp*(psi)(S\\T).
    """
    out = np.empty_like(psi, dtype=float)
    out[:, 0] = 1.0
    for mask in range(1, psi.shape[1]):
        low_bit = mask & -mask
        rest = mask ^ low_bit
        acc = psi[:, mask].copy()
        u = rest
        while u:
            u = (u - 1) & rest
            t = u | low_bit
            acc += psi[:, t] * out[:, mask ^ t]
        out[:, mask] = acc
    return out


def star_log_batch(f: np.ndarray,
                   connected: Callable[[int], np.ndarray] | None = None
                   ) -> np.ndarray:
    """Star-logarithm of each row of a (K, 2^M) table with f[:, 0] = 1.

    Anchored recursion, with x0 the lowest index of S:
    ln*(f)(S) = f(S) - sum over proper T subset S with x0 in T of
    ln*(f)(T) f(S\\T). On the Boltzmann table this is the Ursell table.
    ``connected(mask)`` says per row whether the subset is connected; where it
    is not, the value is exactly 0.0 (range-disconnected Ursell values).
    """
    out = np.zeros(f.shape)
    for mask in range(1, f.shape[1]):
        low_bit = mask & -mask
        rest = mask ^ low_bit
        acc = f[:, mask].copy()
        u = rest
        while u:
            u = (u - 1) & rest
            t = u | low_bit
            acc -= out[:, t] * f[:, mask ^ t]
        if connected is not None and rest:
            acc = np.where(connected(mask), acc, 0.0)
        out[:, mask] = acc
    return out


def star_inverse_batch(f: np.ndarray) -> np.ndarray:
    """Star-inverse of each row of a (K, 2^M) table with f[:, 0] = 1.

    inv(S) = -sum over proper subsets T of S of inv(T) f(S\\T).
    """
    out = np.empty_like(f, dtype=float)
    out[:, 0] = 1.0
    for mask in range(1, f.shape[1]):
        acc = -f[:, mask]
        t = (mask - 1) & mask
        while t:
            acc -= out[:, t] * f[:, mask ^ t]
            t = (t - 1) & mask
        out[:, mask] = acc
    return out


def star_exp(psi: ConfigFunctional) -> ConfigFunctional:
    """Star-exponential of a functional vanishing at the empty set: one row of
    :func:`star_exp_batch` (oracle: the literal series :func:`star_exp_series`)."""
    if psi.values[0] != 0.0:
        raise NotInIdeal("star_exp needs psi(empty) = 0")
    return ConfigFunctional(psi.ground_size, star_exp_batch(psi.values[None])[0])


def star_log(f: ConfigFunctional) -> ConfigFunctional:
    """Inverse of star_exp on functionals with f(empty) = 1: one row of
    :func:`star_log_batch` (oracle: :func:`star_log_series`)."""
    if f.values[0] != 1.0:
        raise NotNormalized("star_log needs f(empty) = 1")
    return ConfigFunctional(f.ground_size, star_log_batch(f.values[None])[0])


def star_exp_series(psi: ConfigFunctional) -> ConfigFunctional:
    """Literal power series sum_m psi^{*m}/m!; reference implementation."""
    if psi.values[0] != 0.0:
        raise NotInIdeal("star_exp needs psi(empty) = 0")
    n = psi.ground_size
    acc = unit(n)
    power = unit(n)
    for m in range(1, n + 1):
        power = star_mul(power, psi)
        acc = acc.add(power.scale(1.0 / math.factorial(m)))
    return acc


def star_log_series(f: ConfigFunctional) -> ConfigFunctional:
    """Literal alternating series for ln* (reference implementation)."""
    if f.values[0] != 1.0:
        raise NotNormalized("star_log needs f(empty) = 1")
    n = f.ground_size
    phi = f.add(unit(n).scale(-1.0))
    acc = ConfigFunctional(n, np.zeros(1 << n))
    power = unit(n)
    for m in range(1, n + 1):
        power = star_mul(power, phi)
        acc = acc.add(power.scale((-1.0) ** (m - 1) / m))
    return acc


def d_shift(psi: ConfigFunctional, attach: Iterable[int] | int) -> ConfigFunctional:
    """Attach a fixed index set: (D_A psi)(S) = psi(S | A), or 0 when S meets A.

    The attached set lives on the same ground table; disjointness is by index.
    """
    if isinstance(attach, int):
        mask = attach
    else:
        mask = 0
        for i in attach:
            mask |= 1 << i
    if mask >> psi.ground_size:
        raise ValueError("attach indices outside the ground")
    n = psi.ground_size
    out = np.zeros(1 << n)
    for s in range(1 << n):
        if s & mask == 0:
            out[s] = psi.values[s | mask]
    return ConfigFunctional(n, out)
