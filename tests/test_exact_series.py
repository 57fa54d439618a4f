"""Exact finite-volume log Z series of three registry models against the
tensor-grid series terms and their reported error figures.

With Z = sum_N Z_N z^N, the n-th series term is z^n [z^n] log Z, computed
here in exact rational arithmetic from closed-form Z_N (V the volume, m the
mark mass):

- ideal: Z_N = (V m)^N / N!;
- constant pair value c: Z_N = (V m)^N e^{-beta c N(N-1)/2} / N!;
- 1-D hard core r0 (Tonks 1936) on a free segment of length L:
  Z_N = m^N (L - (N-1) r0)_+^N / N!, and on a circle:
  Z_N = m^N L (L - N r0)_+^{N-1} / N!.

The only rounding in the oracle is that of the float inputs (e^{-beta c},
r0, L), which enter as the exact rationals of those floats.
"""
import math
from fractions import Fraction

import pytest

from markedgibbs.cluster import ursell_series_terms
from markedgibbs.potential import build_model

ORDER = 6


def log_series(z_n, order: int) -> list[Fraction]:
    """[z^n] log(1 + sum_N Z_N z^N) for n = 1..order, from n a_n = sum k b_k a_{n-k}."""
    a = [Fraction(1)] + [z_n(N) for N in range(1, order + 1)]
    b = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        acc = sum((k * b[k] * a[n - k] for k in range(1, n)), Fraction(0))
        b[n] = a[n] - acc / n
    return b[1:]


def partition_terms(model):
    """Z_N as an exact rational function of N for the three exact models."""
    vol = Fraction(model.space.volume)
    mass = Fraction(model.marks.total_mass)
    name = model.potential.name
    if name == "ideal":
        return lambda N: (vol * mass) ** N / math.factorial(N)
    if name == "constant":
        q = Fraction(math.exp(-model.beta * model.potential.params["value"]))
        return lambda N: (vol * mass) ** N * q ** (N * (N - 1) // 2) / math.factorial(N)
    assert name == "hard-core" and model.space.dimension == 1
    r0 = Fraction(model.potential.params["r0"])
    if model.space.boundary == "periodic":
        return lambda N: (mass ** N * vol * max(vol - N * r0, Fraction(0)) ** (N - 1)
                          / math.factorial(N))
    return lambda N: (mass ** N * max(vol - (N - 1) * r0, Fraction(0)) ** N
                      / math.factorial(N))


EXACT_MODELS = {
    "ideal": dict(name="ideal"),
    "constant-0.5": dict(name="constant", value=0.5),
    "constant-2.0": dict(name="constant", value=2.0),
    "hard-core-free": dict(name="hard-core"),
    "hard-core-periodic": dict(name="hard-core", boundary="periodic"),
}


def test_log_series_of_a_known_function():
    # Z = e^{2z}(1 + z): log Z = 2z + z - z^2/2 + z^3/3 - ...
    coeffs = log_series(lambda N: Fraction(2 ** N, math.factorial(N))
                        + Fraction(2 ** (N - 1), math.factorial(N - 1)), 5)
    assert coeffs == [Fraction(3), Fraction(-1, 2), Fraction(1, 3),
                      Fraction(-1, 4), Fraction(1, 5)]


@pytest.mark.parametrize("key", sorted(EXACT_MODELS))
def test_series_terms_cover_exact_log_partition(key):
    params = dict(EXACT_MODELS[key])
    model = build_model(params.pop("name"), z=0.05, **params)
    est = ursell_series_terms(model, model.space.box, ORDER)
    exact = log_series(partition_terms(model), ORDER)
    for n in range(1, ORDER + 1):
        want = float(Fraction(model.z) ** n * exact[n - 1])
        # the rounding floor: a constant integrand has grid error exactly 0
        budget = est.term_errors[n] + 1e-12 * abs(want)
        assert abs(est.terms[n] - want) <= budget, (n, est.terms[n], want,
                                                     est.term_errors[n])
