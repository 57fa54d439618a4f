import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markedgibbs.errors import GroundMismatch, NotInIdeal, NotNormalized
from markedgibbs.starcalc import (ConfigFunctional, d_shift, indicator,
                                  star_exp, star_exp_batch, star_exp_series,
                                  star_inverse_batch, star_log, star_log_batch,
                                  star_log_series, star_mul, unit)


def random_functional(rng, n, zero_empty=False, unit_empty=False):
    vals = rng.normal(size=1 << n)
    if zero_empty:
        vals[0] = 0.0
    if unit_empty:
        vals[0] = 1.0
    return ConfigFunctional(n, vals)


def test_unit_is_identity(rng):
    for n in range(0, 5):
        b = random_functional(rng, n)
        prod = star_mul(unit(n), b)
        np.testing.assert_allclose(prod.values, b.values, rtol=0, atol=0)


def test_ideal_preserved(rng):
    # functionals vanishing at the empty set are an ideal for the product
    a = random_functional(rng, 4)
    b = random_functional(rng, 4, zero_empty=True)
    assert star_mul(a, b)(0) == 0.0


def test_indicator_product():
    # indicators of {p} and {q} multiply to the indicator of {p, q}
    a = indicator(2, [0])
    b = indicator(2, [1])
    prod = star_mul(a, b)
    expected = indicator(2, [0, 1])
    np.testing.assert_array_equal(prod.values, expected.values)


def test_ground_mismatch():
    with pytest.raises(GroundMismatch):
        star_mul(unit(2), unit(3))


@given(st.integers(0, 5), st.integers(0, 2025))
# products that cancel to near zero, which failed on the scale of |(a*b)*c|
@example(1, 203)
@example(3, 1748)
@example(5, 698)
@example(5, 1097)
@example(5, 1186)
@example(5, 1430)
def test_star_commutative_associative(n, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_functional(rng, n) for _ in range(3))
    # the rounding of a sum of products is bounded on the scale of the same
    # products of absolute values, which a cancelling product can fall below
    abs_a, abs_b, abs_c = (ConfigFunctional(n, np.abs(f.values)) for f in (a, b, c))
    ab = star_mul(a, b)
    ba = star_mul(b, a)
    scale = np.maximum(star_mul(abs_a, abs_b).values, 1e-12)
    assert np.max(np.abs(ab.values - ba.values) / scale) < 1e-12
    abc1 = star_mul(ab, c)
    abc2 = star_mul(a, star_mul(b, c))
    scale = np.maximum(star_mul(abs_a, star_mul(abs_b, abs_c)).values, 1e-12)
    assert np.max(np.abs(abc1.values - abc2.values) / scale) < 1e-12


def test_star_exp_examples():
    # zero exponentiates to the unit
    zero = ConfigFunctional(2, np.zeros(4))
    np.testing.assert_array_equal(star_exp(zero).values, unit(2).values)
    # single-point ground
    psi = ConfigFunctional(1, np.array([0.0, 3.5]))
    e = star_exp(psi)
    assert e(0) == 1.0 and e(1) == 3.5
    # two-point ground: pair slot collects the pair value plus the product
    a, b, w = 0.7, -1.2, 0.4
    psi = ConfigFunctional(2, np.array([0.0, a, b, w]))
    e = star_exp(psi)
    assert e(3) == pytest.approx(w + a * b, rel=1e-14)


def test_star_log_two_point_inverse():
    a, b, w = 0.7, -1.2, 0.4
    f = ConfigFunctional(2, np.array([1.0, a, b, w + a * b]))
    psi = star_log(f)
    assert psi(3) == pytest.approx(w, rel=1e-12)


def test_star_exp_requires_ideal():
    with pytest.raises(NotInIdeal):
        star_exp(unit(1))


def test_star_log_requires_normalized():
    with pytest.raises(NotNormalized):
        star_log(ConfigFunctional(1, np.array([0.5, 1.0])))


def test_roundtrip_many(rng):
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(0, 7))
        psi = random_functional(rng, n, zero_empty=True)
        back = star_log(star_exp(psi))
        worst = max(worst, float(np.max(np.abs(back.values - psi.values))))
        f = random_functional(rng, n, unit_empty=True)
        forward = star_exp(star_log(f))
        worst = max(worst, float(np.max(np.abs(forward.values - f.values))))
    assert worst <= 1e-10


@given(st.integers(0, 5), st.integers(0, 2025))
def test_recursion_matches_literal_series(n, seed):
    rng = np.random.default_rng(seed)
    psi = random_functional(rng, n, zero_empty=True)
    fast = star_exp(psi)
    slow = star_exp_series(psi)
    np.testing.assert_allclose(fast.values, slow.values, rtol=1e-12, atol=1e-12)
    f = random_functional(rng, n, unit_empty=True)
    np.testing.assert_allclose(star_log(f).values, star_log_series(f).values,
                               rtol=1e-11, atol=1e-11)


def random_tables(rng, rows, n, empty):
    vals = rng.normal(size=(rows, 1 << n))
    vals[:, 0] = empty
    return vals


def test_batch_rows_equal_single_row_calls(rng):
    # a row of a K > 1 batch is bit-for-bit the K = 1 call on that row, and
    # the ConfigFunctional ops are those K = 1 rows
    for n in range(0, 7):
        psi = random_tables(rng, 5, n, 0.0)
        f = random_tables(rng, 5, n, 1.0)
        for kernel, table in ((star_exp_batch, psi), (star_log_batch, f),
                              (star_inverse_batch, f)):
            batch = kernel(table)
            assert batch.shape == table.shape
            for row in range(table.shape[0]):
                np.testing.assert_array_equal(batch[row], kernel(table[row:row + 1])[0])
        np.testing.assert_array_equal(star_exp(ConfigFunctional(n, psi[2])).values,
                                      star_exp_batch(psi)[2])
        np.testing.assert_array_equal(star_log(ConfigFunctional(n, f[3])).values,
                                      star_log_batch(f)[3])


def test_batch_roundtrip_and_inverse(rng):
    worst_trip = worst_inv = 0.0
    for n in range(0, 7):
        psi = random_tables(rng, 20, n, 0.0)
        f = random_tables(rng, 20, n, 1.0)
        worst_trip = max(worst_trip,
                         float(np.max(np.abs(star_log_batch(star_exp_batch(psi)) - psi))),
                         float(np.max(np.abs(star_exp_batch(star_log_batch(f)) - f))))
        inverse = star_inverse_batch(f)
        for row in range(f.shape[0]):
            prod = star_mul(ConfigFunctional(n, inverse[row]), ConfigFunctional(n, f[row]))
            worst_inv = max(worst_inv, float(np.max(np.abs(prod.values - unit(n).values))))
    assert worst_trip <= 1e-10
    assert worst_inv <= 1e-12


def test_star_log_batch_zeroes_disconnected_subsets(rng):
    # the predicate is asked once per subset of two or more points, and the
    # rows it calls disconnected get exactly 0.0 there; other rows are
    # untouched
    f = random_tables(rng, 4, 4, 1.0)
    disconnected = (0b0101, 0b1011)
    asked = []

    def connected(mask):
        asked.append(mask)
        rows = np.ones(4, dtype=bool)
        if mask in disconnected:
            rows[[1, 3]] = False
        return rows

    out = star_log_batch(f, connected)
    assert asked == [mask for mask in range(1, 16) if mask & (mask - 1)]
    for mask in disconnected:
        assert np.all(out[[1, 3], mask] == 0.0)
    np.testing.assert_array_equal(out[[0, 2]], star_log_batch(f)[[0, 2]])


def test_d_shift_empty_is_identity(rng):
    psi = random_functional(rng, 3)
    np.testing.assert_array_equal(d_shift(psi, []).values, psi.values)


def test_d_shift_zero_on_overlap(rng):
    psi = random_functional(rng, 3)
    shifted = d_shift(psi, [1])
    for mask in range(8):
        if mask & 0b010:
            assert shifted(mask) == 0.0
        else:
            assert shifted(mask) == psi(mask | 0b010)


def test_d_operators_commute(rng):
    psi = random_functional(rng, 4)
    ab = d_shift(d_shift(psi, [0]), [2])
    ba = d_shift(d_shift(psi, [2]), [0])
    np.testing.assert_array_equal(ab.values, ba.values)


def test_d_leibniz_rule(rng):
    # attach distributes over the product like a derivation
    for _ in range(20):
        n = int(rng.integers(1, 6))
        x = int(rng.integers(0, n))
        a = random_functional(rng, n)
        b = random_functional(rng, n)
        lhs = d_shift(star_mul(a, b), [x])
        rhs = star_mul(d_shift(a, [x]), b).add(star_mul(a, d_shift(b, [x])))
        mask_ok = [m for m in range(1 << n) if not m & (1 << x)]
        dev = max(abs(lhs(m) - rhs(m)) for m in mask_ok)
        assert dev <= 1e-12 * max(1.0, max(abs(lhs(m)) for m in mask_ok))


def test_d_exponential_rule(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        x = int(rng.integers(0, n))
        psi = random_functional(rng, n, zero_empty=True)
        e = star_exp(psi)
        lhs = d_shift(e, [x])
        rhs = star_mul(e, d_shift(psi, [x]))
        mask_ok = [m for m in range(1 << n) if not m & (1 << x)]
        dev = max(abs(lhs(m) - rhs(m)) for m in mask_ok)
        assert dev <= 1e-12 * max(1.0, max(abs(lhs(m)) for m in mask_ok))


def test_integral_factorization_monte_carlo():
    # the product's integral against the reference measure equals the
    # iterated integral over independent components; checked by continuum
    # Monte Carlo where position collisions have probability zero
    import math

    from markedgibbs.gibbsmc import poisson_sample
    from markedgibbs.lpintegrate import philox_rng
    from markedgibbs.model import canonicalize
    from markedgibbs.potential import build_model

    model = build_model("toy-repulsive-spin", z=0.5)
    region = model.space.box
    mass = model.mass()

    def psi1(cfg):
        if len(cfg) != 1:
            return 0.0
        return 0.5 + 0.3 * math.sin(4.0 * cfg[0].position[0])

    def psi2(cfg):
        if len(cfg) == 0:
            return 0.7
        if len(cfg) == 1:
            return 0.4 * math.cos(2.0 * cfg[0].position[0]) * cfg[0].mark
        return 0.0

    def big_f(cfg):
        out = 1.0
        for p in cfg:
            out *= 0.8 + 0.2 * p.position[0]
        return out

    def star_product(cfg):
        acc = 0.0
        n = len(cfg)
        for mask in range(1 << n):
            left = cfg.subset([i for i in range(n) if mask >> i & 1])
            right = cfg.subset([i for i in range(n) if not mask >> i & 1])
            acc += psi1(left) * psi2(right)
        return acc

    rng = philox_rng(77)
    draws = 30000
    lhs_vals = np.empty(draws)
    rhs_vals = np.empty(draws)
    for i in range(draws):
        omega = poisson_sample(model, region, rng)
        lhs_vals[i] = big_f(omega) * star_product(omega)
        omega1 = poisson_sample(model, region, rng)
        omega2 = poisson_sample(model, region, rng)
        merged = canonicalize(omega1.points + omega2.points)
        rhs_vals[i] = big_f(merged) * psi1(omega1) * psi2(omega2)
    norm1 = math.exp(model.z * mass)
    lhs = norm1 * lhs_vals.mean()
    rhs = norm1 ** 2 * rhs_vals.mean()
    se = math.hypot(norm1 * lhs_vals.std(ddof=1),
                    norm1 ** 2 * rhs_vals.std(ddof=1)) / math.sqrt(draws)
    assert abs(lhs - rhs) <= 3.0 * se
