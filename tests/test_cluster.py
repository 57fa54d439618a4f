import math
import warnings

import numpy as np
import pytest

from conftest import random_config
from markedgibbs import starcalc
from markedgibbs.cluster import (_abs_mayer_matrix, averaged_correlation,
                                 boltzmann_functional, convergence_radius,
                                 correlation_truncated, kbar, kbar_batch,
                                 kbar_recursive, limit_density_profile,
                                 log_partition_truncated,
                                 partition_direct_truncated, tail_bound,
                                 tree_abs_sum_batch, tree_bound_q,
                                 tree_bound_q_multi, tree_bound_recursive,
                                 ursell_batch, ursell_direct, ursell_table)
from markedgibbs import cluster
from markedgibbs.errors import (IntegrationFailure, OutsideRadius,
                                OverlappingConfigurations,
                                RequiresFiniteRange, SizeLimit)
from markedgibbs.lpintegrate import (QuadratureScheme, SlotDomain,
                                     product_region_integral,
                                     resolve_scheme_for_order)
from markedgibbs.model import (Box, FiniteConfiguration, MarkedPoint,
                               canonicalize)
from markedgibbs.potential import build_model, energy, interaction, pair_value


def test_ursell_direct_small_cases(toy_model):
    single = canonicalize([MarkedPoint((0.4,), 1.0)])
    assert ursell_direct(single, toy_model) == 1.0

    pts = [MarkedPoint((0.2,), 1.0), MarkedPoint((0.6,), -1.0)]
    pair = canonicalize(pts)
    f = math.expm1(-toy_model.beta * pair_value(toy_model, *pts))
    assert ursell_direct(pair, toy_model) == pytest.approx(f, rel=1e-14)


def test_ursell_direct_three_point_formula(toy_model):
    pts = [MarkedPoint((0.1,), 1.0), MarkedPoint((0.5,), -1.0),
           MarkedPoint((0.8,), 1.0)]
    cfg = canonicalize(pts)
    beta = toy_model.beta
    f01 = math.expm1(-beta * pair_value(toy_model, pts[0], pts[1]))
    f02 = math.expm1(-beta * pair_value(toy_model, pts[0], pts[2]))
    f12 = math.expm1(-beta * pair_value(toy_model, pts[1], pts[2]))
    expected = f01 * f02 + f01 * f12 + f02 * f12 + f01 * f02 * f12
    assert ursell_direct(cfg, toy_model) == pytest.approx(expected, rel=1e-13)


def test_ursell_direct_cap(toy_model, rng):
    with pytest.raises(SizeLimit):
        ursell_direct(random_config(toy_model, 6, rng), toy_model)


def test_ursell_table_trivia(toy_model, ideal_model, rng):
    cfg = random_config(toy_model, 3, rng)
    table = ursell_table(cfg, toy_model)
    assert table.values[0] == 0.0
    for i in range(3):
        assert table.value([i]) == 1.0
    # zero potential kills every multi-point coefficient exactly
    cfg = random_config(ideal_model, 4, rng)
    table = ursell_table(cfg, ideal_model)
    for mask in range(1 << 4):
        expected = 1.0 if bin(mask).count("1") == 1 else 0.0
        if mask == 0:
            expected = 0.0
        assert table.values[mask] == expected


def triangle_scale(model, cfg, *values):
    """Comparison scale for Ursell identities: the routes flow through Gibbs
    factors bounded by e^{beta B n} and Mayer-tree sums, so route agreement is
    meaningful relative to that magnitude, not to a cancelled output."""
    n = len(cfg)
    bound = math.exp(model.beta * model.potential.stability_B * n)
    return max(*(abs(v) for v in values), bound)


def test_oracle_triangle(toy_model, rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        cfg = random_config(toy_model, n, rng)
        direct = ursell_direct(cfg, toy_model)
        table = ursell_table(cfg, toy_model).full
        via_log = starcalc.star_log(boltzmann_functional(cfg, toy_model))((1 << n) - 1)
        scale = triangle_scale(toy_model, cfg, direct, table, via_log)
        worst = max(worst, abs(direct - table) / scale, abs(direct - via_log) / scale)
    assert worst <= 1e-10


@pytest.mark.parametrize("name, params", [
    ("toy-repulsive-spin", {}),
    ("toy-repulsive-spin-rc", {"range_cut": 0.2}),
])
def test_oracle_triangle_independent_log_leg(name, params, rng):
    # the ln* leg runs the literal alternating series, not the recursion
    # behind ursell_table, so all three legs are independent routes
    model = build_model(name, z=0.05, beta=1.0, **params)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 6))
        cfg = random_config(model, n, rng)
        direct = ursell_direct(cfg, model)
        table = ursell_table(cfg, model).full
        via_log = starcalc.star_log_series(boltzmann_functional(cfg, model))((1 << n) - 1)
        scale = triangle_scale(model, cfg, direct, table, via_log)
        worst = max(worst, abs(direct - table) / scale, abs(direct - via_log) / scale,
                    abs(table - via_log) / scale)
    assert worst <= 1e-10


def test_cluster_decomposition_reconstructs_gibbs_factor(toy_model, rng):
    for _ in range(60):
        n = int(rng.integers(1, 9))
        cfg = random_config(toy_model, n, rng)
        table = ursell_table(cfg, toy_model)
        rebuilt = starcalc.star_exp(table.as_functional())
        rho = boltzmann_functional(cfg, toy_model)
        # scale: the absolute-value reconstruction bounds every partial term
        abs_series = starcalc.star_exp(
            starcalc.ConfigFunctional(n, np.abs(table.values)))
        scale = np.maximum(np.abs(rho.values), abs_series.values)
        dev = np.max(np.abs(rebuilt.values - rho.values) / scale)
        assert dev <= 1e-10


def test_finite_range_vanishing_exact(rng):
    model = build_model("toy-repulsive-spin-rc", range_cut=0.2)
    pts = [MarkedPoint((0.05,), 1.0), MarkedPoint((0.15,), -1.0),
           MarkedPoint((0.7,), 1.0), MarkedPoint((0.85,), -1.0)]
    cfg = canonicalize(pts)
    table = ursell_table(cfg, model)
    # any subset mixing the two range-separated clusters vanishes exactly
    for mask in range(1, 16):
        left = bool(mask & 0b0011)
        right = bool(mask & 0b1100)
        if left and right:
            assert table.values[mask] == 0.0
        # and the direct graph sum agrees
    assert ursell_direct(cfg.subset([0, 2]), model) == 0.0


def test_kbar_edge_cases(toy_model, rng):
    empty = FiniteConfiguration()
    z1 = random_config(toy_model, 2, rng)
    assert kbar(empty, empty, toy_model) == 1.0
    assert kbar(empty, z1, toy_model) == 0.0
    with pytest.raises(OverlappingConfigurations):
        kbar(z1, z1, toy_model)


def test_kbar_reduces_to_ursell(toy_model, rng):
    for _ in range(40):
        n = int(rng.integers(2, 6))
        cfg = random_config(toy_model, n, rng)
        k_full = ursell_table(cfg, toy_model).full
        kb = kbar(cfg.subset([0]), cfg.subset(range(1, n)), toy_model)
        assert kb == pytest.approx(k_full, rel=1e-12, abs=1e-15)


def test_kbar_ideal_collapse(ideal_model, rng):
    for n_omega in (1, 2, 3):
        om = random_config(ideal_model, n_omega, rng)
        assert kbar(om, FiniteConfiguration(), ideal_model) == 1.0
        zeta = canonicalize([MarkedPoint((0.123 + 0.1 * j,), 1.0)
                             for j in range(2)])
        assert kbar(om, zeta, ideal_model) == 0.0


def check_kbar_routes(model, rng):
    for _ in range(40):
        total = int(rng.integers(1, 6))
        n_omega = int(rng.integers(1, total + 1))
        cfg = random_config(model, total, rng)
        om = cfg.subset(range(n_omega))
        ze = cfg.subset(range(n_omega, total))
        a = kbar(om, ze, model)
        b = kbar_recursive(om, ze, model)
        if len(ze):
            c = float(kbar_batch(model, om, ze.positions_array()[None],
                                 ze.marks_array()[None])[0])
        else:
            c = float(kbar_batch(model, om,
                                 np.zeros((1, 0, 1)), np.zeros((1, 0)))[0])
        scale = triangle_scale(model, cfg, a, b, c)
        assert abs(a - b) / scale <= 1e-12
        assert abs(a - c) / scale <= 1e-12


def test_kbar_routes_agree(toy_model, rng):
    check_kbar_routes(toy_model, rng)


@pytest.mark.parametrize("name, params", [
    ("toy-repulsive-spin-rc", {"range_cut": 0.2}),
    ("hard-core", {}),
    ("continuum-potts", {}),
])
def test_kbar_routes_agree_registry(name, params, rng):
    # the star-inverse path does not mask range-disconnected subsets, so the
    # finite-range and hard-core models get the same oracle check as the toy
    check_kbar_routes(build_model(name, z=0.05, beta=1.0, **params), rng)


def test_tree_bound_q_small_cases(toy_model):
    anchor = MarkedPoint((0.5,), 1.0)
    assert tree_bound_q(anchor, FiniteConfiguration(), toy_model) == 1.0  # B = 0
    other = MarkedPoint((0.7,), -1.0)
    expected = abs(math.expm1(-toy_model.beta *
                              pair_value(toy_model, anchor, other)))
    got = tree_bound_q(anchor, canonicalize([other]), toy_model)
    assert got == pytest.approx(expected, rel=1e-14)


def test_tree_bound_dominates_kbar(toy_model, rng):
    # cases like |kbar({x},{y})| = |f| saturate the bound exactly, so allow
    # machine rounding at the flow scale on top of it
    for _ in range(150):
        total = int(rng.integers(1, 7))
        n_omega = int(rng.integers(1, total + 1))
        cfg = random_config(toy_model, total, rng)
        om = cfg.subset(range(n_omega))
        ze = cfg.subset(range(n_omega, total))
        kb = abs(kbar(om, ze, toy_model))
        q = tree_bound_q_multi(om, ze, toy_model)
        assert kb <= q + 1e-12 * triangle_scale(toy_model, cfg, kb, q)


def test_tree_bound_recursive_equals_closed_form(toy_model, rng):
    for _ in range(60):
        total = int(rng.integers(1, 8))
        n_omega = int(rng.integers(1, total + 1))
        cfg = random_config(toy_model, total, rng)
        om = cfg.subset(range(n_omega))
        ze = cfg.subset(range(n_omega, total))
        closed = tree_bound_q_multi(om, ze, toy_model)
        first = tree_bound_recursive(om, ze, toy_model, "first")
        last = tree_bound_recursive(om, ze, toy_model, "last")
        assert first == pytest.approx(closed, rel=1e-10)
        assert first == pytest.approx(last, rel=1e-12)


def test_tree_bound_equivalence_with_positive_stability_constant(rng):
    # the stability prefactor enters once per anchor consumption in the
    # recursion and once per point in the closed form; they must still agree
    import dataclasses
    base = build_model("toy-repulsive-spin", z=0.05, beta=1.3)
    model = base.replace(potential=dataclasses.replace(base.potential,
                                                       stability_B=0.4))
    for _ in range(40):
        total = int(rng.integers(2, 8))
        n_omega = int(rng.integers(1, total))
        cfg = random_config(model, total, rng)
        om = cfg.subset(range(n_omega))
        ze = cfg.subset(range(n_omega, total))
        closed = tree_bound_q_multi(om, ze, model)
        first = tree_bound_recursive(om, ze, model, "first")
        last = tree_bound_recursive(om, ze, model, "last")
        assert first == pytest.approx(closed, rel=1e-12)
        assert last == pytest.approx(closed, rel=1e-12)


def test_forest_determinant_past_enumeration_caps():
    # unit weights count trees (Cayley) and forests rooted at l given anchors
    for n in range(2, 13):
        got = float(tree_abs_sum_batch(np.ones((1, n, n)))[0])
        assert got == pytest.approx(n ** (n - 2), rel=1e-13)
    # a hard core wider than the box makes every |Mayer| weight exactly 1
    wide = build_model("hard-core", z=0.05, beta=1.0, r0=2.0)
    for n in range(2, 13):
        cfg = canonicalize([MarkedPoint(((j + 0.5) / n,), 1.0) for j in range(n)])
        for l in range(1, n + 1):
            omega, zeta = cfg.subset(range(l)), cfg.subset(range(l, n))
            got = tree_bound_q_multi(omega, zeta, wide)
            assert got == pytest.approx(l * n ** (n - l - 1), rel=1e-13)


def test_forest_determinant_isolated_point_is_exact_zero():
    # a zeta point outside every core joins no forest: a zero pivot, not NaN
    model = build_model("hard-core", z=0.05, beta=1.0)
    omega = canonicalize([MarkedPoint((0.5,), 1.0)])
    for far in (0.2, 0.9):
        zeta = canonicalize([MarkedPoint((far,), 1.0), MarkedPoint((0.55,), -1.0)])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert tree_bound_q_multi(omega, zeta, model) == 0.0
            assert tree_bound_q(omega.points[0], zeta, model) == 0.0
            abs_mayer = _abs_mayer_matrix(model, omega.points + zeta.points)
            assert tree_abs_sum_batch(abs_mayer[None])[0] == 0.0
        assert tree_bound_recursive(omega, zeta, model) == 0.0


def test_tree_bound_recursive_base_case(toy_model):
    om = canonicalize([MarkedPoint((0.5,), 1.0)])
    assert tree_bound_recursive(om, FiniteConfiguration(), toy_model) == \
        pytest.approx(math.exp(2 * toy_model.beta *
                               toy_model.potential.stability_B))


def test_convergence_radius_formula():
    # C = 1, B = 0 by hand: the radius is 1/(2e)
    assert 1.0 / (2.0 * math.e) == pytest.approx(0.18393972058572117)
    model = build_model("toy-repulsive-spin", z=0.05, beta=1.0)
    report = convergence_radius(model, reference_grid_size=16)
    assert report.z_star > 0 and report.c_beta > 0
    assert report.within_radius

    # doubling B rescales the radius by exp(-2 beta dB) exactly
    import dataclasses
    pot_b = dataclasses.replace(model.potential, stability_B=0.5)
    model_b = model.replace(potential=pot_b)
    report_b = convergence_radius(model_b, reference_grid_size=16)
    assert report_b.z_star == pytest.approx(
        report.z_star * math.exp(-2.0 * model.beta * 0.5), rel=1e-9)


def test_tail_bound_properties(toy_model):
    c = 0.25
    full = tail_bound(toy_model, 1, c_beta=c)
    assert full > 0
    q = 2 * toy_model.z * math.e * c
    mass = toy_model.mass()
    assert tail_bound(toy_model, 10, c_beta=c) == pytest.approx(
        mass / c * q ** 10 / (1 - q), rel=1e-12)
    assert tail_bound(toy_model, 11, c_beta=c) < tail_bound(toy_model, 10, c_beta=c)
    with pytest.raises(OutsideRadius):
        tail_bound(toy_model.replace(z=100.0), 2, c_beta=c)
    # vanishing activity kills the bound
    assert tail_bound(toy_model.replace(z=1e-12), 3, c_beta=c) < 1e-30


def test_log_partition_ideal_exact(ideal_model):
    scheme = QuadratureScheme.tensor(64)
    report = log_partition_truncated(ideal_model, ideal_model.space.box, N=3,
                                     scheme=scheme, radius_grid=8)
    assert report.log_z == ideal_model.z * ideal_model.mass()
    assert report.coefficients[0] == ideal_model.z
    assert all(c == 0.0 for c in report.coefficients[1:])
    assert report.within_radius and report.tail_bound == 0.0


def test_log_partition_matches_direct_oracle(toy_model):
    scheme = QuadratureScheme.tensor((96, 48, 24, 12, 6, 4),
                                     mc_fallback_samples=20000, seed=5)
    series = log_partition_truncated(toy_model, toy_model.space.box, N=4,
                                     scheme=scheme, radius_grid=24)
    direct = partition_direct_truncated(toy_model, toy_model.space.box,
                                        FiniteConfiguration(), N=8, scheme=scheme)
    budget = series.tail_bound + series.integration_error + direct.error + 1e-9
    assert abs(series.log_z - math.log(direct.value)) <= budget
    assert budget <= 1e-3


def test_partition_direct_trivia(toy_model):
    scheme = QuadratureScheme.tensor(16)
    est = partition_direct_truncated(toy_model, toy_model.space.box,
                                     FiniteConfiguration(), N=0, scheme=scheme)
    assert est.value == 1.0

    lam = toy_model.z * toy_model.mass()
    ideal = build_model("ideal", z=toy_model.z)
    est = partition_direct_truncated(ideal, ideal.space.box,
                                     FiniteConfiguration(), N=3, scheme=scheme)
    expected = sum(lam ** n / math.factorial(n) for n in range(4))
    assert est.value == pytest.approx(expected, rel=1e-12)


def test_partition_direct_far_boundary_identical():
    model = build_model("toy-repulsive-spin-rc", range_cut=0.2)
    region = Box((0.0,), (0.4,))
    far = canonicalize([MarkedPoint((0.8,), 1.0), MarkedPoint((0.95,), -1.0)])
    scheme = QuadratureScheme.tensor(24)
    with_boundary = partition_direct_truncated(model, region, far, N=3,
                                               scheme=scheme)
    without = partition_direct_truncated(model, region, FiniteConfiguration(),
                                         N=3, scheme=scheme)
    assert with_boundary.value == without.value  # bit-identical


def test_correlation_ideal_is_one(ideal_model):
    scheme = QuadratureScheme.tensor(16)
    for pts in ([(0.3,)], [(0.3,), (0.6,)], [(0.2,), (0.5,), (0.9,)]):
        cfg = canonicalize([MarkedPoint(p, 1.0) for p in pts])
        est = correlation_truncated(cfg, ideal_model, ideal_model.space.box,
                                    N=3, scheme=scheme)
        assert est.value == 1.0


def test_correlation_matches_ratio_oracle(toy_model):
    # the m-point series equals exp(-beta E(points)) Z(points)/Z(empty)
    scheme = QuadratureScheme.tensor((64, 32, 16, 10, 6, 4), seed=6)
    region = toy_model.space.box
    for positions, marks in ([(0.31,), (1.0,)],
                             [(0.31, 0.72), (1.0, -1.0)]):
        pts = canonicalize([MarkedPoint((x,), s)
                            for x, s in zip(positions, marks)])
        series = correlation_truncated(pts, toy_model, region, N=4, scheme=scheme)
        num = partition_direct_truncated(toy_model, region, pts, N=6,
                                         scheme=scheme)
        den = partition_direct_truncated(toy_model, region,
                                         FiniteConfiguration(), N=6,
                                         scheme=scheme)
        e_pts = energy(pts, toy_model)
        oracle = math.exp(-toy_model.beta * e_pts) * num.value / den.value
        budget = (series.error + num.error + den.error + 5e-5)
        assert abs(series.value - oracle) <= budget


def test_correlation_far_pair_factorizes():
    model = build_model("toy-repulsive-spin-rc", z=0.05, range_cut=0.1)
    scheme = QuadratureScheme.tensor((64, 32, 16), seed=8)
    region = model.space.box
    a = canonicalize([MarkedPoint((0.2,), 1.0)])
    b = canonicalize([MarkedPoint((0.8,), -1.0)])
    both = canonicalize([MarkedPoint((0.2,), 1.0), MarkedPoint((0.8,), -1.0)])
    rho_a = correlation_truncated(a, model, region, N=3, scheme=scheme)
    rho_b = correlation_truncated(b, model, region, N=3, scheme=scheme)
    rho_ab = correlation_truncated(both, model, region, N=3, scheme=scheme)
    # the cross-truncation mismatch is controlled by the series tails
    from markedgibbs.cluster import correlation_tail_bound
    from markedgibbs.potential import check_integrability
    c_beta = check_integrability(model, 16).c_beta
    tail = correlation_tail_bound(model, 4, c_beta=c_beta)
    budget = rho_a.error + rho_b.error + rho_ab.error + 3.0 * tail
    assert abs(rho_ab.value - rho_a.value * rho_b.value) <= budget


def test_correlation_rejects_outside_points(toy_model):
    outside = canonicalize([MarkedPoint((0.9,), 1.0)])
    with pytest.raises(ValueError):
        correlation_truncated(outside, toy_model, Box((0.0,), (0.5,)), N=2)


def test_averaged_correlation_matches_pointwise(toy_model):
    scheme = QuadratureScheme.tensor((48, 24, 12), seed=9)
    avg = averaged_correlation(toy_model, toy_model.space.box, m=1, N=2,
                               scheme=scheme)
    # average the pointwise series over a matching mark-position grid
    from markedgibbs.lpintegrate import _position_nodes, mark_nodes_weights
    pos, pw = _position_nodes(toy_model.space.box, 12)
    mv, mw = mark_nodes_weights(toy_model, scheme)
    acc = 0.0
    for p, w in zip(pos, pw):
        for s, ws in zip(mv, mw):
            cfg = FiniteConfiguration((MarkedPoint(tuple(p), float(s)),))
            est = correlation_truncated(cfg, toy_model, toy_model.space.box,
                                        N=2, scheme=scheme)
            acc += w * ws * est.value
    assert avg.value == pytest.approx(acc / toy_model.mass(), rel=1e-4)


def test_limit_density_requires_finite_range(toy_model):
    with pytest.raises(RequiresFiniteRange):
        limit_density_profile(toy_model, Box((0.2,), (0.8,)), N=2)


def test_limit_density_ideal_gas(ideal_model):
    region = Box((0.25,), (0.75,))
    scheme = QuadratureScheme.tensor(32)
    profile = limit_density_profile(ideal_model, region, N=3, scheme=scheme)
    lam = ideal_model.z * ideal_model.mass(region)
    assert profile.density(FiniteConfiguration()) == pytest.approx(
        math.exp(-lam), rel=1e-12)
    cfg = canonicalize([MarkedPoint((0.4,), 1.0), MarkedPoint((0.6,), -1.0)])
    assert profile.density(cfg) == pytest.approx(math.exp(-lam), rel=1e-12)


def test_limit_density_zero_collar_reduces_to_finite_volume():
    # collar of width zero: the density is exp*(k) normalized on the region
    model = build_model("ideal", z=0.07)
    region = model.space.box
    profile = limit_density_profile(model, region, N=2,
                                    scheme=QuadratureScheme.tensor(32))
    assert profile.collar is None
    lam = model.z * model.mass(region)
    assert profile.density(FiniteConfiguration()) == pytest.approx(
        math.exp(-lam), rel=1e-12)


def test_limit_density_matches_exact_sampler():
    # count probabilities predicted by the local density against draws from
    # the exact finite-volume sampler (the collar localizes all exterior
    # influence for the range-truncated potential)
    from markedgibbs.gibbsmc import EMPTY_BOUNDARY, rejection_sample_batch
    from markedgibbs.lpintegrate import (_position_nodes, mark_nodes_weights,
                                         philox_rng)
    from markedgibbs.model import restrict

    model = build_model("toy-repulsive-spin-rc", z=0.05, range_cut=0.1)
    inner = Box((0.3,), (0.7,))
    scheme = QuadratureScheme.tensor(24)
    profile = limit_density_profile(model, inner, N=2, scheme=scheme)

    p0 = profile.density(FiniteConfiguration())
    pos, pw = _position_nodes(inner, 12)
    mv, mw = mark_nodes_weights(model, scheme)
    p1 = 0.0
    for p, w in zip(pos, pw):
        for s, ws in zip(mv, mw):
            p1 += w * ws * profile.density(
                FiniteConfiguration((MarkedPoint(tuple(p), float(s)),)))
    p1 *= model.z

    rng = philox_rng(55)
    draws = rejection_sample_batch(model, model.space.box, EMPTY_BOUNDARY,
                                   30000, rng)
    counts = np.array([len(restrict(cfg, inner)) for cfg in draws])
    for j, pred in ((0, p0), (1, p1)):
        emp = float(np.mean(counts == j))
        se = math.sqrt(emp * (1 - emp) / counts.size)
        assert abs(emp - pred) <= 3.0 * se + 1e-3


def _exterior_ursell_loop(profile, config):
    """Oracle: k(config) plus one collar integral per order, summed in turn."""
    model, d = profile.model, profile.model.space.dimension
    total = float(ursell_batch(model, FiniteConfiguration(),
                               config.positions_array().reshape(1, -1, d),
                               config.marks_array().reshape(1, -1))[0])
    if profile.collar is None:
        return total
    for j in range(1, profile.order + 1):
        def integrand(n, positions, marks):
            return ursell_batch(model, config, positions, marks)
        sch = resolve_scheme_for_order(profile.scheme, d, j)
        value, _ = product_region_integral(model, [profile.collar] * j,
                                           integrand, sch)
        total += model.z ** j / math.factorial(j) * value
    return total


def _exterior_ursell_density(profile, config):
    """Oracle: the density as exp* over the subsets of config of their
    exterior Ursell series, over the normalizer."""
    m = len(config)
    vals = np.zeros(1 << m)
    for mask in range(1, 1 << m):
        vals[mask] = _exterior_ursell_loop(
            profile, config.subset([i for i in range(m) if mask >> i & 1]))
    numerator = starcalc.star_exp(starcalc.ConfigFunctional(m, vals))((1 << m) - 1)
    return numerator * math.exp(-profile.log_normalizer)


def _density_loop(profile, config):
    """Oracle: kbar(config; empty) plus one collar integral of kbar per order,
    over the normalizer; returns (density, summed |fine - coarse| figures)."""
    model, d = profile.model, profile.model.space.dimension
    total = float(kbar_batch(model, config, np.zeros((1, 0, d)),
                             np.zeros((1, 0)))[0])
    error = 0.0
    for j in range(1, profile.order + 1 if profile.collar else 1):
        def integrand(n, positions, marks):
            return kbar_batch(model, config, positions, marks)
        sch = resolve_scheme_for_order(profile.scheme, d, j)
        value, err = product_region_integral(model, [profile.collar] * j,
                                             integrand, sch)
        total += model.z ** j / math.factorial(j) * value
        error += model.z ** j / math.factorial(j) * err
    scale = math.exp(-profile.log_normalizer)
    return total * scale, error * scale


def _ursell_terms(model, domains, scheme):
    """(z^n/n! times the integral of k over the slots, and its error figure)."""
    def integrand(n, positions, marks):
        return ursell_batch(model, FiniteConfiguration(), positions, marks)

    n = len(domains)
    sch = resolve_scheme_for_order(scheme, model.space.dimension, n)
    value, err = product_region_integral(model, domains, integrand, sch)
    factor = model.z ** n / math.factorial(n)
    return factor * value, factor * err


def _log_normalizer_identity_loop(model, region, collar, N, scheme):
    """Oracle: log Xi(collar box) - log Xi(collar), one pair of integrals per
    order; returns (normalizer, summed |fine - coarse| figures)."""
    value = error = 0.0
    for n in range(N + 1):
        box = collar.box if collar else region
        whole, err = _ursell_terms(model, [SlotDomain(box)] * n, scheme)
        value, error = value + whole, error + err
        if collar:
            part, err = _ursell_terms(model, [collar] * n, scheme)
            value, error = value - part, error + err
    return value, error


def _log_normalizer_loop(model, region, collar, N, scheme):
    """Oracle: the normalizer as one double loop over m region and j collar
    points, m + j <= N; returns (normalizer, summed |fine - coarse| figures)."""
    terms, errors = [], []
    for m in range(1, N + 1):
        for j in range(0, N + 1 - m if collar else 1):
            value, err = _ursell_terms(model, [SlotDomain(region)] * m + [collar] * j,
                                       scheme)
            terms.append(value * math.comb(m + j, m))
            errors.append(err * math.comb(m + j, m))
    return float(np.sum(np.asarray(terms))), float(np.sum(np.asarray(errors)))


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("name, params", [
    ("toy-repulsive-spin-rc", {"range_cut": 0.2}),
    ("ideal", {}),
    ("hard-core", {"r0": 0.1}),
], ids=["toy-rc", "ideal", "hard-core"])
def test_limit_density_series_match_order_loops(name, params, N):
    model = build_model(name, z=0.3, **params)
    region = Box((0.3,), (0.6,))
    scheme = QuadratureScheme.tensor((24, 12, 8, 6, 4), mc_fallback_samples=500,
                                     seed=2)
    profile = limit_density_profile(model, region, N, scheme)
    assert (profile.collar is None) == (name == "ideal")
    want, error = _log_normalizer_identity_loop(model, region, profile.collar, N,
                                                scheme)
    assert profile.log_normalizer == pytest.approx(want, rel=1e-14, abs=0.0)
    # the clusters that meet the region, counted by their region and collar points
    loop, loop_error = _log_normalizer_loop(model, region, profile.collar, N, scheme)
    assert abs(profile.log_normalizer - loop) <= error + loop_error
    for rows in ([(0.4, 1.0)], [(0.35, 1.0), (0.42, -1.0)],
                 [(0.31, -1.0), (0.45, 1.0), (0.58, 1.0)]):
        config = canonicalize([MarkedPoint((x,), mk) for x, mk in rows])
        density = profile.density(config)
        want, error = _density_loop(profile, config)
        assert density == pytest.approx(want, rel=1e-14, abs=0.0)
        # the exterior-Ursell route is the same series up to quadrature error
        old = _exterior_ursell_density(profile, config)
        if name == "ideal":
            lam = model.z * model.mass(region)
            assert old == density == math.exp(-lam)
        else:
            assert abs(old - density) <= error


def _nan_first_row(fn):
    def patched(*args, **kwargs):
        out = np.array(fn(*args, **kwargs), dtype=float)
        out[0] = np.nan
        return out
    return patched


def test_region_series_nan_is_integration_failure(monkeypatch):
    model = build_model("toy-repulsive-spin-rc", z=0.05, range_cut=0.2)
    region = Box((0.3,), (0.6,))
    scheme = QuadratureScheme.tensor(8)
    profile = limit_density_profile(model, region, 2, scheme)
    monkeypatch.setattr(cluster, "kbar_batch_split",
                        _nan_first_row(cluster.kbar_batch_split))
    monkeypatch.setattr(cluster, "ursell_batch", _nan_first_row(cluster.ursell_batch))
    with pytest.raises(IntegrationFailure):
        averaged_correlation(model, region, 1, 2, scheme)
    with pytest.raises(IntegrationFailure):
        limit_density_profile(model, region, 2, scheme)
    with pytest.raises(IntegrationFailure):
        profile.density(canonicalize([MarkedPoint((0.4,), 1.0)]))


def test_ursell_batch_matches_scalar(toy_model, rng):
    for n in (1, 2, 3, 4):
        cfgs = [random_config(toy_model, n, rng) for _ in range(10)]
        pos = np.stack([c.positions_array() for c in cfgs])
        marks = np.stack([c.marks_array() for c in cfgs])
        batch = ursell_batch(toy_model, FiniteConfiguration(), pos, marks)
        for i, cfg in enumerate(cfgs):
            assert batch[i] == pytest.approx(ursell_table(cfg, toy_model).full,
                                             rel=1e-12, abs=1e-15)
