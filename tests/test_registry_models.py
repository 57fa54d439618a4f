"""End-to-end checks for the non-default registry models: circle and interval
mark rules through the series pipeline, hard-core geometry oracles, and a
two-dimensional box."""
import math

import numpy as np
import pytest

from conftest import random_config
from markedgibbs.cluster import (convergence_radius, correlation_truncated,
                                 log_partition_truncated, ursell_direct,
                                 ursell_table)
from markedgibbs.gibbsmc import (EMPTY_BOUNDARY, SamplerConfig, mcmc_run,
                                 poisson_sample)
from markedgibbs.lpintegrate import QuadratureScheme, philox_rng
from markedgibbs.model import Box, FiniteConfiguration, MarkedPoint, canonicalize
from markedgibbs.potential import build_model, pair_value


def test_hard_core_exclusion_volume_series():
    # indicator integrands converge at first order; the refinement-difference
    # error figures must cover the deviation from the geometric oracles
    r0 = 0.1
    model = build_model("hard-core", z=0.05, r0=r0)
    scheme = QuadratureScheme.tensor((512, 256, 64), seed=2)
    report = log_partition_truncated(model, model.space.box, N=3, scheme=scheme,
                                     radius_grid=24)
    # order 2: minus half the squared activity times the covered pair volume
    pair_volume = 2 * r0 - r0 ** 2
    b2_exact = -model.z ** 2 / 2.0 * pair_volume
    assert abs(report.coefficients[1] - b2_exact) <= report.coefficient_errors[1]

    # order 3 against an independent dense-grid oracle of the connected sum
    xs = (np.arange(300) + 0.5) / 300
    close = (np.abs(xs[:, None] - xs[None, :]) < r0).astype(float)
    c12 = close[:, :, None]
    c13 = close[:, None, :]
    c23 = close[None, :, :]
    k3 = c12 * c13 + c12 * c23 + c13 * c23 - c12 * c13 * c23
    b3_oracle = model.z ** 3 / 6.0 * float(k3.mean())
    budget = report.coefficient_errors[2] + 0.05 * abs(b3_oracle)
    assert abs(report.coefficients[2] - b3_oracle) <= budget


def test_rotator_pipeline_with_trapezoid_marks():
    model = build_model("planar-rotator", z=0.05, beta=1.0)
    radius = convergence_radius(model, reference_grid_size=12)
    assert radius.c_beta > 0 and radius.within_radius

    scheme = QuadratureScheme.tensor((48, 24), mark_nodes=16, seed=3)
    report = log_partition_truncated(model, model.space.box, N=2, scheme=scheme,
                                     radius_grid=12)
    assert report.coefficients[0] == pytest.approx(model.z, rel=1e-12)
    assert report.coefficients[1] < 0  # net repulsive pair coefficient

    # the pair coefficient must be insensitive to the angular node count
    # (periodic trapezoid converges spectrally for smooth angle couplings)
    finer = QuadratureScheme.tensor((48, 24), mark_nodes=32, seed=3)
    report2 = log_partition_truncated(model, model.space.box, N=2, scheme=finer,
                                      radius_grid=12)
    assert report.coefficients[1] == pytest.approx(report2.coefficients[1],
                                                   rel=1e-10)


def test_ferrofluid_pipeline_with_gauss_marks(rng):
    model = build_model("ferrofluid", z=0.05, beta=1.0)
    scheme = QuadratureScheme.tensor((48, 24), mark_nodes=12, seed=4)
    report = log_partition_truncated(model, model.space.box, N=2, scheme=scheme,
                                     radius_grid=12)
    assert report.coefficients[0] == pytest.approx(model.z, rel=1e-12)
    # triangle between the direct oracle and the recursion holds off the
    # default model too
    for _ in range(20):
        cfg = random_config(model, int(rng.integers(2, 5)), rng)
        a = ursell_direct(cfg, model)
        b = ursell_table(cfg, model).full
        assert a == pytest.approx(b, rel=1e-10, abs=1e-13)


def test_potts_correlation_same_vs_other_species():
    model = build_model("continuum-potts", z=0.05, q=3, r1=0.02, r2=0.2)
    scheme = QuadratureScheme.tensor((64, 24, 10), seed=5)
    region = model.space.box
    same = canonicalize([MarkedPoint((0.45,), 1.0), MarkedPoint((0.55,), 1.0)])
    mixed = canonicalize([MarkedPoint((0.45,), 1.0), MarkedPoint((0.55,), 2.0)])
    rho_same = correlation_truncated(same, model, region, N=2, scheme=scheme)
    rho_mixed = correlation_truncated(mixed, model, region, N=2, scheme=scheme)
    # equal species at this separation feel no repulsion, mixed species do
    assert rho_same.value > rho_mixed.value


def test_two_dimensional_box_pipeline(rng):
    model = build_model("toy-repulsive-spin", z=0.05, dimension=2, ell=0.3)
    assert model.space.dimension == 2
    assert model.mass() == pytest.approx(1.0)

    cfg = random_config(model, 4, rng)
    a = ursell_direct(cfg, model)
    b = ursell_table(cfg, model).full
    assert a == pytest.approx(b, rel=1e-10, abs=1e-13)

    scheme = QuadratureScheme.tensor((24, 10, 6), seed=6)
    report = log_partition_truncated(model, model.space.box, N=3, scheme=scheme,
                                     radius_grid=9)
    assert report.coefficients[0] == pytest.approx(model.z, rel=1e-12)
    assert report.within_radius

    draws = [poisson_sample(model, model.space.box, rng) for _ in range(2000)]
    mean = np.mean([len(d) for d in draws])
    assert abs(mean - 0.05) < 3 * math.sqrt(0.05 / 2000)

    chain = mcmc_run(model, model.space.box, EMPTY_BOUNDARY,
                     SamplerConfig(seed=8, sweeps=5000, burn_in=500))
    assert 0.0 <= chain.rho_hat <= 2.0


def test_periodic_boundary_translation_invariance():
    model = build_model("toy-repulsive-spin-rc", z=0.05, boundary="periodic",
                        range_cut=0.2)
    # on the torus the pair value depends only on the wrapped separation
    a = pair_value(model, MarkedPoint((0.05,), 1.0), MarkedPoint((0.95,), 1.0))
    b = pair_value(model, MarkedPoint((0.45,), 1.0), MarkedPoint((0.55,), 1.0))
    assert a == pytest.approx(b, rel=1e-14)
    radius = convergence_radius(model, reference_grid_size=12)
    assert radius.c_beta > 0
