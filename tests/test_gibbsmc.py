import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_config, unstable_constant_model
from markedgibbs import gibbsmc
from markedgibbs.errors import (AcceptanceTooLow, DuplicatePosition, EnergyDrift,
                                RegionOutOfBounds, RequiresFiniteRange,
                                StabilityViolation)
from markedgibbs.gibbsmc import (EMPTY_BOUNDARY, BoundaryCondition,
                                 SampleStream, SamplerConfig,
                                 collar_locality_trials,
                                 dlr_check, mcmc_run, poisson_sample,
                                 read_sample_file, rejection_sample_batch,
                                 specification_weight, summarize_samples,
                                 write_sample_file)
from markedgibbs.lpintegrate import philox_rng
from markedgibbs.model import (Box, FiniteConfiguration, MarkedPoint, canonicalize,
                               restrict)
from markedgibbs.potential import build_model, pair_phi_matrix, pair_value


def test_poisson_mean_and_marks(toy_model, rng):
    lam = toy_model.z * toy_model.mass()
    draws = [poisson_sample(toy_model, toy_model.space.box, rng)
             for _ in range(20000)]
    counts = np.array([len(d) for d in draws], dtype=float)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - lam) <= 3 * se

    marks = np.concatenate([d.marks_array() for d in draws if len(d)])
    plus = np.mean(marks == 1.0)
    se_m = math.sqrt(0.25 / marks.size)
    assert abs(plus - 0.5) <= 3 * se_m


def test_poisson_small_activity_mostly_empty(rng):
    model = build_model("toy-repulsive-spin", z=1e-4)
    draws = [poisson_sample(model, model.space.box, rng) for _ in range(2000)]
    assert np.mean([len(d) == 0 for d in draws]) > 0.99


def test_samples_avoid_position_collisions(toy_model, rng):
    model = toy_model.replace(z=20.0)
    for _ in range(200):
        cfg = poisson_sample(model, model.space.box, rng)
        assert len({p.position for p in cfg}) == len(cfg)


def test_specification_weight_cases(toy_model):
    region = Box((0.0,), (0.5,))
    assert specification_weight(FiniteConfiguration(), EMPTY_BOUNDARY,
                                toy_model, region) == 1.0
    hard = build_model("hard-core", r0=0.2)
    overlap = canonicalize([MarkedPoint((0.1,), 1.0), MarkedPoint((0.2,), 1.0)])
    assert specification_weight(overlap, EMPTY_BOUNDARY, hard, region) == 0.0
    with pytest.raises(RegionOutOfBounds):
        specification_weight(canonicalize([MarkedPoint((0.9,), 1.0)]),
                             EMPTY_BOUNDARY, toy_model, region)
    with pytest.raises(RegionOutOfBounds):
        specification_weight(FiniteConfiguration(),
                             BoundaryCondition(canonicalize(
                                 [MarkedPoint((0.2,), 1.0)])),
                             toy_model, region)


def test_specification_weight_far_boundary_identical():
    # the second case has 4 x 3 cross pairs with the far point: a pairwise
    # summed interaction energy regroups them and moves the last bit
    cases = [
        (0.2, Box((0.0,), (0.4,)), [(0.1, 1.0), (0.3, -1.0)], [(0.5, 1.0)],
         [(0.9, -1.0)]),
        (0.25, Box((0.3,), (0.7,)),
         [(0.31, -1.0), (0.37, 1.0), (0.43, -1.0), (0.63, 1.0)],
         [(0.2, 1.0), (0.8, -1.0)], [(0.02, 1.0)]),
    ]
    for range_cut, region, cand, near, far in cases:
        model = build_model("toy-repulsive-spin-rc", range_cut=range_cut)
        candidate, near, far = (canonicalize([MarkedPoint((x,), m) for x, m in pts])
                                for pts in (cand, near, far))
        w_near = specification_weight(candidate, BoundaryCondition(near), model,
                                      region)
        w_far = specification_weight(candidate, BoundaryCondition(canonicalize(
            near.points + far.points)), model, region)
        assert w_near == w_far  # bit identical


def test_collar_locality_randomized():
    model = build_model("toy-repulsive-spin-rc", range_cut=0.25)
    violations = collar_locality_trials(model, Box((0.3,), (0.7,)), trials=300,
                                        seed=8)
    assert violations == 0


@pytest.mark.parametrize("dimension, region", [
    (1, Box((0.0,), (0.4,))), (2, Box((0.0, 0.3), (0.4, 0.7)))], ids=["1d", "2d"])
def test_collar_locality_counts_periodic_images(dimension, region):
    # regions at the box edge of a periodic box: a boundary point beyond the
    # clipped collar can still lie in range through the wrap, so it is not far
    model = build_model("toy-repulsive-spin-rc", z=1.0, range_cut=0.25,
                        dimension=dimension, boundary="periodic")
    assert collar_locality_trials(model, region, trials=300, seed=0) == 0


def test_collar_locality_draws_near_points_across_the_wrap(monkeypatch):
    # region [0, 0.4) at the edge of a periodic unit box with range 0.25: the
    # band [0.75, 1) is in range through the wrap, so near points land there
    model = build_model("toy-repulsive-spin-rc", z=1.0, range_cut=0.25,
                        boundary="periodic")
    region = Box((0.0,), (0.4,))
    weight = gibbsmc.specification_weight
    boundaries = []

    def spy(candidate, boundary, *args):
        boundaries.append(boundary.exterior)
        return weight(candidate, boundary, *args)

    monkeypatch.setattr(gibbsmc, "specification_weight", spy)
    assert collar_locality_trials(model, region, trials=100, seed=0) == 0
    # the first call of each trial is weighed against its near points alone
    near = [p.position[0] for exterior in boundaries[::2] for p in exterior]
    assert all(0.4 <= x < 0.65 or 0.75 <= x < 1.0 for x in near)
    assert any(x >= 0.75 for x in near)


def test_rejection_ideal_is_poisson(ideal_model, rng):
    # zero potential accepts every proposal, so the draw is marked Poisson
    draws = rejection_sample_batch(ideal_model, ideal_model.space.box,
                                   EMPTY_BOUNDARY, 20000, rng)
    counts = np.array([len(d) for d in draws], dtype=float)
    lam = ideal_model.z * ideal_model.mass()
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - lam) <= 3 * se


def test_rejection_single_and_batch_agree_in_law(toy_model, rng):
    single = [rejection_sample_batch(toy_model, toy_model.space.box, EMPTY_BOUNDARY,
                                     1, rng)[0]
              for _ in range(4000)]
    batch = rejection_sample_batch(toy_model, toy_model.space.box,
                                   EMPTY_BOUNDARY, 4000, rng)
    m1 = np.mean([len(c) for c in single])
    m2 = np.mean([len(c) for c in batch])
    se = math.sqrt(2 * 0.05 / 4000)
    assert abs(m1 - m2) <= 4 * se


def test_rejection_one_point_law(rng):
    # on the one-point stratum the specification's law has density
    # proportional to exp(-beta W(., boundary)) for every activity, so
    # conditioning on n = 1 tests sampler exactness directly
    model = build_model("toy-repulsive-spin", z=0.05)
    boundary = BoundaryCondition(canonicalize([MarkedPoint((1.2,), 1.0)]))
    # enlarge the spatial box so the boundary point sits outside the region
    model = model.replace(space=model.space.__class__(1, (1.5,)))
    region = Box((0.0,), (1.0,))

    kept = []
    while len(kept) < 4000:
        for cfg in rejection_sample_batch(model, region, boundary, 40000, rng):
            if len(cfg) == 1:
                kept.append(cfg[0])
    xs = np.array([p.position[0] for p in kept])
    marks = np.array([p.mark for p in kept])

    # analytic half-box masses under the un-normalized density
    from scipy import integrate
    bpt = MarkedPoint((1.2,), 1.0)

    def dens(x, s):
        return math.exp(-model.beta * pair_value(model, MarkedPoint((x,), s), bpt))

    masses = {}
    for s in (1.0, -1.0):
        left = integrate.quad(dens, 0.0, 0.5, args=(s,))[0]
        right = integrate.quad(dens, 0.5, 1.0, args=(s,))[0]
        masses[(s, "left")] = 0.5 * left
        masses[(s, "right")] = 0.5 * right
    total = sum(masses.values())
    for (s, half), mass in masses.items():
        want = mass / total
        got = np.mean((marks == s) & ((xs < 0.5) if half == "left" else (xs >= 0.5)))
        se = math.sqrt(want * (1 - want) / len(kept))
        assert abs(got - want) <= 3.5 * se


def test_rejection_acceptance_floor():
    model = build_model("toy-repulsive-spin", z=30.0)
    with pytest.raises(AcceptanceTooLow):
        rejection_sample_batch(model, model.space.box, EMPTY_BOUNDARY, 1, philox_rng(1))


def test_mcmc_ideal_matches_poisson(ideal_model):
    stats = mcmc_run(ideal_model, ideal_model.space.box, EMPTY_BOUNDARY,
                     SamplerConfig(seed=5, sweeps=40000, burn_in=2000))
    lam = ideal_model.z * ideal_model.mass()
    assert abs(stats.mean_count - lam) <= 3 * stats.rho_hat_se * lam / 0.05 + 3e-3
    assert abs(stats.rho_hat - 1.0) <= 3 * stats.rho_hat_se + 1e-3


def test_mcmc_deterministic(toy_model):
    cfg = SamplerConfig(seed=11, sweeps=5000, burn_in=500)
    a = mcmc_run(toy_model, toy_model.space.box, EMPTY_BOUNDARY, cfg)
    b = mcmc_run(toy_model, toy_model.space.box, EMPTY_BOUNDARY, cfg)
    assert a.to_dict() == b.to_dict()


def test_mcmc_birth_death_balance(toy_model):
    stats = mcmc_run(toy_model, toy_model.space.box, EMPTY_BOUNDARY,
                     SamplerConfig(seed=3, sweeps=30000, burn_in=0))
    # the chain starts empty, so accepted births minus deaths is the final
    # count: a tight deterministic balance
    assert abs(stats.accepts["birth"] - stats.accepts["death"]) <= 10


def test_mcmc_vs_rejection_energy(toy_model, rng):
    draws = rejection_sample_batch(toy_model, toy_model.space.box,
                                   EMPTY_BOUNDARY, 30000, rng)
    iid = summarize_samples(draws, toy_model, toy_model.space.box)
    chain = mcmc_run(toy_model, toy_model.space.box, EMPTY_BOUNDARY,
                     SamplerConfig(seed=6, sweeps=60000, burn_in=5000))
    se = math.hypot(iid.mean_energy_se, chain.mean_energy_se)
    assert abs(iid.mean_energy - chain.mean_energy) <= 3 * se
    se_r = math.hypot(iid.rho_hat_se, chain.rho_hat_se)
    assert abs(iid.rho_hat - chain.rho_hat) <= 3 * se_r


@pytest.mark.parametrize("name, z, params", [
    ("planar-rotator", 2.0, {}),
    # the strongest mark coupling with a nonnegative potential, so that a
    # wrong mark law moves the chain's statistics
    ("ferrofluid", 2.0, {"j0": 1.0}),
    ("continuum-potts", 4.0, {})])
def test_mcmc_vs_rejection_marked_models(name, z, params, rng):
    # circle marks (planar-rotator), interval marks (ferrofluid) and a
    # hard-core, finite-range potential on three discrete marks
    # (continuum-potts): the chain's proposal marks come from each mark law
    model = build_model(name, z=z, **params)
    region = model.space.box
    draws = rejection_sample_batch(model, region, EMPTY_BOUNDARY, 20000, rng)
    iid = summarize_samples(draws, model, region)
    chain = mcmc_run(model, region, EMPTY_BOUNDARY,
                     SamplerConfig(seed=21, sweeps=40000, burn_in=2000))
    for key in ("rho_hat", "mean_energy"):
        se = math.hypot(getattr(iid, f"{key}_se"), getattr(chain, f"{key}_se"))
        assert abs(getattr(iid, key) - getattr(chain, key)) <= 3 * se, key


def test_mcmc_chain_is_a_prefix_of_a_longer_chain(monkeypatch):
    # the randoms are drawn in blocks of a fixed size, so a chain of 3000
    # sweeps keeps the states and energies of the first 3000 sweeps of a
    # 5000-sweep chain with the same seed, across block boundaries
    energies = []
    chain_stats = gibbsmc._chain_stats

    def recording(model, region, counts, kept_energies, *args, **kwargs):
        energies.append(kept_energies)
        return chain_stats(model, region, counts, kept_energies, *args, **kwargs)

    monkeypatch.setattr(gibbsmc, "_chain_stats", recording)
    model = build_model("toy-repulsive-spin", z=3.0, dimension=2, boundary="periodic")
    streams = []
    for sweeps in (3000, 5000):
        streams.append(SampleStream(2))
        mcmc_run(model, model.space.box, EMPTY_BOUNDARY,
                 SamplerConfig(seed=9, sweeps=sweeps, burn_in=100), stream=streams[-1])
    short, long = streams
    kept, rows = len(short), int(short.counts.sum())
    assert kept == 2900 and short.counts.max() >= 3
    np.testing.assert_array_equal(long.counts[:kept], short.counts)
    np.testing.assert_array_equal(long.positions[:rows], short.positions)
    np.testing.assert_array_equal(long.marks[:rows], short.marks)
    np.testing.assert_array_equal(energies[1][:kept], energies[0])


def _tau_int_reference(series):
    """_tau_int as a loop over lags of the initial positive sequence."""
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


def test_tau_int_matches_the_lag_loop(toy_model):
    rng = philox_rng(31)
    ar = np.zeros(20000)
    noise = rng.normal(size=ar.size)
    for t in range(1, ar.size):
        ar[t] = 0.95 * ar[t - 1] + noise[t]
    stream = SampleStream(1)
    mcmc_run(toy_model.replace(z=3.0), toy_model.space.box, EMPTY_BOUNDARY,
             SamplerConfig(seed=2, sweeps=6000, burn_in=0), stream=stream)
    cases = [ar, noise, stream.counts.astype(float), rng.random(9),
             np.arange(12.0), np.array([1.0, -1.0] * 10)]
    for series in cases:
        want = _tau_int_reference(series)
        assert math.isclose(gibbsmc._tau_int(series), want, rel_tol=1e-12), want
    assert _tau_int_reference(ar) > 10.0
    for series in (np.ones(50), np.arange(7.0)):
        assert gibbsmc._tau_int(series) == 1.0


def test_mcmc_with_boundary_hard_core(rng):
    # a boundary point 0.05 outside the region excludes [0.95, 1) through its
    # hard core; the chain and the exact sampler must agree under it
    model = build_model("hard-core", z=2.0, r0=0.1, side=1.5)
    region = Box((0.0,), (1.0,))
    wall = MarkedPoint((1.05,), 1.0)
    boundary = BoundaryCondition(canonicalize([wall]))
    stream = SampleStream(1)
    chain = mcmc_run(model, region, boundary,
                     SamplerConfig(seed=13, sweeps=20000, burn_in=1000),
                     stream=stream)
    assert len(stream) == chain.sample_count
    xs = stream.positions[:, 0].tolist()
    assert max(xs) <= 1.05 - 0.1
    assert max(xs) > 0.9  # the chain does reach the excluded zone's edge
    draws = rejection_sample_batch(model, region, boundary, 5000, rng)
    exact = summarize_samples(draws, model, region)
    se = math.hypot(exact.rho_hat_se, chain.rho_hat_se)
    assert abs(exact.rho_hat - chain.rho_hat) <= 4 * se


def test_default_move_step_follows_the_region():
    # the default step is 10% of the sampled region's smallest side, not the
    # model box's, so a chain on [0, 1) of a side-12 box moves by up to 0.1
    model = build_model("toy-repulsive-spin", z=3.0, side=12.0)
    region = Box((0.0,), (1.0,))
    chains = [mcmc_run(model, region, EMPTY_BOUNDARY,
                       SamplerConfig(seed=5, sweeps=8000, burn_in=500, move_step=step))
              for step in (None, 0.1)]
    assert repr(chains[0]) == repr(chains[1])


def test_mcmc_energy_drift_is_detected(toy_model, monkeypatch):
    # local energies that disagree with the pair energies must fail the
    # end-of-chain recomputation instead of passing silently
    true_cross = gibbsmc.cross_phi_matrix
    monkeypatch.setattr(gibbsmc, "cross_phi_matrix",
                        lambda *args: true_cross(*args) + 1.0)
    with pytest.raises(EnergyDrift):
        mcmc_run(toy_model.replace(z=20.0), toy_model.space.box, EMPTY_BOUNDARY,
                 SamplerConfig(seed=1, sweeps=2000, burn_in=100))


def test_mcmc_energy_drift_is_detected_when_chain_empties(toy_model, monkeypatch):
    # local energies that drift with the call count: this chain reaches two
    # points and ends empty, so the end-of-chain recompute alone (0 against 0)
    # cannot see the drift; the recompute at a kept state 1, 2, 4, ... must
    # (with the pair cache a death's delta and the tracked energy come from
    # the same values, so the emptying check sees no drifting potential)
    true_cross = gibbsmc.cross_phi_matrix
    calls = itertools.count()
    monkeypatch.setattr(gibbsmc, "cross_phi_matrix",
                        lambda *args: true_cross(*args) + 1e-3 * next(calls))
    stream = SampleStream(1)
    with pytest.raises(EnergyDrift):
        mcmc_run(toy_model.replace(z=2.0), toy_model.space.box, EMPTY_BOUNDARY,
                 SamplerConfig(seed=4, sweeps=400, burn_in=0),
                 stream=stream)
    assert stream.counts.max() >= 2


def test_mcmc_emptying_check_catches_energy_off_the_cache(toy_model, monkeypatch):
    # a tracked energy that parted from the cached pair values fails the
    # check at the emptying death: the chain empties during burn-in, before
    # the first kept-state recompute, and keeps no state
    energy_of = gibbsmc._energy_of
    monkeypatch.setattr(gibbsmc, "_energy_of", lambda values: energy_of(values) + 1e-3)
    stream = SampleStream(1)
    with pytest.raises(EnergyDrift):
        mcmc_run(toy_model.replace(z=2.0), toy_model.space.box, EMPTY_BOUNDARY,
                 SamplerConfig(seed=4, sweeps=400, burn_in=398), stream=stream)
    assert len(stream) == 0


def test_mcmc_drift_is_detected_at_emptying_without_cache(toy_model, monkeypatch):
    # a chain without its cache evaluates each death's delta afresh, so the
    # emptying check sees a drifting potential before any kept state
    true_cross = gibbsmc.cross_phi_matrix
    calls = itertools.count()
    monkeypatch.setattr(gibbsmc, "cross_phi_matrix",
                        lambda *args: true_cross(*args) + 1e-3 * next(calls))
    monkeypatch.setattr(gibbsmc, "_CACHE_VALUES", 0)
    stream = SampleStream(1)
    with pytest.raises(EnergyDrift):
        mcmc_run(toy_model.replace(z=2.0), toy_model.space.box, EMPTY_BOUNDARY,
                 SamplerConfig(seed=4, sweeps=400, burn_in=398), stream=stream)
    assert len(stream) == 0


def _chain_case(case):
    """(model, region, boundary) of a named chain."""
    if case == "hard-core-wall":
        model = build_model("hard-core", z=2.0, r0=0.1, side=1.5)
        return model, Box((0.0,), (1.0,)), BoundaryCondition(
            canonicalize([MarkedPoint((1.05,), 1.0)]))
    if case == "toy-rc-sub-region":
        model = build_model("toy-repulsive-spin-rc", z=4.0, side=3.0)
        return model, Box((1.0,), (2.0,)), BoundaryCondition(canonicalize(
            [MarkedPoint((0.8,), 1.0), MarkedPoint((2.1,), -1.0),
             MarkedPoint((2.6,), 1.0)]))
    model = build_model("toy-repulsive-spin", z=3.0, side=3.0, dimension=2,
                        boundary="periodic")
    return model, model.space.box, EMPTY_BOUNDARY


@pytest.mark.parametrize("limit", [0, 16 * (16 + 3)])
@pytest.mark.parametrize("case", ["hard-core-wall", "toy-rc-sub-region",
                                  "toy-2d-periodic"])
def test_chain_without_cache_matches_cached(case, limit, monkeypatch):
    # a chain that never caches, or drops its cache when the state passes 16
    # points (16 slots and up to 3 boundary rows fit the second limit; the
    # 2-D chain passes 16), evaluates the same values in the same order
    model, region, boundary = _chain_case(case)
    sampler = SamplerConfig(seed=3, sweeps=3000, burn_in=100, thinning=3)
    cached_stream = SampleStream(model.space.dimension)
    cached = mcmc_run(model, region, boundary, sampler, stream=cached_stream)
    monkeypatch.setattr(gibbsmc, "_CACHE_VALUES", limit)
    stream = SampleStream(model.space.dimension)
    uncached = mcmc_run(model, region, boundary, sampler, stream=stream)
    assert repr(uncached) == repr(cached)
    np.testing.assert_array_equal(stream.counts, cached_stream.counts)
    np.testing.assert_array_equal(stream.positions, cached_stream.positions)
    np.testing.assert_array_equal(stream.marks, cached_stream.marks)
    if case == "toy-2d-periodic":
        assert stream.counts.max() > 16


def test_dlr_requires_finite_range(toy_model):
    with pytest.raises(RequiresFiniteRange):
        dlr_check(toy_model, Box((0.2,), (0.6,)), toy_model.space.box)


def test_dlr_ideal(ideal_model):
    report = dlr_check(ideal_model, Box((0.2,), (0.6,)), ideal_model.space.box,
                       n_samples=4000, seed=2)
    assert report.passed


def test_dlr_toy_range_cut():
    model = build_model("toy-repulsive-spin-rc", z=0.05, range_cut=0.2)
    report = dlr_check(model, Box((0.25,), (0.75,)), model.space.box,
                       n_samples=6000, seed=4)
    assert report.passed
    for name, z in report.z_scores.items():
        assert z <= 3.0, name


def _dlr_differences_reference(model, inner_region, outer_region, n_samples, seed):
    """Paired inner-count differences made by replaying dlr_check's draws,
    merging each inner resample with its draw's exterior and restricting both
    configurations to the inner region. The padded exteriors are built here
    from the configurations, one draw at a time."""
    rng = philox_rng(seed, 17)
    draws = rejection_sample_batch(model, outer_region, EMPTY_BOUNDARY, n_samples, rng)
    exteriors = [tuple(p for p in cfg if not inner_region.contains_point(p.position))
                 for cfg in draws]
    nb, d = max(map(len, exteriors)), outer_region.dimension
    bpos, bmarks = np.zeros((n_samples, nb, d)), np.zeros((n_samples, nb))
    bmask = np.zeros((n_samples, nb), dtype=bool)
    for i, ext in enumerate(exteriors):
        for j, p in enumerate(ext):
            bpos[i, j], bmarks[i, j], bmask[i, j] = p.position, p.mark, True
    inner_draws = gibbsmc.rejection_sample_rows(model, inner_region, bpos, bmarks,
                                                bmask, rng)
    assert len(inner_draws) == n_samples
    resampled = []
    for ext, inner in zip(exteriors, inner_draws):
        assert all(inner_region.contains_point(p.position) for p in inner)
        resampled.append(canonicalize(ext + inner.points))

    def inner_count(cfg):
        return float(len(restrict(cfg, inner_region)))
    return np.asarray([inner_count(b) - inner_count(a)
                       for a, b in zip(draws, resampled)])


@pytest.mark.parametrize("seed", [2, 5])
def test_dlr_statistic_matches_resample_merge_restrict(seed):
    # the inner-count difference taken from the counts alone equals the one
    # taken from the merged and restricted configurations, bit for bit
    model = build_model("toy-repulsive-spin-rc", z=0.35)
    inner = Box((0.25,), (0.75,))
    report = dlr_check(model, inner, model.space.box, n_samples=1500, seed=seed,
                       locality_trials=10)
    diffs = _dlr_differences_reference(model, inner, model.space.box, 1500, seed)
    mean = float(diffs.mean())
    se = float(diffs.std(ddof=1)) / math.sqrt(diffs.size)
    assert report.discrepancies == {"inner_count": mean}
    assert report.standard_errors == {"inner_count": se}
    assert report.z_scores == {"inner_count": abs(mean) / se}
    assert se > 0


def test_dlr_needs_two_samples():
    # one sample would report a standard error of 0.0 and pass
    model = build_model("toy-repulsive-spin-rc", z=0.05)
    with pytest.raises(ValueError):
        dlr_check(model, Box((0.25,), (0.75,)), model.space.box, n_samples=1)


def test_sample_file_roundtrip(toy_model, rng, tmp_path):
    samples = [poisson_sample(toy_model.replace(z=3.0), toy_model.space.box, rng)
               for _ in range(20)]
    path = tmp_path / "samples.txt"
    write_sample_file(path, samples, 1)
    back = read_sample_file(path)
    assert isinstance(back, SampleStream)
    assert len(back) == len(samples)
    for a, b in zip(samples, back):
        assert a.points == b.points


@pytest.mark.parametrize("line, error", [
    ("2 0.1 1.0 0.2 -1.0 0.3", ValueError),
    ("2 0.1 1.0 0.2", ValueError),
    ("", ValueError),
    ("1.0 0.1 1.0", ValueError),
    ("1 nan 1.0", ValueError),
    ("1 abc 1.0", ValueError),
    ("2 0.1 1.0 0.1 -1.0", DuplicatePosition),
], ids=["extra_field", "short_line", "blank_line", "count_not_an_integer",
        "nan_position", "value_not_a_number", "coinciding_positions"])
def test_read_sample_file_rejects_malformed_lines(tmp_path, line, error):
    path = tmp_path / "samples.txt"
    path.write_text(f"# markedgibbs-samples v1 d=1\n1 0.5 1.0\n{line}\n0\n")
    with pytest.raises(error, match="line 3" if error is ValueError else None):
        read_sample_file(path)


@pytest.mark.parametrize("header", [
    "# markedgibbs-samples v1",
    "# markedgibbs-samples v1 d=x",
    "# markedgibbs-samples v1 d=0",
    "# markedgibbs-samples v1 d=-1",
    "# other-samples v1 d=1",
], ids=["no_dimension", "dimension_not_an_integer", "dimension_zero",
        "dimension_negative", "wrong_magic"])
def test_read_sample_file_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "samples.txt"
    path.write_text(f"{header}\n1 0.5 1.0\n")
    with pytest.raises(ValueError, match="line 1"):
        read_sample_file(path)


def test_read_sample_file_sorts_points(tmp_path):
    path = tmp_path / "samples.txt"
    path.write_text("# markedgibbs-samples v1 d=1\n2 0.7 1.0 0.2 -1.0\n")
    (cfg,) = read_sample_file(path)
    assert [(p.position, p.mark) for p in cfg] == [((0.2,), -1.0), ((0.7,), 1.0)]


# ---------------------------------------------------------------------------
# grouped pair statistics and kept-prefix rejection against per-sample oracles


def _pair_bins(region):
    return np.linspace(0.0, max(u - l for l, u in zip(region.lower, region.upper)), 33)


def _pair_histogram_reference(samples, model, region):
    """Sum over samples of the histogram of each one's pair distances."""
    bins = _pair_bins(region)
    counts = np.zeros(len(bins) - 1)
    for s in samples:
        if len(s) >= 2:
            pos = s.positions_array()
            dist = model.space.distance_batch(pos[:, None, :], pos[None, :, :])
            iu, ju = np.triu_indices(len(s), 1)
            counts += np.histogram(dist[iu, ju], bins=bins)[0]
    return tuple(counts.tolist())


def _energy_reference(model, s):
    """Pair energy of one sample as a 1-D sum, +inf where any pair is."""
    if len(s) < 2:
        return 0.0
    vals = pair_phi_matrix(model, s.positions_array()[None],
                           s.marks_array()[None])[0]
    return math.inf if np.any(np.isinf(vals)) else float(np.sum(vals))


def _summarize_reference(samples, model, region):
    """summarize_samples as one loop over the samples."""
    counts = np.asarray([len(s) for s in samples], dtype=float)
    energies = np.asarray([_energy_reference(model, s) for s in samples])
    k = counts.size
    denom = model.z * model.mass(region)
    return gibbsmc.ChainStats(
        sweeps=k, burn_in=0, thinning=1, sample_count=k,
        attempts={"birth": 0, "death": 0, "move": 0, "mark": 0},
        accepts={"birth": 0, "death": 0, "move": 0, "mark": 0},
        mean_count=float(counts.mean()),
        rho_hat=float(counts.mean()) / denom,
        rho_hat_se=float(counts.std(ddof=1)) / math.sqrt(k) / denom,
        tau_int=1.0,
        mean_energy=float(energies.mean()),
        mean_energy_se=float(energies.std(ddof=1)) / math.sqrt(k),
        pair_histogram_edges=tuple(_pair_bins(region).tolist()),
        pair_histogram_counts=_pair_histogram_reference(samples, model, region))


@pytest.mark.parametrize("model", [
    build_model("toy-repulsive-spin", z=0.05),
    build_model("hard-core", z=0.05, r0=0.1),
    build_model("toy-repulsive-spin", z=0.05, dimension=2, boundary="periodic"),
], ids=["toy", "hard-core", "toy-2d-periodic"])
def test_summarize_samples_matches_per_sample_loop(model, rng):
    # every size from 0 to 9, shuffled; hard-core samples include +inf
    # energies, which are an error naming the first such sample
    sizes = rng.permutation(np.repeat(np.arange(10), 7))
    samples = [random_config(model, int(n), rng) for n in sizes]
    if model.potential.name == "hard-core":
        energies = [_energy_reference(model, s) for s in samples]
        first = energies.index(math.inf)
        with pytest.raises(ValueError, match=rf"^sample {first} "):
            summarize_samples(samples, model, model.space.box)
        samples = [s for s, e in zip(samples, energies) if e < math.inf]
        assert max(len(s) for s in samples) >= 3
    got = summarize_samples(samples, model, model.space.box)
    want = _summarize_reference(samples, model, model.space.box)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("samples", [[], [FiniteConfiguration()]], ids=["0", "1"])
def test_summarize_samples_needs_two_samples(toy_model, samples):
    # one sample would claim a standard error of 0.0, none a NaN density
    with pytest.raises(ValueError):
        summarize_samples(samples, toy_model, toy_model.space.box)


@pytest.mark.parametrize("case", ["toy-1d", "toy-2d-periodic", "boundary"])
def test_mcmc_pair_histogram_matches_its_samples(case):
    if case == "toy-1d":
        model = build_model("toy-repulsive-spin", z=3.0)
        boundary = EMPTY_BOUNDARY
    elif case == "toy-2d-periodic":
        model = build_model("toy-repulsive-spin", z=3.0, dimension=2,
                            boundary="periodic")
        boundary = EMPTY_BOUNDARY
    else:
        model = build_model("hard-core", z=2.0, r0=0.1, side=1.5)
        boundary = BoundaryCondition(canonicalize([MarkedPoint((1.05,), 1.0)]))
    region = Box((0.0,) * model.space.dimension, (1.0,) * model.space.dimension)
    stream = SampleStream(model.space.dimension)
    chain = mcmc_run(model, region, boundary,
                     SamplerConfig(seed=6, sweeps=3000, burn_in=200, thinning=3),
                     stream=stream)
    assert stream.counts.max() >= 3
    kept = stream.configurations()
    assert chain.pair_histogram_edges == tuple(_pair_bins(region).tolist())
    assert chain.pair_histogram_counts == _pair_histogram_reference(kept, model, region)
    assert sum(chain.pair_histogram_counts) > 0


@pytest.mark.parametrize("flush", [1, 7, 50])
def test_mcmc_pair_histogram_binned_in_parts(flush, monkeypatch):
    # binning the kept states in parts mid-chain changes no output byte
    model = build_model("toy-repulsive-spin", z=3.0, dimension=2, boundary="periodic")
    region = model.space.box
    sampler = SamplerConfig(seed=4, sweeps=2000, burn_in=100, thinning=2)
    whole = mcmc_run(model, region, EMPTY_BOUNDARY, sampler)
    monkeypatch.setattr(gibbsmc, "_FLUSH_PAIRS", flush)
    stream = SampleStream(2)
    parts = mcmc_run(model, region, EMPTY_BOUNDARY, sampler, stream=stream)
    assert repr(parts) == repr(whole)
    assert parts.pair_histogram_counts == _pair_histogram_reference(
        stream.configurations(), model, region)


@pytest.mark.parametrize("case", ["toy-2d-periodic", "hard-core-wall",
                                  "continuum-potts", "toy-past-capacity"])
def test_chain_energies_match_kept_states(case):
    # the energy tracked from the chain's cached pair values, averaged over
    # the kept states, equals the mean of their energies computed afresh
    boundary = EMPTY_BOUNDARY
    region = None
    if case == "toy-2d-periodic":
        model = build_model("toy-repulsive-spin", z=3.0, dimension=2,
                            boundary="periodic")
    elif case == "hard-core-wall":
        model = build_model("hard-core", z=2.0, r0=0.1, side=1.5)
        region = Box((0.0,), (1.0,))
        boundary = BoundaryCondition(canonicalize([MarkedPoint((1.05,), 1.0)]))
    elif case == "continuum-potts":
        model = build_model("continuum-potts", z=4.0)
    else:
        model = build_model("toy-repulsive-spin", z=20.0, side=4.0)
    region = region or model.space.box
    d = model.space.dimension
    stream = SampleStream(d)
    chain = mcmc_run(model, region, boundary,
                     SamplerConfig(seed=6, sweeps=4000, burn_in=200, thinning=2),
                     stream=stream)
    counts, positions, marks = stream.counts, stream.positions, stream.marks
    if case == "toy-past-capacity":
        assert counts.max() > gibbsmc._STATE_CAPACITY
    energies = np.zeros(len(stream))
    for _, rows, idx in gibbsmc._size_groups(counts):
        energies[rows] = gibbsmc._pair_energy_batch(model, positions[idx], marks[idx])
    bpos = boundary.exterior.positions_array().reshape(-1, d)
    bmarks = boundary.exterior.marks_array()
    for i, start in enumerate((np.cumsum(counts) - counts).tolist()):
        rows = slice(start, start + counts[i])
        energies[i] += gibbsmc._interaction_sum(model, positions[rows], marks[rows],
                                                bpos, bmarks)
    assert np.isfinite(energies).all()
    assert math.isclose(energies.mean(), chain.mean_energy, rel_tol=1e-12)


def _write_sample_file_reference(path, samples, dimension):
    """The spill written one configuration and one point at a time."""
    with open(path, "w") as fh:
        fh.write(f"# markedgibbs-samples v1 d={dimension}\n")
        for cfg in samples:
            fields = [str(len(cfg))]
            for p in cfg.points:
                fields.extend(f"{x!r}" for x in p.position)
                fields.append(f"{p.mark!r}")
            fh.write(" ".join(fields) + "\n")


def test_sample_stream_round_trip(rng, tmp_path):
    # states appended in any point order come back as canonical
    # configurations, and the spill written from the stream has the bytes of
    # one written point by point from those configurations
    model = build_model("toy-repulsive-spin", z=3.0, dimension=2, boundary="periodic")
    stream = SampleStream(2)
    want = []
    for n in rng.permutation(np.repeat(np.arange(8), 6)).tolist():
        pos = rng.random((n, 2))
        pos[:, 0] = np.round(4 * pos[:, 0]) / 4  # ties in the first coordinate
        marks = model.marks.sample(rng, n)
        stream.append(pos, marks)
        want.append(canonicalize([MarkedPoint(tuple(p), m)
                                  for p, m in zip(pos.tolist(), marks.tolist())]))
    got = stream.configurations()
    assert [[(p.position, p.mark) for p in c] for c in got] == \
        [[(p.position, p.mark) for p in c] for c in want]
    write_sample_file(tmp_path / "stream.txt", stream, 2)
    _write_sample_file_reference(tmp_path / "reference.txt", want, 2)
    write_sample_file(tmp_path / "configs.txt", want, 2)
    spill = (tmp_path / "stream.txt").read_bytes()
    assert spill == (tmp_path / "reference.txt").read_bytes()
    assert spill == (tmp_path / "configs.txt").read_bytes()
    stream.append(np.asarray([[0.5, 0.25], [0.5, 0.25]]), np.asarray([1.0, -1.0]))
    with pytest.raises(DuplicatePosition):
        stream.configurations()


def test_sample_stream_is_a_sequence_of_configurations(rng):
    # len, iteration and indexing give the canonical configurations of
    # samples appended in any point order, empty ones included
    stream = SampleStream(2)
    for n in rng.permutation(np.repeat(np.arange(5), 4)).tolist():
        stream.append(rng.random((n, 2)), rng.choice([1.0, -1.0], n))
    want = stream.configurations()
    assert len(stream) == len(want) == 20
    assert list(stream) == want
    assert [stream[i] for i in range(len(stream))] == want
    for a, b in zip(stream, want):
        assert [(p.position, p.mark) for p in a] == [(p.position, p.mark) for p in b]
    assert stream[-1] == want[-1]
    # a slice reads as the list's slice: plain, negative and stepped
    for cut in (slice(0, 1), slice(3, 9), slice(-4, None), slice(-7, -2),
                slice(None, None, 3), slice(15, 2, -4), slice(30, 40)):
        assert stream[cut] == want[cut], cut
    with pytest.raises(IndexError):
        stream[20]
    # an index past a further append reads that sample's rows, not its
    # predecessors'
    stream.append(np.array([[0.5, 0.25], [0.125, 0.75]]), np.array([1.0, -1.0]))
    assert len(stream) == 21 and list(stream)[:-1] == want
    assert [(p.position, p.mark) for p in stream[20]] == [((0.125, 0.75), -1.0),
                                                         ((0.5, 0.25), 1.0)]
    assert stream[-2] == want[-1]


def test_sample_streams_compare_by_their_rows():
    model = build_model("toy-repulsive-spin", z=3.0, dimension=2, boundary="periodic")
    box = model.space.box

    def draws(seed):
        return rejection_sample_batch(model, box, EMPTY_BOUNDARY, 500, philox_rng(seed))
    first, again, other = draws(4), draws(4), draws(5)
    assert first == again and not first != again
    assert first != other
    assert first != list(first)
    # the same rows with one mark changed, one point moved to the next
    # sample, or read in another dimension
    marks = first.marks.copy()
    marks[-1] = -marks[-1]
    assert first != SampleStream.from_arrays(first.counts, first.positions, marks)
    counts = first.counts.copy()
    i = int(np.flatnonzero(counts)[0])
    counts[i] -= 1
    counts[i + 1] += 1
    assert first != SampleStream.from_arrays(counts, first.positions, first.marks)
    flat = SampleStream.from_arrays(first.counts, first.positions.reshape(-1, 1)[::2],
                                    first.marks)
    assert first != flat


def test_spill_blocks_change_no_byte(rng, tmp_path, monkeypatch):
    # the writer converts a block of samples at a time; blocks of 4 samples
    # (some empty, the last one short) give the bytes of the point-by-point
    # reference
    stream = SampleStream(2)
    for n in rng.integers(0, 6, size=30).tolist():
        stream.append(rng.random((n, 2)), rng.choice([1.0, -1.0], n))
    monkeypatch.setattr(gibbsmc, "_SPILL_BLOCK", 4)
    write_sample_file(tmp_path / "blocks.txt", stream, 2)
    _write_sample_file_reference(tmp_path / "reference.txt",
                                 stream.configurations(), 2)
    assert (tmp_path / "blocks.txt").read_bytes() == \
        (tmp_path / "reference.txt").read_bytes()


@pytest.mark.parametrize("model", [
    build_model("toy-repulsive-spin", z=0.05),
    build_model("hard-core", z=0.05, r0=0.1),
], ids=["toy", "hard-core"])
def test_config_energy_is_a_row_of_the_batch(model, rng):
    # the scalar energy equals the 1-D sum over the upper triangle, +inf included
    for n in range(10):
        for _ in range(5):
            s = random_config(model, n, rng)
            e = 0.0
            if n >= 2:
                vals = pair_phi_matrix(model, s.positions_array()[None],
                                       s.marks_array()[None])[0]
                e = math.inf if np.any(np.isinf(vals)) else float(np.sum(vals))
            got = gibbsmc._config_energy_arrays(model, s.positions_array(),
                                                s.marks_array())
            assert got == e


def test_config_energy_above_one_block_is_summed_in_bounded_memory(rng):
    # a 1,500-point state has 1,124,250 pairs; unblocked, its pair values and
    # their temporaries peak near 70 MB
    model = build_model("toy-repulsive-spin", z=0.05)
    n = 1500
    pos, marks = rng.random((n, 1)), model.marks.sample(rng, n)
    assert n * (n - 1) // 2 > gibbsmc._ENERGY_BLOCK
    want = float(gibbsmc._pair_energy_batch(model, pos[None], marks[None])[0])
    tracemalloc.start()
    try:
        got = gibbsmc._config_energy_arrays(model, pos, marks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got - want) <= 1e-12 * abs(want)
    assert peak < 8 << 20, peak
    hard = build_model("hard-core", z=0.05, r0=0.1)
    assert gibbsmc._config_energy_arrays(hard, pos, marks) == math.inf


def _rejection_sample_batch_reference(model, region, boundary, count, rng):
    """rejection_sample_batch building a configuration for every accepted row."""
    lo, hi, d = np.asarray(region.lower), np.asarray(region.upper), region.dimension
    bpos = boundary.exterior.positions_array().reshape(-1, d)
    bmarks = boundary.exterior.marks_array()
    # B' is the K = 1 row of the row-wise inflation
    b_prime = float(gibbsmc._boundary_inflation(
        model, region, bpos[None], np.ones((1, bmarks.size), dtype=bool))[0])
    lam = model.z * math.exp(model.beta * b_prime) * model.mass(region)
    out = []
    while len(out) < count:
        batch = max(gibbsmc._MIN_BATCH, int(1.5 * (count - len(out))))
        ns = rng.poisson(lam, size=batch)
        us = rng.random(batch)
        accepted = [None] * batch
        for n in np.unique(ns):
            rows = np.where(ns == n)[0]
            k = rows.size
            if n == 0:
                for row in rows:
                    accepted[row] = FiniteConfiguration()
                continue
            pos = lo + rng.random((k, int(n), d)) * (hi - lo)
            marks = model.marks.sample(rng, k * int(n)).reshape(k, int(n))
            weights = gibbsmc.boltzmann_weight_batch(model, pos, marks, bpos, bmarks)
            accept = us[rows] < weights * math.exp(-model.beta * b_prime * int(n))
            for g in np.where(accept)[0]:
                pts = [MarkedPoint(tuple(pos[g, j]), float(marks[g, j]))
                       for j in range(int(n))]
                if len({p.position for p in pts}) == int(n):
                    accepted[rows[g]] = canonicalize(pts)
        out.extend(cfg for cfg in accepted if cfg is not None)
    return out[:count]


def _padded_exteriors(exteriors, d, fill):
    """Exteriors as (K, nb, d) positions and (K, nb) marks with their mask;
    a padded entry holds ``fill`` (a position and a mark)."""
    nb = max(map(len, exteriors))
    bpos = np.tile(np.asarray(fill[0], dtype=float), (len(exteriors), nb, 1))
    bmarks = np.full((len(exteriors), nb), fill[1])
    bmask = np.zeros((len(exteriors), nb), dtype=bool)
    for i, ext in enumerate(exteriors):
        for j, p in enumerate(ext):
            bpos[i, j], bmarks[i, j], bmask[i, j] = p.position, p.mark, True
    return bpos, bmarks, bmask


@pytest.mark.parametrize("name", ["toy-repulsive-spin-rc", "hard-core"])
@pytest.mark.parametrize("space", [{}, {"dimension": 2, "boundary": "periodic"}],
                         ids=["1d-free", "2d-periodic"])
def test_per_row_boundary_weight_is_the_specification_weight(name, space, rng):
    # each row's weight against its own padded exterior has the bits of
    # specification_weight against that exterior alone; exteriors of 0 to 6
    # points, some beyond the range collar. A padded entry sits on the row's
    # first point, where a hard core would make the weight 0 if it counted.
    model = build_model(name, z=2.0, **space, **({"r0": 0.05} if name == "hard-core" else {}))
    d = model.space.dimension
    region = Box((0.3,) * d, (0.7,) * d)
    for n in (1, 2, 3):
        candidates = [canonicalize(
            MarkedPoint(tuple(p), m) for p, m in zip((0.3 + 0.4 * rng.random((n, d))).tolist(),
                                                     model.marks.sample(rng, n).tolist()))
            for _ in range(40)]
        exteriors = []
        for i in range(len(candidates)):
            pts = []
            while len(pts) < i % 7:
                pos = tuple(rng.random(d).tolist())
                if not region.contains_point(pos):
                    pts.append(MarkedPoint(pos, float(model.marks.sample(rng, 1)[0])))
            exteriors.append(canonicalize(pts))
        positions = np.stack([c.positions_array() for c in candidates])
        marks = np.stack([c.marks_array() for c in candidates])
        bpos, bmarks, bmask = _padded_exteriors(exteriors, d, (positions[0, 0], marks[0, 0]))
        bpos[~bmask] = positions[:, :1].repeat(bpos.shape[1], axis=1)[~bmask]
        got = gibbsmc.boltzmann_weight_batch(model, positions, marks, bpos, bmarks, bmask)
        want = [specification_weight(c, BoundaryCondition(e), model, region)
                for c, e in zip(candidates, exteriors)]
        assert got.tolist() == want
        assert 0.0 < got.max()


@pytest.mark.parametrize("case", ["toy-rc", "constant-B"])
def test_rejection_rows_under_one_boundary_match_the_batch_in_law(case):
    # the row-wise resampler with one boundary repeated in every row against
    # rejection_sample_batch under it: |z| <= 3 on the mean count. The
    # constant potential declares B = 0.1, so B' and lambda grow with the
    # boundary.
    region = Box((0.25,), (0.75,))
    if case == "toy-rc":
        model = build_model("toy-repulsive-spin-rc", z=3.0, range_cut=0.2)
    else:
        model = build_model("constant", z=1.0, value=0.3, declared_B=0.1)
    boundary = canonicalize([MarkedPoint((0.1,), 1.0), MarkedPoint((0.8,), -1.0),
                             MarkedPoint((0.95,), 1.0)])
    k = 20000
    bpos = np.tile(boundary.positions_array(), (k, 1, 1))
    bmarks = np.tile(boundary.marks_array(), (k, 1))
    rows = gibbsmc.rejection_sample_rows(model, region, bpos, bmarks,
                                         np.ones(bmarks.shape, dtype=bool),
                                         philox_rng(8))
    batch = rejection_sample_batch(model, region, BoundaryCondition(boundary), k,
                                   philox_rng(9))
    a, b = rows.counts.astype(float), batch.counts.astype(float)
    se = math.hypot(a.std(ddof=1) / math.sqrt(k), b.std(ddof=1) / math.sqrt(k))
    assert abs(a.mean() - b.mean()) <= 3 * se
    assert all(region.contains_point(p.position) for cfg in rows for p in cfg)


def test_rejection_rows_condition_each_row_on_its_own_boundary():
    # odd rows carry a hard-core wall 0.05 beyond the region's right end, so
    # no point of theirs lies in [0.95, 1); even rows have no boundary
    model = build_model("hard-core", z=2.0, r0=0.1, side=1.5)
    region = Box((0.0,), (1.0,))
    k = 4000
    exteriors = [(MarkedPoint((1.05,), 1.0),) if i % 2 else () for i in range(k)]
    bpos, bmarks, bmask = _padded_exteriors(exteriors, 1, ((0.5,), 1.0))
    draws = gibbsmc.rejection_sample_rows(model, region, bpos, bmarks, bmask,
                                          philox_rng(3))
    right = [max((p.position[0] for p in cfg), default=0.0) for cfg in draws]
    assert max(right[1::2]) < 0.95
    assert max(right[0::2]) >= 0.95


class _CoarseRng:
    """A generator whose uniforms lie on a grid of eighths, so proposals with
    coinciding positions are common."""

    def __init__(self, seed):
        self._rng = philox_rng(seed)

    def poisson(self, lam, size=None):
        return self._rng.poisson(lam, size=size)

    def random(self, size=None):
        return np.floor(self._rng.random(size) * 8.0) / 8.0


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", ["free", "boundary", "collisions"])
def test_rejection_batch_matches_construction_loop(seed, case):
    # at z = 3 the first proposal batch accepts too few, so a second one runs
    model = build_model("toy-repulsive-spin-rc", z=3.0, range_cut=0.2)
    region, boundary = model.space.box, EMPTY_BOUNDARY
    if case == "boundary":
        region = Box((0.25,), (0.75,))
        boundary = BoundaryCondition(canonicalize(
            [MarkedPoint((0.1,), 1.0), MarkedPoint((0.8,), -1.0),
             MarkedPoint((0.95,), 1.0)]))
    make_rng = _CoarseRng if case == "collisions" else philox_rng
    rng_a, rng_b = make_rng(seed), make_rng(seed)
    got = rejection_sample_batch(model, region, boundary, 1500, rng_a)
    want = _rejection_sample_batch_reference(model, region, boundary, 1500, rng_b)
    assert [[(p.position, p.mark) for p in c] for c in got] == \
        [[(p.position, p.mark) for p in c] for c in want]
    # both consumed the same draws
    assert rng_a.random() == rng_b.random()


def _rejection_sample_rows_reference(model, region, exteriors, rng):
    """rejection_sample_rows building a configuration for every kept proposal:
    each round every pending row makes ceil(16 / pending rows) proposals
    under its own exterior alone and keeps its first accepted one."""
    lo, hi, d = np.asarray(region.lower), np.asarray(region.upper), region.dimension
    ext_arrays = [(e.positions_array().reshape(-1, d), e.marks_array()) for e in exteriors]
    b_primes, lams = [], []
    for bpos, bmarks in ext_arrays:
        # B' is the K = 1 row of the row-wise inflation
        b_prime = float(gibbsmc._boundary_inflation(
            model, region, bpos[None], np.ones((1, bmarks.size), dtype=bool))[0])
        b_primes.append(b_prime)
        lams.append(model.z * math.exp(model.beta * b_prime) * model.mass(region))
    out = [None] * len(exteriors)
    pending = list(range(len(exteriors)))
    while pending:
        per_row = math.ceil(gibbsmc._MIN_BATCH / len(pending))
        owner = [r for r in pending for _ in range(per_row)]
        ns = np.array([int(rng.poisson(lams[r])) for r in owner])
        us = rng.random(len(owner))
        accepted = [FiniteConfiguration() if n == 0 else None for n in ns]
        for n in np.unique(ns[ns > 0]).tolist():
            rows = np.flatnonzero(ns == n)
            pos = lo + rng.random((rows.size, n, d)) * (hi - lo)
            marks = model.marks.sample(rng, rows.size * n).reshape(rows.size, n)
            for g, i in enumerate(rows.tolist()):
                bpos, bmarks = ext_arrays[owner[i]]
                weight = gibbsmc.boltzmann_weight_batch(model, pos[g][None], marks[g][None],
                                                        bpos, bmarks)[0]
                pts = [MarkedPoint(tuple(pos[g, j]), float(marks[g, j])) for j in range(n)]
                if (us[i] < weight * math.exp(-model.beta * b_primes[owner[i]] * n)
                        and len({p.position for p in pts}) == n):
                    accepted[i] = canonicalize(pts)
        for i, r in enumerate(owner):
            if out[r] is None and accepted[i] is not None:
                out[r] = accepted[i]
        pending = [r for r in pending if out[r] is None]
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("case", ["toy-rc", "constant-B", "collisions"])
def test_rejection_rows_match_construction_loop(seed, case):
    # 40 exteriors of 0 to 4 points, some beyond the range collar; the
    # constant potential declares B = 0.1, so every row has its own lambda
    if case == "constant-B":
        model = build_model("constant", z=1.0, value=0.3, declared_B=0.1)
    else:
        model = build_model("toy-repulsive-spin-rc", z=3.0, range_cut=0.2)
    region = Box((0.25,), (0.75,))
    rng = philox_rng(seed, 5)
    exteriors = []
    for i in range(40):
        xs = 0.5 * rng.random(i % 5)
        xs[xs >= 0.25] += 0.5  # outside the region [0.25, 0.75)
        exteriors.append(canonicalize(
            MarkedPoint((x,), m)
            for x, m in zip(xs.tolist(), model.marks.sample(rng, i % 5).tolist())))
    bpos, bmarks, bmask = _padded_exteriors(exteriors, 1, ((0.0,), 1.0))
    make_rng = _CoarseRng if case == "collisions" else philox_rng
    rng_a, rng_b = make_rng(seed), make_rng(seed)
    got = gibbsmc.rejection_sample_rows(model, region, bpos, bmarks, bmask, rng_a)
    want = _rejection_sample_rows_reference(model, region, exteriors, rng_b)
    assert [[(p.position, p.mark) for p in c] for c in got] == \
        [[(p.position, p.mark) for p in c] for c in want]
    # both consumed the same draws
    assert rng_a.random() == rng_b.random()


# Chains pinned bit for bit: sha256 prefixes of the kept counts (int64), the
# kept energies, the stream's positions and marks and the pair histogram
# (float64, little-endian), then the attempts and accepts per kind (birth,
# death, move, mark). "coinciding" draws its uniforms on a grid of eighths
# and moves by multiples of 1/8, so its points stay on eight positions: moves
# stack points on one position, and a birth there stays a null proposal
# until the last of them leaves. The values were generated by the chain that
# appended each kept state to the stream and compared a birth with every
# state row, on numpy 2.4.6 (x86-64); a numpy or libm whose exp rounds
# differently changes them without a fault in the chain.
_PINNED_CHAINS = {
    "perfbench-toy": (("7767029b0e522fd7", "f3590d98c48c4b03", "6b59bf435d0106c3",
                       "3797e275f943c983", "2c500e3bf809e9ba"),
                      (1810, 1823, 1791, 576), (1444, 1441, 1589, 558)),
    "low-z-toy": (("a78c001328624db0", "07d065e6f1896aa0", "7d4f61b21bbd2f48",
                   "629c3f9490dbb75f", "5341e6b2646979a7"),
                  (1841, 1748, 1812, 599), (106, 106, 105, 38)),
    "toy-rc-boundary": (("e8fdd6748e70643c", "82d25b7749059ffc", "ab04269d3bfc3626",
                         "21c86adc37325ae1", "ca01e1e169ed640e"),
                        (1234, 1203, 1179, 384), (761, 760, 1015, 343)),
    "hard-core-wall": (("3e5bc74973a44897", "aa928f485c335e07", "5ca2687de5e1bfbe",
                        "98e7c7c825af124b", "904bd4354b64420a"),
                       (1234, 1203, 1179, 384), (727, 726, 884, 315)),
    "toy-2d-periodic": (("e0e2b30a25ce9748", "5e511f5fcea21826", "74891120da85c21e",
                         "dba9dce9a1f3c96c", "cce39a4db59ce6ca"),
                        (1247, 1174, 1193, 386), (1045, 1025, 1093, 372)),
    "coinciding": (("0ae5a8a6818cfe42", "b0764b7d878962fa", "78dd41c2a1ad4e72",
                    "8e44cb5498c9db8b", "c7e7bca946763682"),
                   (1467, 987, 1546, 0), (758, 756, 969, 0)),
}


def _pinned_chain(case):
    """(model, region, boundary, sampler) of a pinned chain."""
    if case in ("toy-rc-boundary", "hard-core-wall"):
        model, region, boundary = _chain_case(
            "toy-rc-sub-region" if case == "toy-rc-boundary" else case)
        return model, region, boundary, SamplerConfig(
            seed=3, sweeps=4000, burn_in=100, thinning=3 if case == "toy-rc-boundary" else 2)
    if case == "perfbench-toy":
        model = build_model("toy-repulsive-spin", z=0.35, side=12.0)
        sampler = SamplerConfig(seed=5, sweeps=6000, burn_in=1000)
    elif case == "low-z-toy":
        model = build_model("toy-repulsive-spin", z=0.05)
        sampler = SamplerConfig(seed=7, sweeps=6000, burn_in=500)
    elif case == "coinciding":
        model = build_model("toy-repulsive-spin", z=3.0)
        sampler = SamplerConfig(seed=2, sweeps=4000, burn_in=100, move_step=0.5)
    else:
        model = build_model("toy-repulsive-spin", z=3.0, side=3.0, dimension=2,
                            boundary="periodic")
        sampler = SamplerConfig(seed=3, sweeps=4000, burn_in=100)
    return model, model.space.box, EMPTY_BOUNDARY, sampler


@pytest.mark.parametrize("case", ["perfbench-toy", "low-z-toy", "toy-rc-boundary",
                                  "hard-core-wall", "toy-2d-periodic", "no-cache",
                                  "flush-7", "coinciding"])
def test_chain_stays_bit_identical(case, monkeypatch):
    # the 2-D periodic chain passes 32 points, so its buffers double twice;
    # "no-cache" runs it with a cache that is dropped when they first double,
    # "flush-7" flushes its kept rows every few states: both keep its bits
    pinned = "toy-2d-periodic" if case in ("no-cache", "flush-7") else case
    if case == "no-cache":
        monkeypatch.setattr(gibbsmc, "_CACHE_VALUES", 16 * 16)
    if case == "flush-7":
        monkeypatch.setattr(gibbsmc, "_FLUSH_PAIRS", 7)
    if case == "coinciding":
        monkeypatch.setattr(gibbsmc, "philox_rng", _CoarseRng)
    energies = []
    chain_stats = gibbsmc._chain_stats

    def recording(model, region, counts, kept_energies, *args, **kwargs):
        energies.append(kept_energies)
        return chain_stats(model, region, counts, kept_energies, *args, **kwargs)

    monkeypatch.setattr(gibbsmc, "_chain_stats", recording)
    model, region, boundary, sampler = _pinned_chain(pinned)
    stream = SampleStream(model.space.dimension)
    chain = mcmc_run(model, region, boundary, sampler, stream=stream)
    parts = (stream.counts.astype("<i8"), energies[0].astype("<f8"),
             stream.positions.astype("<f8"), stream.marks.astype("<f8"),
             np.asarray(chain.pair_histogram_counts, dtype="<f8"))
    hashes = tuple(hashlib.sha256(p.tobytes()).hexdigest()[:16] for p in parts)
    assert (hashes, tuple(chain.attempts.values()),
            tuple(chain.accepts.values())) == _PINNED_CHAINS[pinned]
    if case == "coinciding":
        starts = (np.cumsum(stream.counts) - stream.counts).tolist()
        assert any(len(set(map(tuple, stream.positions[s:s + n].tolist()))) < n
                   for s, n in zip(starts, stream.counts.tolist()))


def _spill_reference(stream, d):
    """The spill text, one sample's line at a time: its count, then repr of
    each coordinate and mark of its points in canonical order."""
    canon = stream.canonical()
    rows = np.column_stack([canon.positions, canon.marks]).tolist()
    lines = [f"# markedgibbs-samples v1 d={d}"]
    start = 0
    for n in canon.counts.tolist():
        values = [v for row in rows[start:start + n] for v in row]
        lines.append(" ".join([str(n), *map(repr, values)]))
        start += n
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("d", [1, 2])
def test_spill_formats_each_value_by_its_bits(d, tmp_path):
    # -0.0 and 0.0, subnormals, values where repr switches notation (1e16,
    # 1e-5) and their neighbours, empty samples, and more samples than one
    # block; the first coordinate is unique, so no sample has coinciding
    # positions
    rng = philox_rng(12)
    specials = np.array([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e16,
                         np.nextafter(1e16, 0.0), 1e-5, np.nextafter(1e-5, 1.0),
                         0.1, 1.0, -3.5, 123456789.125])
    counts = rng.integers(0, 5, size=2 * gibbsmc._SPILL_BLOCK + 37)
    counts[:40] = 0
    rows = int(counts.sum())
    positions = np.empty((rows, d))
    positions[:, 0] = rng.permutation(rows) / 7.0 - 40.0
    positions[rng.random(rows) < 0.1, 0] = -0.0
    positions[:, 1:] = rng.choice(specials, size=(rows, d - 1))
    marks = rng.choice(specials, size=rows)
    # only one -0.0 per sample in the first coordinate: every zero but the
    # first of each sample becomes a unique value again
    starts = np.cumsum(counts) - counts
    for s, n in zip(starts.tolist(), counts.tolist()):
        zeros = np.flatnonzero(positions[s:s + n, 0] == 0.0)
        positions[s + zeros[1:], 0] = 1e6 + s + zeros[1:]
    stream = SampleStream.from_arrays(counts, positions, marks)
    path = tmp_path / "spill.txt"
    write_sample_file(path, stream, d)
    assert path.read_text() == _spill_reference(stream, d)
    text = path.read_text()
    assert " -0.0" in text and " 0.0" in text and " 5e-324" in text
    assert " 1e+16" in text and " 1e-05" in text
    back = read_sample_file(path)
    canon = stream.canonical()
    np.testing.assert_array_equal(back.counts, canon.counts)
    assert back.positions.tobytes() == canon.positions.tobytes()
    assert back.marks.tobytes() == canon.marks.tobytes()


def test_sample_stream_extend_adds_samples_in_order(rng):
    # one extend of 40 rows (past the initial 16) equals appending its
    # samples one at a time; counts that do not split the rows are refused
    counts = [3, 0, 7, 1, 0, 12, 9, 8]
    positions, marks = rng.random((40, 2)), rng.choice([1.0, -1.0], 40)
    extended = SampleStream(2)
    extended.extend(counts, positions, marks)
    appended = SampleStream(2)
    for s, n in zip((np.cumsum(counts) - counts).tolist(), counts):
        appended.append(positions[s:s + n], marks[s:s + n])
    assert extended == appended
    np.testing.assert_array_equal(extended.counts, counts)
    for bad in ([39], [41], [-1, 41]):
        with pytest.raises(ValueError):
            extended.extend(bad, positions, marks)
    assert extended == appended


def test_rejection_sampler_fails_closed_on_an_unstable_potential():
    # the constant potential -1.0 under its declared B = 0 gives a 2-point
    # proposal the weight e > exp(beta B' n) = 1: that proposal witnesses
    # the false bound, instead of counting as accepted with probability 1
    model = unstable_constant_model(z=0.5)
    box = model.space.box
    with pytest.raises(StabilityViolation) as err:
        rejection_sample_batch(model, box, EMPTY_BOUNDARY, 2000, philox_rng(1))
    witness = err.value.witness
    assert len(witness) >= 2
    assert specification_weight(witness, EMPTY_BOUNDARY, model, box) > 1.0
    rows = np.zeros((50, 0, 1)), np.zeros((50, 0)), np.zeros((50, 0), dtype=bool)
    with pytest.raises(StabilityViolation):
        gibbsmc.rejection_sample_rows(model, box, *rows, philox_rng(2))


@pytest.mark.parametrize("lam", [0.3, 4.0, 25.0])
def test_one_poisson_mean_draws_as_its_broadcast(lam):
    # the rejection rounds draw one scalar mean for every proposal when all
    # pending rows share it, which takes the draws of the per-proposal array
    # (25 takes numpy's other Poisson algorithm)
    np.testing.assert_array_equal(philox_rng(3).poisson(lam, size=500),
                                  philox_rng(3).poisson(np.full(500, lam)))
