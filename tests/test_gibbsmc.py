import itertools
import math

import numpy as np
import pytest

from conftest import random_config
from markedgibbs import gibbsmc
from markedgibbs.errors import (AcceptanceTooLow, DuplicatePosition, EnergyDrift,
                                RegionOutOfBounds, RequiresFiniteRange)
from markedgibbs.gibbsmc import (EMPTY_BOUNDARY, BoundaryCondition,
                                 SampleStream, SamplerConfig,
                                 collar_locality_trials,
                                 dlr_check, mcmc_run, poisson_sample,
                                 read_sample_file, rejection_sample,
                                 rejection_sample_batch, specification_weight,
                                 summarize_samples, write_sample_file)
from markedgibbs.lpintegrate import philox_rng
from markedgibbs.model import (Box, FiniteConfiguration, MarkedPoint, canonicalize,
                               restrict)
from markedgibbs.potential import build_model, pair_phi_matrix


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


def test_rejection_ideal_is_poisson(ideal_model, rng):
    # zero potential accepts every proposal, so the draw is marked Poisson
    draws = rejection_sample_batch(ideal_model, ideal_model.space.box,
                                   EMPTY_BOUNDARY, 20000, rng)
    counts = np.array([len(d) for d in draws], dtype=float)
    lam = ideal_model.z * ideal_model.mass()
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - lam) <= 3 * se


def test_rejection_single_and_batch_agree_in_law(toy_model, rng):
    single = [rejection_sample(toy_model, toy_model.space.box, EMPTY_BOUNDARY, rng)
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
    pot = model.potential

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
        return math.exp(-model.beta * pot.evaluate(MarkedPoint((x,), s), bpt))

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
        rejection_sample(model, model.space.box, EMPTY_BOUNDARY, philox_rng(1),
                         acceptance_floor=1e-6)


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
    """Paired inner-count differences made by resampling the inner region,
    merging the resample with the exterior and restricting both
    configurations to the inner region."""
    rng = philox_rng(seed, 17)
    draws = rejection_sample_batch(model, outer_region, EMPTY_BOUNDARY, n_samples, rng)
    exteriors, exterior_cfgs = {}, {}
    for i, cfg in enumerate(draws):
        ext = FiniteConfiguration(tuple(
            p for p in cfg.points if not inner_region.contains_point(p.position)))
        key = tuple((p.position, p.mark) for p in ext.points)
        exteriors.setdefault(key, []).append(i)
        exterior_cfgs[key] = ext
    resampled = [None] * n_samples
    for key, indices in exteriors.items():
        ext = exterior_cfgs[key]
        inner_draws = rejection_sample_batch(model, inner_region, BoundaryCondition(ext),
                                             len(indices), rng)
        for idx, inner in zip(indices, inner_draws):
            resampled[idx] = FiniteConfiguration(
                tuple(sorted(ext.points + inner.points, key=lambda p: p.position)))

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
    assert len(back) == len(samples)
    for a, b in zip(samples, back):
        assert a.points == b.points


@pytest.mark.parametrize("line, error", [
    ("2 0.1 1.0 0.2 -1.0 0.3", ValueError),
    ("2 0.1 1.0 0.2", ValueError),
    ("", ValueError),
    ("1.0 0.1 1.0", ValueError),
    ("1 nan 1.0", ValueError),
    ("2 0.1 1.0 0.1 -1.0", DuplicatePosition),
], ids=["extra_field", "short_line", "blank_line", "count_not_an_integer",
        "nan_position", "coinciding_positions"])
def test_read_sample_file_rejects_malformed_lines(tmp_path, line, error):
    path = tmp_path / "samples.txt"
    path.write_text(f"# markedgibbs-samples v1 d=1\n1 0.5 1.0\n{line}\n0\n")
    with pytest.raises(error, match="line 3" if error is ValueError else None):
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
    phi = pair_phi_matrix(model.potential, s.positions_array()[None],
                          s.marks_array()[None])[0]
    vals = phi[np.triu_indices(len(s), 1)]
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
                phi = pair_phi_matrix(model.potential, s.positions_array()[None],
                                      s.marks_array()[None])[0]
                vals = phi[np.triu_indices(n, 1)]
                e = math.inf if np.any(np.isinf(vals)) else float(np.sum(vals))
            got = gibbsmc._config_energy_arrays(model, s.positions_array(),
                                                s.marks_array())
            assert got == e


def _rejection_sample_batch_reference(model, region, boundary, count, rng):
    """rejection_sample_batch building a configuration for every accepted row."""
    b_prime = gibbsmc._boundary_inflation(model, region, boundary)
    lam = model.z * math.exp(model.beta * b_prime) * model.mass(region)
    lo, hi, d = np.asarray(region.lower), np.asarray(region.upper), region.dimension
    bpos = boundary.exterior.positions_array()
    bmarks = boundary.exterior.marks_array()
    out = []
    while len(out) < count:
        batch = max(1024, int(1.5 * (count - len(out))))
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
