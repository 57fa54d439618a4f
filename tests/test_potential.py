import math

import numpy as np
import pytest
from scipy import integrate

from conftest import UNSTABLE_MODELS, random_config, unstable_constant_model
from markedgibbs import potential
from markedgibbs.errors import (OverlappingConfigurations, QuadratureFailure,
                                StabilityViolation)
from markedgibbs.lpintegrate import mark_nodes_weights
from markedgibbs.model import (Box, FiniteConfiguration, MarkSpace, MarkedPoint,
                               ModelSpec, PositionSpace, canonicalize)
from markedgibbs.potential import (REGISTRY, PairPotential, boltzmann_factor,
                                   build_model,
                                   check_integrability, conditional_energy,
                                   cross_phi_matrix, energy, interaction,
                                   mayer_factor, model_from_dict,
                                   pair_phi_matrix, pair_value,
                                   spot_check_stability, upper_pairs)

ALL_MODELS = sorted(REGISTRY)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_symmetry_random_pairs(name, rng):
    model = build_model(name)
    for _ in range(200):
        a = random_config(model, 1, rng)[0]
        b = random_config(model, 1, rng)[0]
        assert pair_value(model, a, b) == pair_value(model, b, a)


def test_symmetry_vectorized(toy_model, rng):
    # the one value of each pair is the same with the two points swapped
    pos = rng.random((10000, 2, 1))
    marks = toy_model.marks.sample(rng, 20000).reshape(10000, 2)
    np.testing.assert_array_equal(
        pair_phi_matrix(toy_model, pos, marks),
        pair_phi_matrix(toy_model, pos[:, ::-1], marks[:, ::-1]))


def _broadcast_pair_values(model, pos, marks):
    """Every ordered pair of each row, (K, M, M): the potential evaluated on
    (M, 1) against (1, M) broadcasts."""
    r = model.space.distance_batch(pos[:, :, None, :], pos[:, None, :, :])
    return model.potential.radial_gated(r, marks[:, :, None], marks[:, None, :])


SPACES = pytest.mark.parametrize(
    "params", [{}, {"dimension": 2, "boundary": "periodic"}],
    ids=["1d-free", "2d-periodic"])


@SPACES
@pytest.mark.parametrize("name", ALL_MODELS)
def test_pair_phi_matrix_is_the_upper_triangle_of_a_broadcast(name, params, rng):
    model = build_model(name, **params)
    d = model.space.dimension
    for m in (0, 1, 2, 7):
        pos = rng.random((30, m, d))
        marks = model.marks.sample(rng, 30 * m).reshape(30, m)
        iu, ju = upper_pairs(m)
        got = pair_phi_matrix(model, pos, marks)
        assert got.shape == (30, iu.size)
        np.testing.assert_array_equal(
            got, _broadcast_pair_values(model, pos, marks)[:, iu, ju])


@SPACES
@pytest.mark.parametrize("name", ALL_MODELS)
def test_square_pair_table_is_exactly_symmetric(name, params, rng):
    model = build_model(name, **params)
    d = model.space.dimension
    m = 7
    pos = rng.random((30, m, d))
    marks = model.marks.sample(rng, 30 * m).reshape(30, m)
    pairs = pair_phi_matrix(model, pos, marks)
    table = potential.square_pair_table(pairs, m, -2.5)
    iu, ju = upper_pairs(m)
    assert table.shape == (30, m, m)
    np.testing.assert_array_equal(table, table.transpose(0, 2, 1))
    np.testing.assert_array_equal(table[:, iu, ju], pairs)
    assert np.all(table[:, np.arange(m), np.arange(m)] == -2.5)


@SPACES
@pytest.mark.parametrize("name", ALL_MODELS)
def test_boltzmann_weight_is_the_product_of_the_pair_factors(name, params, rng):
    model = build_model(name, **params)
    d = model.space.dimension
    for m in (0, 1, 2, 7):
        pos = rng.random((30, m, d))
        marks = model.marks.sample(rng, 30 * m).reshape(30, m)
        iu, ju = upper_pairs(m)
        factors = potential.boltzmann_factor_batch(
            _broadcast_pair_values(model, pos, marks)[:, iu, ju], model.beta)
        want = np.ones(30)
        for column in factors.T:  # one pair at a time, in upper_pairs order
            want = want * column
        got = potential.boltzmann_weight_batch(model, pos, marks, np.empty((0, d)),
                                               np.empty(0))
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_cross_phi_matrix_is_bitwise_symmetric(name, rng):
    # the chain stores each point's cross row as its column in the pair cache
    for params in ({}, {"dimension": 2, "boundary": "periodic"}):
        model = build_model(name, **params)
        d = model.space.dimension
        a, b = rng.random((50, d)), rng.random((40, d))
        sa, sb = model.marks.sample(rng, 50), model.marks.sample(rng, 40)
        np.testing.assert_array_equal(
            cross_phi_matrix(model, a, sa, b, sb),
            cross_phi_matrix(model, b, sb, a, sa).T)


def test_upper_pairs_is_triu_indices():
    # read-only everywhere; only the small sizes are kept, so a chain of
    # ever new large states does not pile up O(n^2) index arrays
    for n in (0, 1, 2, 5, 63, 64, 200):
        iu, ju = upper_pairs(n)
        want_iu, want_ju = np.triu_indices(n, 1)
        np.testing.assert_array_equal(iu, want_iu)
        np.testing.assert_array_equal(ju, want_ju)
        assert not iu.flags.writeable and not ju.flags.writeable
    assert upper_pairs(10)[0] is upper_pairs(10)[0]
    assert upper_pairs(200)[0] is not upper_pairs(200)[0]


def test_energy_trivial_cases(toy_model):
    assert energy(FiniteConfiguration(), toy_model) == 0.0
    single = canonicalize([MarkedPoint((0.5,), 1.0)])
    assert energy(single, toy_model) == 0.0


def test_energy_three_points_matches_hand_sum(toy_model):
    pts = [MarkedPoint((0.1,), 1.0), MarkedPoint((0.3,), -1.0),
           MarkedPoint((0.8,), 1.0)]
    cfg = canonicalize(pts)
    expected = (pair_value(toy_model, pts[0], pts[1]) + pair_value(toy_model, pts[0], pts[2])
                + pair_value(toy_model, pts[1], pts[2]))
    assert energy(cfg, toy_model) == pytest.approx(expected, rel=1e-15)


def test_interaction_trivial_and_error(toy_model):
    x = canonicalize([MarkedPoint((0.2,), 1.0)])
    y = canonicalize([MarkedPoint((0.7,), -1.0)])
    assert interaction(FiniteConfiguration(), y, toy_model) == 0.0
    assert interaction(x, y, toy_model) == pytest.approx(
        pair_value(toy_model, x[0], y[0]))
    with pytest.raises(OverlappingConfigurations):
        interaction(x, x, toy_model)


def test_energy_additivity(toy_model, rng):
    for _ in range(50):
        cfg = random_config(toy_model, 6, rng)
        om, ze = cfg.subset(range(3)), cfg.subset(range(3, 6))
        total = energy(cfg, toy_model)
        split = (energy(om, toy_model) + energy(ze, toy_model) +
                 interaction(om, ze, toy_model))
        assert total == pytest.approx(split, rel=1e-12)


def test_conditional_energy(toy_model, rng):
    region = Box((0.0,), (0.5,))
    inside = canonicalize([MarkedPoint((0.2,), 1.0), MarkedPoint((0.4,), -1.0)])
    assert conditional_energy(region, inside, toy_model) == pytest.approx(
        energy(inside, toy_model))
    outside = canonicalize([MarkedPoint((0.7,), 1.0), MarkedPoint((0.9,), -1.0)])
    assert conditional_energy(region, outside, toy_model) == 0.0
    for _ in range(20):
        cfg = random_config(toy_model, 5, rng)
        out_part = FiniteConfiguration(tuple(
            p for p in cfg.points if not region.contains_point(p.position)))
        expected = energy(cfg, toy_model) - energy(out_part, toy_model)
        assert conditional_energy(region, cfg, toy_model) == pytest.approx(
            expected, rel=1e-12, abs=1e-14)


def test_finite_range_exact_zero():
    model = build_model("toy-repulsive-spin-rc", range_cut=0.25)
    a = MarkedPoint((0.125,), 1.0)
    b = MarkedPoint((0.375,), 1.0)  # distance exactly at the range
    c = MarkedPoint((0.9,), -1.0)
    assert pair_value(model, a, b) == 0.0
    assert pair_value(model, a, c) == 0.0
    inside = MarkedPoint((0.3,), 1.0)
    assert pair_value(model, a, inside) != 0.0


def test_hard_core_inf_propagation():
    model = build_model("hard-core", r0=0.1)
    a = MarkedPoint((0.5,), 1.0)
    b = MarkedPoint((0.55,), -1.0)
    v = pair_value(model, a, b)
    assert math.isinf(v)
    assert boltzmann_factor(v, model.beta) == 0.0
    assert mayer_factor(v, model.beta) == -1.0
    cfg = canonicalize([a, b])
    assert math.isinf(energy(cfg, model))


def test_rotator_and_ferrofluid_forms():
    rot = build_model("planar-rotator")
    p = rot.potential.params
    a = MarkedPoint((0.2,), 0.3)
    b = MarkedPoint((0.5,), 2.0)
    r = 0.3
    expected = (p["a"] * math.exp(-r / p["ell_phi"]) -
                p["j0"] * math.exp(-r / p["ell_j"]) * math.cos(0.3 - 2.0))
    assert pair_value(rot, a, b) == pytest.approx(expected, rel=1e-12)

    ferro = build_model("ferrofluid")
    q = ferro.potential.params
    a = MarkedPoint((0.2,), 0.4)
    b = MarkedPoint((0.6,), -0.9)
    r = 0.4
    expected = (q["a"] + q["j0"] * 0.4 * (-0.9)) * math.exp(-(r / q["ell"]) ** 2)
    assert pair_value(ferro, a, b) == pytest.approx(expected, rel=1e-12)


def test_potts_form():
    model = build_model("continuum-potts", q=3, r1=0.05, r2=0.2, a=1.0)
    same = pair_value(model, MarkedPoint((0.1,), 2.0), MarkedPoint((0.2,), 2.0))
    assert same == 0.0  # same species feel only the hard core
    diff = pair_value(model, MarkedPoint((0.1,), 1.0), MarkedPoint((0.2,), 2.0))
    assert diff == pytest.approx((1 - 0.1 / 0.2) ** 2)
    core = pair_value(model, MarkedPoint((0.1,), 1.0), MarkedPoint((0.12,), 2.0))
    assert math.isinf(core)


@pytest.mark.parametrize("name", ["toy-repulsive-spin", "planar-rotator",
                                  "ferrofluid", "continuum-potts", "hard-core"])
def test_builtin_stability_spot_checks(name):
    model = build_model(name)
    report = spot_check_stability(model, trials=2000, max_n=6, seed=3)
    assert report.passed
    assert report.worst_margin >= -1e-12


def test_unstable_constant_fails():
    model = unstable_constant_model()
    with pytest.raises(StabilityViolation) as err:
        spot_check_stability(model, trials=500, max_n=3, seed=1)
    assert err.value.witness is not None
    assert len(err.value.witness) >= 2


def test_integrability_zero_potential():
    model = build_model("constant", value=0.0)
    report = check_integrability(model, reference_grid_size=8)
    assert report.c_beta == 0.0


@pytest.mark.parametrize("value", [math.nan, -math.inf], ids=["nan", "minus-inf"])
def test_integrability_refuses_a_non_finite_mass(value):
    # a potential that is NaN or -inf inside a core gives a NaN or infinite
    # |Mayer| mass; no C(beta) is reported for it
    def radial(r, s, t):
        return np.where(np.asarray(r) < 0.1, value, 0.0)
    model = ModelSpec(space=PositionSpace(1, (1.0,)),
                      marks=MarkSpace.discrete([1.0, -1.0], [0.5, 0.5]),
                      potential=PairPotential(name="broken", radial=radial),
                      z=0.05, beta=1.0)
    with pytest.raises(QuadratureFailure):
        check_integrability(model, reference_grid_size=8)


@pytest.mark.parametrize("case", sorted(UNSTABLE_MODELS))
def test_c_beta_nodes_falsify_a_pair_value_below_minus_2b(case):
    # B = 0 is declared, but a pair value on a C(beta) node is negative: the
    # two points that carry it are a witness against condition (S)
    model = model_from_dict(UNSTABLE_MODELS[case])
    with pytest.raises(StabilityViolation) as err:
        check_integrability(model, reference_grid_size=8)
    witness = err.value.witness
    assert len(witness) == 2
    assert energy(witness, model) < -2 * model.potential.stability_B
    assert "below -2B" in str(err.value) and "two points" in str(err.value)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("name", ALL_MODELS)
def test_c_beta_falsifier_passes_every_registry_default(name, dimension):
    check_integrability(build_model(name, dimension=dimension), reference_grid_size=2)


def test_integrability_toy_vs_dense_grid_oracle(toy_model):
    report = check_integrability(toy_model, reference_grid_size=32)

    # dense midpoint-grid oracle for the inner integral, evaluated on the
    # same reference family the checker scans
    def abs_mayer_mass(y, t):
        xs = (np.arange(20000) + 0.5) / 20000
        val = np.zeros_like(xs)
        for s, w in ((1.0, 0.5), (-1.0, 0.5)):
            phi = (1.0 + 0.5 * s * t) * np.exp(-((xs - y) / 0.2) ** 2)
            val += w * np.abs(np.expm1(-toy_model.beta * phi))
        return float(val.mean())

    refs = [((i + 0.5) / g, t) for g in (32, 64) for i in range(g)
            for t in (1.0, -1.0)]
    oracle = max(abs_mayer_mass(y, t) for y, t in refs)
    assert report.c_beta == pytest.approx(oracle, rel=1e-6)
    assert report.refinement_delta < 1e-4
    # the grid maximum sits within refinement noise of a much denser scan
    dense = max(abs_mayer_mass((i + 0.5) / 512, 1.0) for i in range(512))
    assert abs(report.c_beta - dense) / dense < 1e-4


def test_integrability_hard_core_geometry():
    model = build_model("hard-core", r0=0.1)
    report = check_integrability(model, reference_grid_size=64)
    # the absolute Mayer factor is the indicator of the core, so the mass is
    # the covered length inside the box times the mark mass
    assert report.c_beta == pytest.approx(0.2, rel=1e-3)


PERIODIC_TOY_2 = {
    "space": {"dimension": 1, "side_lengths": [2.0], "boundary": "periodic"},
    "marks": {"kind": "discrete", "labels": [1.0, -1.0], "weights": [0.5, 0.5]},
    "potential": {"name": "toy-repulsive-spin"}, "z": 0.05, "beta": 1.0}


def dense_c_beta(model, grid, cells):
    """Max over the checker's 1-D reference family of the |Mayer| mass by a
    midpoint rule; every reference point, and every jump radius around it,
    must sit on a cell edge so that each smooth piece is integrated alone."""
    space, marks = model.space, model.marks
    side = space.side_lengths[0]
    if marks.kind == "discrete":
        s, w = np.asarray(marks.labels), np.asarray(marks.weights)
    elif marks.kind == "circle":
        s, w = 2 * np.pi * np.arange(32) / 32, np.full(32, marks.total_mass / 32)
    else:
        x, gw = np.polynomial.legendre.leggauss(32)
        half = 0.5 * (marks.upper - marks.lower)
        s = marks.lower + half * (x + 1.0)
        w = gw * half * marks.total_mass / (marks.upper - marks.lower)
    xs = (np.arange(cells) + 0.5) * side / cells
    best = 0.0
    for g in (grid, 2 * grid):
        for y in (np.arange(max(2, g)) + 0.5) * side / max(2, g):
            dist = np.abs(xs - y)
            if space.boundary == "periodic":
                dist = np.minimum(dist, side - dist)
            for t in s:
                phi = np.broadcast_to(model.potential.radial_gated(
                    dist[:, None], s[None, :], np.asarray(t)), (cells, s.size))
                inf = np.isinf(phi)
                absf = np.where(inf, 1.0, np.abs(np.expm1(
                    -model.beta * np.where(inf, 0.0, phi))))
                best = max(best, float(np.sum(absf @ w)) * side / cells)
    return best


@pytest.mark.parametrize("cfg", [
    {"name": "continuum-potts"},   # hard core jump at r1 inside the range r2
    {"name": "planar-rotator"},    # circle marks, cusp at the reference point
    {"name": "ferrofluid"},        # interval marks
    PERIODIC_TOY_2,                # minimum-image kinks at +-side/2
], ids=["continuum-potts", "planar-rotator", "ferrofluid", "toy-periodic-2"])
def test_integrability_registry_vs_dense_grid_oracle(cfg):
    model = model_from_dict(cfg)
    report = check_integrability(model, reference_grid_size=2)
    # 8000 cells put every reference point (odd multiples of side/8) and each
    # jump or kink around it (+-r1, +-r2 of continuum-potts, +-side/2) on a cell edge
    assert report.c_beta == pytest.approx(dense_c_beta(model, 2, 8000), rel=1e-6)


def c_beta_marks(model):
    return mark_nodes_weights(model, 32)


def full_family_masses(model, ref):
    """|Mayer| mass at one reference position, one per reference mark, with the
    checker's position rule and the full n x n mark table in one piece."""
    phi, space = model.potential, model.space
    marks, weights = c_beta_marks(model)
    radii = [0.0, *phi.breakpoints] + ([phi.range_R] if phi.range_R is not None else [])
    rules = [potential._axis_rule(x0, side, radii, space.boundary == "periodic")
             for x0, side in zip(ref, space.side_lengths)]
    pos = np.stack(np.meshgrid(*(x for x, _ in rules), indexing="ij"), axis=-1)
    pw = math.prod(np.meshgrid(*(w for _, w in rules), indexing="ij")).ravel()
    r = space.distance_batch(pos.reshape(-1, space.dimension), ref)
    table = np.zeros((marks.size, marks.size))
    for rows in np.array_split(np.arange(r.size), max(1, r.size // 256)):
        vals = np.broadcast_to(
            phi.radial_gated(r[rows, None, None], marks[:, None], marks[None, :]),
            (rows.size, marks.size, marks.size))
        table += np.tensordot(pw[rows], np.abs(np.expm1(-model.beta * vals)), axes=1)
    return weights @ table


def full_family_c_beta(model, grid):
    """C(beta) and refinement delta as a maximum over every reference point of
    both midpoint grids, with no symmetry used."""
    best = []
    for g in (grid, 2 * grid):
        per_axis = max(2, round(g ** (1.0 / model.space.dimension)))
        refs = np.stack(np.meshgrid(*(
            side * (np.arange(per_axis) + 0.5) / per_axis
            for side in model.space.side_lengths), indexing="ij"), axis=-1)
        best.append(max(float(full_family_masses(model, ref).max())
                        for ref in refs.reshape(-1, model.space.dimension)))
    return max(best), abs(best[1] - best[0]) / max(best[1], 1e-300)


TOY_2D = {"name": "toy-repulsive-spin", "params": {"dimension": 2}}
REDUCTION_CASES = {
    **{name: ({"name": name}, 4) for name in ALL_MODELS},
    "toy-periodic-2": (PERIODIC_TOY_2, 8),
    "toy-2d": (TOY_2D, 16),
    "planar-rotator-2d": ({"name": "planar-rotator", "params": {"dimension": 2}}, 2),
    # odd points per axis: the centre midpoint is its own mirror image
    "odd-1d": ({"name": "continuum-potts"}, 3),          # 3 and 6 per axis
    "odd-2d-periodic": ({"name": "toy-repulsive-spin",
                         "params": {"dimension": 2, "boundary": "periodic"}}, 9),  # 3 and 4
}


@pytest.mark.parametrize("case", sorted(REDUCTION_CASES))
def test_integrability_matches_full_reference_family(case):
    cfg, grid = REDUCTION_CASES[case]
    model = model_from_dict(cfg)
    report = check_integrability(model, grid)
    c_beta, delta = full_family_c_beta(model, grid)
    assert report.c_beta == pytest.approx(c_beta, rel=1e-12, abs=1e-300)
    assert report.refinement_delta == pytest.approx(delta, rel=0, abs=1e-12)
    # the reported reference point attains the maximum
    marks, _ = c_beta_marks(model)
    at = full_family_masses(model, np.asarray(report.argmax_position))
    assert at[list(marks).index(report.argmax_mark)] == pytest.approx(
        report.c_beta, rel=1e-12, abs=1e-300)


def tied_masses(coarse, fine, last=None):
    """An ``_abs_mayer_masses`` stand-in: every mass of the coarse grid's
    (fewer) reference points is ``coarse``, of the fine grid's ``fine``, and
    the last mass of each grid is ``last`` if given."""
    calls = []

    def masses(model, refs, marks, weights):
        out = np.full((len(refs), marks.size), coarse if not calls else fine)
        if last is not None:
            out[-1, -1] = last
        calls.append(refs)
        return out
    return masses


@pytest.mark.parametrize("coarse, fine, last, grid", [
    # the last point is one ulp above the others: the first point is reported
    (0.25, 0.25, np.nextafter(0.25, 1.0), "coarse"),
    # the fine grid is one ulp above the coarse one: the coarse point stands
    (0.25, np.nextafter(0.25, 1.0), None, "coarse"),
    # the fine grid is larger by more than 1e-12: its point is reported
    (0.25, 0.25 * (1 + 1e-9), None, "fine"),
], ids=["ulp-within-grid", "ulp-across-grids", "fine-grid-larger"])
def test_c_beta_argmax_is_the_first_point_that_ties_with_the_maximum(
        monkeypatch, toy_model, coarse, fine, last, grid):
    monkeypatch.setattr(potential, "_abs_mayer_masses", tied_masses(coarse, fine, last))
    report = check_integrability(toy_model, 16)
    # c_beta stays the exact maximum
    assert report.c_beta == max(coarse, fine, last or 0.0)
    per_axis = 16 if grid == "coarse" else 32
    assert report.argmax_position == (0.5 / per_axis,)
    assert report.argmax_mark == toy_model.marks.labels[0]


@pytest.mark.parametrize("cfg, grid, per_axis", [
    ({"name": "planar-rotator", "params": {"dimension": 2}}, 2, (2,)),
    ({"name": "toy-repulsive-spin"}, 16, (16, 32)),
    ({"name": "continuum-potts"}, 3, (3, 6)),
    (TOY_2D, 9, (3, 4)),
    (TOY_2D, 16, (4, 6)),
], ids=["planar-rotator-2d-g2", "toy-g16", "potts-g3", "toy-2d-g9", "toy-2d-g16"])
def test_integrability_evaluates_one_mirror_orthant_per_grid(monkeypatch, cfg, grid,
                                                             per_axis):
    model = model_from_dict(cfg)
    calls = []
    inner = potential._abs_mayer_masses
    monkeypatch.setattr(potential, "_abs_mayer_masses",
                        lambda *args: calls.extend(args[1]) or inner(*args))
    report = check_integrability(model, grid)
    d = model.space.dimension
    assert len(calls) == sum(math.ceil(p / 2) ** d for p in per_axis)
    assert report.reference_points == len(calls) * c_beta_marks(model)[0].size
    sides = np.asarray(model.space.side_lengths)
    assert all(np.all(ref <= sides / 2 + 1e-12) for ref in calls)
    if len(per_axis) == 1:
        assert report.refinement_delta == 0.0


BATCH_CASES = {**{name: {"name": name} for name in ALL_MODELS},
               "toy-periodic-2": PERIODIC_TOY_2, "toy-2d": TOY_2D}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_c_beta_batch_keeps_each_reference_points_bits(case):
    # a reference point's masses do not depend on the points it shares a
    # batch with: with discrete marks, the 48 points of a 1-D grid of 96
    # share one to four batches
    model = model_from_dict(BATCH_CASES[case])
    marks, weights = c_beta_marks(model)
    refs = potential._orthant_references(model.space.box, 96 if model.space.dimension == 1
                                         else 5)
    batch = potential._abs_mayer_masses(model, refs, marks, weights)
    one_at_a_time = [potential._abs_mayer_masses(model, ref[None], marks, weights)[0]
                     for ref in refs]
    assert [[float.hex(m) for m in row] for row in batch.tolist()] == \
        [[float.hex(m) for m in row.tolist()] for row in one_at_a_time]


@pytest.mark.parametrize("cfg, grid, per_axis", [
    (PERIODIC_TOY_2, 16, 16),
    ({"name": "toy-repulsive-spin", "params": {"dimension": 2, "boundary": "periodic"}},
     9, 3),
    ({"name": "planar-rotator", "params": {"boundary": "periodic"}}, 8, 8),
], ids=["toy-1d-side-2", "toy-2d", "planar-rotator"])
def test_integrability_evaluates_one_position_on_periodic_boxes(monkeypatch, cfg, grid,
                                                                per_axis):
    # the minimum-image metric is translation invariant: one reference
    # position, the first midpoint of the requested grid, for both grids
    model = model_from_dict(cfg)
    calls = []
    inner = potential._abs_mayer_masses
    monkeypatch.setattr(potential, "_abs_mayer_masses",
                        lambda *args: calls.extend(args[1]) or inner(*args))
    report = check_integrability(model, grid)
    sides = np.asarray(model.space.side_lengths)
    assert len(calls) == 1
    assert np.allclose(calls[0], sides * 0.5 / per_axis, rtol=1e-15, atol=0.0)
    assert report.reference_points == c_beta_marks(model)[0].size
    assert report.argmax_position == tuple(calls[0].tolist())
    assert report.refinement_delta == 0.0


@pytest.mark.parametrize("name", ALL_MODELS)
def test_radial_is_bitwise_symmetric_at_c_beta_mark_nodes(name):
    # check_integrability evaluates the mark-pair table on s <= t only
    model = build_model(name)
    phi = model.potential
    marks, _ = c_beta_marks(model)
    r = np.unique(np.concatenate([np.linspace(0.0, 1.5, 151), phi.breakpoints,
                                  [phi.range_R or 0.0]]))[:, None, None]
    vals = np.broadcast_to(phi.radial(r, marks[:, None], marks[None, :]),
                           (r.size, marks.size, marks.size))
    np.testing.assert_array_equal(vals, vals.transpose(0, 2, 1))


def test_model_from_dict_registry_and_inline():
    m1 = model_from_dict({"name": "toy-repulsive-spin", "z": 0.1, "beta": 2.0})
    assert m1.z == 0.1 and m1.beta == 2.0
    m2 = model_from_dict({
        "space": {"dimension": 1, "side_lengths": [2.0], "boundary": "periodic"},
        "marks": {"kind": "discrete", "labels": [1, -1], "weights": [0.25, 0.75]},
        "potential": {"name": "toy-repulsive-spin", "params": {"ell": 0.3}},
        "z": 0.2, "beta": 1.5,
    })
    assert m2.space.boundary == "periodic"
    assert m2.mass() == pytest.approx(2.0)
    # the potential measures distance with the inline space's periodic metric
    across = pair_value(m2, MarkedPoint((0.1,), 1.0), MarkedPoint((1.9,), 1.0))
    assert across == pytest.approx(pair_value(m2, MarkedPoint((0.1,), 1.0),
                                              MarkedPoint((0.3,), 1.0)), rel=1e-12)


def test_cross_phi_matrix_matches_scalar(toy_model, rng):
    a = random_config(toy_model, 3, rng)
    b = random_config(toy_model, 2, rng)
    mat = cross_phi_matrix(toy_model,
                           a.positions_array()[None], a.marks_array()[None],
                           b.positions_array(), b.marks_array())[0]
    for i in range(3):
        for j in range(2):
            assert mat[i, j] == pytest.approx(
                pair_value(toy_model, a[i], b[j]), rel=1e-15)
