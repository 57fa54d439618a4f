import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from markedgibbs.cluster import convergence_radius, log_partition_truncated
from markedgibbs.errors import DuplicatePosition, RegionOutOfBounds
from markedgibbs.lpintegrate import philox_rng
from markedgibbs.model import (Box, FiniteConfiguration, MarkSpace, MarkedPoint,
                               PositionSpace, canonicalize, restrict)
from markedgibbs.potential import build_model

positions = st.tuples(st.floats(0.0, 0.999, allow_nan=False))
points = st.builds(MarkedPoint, position=positions,
                   mark=st.sampled_from([1.0, -1.0]))


def test_canonicalize_empty():
    assert len(canonicalize([])) == 0


def test_canonicalize_sorts():
    a = MarkedPoint((0.7,), 1.0)
    b = MarkedPoint((0.2,), -1.0)
    cfg = canonicalize([a, b])
    assert cfg.points == (b, a)


def test_canonicalize_rejects_duplicates():
    a = MarkedPoint((0.5,), 1.0)
    b = MarkedPoint((0.5,), -1.0)
    with pytest.raises(DuplicatePosition):
        canonicalize([a, b])


@given(st.lists(points, max_size=8, unique_by=lambda p: p.position))
def test_canonicalize_order_insensitive_and_idempotent(pts):
    cfg = canonicalize(pts)
    assert canonicalize(reversed(pts)).points == cfg.points
    assert canonicalize(cfg.points).points == cfg.points


def test_restrict_examples():
    space = PositionSpace(1, (1.0,))
    pts = [MarkedPoint((x,), 1.0) for x in (0.1, 0.4, 0.9)]
    cfg = canonicalize(pts)
    region = Box((0.0,), (0.5,))
    kept = restrict(cfg, region, space)
    assert [p.position[0] for p in kept] == [0.1, 0.4]
    assert restrict(cfg, space.box, space).points == cfg.points
    assert len(restrict(FiniteConfiguration(), region, space)) == 0


def test_restrict_out_of_bounds():
    space = PositionSpace(1, (1.0,))
    with pytest.raises(RegionOutOfBounds):
        restrict(FiniteConfiguration(), Box((0.0,), (2.0,)), space)


@given(st.lists(points, max_size=10, unique_by=lambda p: p.position),
       st.floats(0.05, 0.95))
def test_restrict_partition_counts(pts, split):
    cfg = canonicalize(pts)
    left = restrict(cfg, Box((0.0,), (split,)))
    right = restrict(cfg, Box((split,), (1.0,)))
    assert len(left) + len(right) == len(cfg)


@given(st.lists(points, max_size=6, unique_by=lambda p: p.position),
       st.floats(0.2, 0.8), st.floats(0.0, 1.0))
def test_restrict_tower(pts, outer_frac, inner_frac):
    cfg = canonicalize(pts)
    outer = Box((0.0,), (outer_frac,))
    inner = Box((0.0,), (max(1e-6, outer_frac * inner_frac),))
    once = restrict(cfg, inner)
    twice = restrict(restrict(cfg, outer), inner)
    assert once.points == twice.points


def test_periodic_distance_wraps():
    space = PositionSpace(1, (1.0,), boundary="periodic")
    assert space.distance((0.05,), (0.95,)) == pytest.approx(0.1)
    free = PositionSpace(1, (1.0,), boundary="free")
    assert free.distance((0.05,), (0.95,)) == pytest.approx(0.9)


def test_distance_batch_matches_scalar():
    space = PositionSpace(2, (1.0, 2.0), boundary="periodic")
    rng = np.random.default_rng(0)
    a = rng.random((5, 2)) * [1.0, 2.0]
    b = rng.random((5, 2)) * [1.0, 2.0]
    batch = space.distance_batch(a, b)
    for i in range(5):
        assert batch[i] == pytest.approx(space.distance(tuple(a[i]), tuple(b[i])))


@pytest.mark.parametrize("d, boundary", [(1, "free"), (1, "periodic"),
                                         (2, "free"), (2, "periodic")])
def test_distance_batch_keeps_the_bits_of_the_summed_form(d, boundary):
    # the form before the length-1 reduction was skipped in 1-D; the tiny
    # offsets square to subnormals and zero, where sqrt(x*x) is not |x|
    space = PositionSpace(d, (1.0, 2.0)[:d], boundary=boundary)

    def reference(a, b):
        delta = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        if boundary == "periodic":
            sides = np.asarray(space.side_lengths)
            delta = np.minimum(delta, sides - delta)
        return np.sqrt(np.sum(delta * delta, axis=-1))

    rng = np.random.default_rng(3)
    a = rng.random((6, 4, d)) * space.side_lengths
    b = a + rng.choice([1e-160, 1e-170, 1e-200, 0.0, 0.25], size=a.shape)
    c = rng.random((5, d)) * space.side_lengths
    for x, y in ((a, b), (a[:, :, None, :], c[None, None]), (a[0, 0], c)):
        got, want = space.distance_batch(x, y), reference(x, y)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous


def test_mark_space_masses():
    disc = MarkSpace.discrete([1.0, -1.0], [0.5, 0.5])
    assert disc.total_mass == 1.0
    circ = MarkSpace.circle(mass=2.0)
    assert circ.total_mass == 2.0
    inter = MarkSpace.interval(-1.0, 1.0, mass=1.0)
    assert inter.total_mass == 1.0


def test_mark_space_contains():
    disc = MarkSpace.discrete([1.0, -1.0], [0.5, 0.5])
    assert disc.contains(1.0) and disc.contains(-1.0)
    assert not disc.contains(0.3)
    circ = MarkSpace.circle()
    assert circ.contains(-7.5) and circ.contains(0.0)
    assert not circ.contains(math.inf) and not circ.contains(math.nan)
    inter = MarkSpace.interval(-1.0, 1.0)
    assert inter.contains(-1.0) and inter.contains(1.0) and inter.contains(0.3)
    assert not inter.contains(1.5) and not inter.contains(math.nan)


@pytest.mark.parametrize("labels,weights", [
    ([1.0, -1.0], [0.5, 0.5]),
    ([1.0, 2.0, 3.0], [1 / 3, 1 / 3, 1 / 3]),
    ([0.0, 1.5, -2.0, 7.0], [0.1, 0.0, 2.5, 0.4]),
])
def test_discrete_mark_draws_equal_generator_choice(labels, weights):
    # inverse-CDF draws equal rng.choice on a twin generator, and both
    # generators stay in lockstep
    marks = MarkSpace.discrete(labels, weights)
    probs = np.asarray(weights) / marks.total_mass
    for seed in range(20):
        rng, twin = philox_rng(seed), philox_rng(seed)
        for size in (1, 3, 0, 257):
            np.testing.assert_array_equal(
                marks.sample(rng, size),
                twin.choice(np.asarray(labels), size=size, p=probs))
        assert rng.random() == twin.random()


def test_mark_space_mass_matches_quadrature():
    # the declared mass equals the integral of the density description
    inter = MarkSpace.interval(-1.0, 3.0, mass=2.0)
    xs = np.linspace(-1.0, 3.0, 10001)
    density = inter.total_mass / (inter.upper - inter.lower)
    integral = np.trapezoid(np.full_like(xs, density), xs)
    assert integral == pytest.approx(inter.total_mass, rel=1e-12)


@pytest.mark.parametrize("build", [
    lambda: MarkSpace.discrete([1.0, -1.0], [math.nan, 1.0]),
    lambda: MarkSpace.discrete([1.0, -1.0], [math.inf, 1.0]),
    lambda: MarkSpace.discrete([1.0, math.nan], [0.5, 0.5]),
    lambda: MarkSpace.interval(-math.inf, 1.0),
    lambda: MarkSpace.circle(mass=math.inf),
    lambda: MarkSpace.interval(-1.0, 1.0, mass=math.nan),
], ids=["weight_nan", "weight_infinite", "label_nan", "lower_infinite",
        "circle_mass_infinite", "interval_mass_nan"])
def test_mark_space_rejects_non_finite_parameters(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    lambda: MarkSpace.discrete((True, False), (True, True)),
    lambda: MarkSpace.discrete((1.0, -1.0), (0.5, True)),
    lambda: MarkSpace.discrete(("1", "-1"), (0.5, 0.5)),
    lambda: MarkSpace.circle(mass=True),
    lambda: MarkSpace.interval(False, True),
    lambda: MarkSpace.interval(-1.0, 1.0, mass=True),
    lambda: MarkSpace(kind="discrete", labels=(True, False), weights=(0.5, 0.5)),
], ids=["discrete_bools", "weight_bool", "label_strings", "circle_mass_bool",
        "interval_bounds_bools", "interval_mass_bool", "direct_bool_labels"])
def test_mark_space_rejects_non_numbers(build):
    # Python counts a bool as a number; a mark space does not
    with pytest.raises(ValueError, match="finite"):
        build()


def test_mark_space_stores_floats():
    assert MarkSpace.discrete([1, -1], [1, 3]).labels == (1.0, -1.0)
    assert all(type(x) is float for x in MarkSpace.discrete([1, -1], [1, 3]).weights)
    inter = MarkSpace.interval(-1, 2, mass=3)
    assert all(type(x) is float for x in (inter.lower, inter.upper, inter.mass))
    assert type(MarkSpace.circle(mass=2).mass) is float


@pytest.mark.parametrize("numbers", [{"z": True}, {"beta": True}, {"z": "0.05"},
                                     {"z": True, "beta": True}],
                         ids=["z_bool", "beta_bool", "z_string", "both_bools"])
def test_model_spec_rejects_non_numbers(numbers, toy_model):
    with pytest.raises(ValueError, match="finite and positive"):
        build_model("hard-core", **numbers)
    with pytest.raises(ValueError, match="finite and positive"):
        toy_model.replace(**numbers)


def test_model_spec_validation(toy_model):
    assert toy_model.mass() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        toy_model.replace(z=-1.0)
    with pytest.raises(ValueError):
        toy_model.replace(beta=0.0)


def test_replacing_the_space_replaces_the_metric(toy_model):
    # the potential measures distance with the model's space, so the toy moved
    # onto a periodic box is the toy built periodic, bit for bit
    periodic = PositionSpace(1, (1.0,), "periodic")
    moved = toy_model.replace(space=periodic)
    built = build_model("toy-repulsive-spin", z=0.05, beta=1.0, boundary="periodic")
    assert built.space == periodic
    c_beta = convergence_radius(moved, 24).c_beta
    assert c_beta == convergence_radius(built, 24).c_beta
    assert c_beta != convergence_radius(toy_model, 24).c_beta
    assert (log_partition_truncated(moved, periodic.box, 3).log_z
            == log_partition_truncated(built, periodic.box, 3).log_z)
    assert toy_model.replace(space=PositionSpace(1, (1.5,))).mass() == pytest.approx(1.5)


def test_union_disjoint_commutes_with_restrict(toy_model, rng):
    from conftest import random_config
    left_box = Box((0.0,), (0.5,))
    cfg = random_config(toy_model, 6, rng)
    left = restrict(cfg, left_box)
    right = restrict(cfg, Box((0.5,), (1.0,)))
    assert left.union(right).points == cfg.points
