import itertools
import math

import numpy as np
import pytest

from markedgibbs import cluster, lpintegrate
from markedgibbs.errors import SchemeMismatch
from markedgibbs.lpintegrate import (_BLOCK, TENSOR_NODE_BUDGET, IntegralEstimate,
                                     QuadratureScheme, SlotDomain, _multisets,
                                     _position_nodes, _single_nodes, gauss_legendre,
                                     lp_integral,
                                     mark_nodes_weights, marked_point_nodes,
                                     philox_rng,
                                     product_node_batches,
                                     product_region_integral, scalar_integrand)
from markedgibbs.model import Box, FiniteConfiguration, MarkedPoint, canonicalize
from markedgibbs.potential import build_model


def ones_integrand(n, positions, marks):
    return np.ones(positions.shape[0])


def test_marked_point_nodes_discrete_example(toy_model):
    scheme = QuadratureScheme.tensor(4)
    nodes = list(marked_point_nodes(toy_model, toy_model.space.box, 1, scheme))
    assert len(nodes) == 8
    for pts, w in nodes:
        assert len(pts) == 1
        assert w == pytest.approx(1.0 / 8.0)
    assert sum(w for _, w in nodes) == pytest.approx(1.0)


def test_mc_nodes_deterministic(toy_model):
    scheme = QuadratureScheme.monte_carlo(64, seed=9)
    first = list(marked_point_nodes(toy_model, toy_model.space.box, 2, scheme))
    second = list(marked_point_nodes(toy_model, toy_model.space.box, 2, scheme))
    assert first == second


def test_grid_abs_difference_converges(toy_model):
    # two-point integrand |x1 - x2| integrates to 1/3 over the unit square
    def f(cfg):
        (a,), (b,) = cfg[0].position, cfg[1].position
        return abs(a - b)

    integrand = scalar_integrand(f)
    vals = []
    for pts in (8, 16, 32, 64):
        scheme = QuadratureScheme.tensor(pts)
        value, _ = product_region_integral(
            toy_model, [SlotDomain(toy_model.space.box)] * 2, integrand, scheme)
        vals.append(value)
    errs = [abs(v - 1.0 / 3.0) for v in vals]
    assert errs[-1] < 1e-3
    assert errs[-1] < errs[0]


def test_midpoint_order_on_smooth_integrand(toy_model):
    # observed order of the midpoint tensor rule on a smooth pair integrand
    from markedgibbs.cluster import ursell_batch
    from markedgibbs.model import FiniteConfiguration

    def integrand(n, positions, marks):
        return ursell_batch(toy_model, FiniteConfiguration(), positions, marks)

    region = toy_model.space.box
    values = {}
    for pts in (8, 16, 32, 64):
        scheme = QuadratureScheme.tensor(pts)
        values[pts], _ = product_region_integral(
            toy_model, [SlotDomain(region)] * 2, integrand, scheme)
    ref = values[64]
    e8, e16 = abs(values[8] - ref), abs(values[16] - ref)
    order = math.log2(e8 / e16)
    assert order >= 1.9


def test_lp_integral_constant_is_truncated_exponential(toy_model):
    region = toy_model.space.box
    scheme = QuadratureScheme.tensor(16)
    est = lp_integral(ones_integrand, toy_model, region, N=4, scheme=scheme)
    lam = toy_model.z * toy_model.mass()
    expected = sum(lam ** n / math.factorial(n) for n in range(5))
    assert est.value == pytest.approx(expected, rel=1e-12)


def test_lp_integral_counts_indicator(toy_model):
    region = toy_model.space.box
    scheme = QuadratureScheme.tensor(8)

    for fixed_n in (1, 2, 3):
        def f(n, positions, marks):
            return np.full(positions.shape[0], 1.0 if n == fixed_n else 0.0)

        est = lp_integral(f, toy_model, region, N=4, scheme=scheme)
        lam = toy_model.z * toy_model.mass()
        assert est.value == pytest.approx(lam ** fixed_n / math.factorial(fixed_n),
                                          rel=1e-12)


def test_lp_integral_first_order_statistic_closed_form(toy_model):
    # sum over points of g(x) integrates to z * Int g * truncated exp factor
    region = toy_model.space.box

    def f(n, positions, marks):
        if n == 0:
            return np.zeros(positions.shape[0])
        return np.sin(positions[:, :, 0]).sum(axis=1)

    scheme = QuadratureScheme.monte_carlo(200000, seed=4)
    est = lp_integral(f, toy_model, region, N=3, scheme=scheme)
    g_integral = 1.0 - math.cos(1.0)  # quadrature oracle for sin on [0, 1]
    lam = toy_model.z * toy_model.mass()
    expected = toy_model.z * g_integral * sum(
        lam ** k / math.factorial(k) for k in range(3))
    assert abs(est.value - expected) <= 4.0 * max(est.error, 1e-12)


def assert_mc_matches_grid_within_four_se(model, domains):
    from markedgibbs.cluster import ursell_batch

    def integrand(n, positions, marks):
        return ursell_batch(model, FiniteConfiguration(), positions, marks)

    grid_value, _ = product_region_integral(model, domains, integrand,
                                            QuadratureScheme.tensor(64))
    hits = 0
    for seed in range(20):
        mc_value, se = product_region_integral(
            model, domains, integrand, QuadratureScheme.monte_carlo(20000, seed=seed))
        if abs(mc_value - grid_value) <= 4.0 * se:
            hits += 1
    assert hits >= 19


def test_mc_matches_grid_within_four_se(toy_model):
    assert_mc_matches_grid_within_four_se(
        toy_model, [SlotDomain(toy_model.space.box)] * 2)


def test_mc_matches_grid_on_a_holed_domain(toy_model):
    # Monte Carlo draws in the box and zero-weights draws in the hole; the
    # grid cuts its cells at the hole's faces and drops those inside
    holed = SlotDomain(toy_model.space.box, hole=Box((0.3,), (0.6,)))
    assert_mc_matches_grid_within_four_se(toy_model, [holed] * 2)


def test_estimate_determinism(toy_model):
    region = toy_model.space.box
    scheme = QuadratureScheme.monte_carlo(5000, seed=123)
    a = lp_integral(ones_integrand, toy_model, region, 3, scheme)
    b = lp_integral(ones_integrand, toy_model, region, 3, scheme)
    assert a.value == b.value and a.error == b.error


def test_dimension_cap_and_fallback(toy_model):
    region = toy_model.space.box
    with pytest.raises(SchemeMismatch):
        lp_integral(ones_integrand, toy_model, region, 7,
                    QuadratureScheme.tensor(4))
    est = lp_integral(
        ones_integrand, toy_model, region, 7,
        QuadratureScheme.tensor(4, mc_fallback_samples=500, seed=2))
    lam = toy_model.z * toy_model.mass()
    expected = sum(lam ** n / math.factorial(n) for n in range(8))
    assert est.value == pytest.approx(expected, rel=1e-6)


def test_circle_marks_trapezoid_nodes():
    model = build_model("planar-rotator")
    scheme = QuadratureScheme.tensor(4, mark_nodes=8)
    nodes = list(marked_point_nodes(model, model.space.box, 1, scheme))
    assert len(nodes) == 32
    assert sum(w for _, w in nodes) == pytest.approx(model.marks.total_mass)


def test_interval_marks_gauss_nodes():
    model = build_model("ferrofluid")
    scheme = QuadratureScheme.tensor(4, mark_nodes=12)
    nodes = list(marked_point_nodes(model, model.space.box, 1, scheme))
    assert sum(w for _, w in nodes) == pytest.approx(model.marks.total_mass)
    # Gauss rule integrates the mark second moment of the uniform density
    second = sum(w * pts[0].mark ** 2 for pts, w in nodes)
    assert second == pytest.approx(1.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("n", range(1, 65))
def test_gauss_legendre_matches_numpy_and_is_exact_to_degree_2n_minus_1(n):
    x, w = gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.all(np.abs(x - ref_x) <= 1e-15)
    # numpy's own weights are off the 50-digit values by up to 3e-13 for
    # n <= 32 and 1.8e-12 for n <= 64, this rule's by 3.3e-14 and 1.2e-13
    np.testing.assert_allclose(w, ref_w, rtol=1e-13 if n <= 16 else 2e-12, atol=0.0)
    assert w.sum() == pytest.approx(2.0, rel=1e-15)
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    for k in range(2 * n):
        assert np.sum(w * x ** k) == pytest.approx(2.0 / (k + 1) if k % 2 == 0 else 0.0,
                                                   rel=0, abs=1e-15)


def test_gauss_legendre_closed_forms_and_cache():
    x, w = gauss_legendre(1)
    assert x.tolist() == [0.0] and w.tolist() == [2.0]
    x, w = gauss_legendre(2)
    np.testing.assert_allclose(x, [-1 / math.sqrt(3), 1 / math.sqrt(3)], rtol=4e-16)
    np.testing.assert_allclose(w, [1.0, 1.0], rtol=1e-16)
    x, w = gauss_legendre(3)
    np.testing.assert_allclose(x, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], rtol=4e-16,
                               atol=0.0)
    np.testing.assert_allclose(w, [5 / 9, 8 / 9, 5 / 9], rtol=4e-16)
    # one rule per node count and process, shared, so read-only
    assert gauss_legendre(32)[0] is gauss_legendre(32)[0]
    assert not x.flags.writeable and not w.flags.writeable


def test_negative_error_rejected():
    with pytest.raises(ValueError):
        IntegralEstimate(value=1.0, error=-1.0, scheme_echo={})


@pytest.mark.parametrize("order", [0, 2])
def test_nan_integrand_rejected(toy_model, order):
    # order 0 is the integrand on the empty configuration
    from markedgibbs.errors import NonFiniteIntegrand

    def bad(n, positions, marks):
        out = np.ones(positions.shape[0])
        if n == order:
            out[0] = np.nan
        return out

    with pytest.raises(NonFiniteIntegrand):
        lp_integral(bad, toy_model, toy_model.space.box, 2,
                    QuadratureScheme.tensor(4))


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_integrand_rejected(toy_model, value):
    from markedgibbs.errors import NonFiniteIntegrand

    def bad(n, positions, marks):
        out = np.ones(positions.shape[0])
        if n == 2:
            out[0] = value
        return out

    with pytest.raises(NonFiniteIntegrand):
        lp_integral(bad, toy_model, toy_model.space.box, 2,
                    QuadratureScheme.tensor(4))


# ---------------------------------------------------------------------------
# symmetric tensor grids against the full ordered product


def ordered_product_integral(model, domains, integrand, scheme,
                             node_rule=_single_nodes):
    """Brute-force oracle: every ordered tuple of single-slot nodes."""
    n = len(domains)
    singles = [node_rule(model, dom, scheme.grid_points_for(n), scheme.mark_nodes)
               for dom in domains]
    idx = np.array(list(itertools.product(*(range(w.size) for _, _, w in singles))))
    positions = np.stack([pos[idx[:, j]] for j, (pos, _, _) in enumerate(singles)],
                         axis=1)
    marks = np.stack([mk[idx[:, j]] for j, (_, mk, _) in enumerate(singles)], axis=1)
    weights = np.prod([w[idx[:, j]] for j, (_, _, w) in enumerate(singles)], axis=0)
    return float(np.sum(weights * integrand(n, positions, marks)))


def assert_matches_ordered_product(model, domains, integrand, scheme):
    value, _ = product_region_integral(model, domains, integrand, scheme)
    oracle = ordered_product_integral(model, domains, integrand, scheme)
    assert oracle != 0.0
    assert abs(value - oracle) <= 1e-13 * abs(oracle), (value, oracle)


def test_symmetric_grid_ursell_n3(toy_model):
    from markedgibbs.cluster import ursell_batch

    def integrand(n, positions, marks):
        return ursell_batch(toy_model, FiniteConfiguration(), positions, marks)

    assert_matches_ordered_product(toy_model, [SlotDomain(toy_model.space.box)] * 3,
                                   integrand, QuadratureScheme.tensor(7))


def test_symmetric_grid_boltzmann_weight_with_boundary(toy_model):
    from markedgibbs.potential import boltzmann_weight_batch

    model = toy_model.replace(z=0.5)
    bpos = np.array([[0.05], [0.9]])
    bmarks = np.array([1.0, -1.0])

    def integrand(n, positions, marks):
        return boltzmann_weight_batch(model, positions, marks, bpos, bmarks)

    region = Box((0.2,), (0.8,))
    assert_matches_ordered_product(model, [SlotDomain(region)] * 3, integrand,
                                   QuadratureScheme.tensor(6))


def test_symmetric_grid_region_and_collar_blocks():
    # two blocks, the collar one a box with a hole: region x2 + collar x2
    from markedgibbs.cluster import _collar_domain, ursell_batch

    model = build_model("toy-repulsive-spin-rc", z=0.05, beta=1.0, range_cut=0.25)
    region = Box((0.3,), (0.7,))
    collar = _collar_domain(model, region)
    assert collar.hole == region

    def integrand(n, positions, marks):
        return ursell_batch(model, FiniteConfiguration(), positions, marks)

    assert_matches_ordered_product(model, [SlotDomain(region)] * 2 + [collar] * 2,
                                   integrand, QuadratureScheme.tensor(5))


def test_symmetric_grid_averaged_correlation_blocks(toy_model):
    # kbar(omega; zeta) is not symmetric across omega and zeta, so the fixed
    # and the integrated slots must be two blocks even on the same region
    from markedgibbs.cluster import averaged_correlation, kbar_batch_split

    m, region, scheme = 2, toy_model.space.box, QuadratureScheme.tensor(8)
    est = averaged_correlation(toy_model, region, m, 2, scheme)

    def integrand(total, positions, marks):
        return kbar_batch_split(toy_model, positions, marks, m)

    norm = toy_model.mass(region) ** m
    for n, term in enumerate(est.terms):
        domains = [SlotDomain(region)] * (m + n)
        oracle = (toy_model.z ** n / math.factorial(n) / norm *
                  ordered_product_integral(toy_model, domains, integrand, scheme))
        assert abs(term - oracle) <= 1e-13 * abs(oracle), (n, term, oracle)


@pytest.mark.parametrize("size,k", [(1, 3), (2, 1), (3, 4), (5, 2), (7, 3), (12, 6)])
def test_multisets_match_combinations_with_replacement(size, k):
    idx, counts = _multisets(size, k)
    expected = list(itertools.combinations_with_replacement(range(size), k))
    assert idx.tolist() == [list(row) for row in expected]
    assert counts.dtype.kind == "i"
    assert int(counts.sum()) == size ** k
    for row, count in zip(expected, counts.tolist()):
        mult = [row.count(v) for v in set(row)]
        assert count == math.factorial(k) // math.prod(map(math.factorial, mult))


def test_tensor_budget_counts_the_full_ordered_product(toy_model):
    # the guard counts the ordered product of single-slot node counts (2 marks
    # per position), not the multisets enumerated: 202^3 and 52^4 fit the
    # budget, 204^3 and 54^4 do not
    region = toy_model.space.box
    one_block = [SlotDomain(region)] * 3
    two_blocks = [SlotDomain(region)] * 2 + [SlotDomain(Box((0.0,), (0.5,)))] * 2
    for domains, fits, too_many in ((one_block, 101, 102), (two_blocks, 26, 27)):
        n = len(domains)
        assert (2 * fits) ** n <= TENSOR_NODE_BUDGET < (2 * too_many) ** n
        positions, _, _ = next(product_node_batches(
            toy_model, domains, QuadratureScheme.tensor(fits)))
        assert positions.shape[1:] == (n, 1)
        with pytest.raises(SchemeMismatch,
                           match=f"enumerate {(2 * too_many) ** n} nodes"):
            next(product_node_batches(toy_model, domains,
                                      QuadratureScheme.tensor(too_many)))


def hole_weighted_nodes(model, domain, per_axis, mark_nodes):
    """Every position x mark node of a slot, weighted 0 in the hole (zeros kept)."""
    pos, pw = _position_nodes(domain.box, per_axis, domain.hole)
    mv, mw = mark_nodes_weights(model, mark_nodes)
    positions = np.repeat(pos, mv.size, axis=0)
    weights = np.repeat(pw, mv.size) * np.tile(mw, pw.size)
    if domain.hole is not None:
        weights = weights * ~domain.hole.contains_batch(positions)
    return positions, np.tile(mv, pw.size), weights


def test_zero_weight_nodes_never_reach_the_integrand():
    # the collar's nodes inside its hole, the region, weigh zero; those nodes
    # are dropped, and the integral is still the zero-weighted sum over every
    # ordered tuple of all nodes
    from markedgibbs.cluster import _collar_domain, ursell_batch

    model = build_model("toy-repulsive-spin-rc", z=0.05, beta=1.0, range_cut=0.25)
    region = Box((0.3,), (0.7,))
    collar = _collar_domain(model, region)
    domains = [SlotDomain(region)] + [collar] * 2
    scheme = QuadratureScheme.tensor(6)
    assert np.any(hole_weighted_nodes(model, collar, 6, scheme.mark_nodes)[2] == 0.0)

    def integrand(n, positions, marks):
        return ursell_batch(model, FiniteConfiguration(), positions, marks)

    def collar_outside_region(n, positions, marks):
        assert not np.any(region.contains_batch(positions[:, 1:, :]))
        return integrand(n, positions, marks)

    for _, _, weights in product_node_batches(model, domains, scheme):
        assert np.all(weights != 0.0)
    value, _ = product_region_integral(model, domains, collar_outside_region, scheme)
    oracle = ordered_product_integral(model, domains, integrand, scheme,
                                      node_rule=hole_weighted_nodes)
    assert oracle != 0.0
    assert abs(value - oracle) <= 1e-13 * abs(oracle), (value, oracle)


def test_slot_without_nonzero_nodes_integrates_to_zero():
    # a region that fills the model box leaves its collar, the box with the
    # region as its hole, no node: the integral is exactly 0.0
    from markedgibbs.cluster import (_collar_domain, limit_density_profile,
                                     ursell_batch)

    model = build_model("toy-repulsive-spin-rc", z=0.05, beta=1.0, range_cut=0.25)
    region = model.space.box
    collar = _collar_domain(model, region)
    assert collar.box == collar.hole == region
    scheme = QuadratureScheme.tensor(5)
    assert list(product_node_batches(model, [SlotDomain(region), collar], scheme)) == []

    def integrand(n, positions, marks):
        return ursell_batch(model, FiniteConfiguration(), positions, marks)

    value, err = product_region_integral(model, [SlotDomain(region), collar],
                                         integrand, scheme)
    assert value == 0.0 and err == 0.0
    # the same empty collar inside a limit-density profile: the normalizer is
    # the plain series over the region
    profile = limit_density_profile(model, region, 2, QuadratureScheme.tensor((3, 2)))
    plain = lp_integral(integrand, model, region, 2, QuadratureScheme.tensor((3, 2)))
    assert profile.log_normalizer == plain.value


@pytest.mark.parametrize("dimension, region", [
    (1, Box((0.3,), (0.6,))),
    (2, Box((0.3, 0.2), (0.6, 0.7))),
], ids=["1d", "2d"])
@pytest.mark.parametrize("per_axis", [5, 9])
def test_collar_order_one_integral_is_its_measure(dimension, region, per_axis):
    # the collar's cells end at the region's faces, so the midpoint rule
    # integrates 1 over the collar exactly (up to rounding)
    from markedgibbs.cluster import _collar_domain

    model = build_model("toy-repulsive-spin-rc", range_cut=0.2, dimension=dimension)
    collar = _collar_domain(model, region)
    value, _ = product_region_integral(model, [collar], ones_integrand,
                                       QuadratureScheme.tensor(per_axis))
    measure = (collar.box.volume - region.volume) * model.marks.total_mass
    assert value == pytest.approx(measure, rel=1e-14, abs=0.0)


def _block_cases() -> dict:
    """Integrals, as functions of their integrand, whose chunks exceed one
    block: name -> integrate(integrand)."""
    model = build_model("toy-repulsive-spin-rc", z=0.05, beta=1.0, range_cut=0.25)
    region = Box((0.3,), (0.7,))
    box = model.space.box
    collar = cluster._collar_domain(model, region)
    return {
        "tensor": lambda f: product_region_integral(
            model, [SlotDomain(box)] * 2, f, QuadratureScheme.tensor(64)),
        "monte_carlo": lambda f: product_region_integral(
            model, [SlotDomain(box)] * 3, f, QuadratureScheme.monte_carlo(6000, seed=4)),
        "holed_collar": lambda f: product_region_integral(
            model, [SlotDomain(region)] + [collar] * 2, f, QuadratureScheme.tensor(24)),
        "fixed": lambda f: lp_integral(
            f, model, box, 2, QuadratureScheme.tensor((64, 24, 8)),
            fixed=[SlotDomain(region)]),
    }


@pytest.mark.parametrize("case", ["tensor", "monte_carlo", "holed_collar", "fixed"])
def test_integrand_sees_each_chunk_in_blocks(monkeypatch, case):
    # each chunk reaches the integrand as consecutive blocks of _BLOCK rows
    # and a shorter last one; a small chunk puts chunk ends inside the Monte
    # Carlo run as well
    monkeypatch.setattr(lpintegrate, "_CHUNK", 2500)
    chunks, blocks = [], []
    batches = lpintegrate.product_node_batches

    def recorded_batches(*args):
        for batch in batches(*args):
            chunks.append(batch[0])
            yield batch

    def spy(n, positions, marks):
        blocks.append(positions.copy())
        return np.ones(positions.shape[0])

    monkeypatch.setattr(lpintegrate, "product_node_batches", recorded_batches)
    _block_cases()[case](spy)
    assert max(len(c) for c in chunks) > _BLOCK
    assert all(len(b) <= _BLOCK for b in blocks)
    expected = [c[i:i + _BLOCK] for c in chunks for i in range(0, len(c), _BLOCK)]
    assert len(blocks) == len(expected)
    assert all(np.array_equal(b, e) for b, e in zip(blocks, expected))


def test_series_keep_their_bits_at_any_block(monkeypatch, toy_model):
    # a row's integrand value depends on that row alone: blocks of 7 rows give
    # the bits of the default block in every value, term and term error
    scheme = QuadratureScheme.tensor((24, 12, 8, 6, 4, 3), mc_fallback_samples=3000,
                                     seed=5)
    anchors = canonicalize([MarkedPoint((0.3,), 1.0), MarkedPoint((0.55,), -1.0)])
    box = toy_model.space.box
    series = [
        lambda: cluster.ursell_series_terms(toy_model, box, 4, scheme),
        lambda: cluster.correlation_truncated(anchors, toy_model, box, 3, scheme),
        lambda: cluster.partition_direct_truncated(toy_model, box,
                                                   FiniteConfiguration(), 8, scheme),
    ]

    def bits(est):
        return [x.hex() for x in (est.value, est.error, *est.terms, *est.term_errors)]

    default = [bits(run()) for run in series]
    monkeypatch.setattr(lpintegrate, "_BLOCK", 7)
    assert [bits(run()) for run in series] == default


def test_single_slot_tables_are_memoised_and_read_only(toy_model):
    # equal domains share one memo entry; the shared arrays refuse writes
    hole = Box((0.3,), (0.6,))
    nodes = _single_nodes(toy_model, SlotDomain(toy_model.space.box, hole), 8, 16)
    again = _single_nodes(toy_model, SlotDomain(toy_model.space.box, hole), 8, 16)
    assert again is nodes
    tables = _multisets(5, 3)
    assert _multisets(5, 3) is tables
    for array in (*nodes, *tables):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    assert callable(_single_nodes.cache_clear) and callable(_multisets.cache_clear)


@pytest.mark.parametrize("blocks", ["one", "equal-domains", "collar"])
def test_indexed_batches_point_into_their_node_set(blocks):
    # the index rows gather the positions and marks of the plain batches; equal
    # domains in two blocks index one node set
    model = build_model("toy-repulsive-spin-rc", z=0.05, beta=1.0, range_cut=0.25)
    box, region = model.space.box, Box((0.3,), (0.7,))
    domains = {"one": [SlotDomain(box)] * 3,
               "equal-domains": [SlotDomain(box)] * 2 + [SlotDomain(box)] * 2,
               "collar": [SlotDomain(region)] + [cluster._collar_domain(model, region)] * 2,
               }[blocks]
    scheme = QuadratureScheme.tensor(6)
    plain = list(product_node_batches(model, domains, scheme))
    indexed = list(product_node_batches(model, domains, scheme, True))
    assert len(plain) == len(indexed) == 1
    (positions, marks, weights), (rows, nodes, row_weights) = plain[0], indexed[0]
    assert rows.shape == marks.shape and nodes.rows == rows.shape[0]
    assert np.array_equal(nodes.positions[rows], positions)
    assert np.array_equal(nodes.marks[rows], marks)
    assert weights.tobytes() == row_weights.tobytes()
    if blocks != "collar":
        assert nodes.marks.size == len(_single_nodes(model, domains[0], 6, 16)[1])
