"""Acceptance suite: one test per criterion, each printing a PASS line with margin.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Comparison scales for the Ursell identities follow the flow-scale convention:
agreement is measured relative to the magnitudes the computation passes
through (Gibbs factors, absolute partition series, tree majorants), since
output-relative comparison is meaningless under cancellation.
"""
import math

import numpy as np
import pytest

from conftest import random_config
from markedgibbs import starcalc
from markedgibbs.cluster import (averaged_correlation, boltzmann_functional,
                                 convergence_radius, correlation_tail_bound,
                                 correlation_truncated, kbar,
                                 log_partition_truncated,
                                 partition_direct_truncated, tail_bound,
                                 tree_abs_sum_batch, tree_bound_q_multi,
                                 tree_bound_recursive, ursell_batch,
                                 ursell_direct, ursell_table, _abs_mayer_matrix)
from markedgibbs.combinat import enumerate_connected_graphs, enumerate_trees
from markedgibbs.gibbsmc import (EMPTY_BOUNDARY, SamplerConfig,
                                 collar_locality_trials, dlr_check, mcmc_run,
                                 poisson_sample, rejection_sample_batch,
                                 summarize_samples)
from markedgibbs.lpintegrate import (QuadratureScheme, SlotDomain, lp_integral,
                                     philox_rng, product_region_integral)
from markedgibbs.model import Box, FiniteConfiguration, MarkedPoint, canonicalize
from markedgibbs.potential import build_model, check_integrability

TOY = build_model("toy-repulsive-spin", z=0.05, beta=1.0)
IDEAL = build_model("ideal", z=0.05, beta=1.0)


def report(name, margin):
    print(f"PASS {name} ({margin})")


def flow_scale(model, n, *values):
    bound = math.exp(model.beta * model.potential.stability_B * n)
    return max(*(abs(v) for v in values), bound)


def bfs_connected(n, edges):
    if n == 1:
        return True
    adj = {v: set() for v in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def test_criterion_01_cayley_count():
    for n in range(2, 8):
        edges_seen = set()
        for tree in enumerate_trees(n):
            assert len(tree) == n - 1
            assert bfs_connected(n, tree)
            edges_seen.add(tree)
        assert len(edges_seen) == n ** (n - 2)
        assert n ** (n - 2) < math.e ** n * math.factorial(n)
    report("criterion 1: tree counts n^(n-2), n=2..7", "exact integer equality")


def test_criterion_02_connected_graph_counts():
    expected = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}

    import itertools
    for n, want in expected.items():
        got = set(enumerate_connected_graphs(n))
        assert len(got) == want
        # independent exhaustive filter with a different connectivity routine
        pairs = list(itertools.combinations(range(n), 2))
        independent = sum(
            1 for r in range(len(pairs) + 1)
            for chosen in itertools.combinations(pairs, r)
            if bfs_connected(n, chosen))
        assert independent == want
    report("criterion 2: connected-graph counts 1,1,4,38,728", "exact")


def test_criterion_03_ursell_triangle():
    rng = philox_rng(311)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 6))
        cfg = random_config(TOY, n, rng)
        direct = ursell_direct(cfg, TOY)
        table = ursell_table(cfg, TOY).full
        via_log = starcalc.star_log(boltzmann_functional(cfg, TOY))((1 << n) - 1)
        scale = flow_scale(TOY, n, direct, table, via_log)
        worst = max(worst, abs(direct - table) / scale,
                    abs(direct - via_log) / scale)
    assert worst <= 1e-10
    report("criterion 3: Ursell oracle triangle, 500 configs n<=5",
           f"max dev {worst:.2e} of 1e-10")


def test_criterion_04_cluster_decomposition():
    rng = philox_rng(312)
    configs = [random_config(TOY, int(rng.integers(1, 9)), rng) for _ in range(500)]
    sizes = np.array([len(cfg) for cfg in configs])
    worst = 0.0
    for n in np.unique(sizes):  # one star_exp_batch call per size and series
        group = [configs[i] for i in np.flatnonzero(sizes == n)]
        table = np.array([ursell_table(cfg, TOY).values for cfg in group])
        rebuilt = starcalc.star_exp_batch(table)
        rho = np.array([boltzmann_functional(cfg, TOY).values for cfg in group])
        abs_series = starcalc.star_exp_batch(np.abs(table))
        scale = np.maximum(np.abs(rho), abs_series)
        worst = max(worst, float(np.max(np.abs(rebuilt - rho) / scale)))
    assert worst <= 1e-10
    report("criterion 4: cluster decomposition, 500 configs n<=8",
           f"max dev {worst:.2e} of 1e-10")


def test_criterion_05_tree_graph_bound():
    rng = philox_rng(313)
    violations = 0
    min_slack = math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        cfg = random_config(TOY, n, rng)
        k_val = abs(ursell_table(cfg, TOY).full)
        if n == 1:
            bound = 1.0
        else:
            bound = math.exp(2 * TOY.beta * TOY.potential.stability_B * n) * \
                float(tree_abs_sum_batch(_abs_mayer_matrix(TOY, cfg.points)[None])[0])
        slack = bound - k_val
        min_slack = min(min_slack, slack)
        if k_val > bound + 1e-12 * flow_scale(TOY, n, k_val, bound):
            violations += 1
    assert violations == 0
    report("criterion 5: tree-graph bound, 1000 configs n<=6",
           f"0 violations, min slack {min_slack:.2e}")


def test_criterion_06_q_closed_form():
    rng = philox_rng(314)
    worst = 0.0
    for _ in range(200):
        total = int(rng.integers(2, 8))
        n_omega = int(rng.integers(1, total + 1))
        cfg = random_config(TOY, total, rng)
        omega = cfg.subset(range(n_omega))
        zeta = cfg.subset(range(n_omega, total))
        closed = tree_bound_q_multi(omega, zeta, TOY)
        first = tree_bound_recursive(omega, zeta, TOY, "first")
        last = tree_bound_recursive(omega, zeta, TOY, "last")
        scale = max(closed, 1e-300)
        worst = max(worst, abs(closed - first) / scale, abs(first - last) / scale)
    assert worst <= 1e-10
    report("criterion 6: majorant recursion = closed form, two anchor policies",
           f"max rel dev {worst:.2e} of 1e-10")


def test_criterion_07_integral_tree_bound():
    anchor = MarkedPoint((0.5,), 1.0)
    c_beta = check_integrability(TOY, 48).c_beta
    # dense single integral of the absolute Mayer factor at the anchor
    xs = (np.arange(200000) + 0.5) / 200000
    single = 0.0
    for s, w in zip(TOY.marks.labels, TOY.marks.weights):
        phi = (1.0 + 0.5 * s * anchor.mark) * np.exp(-((xs - 0.5) / 0.2) ** 2)
        single += w * float(np.abs(np.expm1(-TOY.beta * phi)).mean())
    e2bb = math.exp(2 * TOY.beta * TOY.potential.stability_B)
    margins = []
    for n in range(1, 5):
        def q_integrand(k, positions, marks, _n=n):
            rows = positions.shape[0]
            pos = np.concatenate(
                [np.broadcast_to(np.asarray(anchor.position), (rows, 1, 1)),
                 positions], axis=1)
            mks = np.concatenate(
                [np.full((rows, 1), anchor.mark), marks], axis=1)
            from markedgibbs.potential import (mayer_factor_batch, pair_phi_matrix,
                                               square_pair_table)
            mm = square_pair_table(np.abs(mayer_factor_batch(
                pair_phi_matrix(TOY, pos, mks), TOY.beta)), _n + 1, 0.0)
            return e2bb ** (_n + 1) * tree_abs_sum_batch(mm)

        scheme = QuadratureScheme.tensor((64, 32, 16, 10))
        lhs, err = product_region_integral(
            TOY, [SlotDomain(TOY.space.box)] * n, q_integrand, scheme)
        rhs = e2bb ** (n + 1) * c_beta ** (n - 1) * (n + 1) ** (n - 1) * single
        budget = 3.0 * err + 1e-12
        assert lhs <= rhs + budget, (n, lhs, rhs)
        margins.append(rhs + budget - lhs)
    report("criterion 7: integral tree bound n<=4",
           f"0 violations, min margin {min(margins):.2e}")


def test_criterion_08_convergence_certificate():
    radius = convergence_radius(TOY, 48)
    assert radius.z_star > 0
    model = TOY.replace(z=0.5 * radius.z_star)
    # the series of |k|, which the majorant bounds term by term
    def abs_ursell(n, positions, marks):
        return np.abs(ursell_batch(model, FiniteConfiguration(), positions, marks))

    est = lp_integral(abs_ursell, model, model.space.box, 4,
                      QuadratureScheme.tensor((96, 48, 24, 12), mc_fallback_samples=20000))
    q = 2 * model.z * math.e * radius.c_beta * \
        math.exp(2 * model.beta * model.potential.stability_B)
    assert q == pytest.approx(0.5, rel=1e-12)
    prefactor = model.mass() / radius.c_beta
    ratios = []
    partial = 0.0
    for n in range(1, 5):
        term = est.terms[n]
        majorant = prefactor * q ** n
        assert term >= 0.0
        assert term + est.term_errors[n] <= majorant, (n, term, majorant)
        new_partial = partial + term
        assert new_partial >= partial  # monotone partial sums
        partial = new_partial
        ratios.append(term / majorant)
    report("criterion 8: certificate at z = z*/2",
           f"z*={radius.z_star:.4f}, term/majorant max {max(ratios):.2e}")


def test_criterion_09_partition_cross_check():
    scheme = QuadratureScheme.tensor((96, 48, 24, 12, 6, 4),
                                     mc_fallback_samples=20000, seed=5)
    series = log_partition_truncated(TOY, TOY.space.box, N=4, scheme=scheme,
                                     radius_grid=32)
    direct = partition_direct_truncated(TOY, TOY.space.box,
                                        FiniteConfiguration(), N=8,
                                        scheme=scheme)
    budget = series.tail_bound + series.integration_error + direct.error
    gap = abs(series.log_z - math.log(direct.value))
    assert gap <= budget
    assert budget <= 1e-3
    report("criterion 9: log-partition vs direct series",
           f"gap {gap:.2e} within budget {budget:.2e} <= 1e-3")


def _psi_table_for(cfg: FiniteConfiguration) -> starcalc.ConfigFunctional:
    """Concrete bounded functional supported on sizes one and two."""
    n = len(cfg)

    def value(mask: int) -> float:
        idx = [i for i in range(n) if mask >> i & 1]
        if len(idx) == 1:
            p = cfg[idx[0]]
            return 0.4 * math.sin(3.0 * p.position[0]) + 0.1 * p.mark
        if len(idx) == 2:
            p, q = cfg[idx[0]], cfg[idx[1]]
            r = p.position[0] - q.position[0]
            return 0.3 * math.exp(-r * r) * (1.0 + 0.2 * p.mark * q.mark)
        return 0.0

    return starcalc.ConfigFunctional.from_function(n, value)


def _star_exp_whole(configs: list[FiniteConfiguration]) -> np.ndarray:
    """exp*(psi)(whole configuration) of each configuration, in the order
    given: one star_exp_batch call per configuration size."""
    out = np.empty(len(configs))
    sizes = np.array([len(cfg) for cfg in configs])
    for n in np.unique(sizes):
        rows = np.flatnonzero(sizes == n)
        table = np.array([_psi_table_for(configs[i]).values for i in rows])
        out[rows] = starcalc.star_exp_batch(table)[:, -1]
    return out


def _psi_integrals(region: Box):
    """Quadrature oracles for the single and pair integrals of the test
    functional over region x marks."""
    xs = region.lower[0] + (np.arange(4000) + 0.5) / 4000 * \
        (region.upper[0] - region.lower[0])
    w = (region.upper[0] - region.lower[0]) / 4000
    single = 0.0
    for s, ws in ((1.0, 0.5), (-1.0, 0.5)):
        single += ws * float(np.sum(0.4 * np.sin(3 * xs) + 0.1 * s)) * w
    pair = 0.0
    for s, ws in ((1.0, 0.5), (-1.0, 0.5)):
        for t, wt in ((1.0, 0.5), (-1.0, 0.5)):
            grid = 0.3 * np.exp(-(xs[:, None] - xs[None, :]) ** 2) * \
                (1.0 + 0.2 * s * t)
            pair += ws * wt * float(np.sum(grid)) * w * w
    return single, pair


def test_criterion_10_star_identities():
    rng = philox_rng(315)
    # exp*/ln* round trip at 1e-10
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(0, 7))
        vals = rng.normal(size=1 << n)
        vals[0] = 0.0
        psi = starcalc.ConfigFunctional(n, vals)
        back = starcalc.star_log(starcalc.star_exp(psi))
        worst = max(worst, float(np.max(np.abs(back.values - psi.values))))
    assert worst <= 1e-10

    # product and exponential rules for the attach operator at 1e-12
    worst_rule = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        x = int(rng.integers(0, n))
        a_vals = rng.normal(size=1 << n)
        b_vals = rng.normal(size=1 << n)
        a = starcalc.ConfigFunctional(n, a_vals)
        b = starcalc.ConfigFunctional(n, b_vals)
        lhs = starcalc.d_shift(starcalc.star_mul(a, b), [x])
        rhs = starcalc.star_mul(starcalc.d_shift(a, [x]), b).add(
            starcalc.star_mul(a, starcalc.d_shift(b, [x])))
        psi_vals = rng.normal(size=1 << n)
        psi_vals[0] = 0.0
        psi = starcalc.ConfigFunctional(n, psi_vals)
        e = starcalc.star_exp(psi)
        lhs2 = starcalc.d_shift(e, [x])
        rhs2 = starcalc.star_mul(e, starcalc.d_shift(psi, [x]))
        for mask in range(1 << n):
            if mask & (1 << x):
                continue
            s1 = max(1.0, abs(lhs(mask)), abs(rhs(mask)))
            s2 = max(1.0, abs(lhs2(mask)), abs(rhs2(mask)))
            worst_rule = max(worst_rule, abs(lhs(mask) - rhs(mask)) / s1,
                             abs(lhs2(mask) - rhs2(mask)) / s2)
    assert worst_rule <= 1e-12

    # exponential integral identity by Monte Carlo (no truncation: the
    # star-exponential is evaluated exactly on every sampled configuration)
    model = TOY.replace(z=0.5)
    region = model.space.box
    draws = 40000
    mc_rng = philox_rng(316)
    vals = _star_exp_whole([poisson_sample(model, region, mc_rng)
                            for _ in range(draws)])
    norm = math.exp(model.z * model.mass())
    lhs = norm * vals.mean()
    lhs_se = norm * vals.std(ddof=1) / math.sqrt(draws)
    single, pair = _psi_integrals(region)
    rhs = math.exp(model.z * single + model.z ** 2 / 2.0 * pair)
    assert abs(lhs - rhs) <= 3.0 * lhs_se
    z_exp = abs(lhs - rhs) / lhs_se

    # conditional factorization on a split volume, Monte Carlo
    inner = Box((0.0,), (0.5,))
    outer_shell = Box((0.5,), (1.0,))
    fixed = canonicalize([MarkedPoint((0.2,), 1.0), MarkedPoint((0.45,), -1.0)])
    vals = _star_exp_whole([
        canonicalize(poisson_sample(model, outer_shell, mc_rng).points + fixed.points)
        for _ in range(draws)])
    shell_mass = model.mass(outer_shell)
    lhs2 = math.exp(model.z * shell_mass) * vals.mean()
    lhs2_se = math.exp(model.z * shell_mass) * vals.std(ddof=1) / math.sqrt(draws)
    single_shell, pair_shell = _psi_integrals(outer_shell)
    scalar = math.exp(model.z * single_shell + model.z ** 2 / 2.0 * pair_shell)

    # the shifted functional on subsets of the fixed configuration
    xs = 0.5 + (np.arange(4000) + 0.5) / 4000 * 0.5
    w = 0.5 / 4000

    def shifted(mask):
        idx = [i for i in range(len(fixed)) if mask >> i & 1]
        if not idx:
            return 0.0
        base = _psi_table_for(fixed)(mask)
        if len(idx) == 1:
            p = fixed[idx[0]]
            acc = 0.0
            for s, ws in ((1.0, 0.5), (-1.0, 0.5)):
                pairvals = 0.3 * np.exp(-(p.position[0] - xs) ** 2) * \
                    (1.0 + 0.2 * p.mark * s)
                acc += ws * float(np.sum(pairvals)) * w
            return base + model.z * acc
        return base  # three-point values vanish

    psi_fixed = starcalc.ConfigFunctional.from_function(len(fixed), shifted)
    rhs2 = scalar * starcalc.star_exp(psi_fixed)((1 << len(fixed)) - 1)
    assert abs(lhs2 - rhs2) <= 3.0 * lhs2_se
    report("criterion 10: star-calculus identities",
           f"roundtrip {worst:.1e}, rules {worst_rule:.1e}, "
           f"MC z-scores {z_exp:.2f}, {abs(lhs2 - rhs2) / lhs2_se:.2f}")


def test_criterion_11_ideal_gas():
    rng = philox_rng(317)
    # coefficients vanish beyond singletons, exactly
    for _ in range(50):
        n = int(rng.integers(2, 6))
        cfg = random_config(IDEAL, n, rng)
        table = ursell_table(cfg, IDEAL)
        assert all(table.values[mask] == 0.0
                   for mask in range(1 << n) if bin(mask).count("1") >= 2)

    scheme = QuadratureScheme.tensor(64)
    rep = log_partition_truncated(IDEAL, IDEAL.space.box, N=3, scheme=scheme,
                                  radius_grid=8)
    assert rep.log_z == IDEAL.z * IDEAL.mass()  # float-exact at first order

    for m in (1, 2, 3):
        pts = canonicalize([MarkedPoint((0.2 + 0.25 * j,), 1.0) for j in range(m)])
        est = correlation_truncated(pts, IDEAL, IDEAL.space.box, N=3, scheme=scheme)
        assert est.value == 1.0  # exact collapse

    draws = [poisson_sample(IDEAL, IDEAL.space.box, rng) for _ in range(20000)]
    counts = np.array([len(d) for d in draws], dtype=float)
    lam = IDEAL.z * IDEAL.mass()
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - lam) <= 3 * se

    rej = rejection_sample_batch(IDEAL, IDEAL.space.box, EMPTY_BOUNDARY,
                                 20000, rng)
    rej_counts = np.array([len(d) for d in rej], dtype=float)
    se_r = rej_counts.std(ddof=1) / math.sqrt(rej_counts.size)
    assert abs(rej_counts.mean() - lam) <= 3 * se_r

    chain = mcmc_run(IDEAL, IDEAL.space.box, EMPTY_BOUNDARY,
                     SamplerConfig(seed=12, sweeps=60000, burn_in=5000))
    assert abs(chain.mean_count - lam) <= 3 * lam * chain.rho_hat_se / 1.0 + 1e-3
    report("criterion 11: ideal-gas end-to-end",
           "k cutoff exact, logZ float-exact, rho = 1 exact, samplers 3-sigma")


def test_criterion_12_three_route_consistency():
    n_samples = 100000
    scheme = QuadratureScheme.tensor((48, 24, 12, 8), seed=21)
    expansion = averaged_correlation(TOY, TOY.space.box, m=1, N=3, scheme=scheme)
    c_beta = check_integrability(TOY, 24).c_beta
    expansion_budget = expansion.error + correlation_tail_bound(TOY, 4, c_beta)

    rng = philox_rng(318)
    rej = summarize_samples(
        rejection_sample_batch(TOY, TOY.space.box, EMPTY_BOUNDARY,
                               n_samples, rng), TOY, TOY.space.box)
    chain = mcmc_run(TOY, TOY.space.box, EMPTY_BOUNDARY,
                     SamplerConfig(seed=19, sweeps=n_samples, burn_in=5000))

    pairs = {
        "expansion-vs-rejection": (expansion.value, rej.rho_hat,
                                   expansion_budget, rej.rho_hat_se),
        "expansion-vs-mcmc": (expansion.value, chain.rho_hat,
                              expansion_budget, chain.rho_hat_se),
        "rejection-vs-mcmc": (rej.rho_hat, chain.rho_hat,
                              rej.rho_hat_se, chain.rho_hat_se),
    }
    zs = {}
    for name, (a, b, ea, eb) in pairs.items():
        gap = abs(a - b)
        combined = 3.0 * math.hypot(ea, eb) if name == "rejection-vs-mcmc" \
            else 3.0 * eb + ea
        assert gap <= combined, (name, a, b, gap, combined)
        zs[name] = gap / max(combined / 3.0, 1e-300)
    report("criterion 12: three-route 1-point correlation",
           ", ".join(f"{k} z={v:.2f}" for k, v in zs.items()))


def test_criterion_13_dlr_and_locality():
    model = build_model("toy-repulsive-spin-rc", z=0.05, range_cut=0.2)
    inner = Box((0.25,), (0.75,))
    rep = dlr_check(model, inner, model.space.box, n_samples=100000, seed=6)
    assert rep.passed
    violations = collar_locality_trials(model, inner, trials=1000, seed=7)
    assert violations == 0
    report("criterion 13: DLR within 3-sigma and exact collar locality",
           ", ".join(f"{k} z={v:.2f}" for k, v in rep.z_scores.items()) +
           ", 0 locality violations in 1000")


def test_criterion_14_cli_byte_determinism(tmp_path):
    import json
    from markedgibbs.cli import main

    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({
        "command": "expand",
        "model": {"name": "toy-repulsive-spin", "z": 0.05, "beta": 1.0},
        "order": 3,
        "scheme": {"kind": "monte_carlo", "samples": 5000},
        "seed": 99,
    }))
    bodies = []
    for run in range(3):
        out = tmp_path / f"rep_{run}.json"
        code = main(["--config", str(conf), "--out", str(out)])
        assert code == 0
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1] == bodies[2]
    report("criterion 14: CLI byte determinism across runs", "byte-identical")
