"""Curated invariant suite behind the CLI `verify` command.

Each check returns a name, a pass flag, and a margin string. The suite is a
fast deterministic subset of the full pytest acceptance tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cluster, combinat, starcalc
from .gibbsmc import _draw_points, collar_locality_trials
from .lpintegrate import QuadratureScheme, SlotDomain, philox_rng, product_region_integral
from .model import Box, FiniteConfiguration, MarkedPoint
from .potential import build_model


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name} ({self.margin})"


def connected_count_recurrence(n: int) -> int:
    """Count of connected labeled graphs via the complement recurrence."""
    total = lambda k: 1 << (k * (k - 1) // 2)
    c = [0] * (n + 1)
    for k in range(1, n + 1):
        acc = total(k)
        for j in range(1, k):
            acc -= math.comb(k - 1, j - 1) * c[j] * total(k - j)
        c[k] = acc
    return c[n]


def check_cayley() -> CheckResult:
    for n in range(2, 8):
        trees = list(combinat.enumerate_trees(n))
        if len(trees) != n ** (n - 2) or len(set(trees)) != n ** (n - 2):
            return CheckResult("cayley_count", False, f"n={n}: {len(trees)}")
        if not n ** (n - 2) < math.e ** n * math.factorial(n):
            return CheckResult("cayley_count", False, f"n={n}: factorial bound")
    return CheckResult("cayley_count", True, "n=2..7 exact")


def check_connected_counts() -> CheckResult:
    expected = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}
    for n, want in expected.items():
        got = sum(1 for _ in combinat.enumerate_connected_graphs(n))
        if got != want or connected_count_recurrence(n) != want:
            return CheckResult("connected_graph_count", False, f"n={n}: {got}")
    return CheckResult("connected_graph_count", True, "n=1..5 exact")


def _flow_scale(model, n, *values):
    """Agreement scale for Ursell identities: the computation flows through
    Gibbs factors bounded by e^{beta B n}, so cancellation below that scale is
    machine noise, not disagreement."""
    bound = math.exp(model.beta * model.potential.stability_B * n)
    return max(*(abs(v) for v in values), bound)


def check_ursell_triangle(trials: int = 100) -> CheckResult:
    model = build_model("toy-repulsive-spin", z=0.05, beta=1.0)
    rng = philox_rng(11)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 6))
        cfg = _draw_points(model, model.space.box, n, rng)
        direct = cluster.ursell_direct(cfg, model)
        table = cluster.ursell_table(cfg, model).full
        # the literal ln* series, independent of the recursion behind the table
        rho = cluster.boltzmann_functional(cfg, model)
        via_log = starcalc.star_log_series(rho)((1 << n) - 1)
        scale = _flow_scale(model, n, direct, table, via_log)
        worst = max(worst, abs(direct - table) / scale, abs(direct - via_log) / scale)
    return CheckResult("ursell_triangle", bool(worst <= 1e-10),
                       f"max dev {worst:.2e}")


def check_cluster_decomposition(trials: int = 100) -> CheckResult:
    model = build_model("toy-repulsive-spin", z=0.05, beta=1.0)
    rng = philox_rng(12)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        cfg = _draw_points(model, model.space.box, n, rng)
        table = cluster.ursell_table(cfg, model)
        rebuilt = starcalc.star_exp(table.as_functional())
        rho = cluster.boltzmann_functional(cfg, model)
        abs_series = starcalc.star_exp(
            starcalc.ConfigFunctional(n, np.abs(table.values)))
        scale = np.maximum(np.abs(rho.values), abs_series.values)
        dev = np.max(np.abs(rebuilt.values - rho.values) / scale)
        worst = max(worst, float(dev))
    return CheckResult("cluster_decomposition", bool(worst <= 1e-10),
                       f"max dev {worst:.2e}")


def check_tree_bound(trials: int = 200) -> CheckResult:
    model = build_model("toy-repulsive-spin", z=0.05, beta=1.0)
    rng = philox_rng(13)
    worst_slack = math.inf
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        cfg = _draw_points(model, model.space.box, n, rng)
        k_val = abs(cluster.ursell_table(cfg, model).full)
        bound = cluster.tree_bound_q_multi(
            cfg.subset([0]), cfg.subset(range(1, n)), model)
        if k_val > bound + 1e-12 * _flow_scale(model, n, k_val, bound):
            return CheckResult("tree_graph_bound", False,
                               f"|k|={k_val:.3g} > Q={bound:.3g}")
        worst_slack = min(worst_slack, bound - k_val)
    return CheckResult("tree_graph_bound", True, f"min slack {worst_slack:.2e}")


def check_q_closed_form(trials: int = 50) -> CheckResult:
    model = build_model("toy-repulsive-spin", z=0.05, beta=1.0)
    rng = philox_rng(14)
    worst = 0.0
    for _ in range(trials):
        total = int(rng.integers(2, 8))
        n_omega = int(rng.integers(1, total))
        cfg = _draw_points(model, model.space.box, total, rng)
        omega = cfg.subset(range(n_omega))
        zeta = cfg.subset(range(n_omega, total))
        closed = cluster.tree_bound_q_multi(omega, zeta, model)
        rec_first = cluster.tree_bound_recursive(omega, zeta, model, "first")
        rec_last = cluster.tree_bound_recursive(omega, zeta, model, "last")
        scale = max(abs(closed), 1e-14)
        worst = max(worst, abs(closed - rec_first) / scale,
                    abs(rec_first - rec_last) / scale)
    return CheckResult("q_closed_form", bool(worst <= 1e-10),
                       f"max rel dev {worst:.2e}")


def check_radius() -> CheckResult:
    model = build_model("toy-repulsive-spin", z=0.05, beta=1.0)
    report = cluster.convergence_radius(model, reference_grid_size=24)
    ok = report.z_star > 0 and report.c_beta > 0 and report.within_radius
    return CheckResult("radius_certificate", ok,
                       f"z*={report.z_star:.4g}, C={report.c_beta:.4g}")


def check_star_roundtrip(trials: int = 50) -> CheckResult:
    rng = philox_rng(15)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        vals = rng.normal(size=1 << n)
        vals[0] = 0.0
        psi = starcalc.ConfigFunctional(n, vals)
        back = starcalc.star_log(starcalc.star_exp(psi))
        worst = max(worst, float(np.max(np.abs(back.values - psi.values))))
    return CheckResult("star_roundtrip", worst <= 1e-10, f"max abs dev {worst:.2e}")


def check_ideal_gas() -> CheckResult:
    model = build_model("ideal", z=0.05, beta=1.0)
    region = model.space.box
    scheme = QuadratureScheme.tensor(64)
    report = cluster.log_partition_truncated(model, region, N=2, scheme=scheme,
                                             radius_grid=8)
    exact = model.z * model.mass()
    corr = cluster.correlation_truncated(
        FiniteConfiguration((MarkedPoint((0.37,), 1.0),)), model, region, N=2,
        scheme=scheme)
    ok = report.log_z == exact and corr.value == 1.0
    return CheckResult("ideal_gas", ok,
                       f"logZ dev {abs(report.log_z - exact):.2e}, rho dev "
                       f"{abs(corr.value - 1.0):.2e}")


def check_locality(trials: int = 200) -> CheckResult:
    model = build_model("toy-repulsive-spin-rc", z=0.05, beta=1.0, range_cut=0.25)
    region = Box((0.3,), (0.7,))
    violations = collar_locality_trials(model, region, trials=trials, seed=5)
    return CheckResult("collar_locality", violations == 0,
                       f"{violations} violations in {trials} trials")


def check_lp_determinism() -> CheckResult:
    model = build_model("toy-repulsive-spin", z=0.05, beta=1.0)
    region = model.space.box
    scheme = QuadratureScheme.monte_carlo(4000, seed=77)

    def integrand(n, positions, marks):
        return cluster.ursell_batch(model, FiniteConfiguration(), positions, marks)

    a, _ = product_region_integral(model, [SlotDomain(region)] * 2, integrand, scheme)
    b, _ = product_region_integral(model, [SlotDomain(region)] * 2, integrand, scheme)
    return CheckResult("lp_determinism", a == b, f"|a-b|={abs(a - b):.2e}")


ALL_CHECKS = [
    check_cayley,
    check_connected_counts,
    check_ursell_triangle,
    check_cluster_decomposition,
    check_tree_bound,
    check_q_closed_form,
    check_radius,
    check_star_roundtrip,
    check_ideal_gas,
    check_locality,
    check_lp_determinism,
]


def run_all(echo=print) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        result = check()
        results.append(result)
        if echo is not None:
            echo(result.line())
    return results
