"""Series pinned bit for bit on the tensor-grid path.

Each case is one truncated series; its pin is the sha256 prefix of the
``float.hex`` of its terms, then its term errors. The cases cover every
integrand that a tensor grid evaluates: plain Ursell series (on a box, a
holed collar, a periodic box, a 2-D box, interval and circle marks), the
correlation series with 1, 2 and 3 anchors, the averaged correlation with its
fixed block, and the direct series against a boundary. The series with more
than six grid dimensions also run their Monte Carlo fallback orders. The
values were generated on numpy 2.4.6 (x86-64); a numpy or libm whose exp or
cos rounds differently changes them without a fault in the series.
"""
import hashlib

import pytest

from markedgibbs import cluster
from markedgibbs.lpintegrate import QuadratureScheme, lp_integral
from markedgibbs.model import Box, FiniteConfiguration, MarkedPoint, canonicalize
from markedgibbs.potential import build_model, model_from_dict

GRID = QuadratureScheme.tensor((16, 8, 6, 4, 3, 3), mc_fallback_samples=1500, seed=11)
SMALL_MARKS = QuadratureScheme.tensor((8, 6, 4, 3), mark_nodes=4,
                                      mc_fallback_samples=600, seed=5)


def _toy():
    return build_model("toy-repulsive-spin", z=0.05, beta=1.0)


def _anchors(*rows):
    return canonicalize([MarkedPoint((x,), s) for x, s in rows])


def _collar_normalizer():
    model = build_model("toy-repulsive-spin-rc", z=0.05, beta=1.0, range_cut=0.25)
    collar = cluster._collar_domain(model, Box((0.3,), (0.7,)))
    return lp_integral(cluster._ursell_integrand(model), model, collar, 4, GRID)


def _periodic():
    model = model_from_dict({
        "space": {"dimension": 1, "side_lengths": [2.0], "boundary": "periodic"},
        "marks": {"kind": "discrete", "labels": [1.0, -1.0], "weights": [0.5, 0.5]},
        "potential": {"name": "toy-repulsive-spin"}, "z": 0.05, "beta": 1.0})
    return cluster.ursell_series_terms(model, model.space.box, 7, GRID)


def _two_d():
    model = build_model("toy-repulsive-spin", z=0.05, beta=1.0, dimension=2)
    scheme = QuadratureScheme.tensor((8, 5, 3), mc_fallback_samples=800, seed=2)
    return cluster.ursell_series_terms(model, model.space.box, 4, scheme)


def _direct():
    toy = _toy()
    boundary = _anchors((0.1, 1.0), (0.95, -1.0))
    return cluster.partition_direct_truncated(toy, Box((0.2,), (0.8,)), boundary, 7,
                                              GRID)


CASES = {
    "toy-ursell": lambda: cluster.ursell_series_terms(_toy(), _toy().space.box, 7, GRID),
    "toy-rc-collar": _collar_normalizer,
    "correlation-1": lambda: cluster.correlation_truncated(
        _anchors((0.4, 1.0)), _toy(), _toy().space.box, 4, GRID),
    "correlation-2": lambda: cluster.correlation_truncated(
        _anchors((0.3, 1.0), (0.55, -1.0)), _toy(), _toy().space.box, 4, GRID),
    "correlation-3": lambda: cluster.correlation_truncated(
        _anchors((0.2, -1.0), (0.5, 1.0), (0.6, 1.0)), _toy(), _toy().space.box, 4,
        GRID),
    "averaged-1": lambda: cluster.averaged_correlation(_toy(), _toy().space.box, 1, 4,
                                                       GRID),
    "direct-boundary": _direct,
    "periodic": _periodic,
    "two-d": _two_d,
    "ferrofluid": lambda: cluster.ursell_series_terms(
        build_model("ferrofluid"), Box((0.0,), (1.0,)), 4, SMALL_MARKS),
    "planar-rotator": lambda: cluster.ursell_series_terms(
        build_model("planar-rotator"), Box((0.0,), (1.0,)), 4, SMALL_MARKS),
}

PINS = {
    "toy-ursell": "bb39579f63a77561",
    "toy-rc-collar": "b400bd392ca1e143",
    "correlation-1": "0e57f06eba2c9fe7",
    "correlation-2": "11ee30394b6ba5cd",
    "correlation-3": "8401cf0f37fe58db",
    "averaged-1": "48205141617dabf3",
    "direct-boundary": "f770a54ea36c091f",
    "periodic": "3de1feacf7fd12f1",
    "two-d": "a89f03b2956f1ecb",
    "ferrofluid": "df189ada06ee174c",
    "planar-rotator": "0d003c662b025a4b",
}


def series_hash(est) -> str:
    text = " ".join(x.hex() for x in (*est.terms, *est.term_errors))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", list(CASES))
def test_series_terms_keep_their_bits(case):
    assert series_hash(CASES[case]()) == PINS[case]
