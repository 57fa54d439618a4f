import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from markedgibbs.cli import load_config, main, run
from markedgibbs.errors import ConfigError


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE_MODEL = {"name": "toy-repulsive-spin", "z": 0.05, "beta": 1.0}
INLINE_INTERVAL = {"space": {"dimension": 1, "side_lengths": [1.0]},
                   "potential": {"name": "ferrofluid"}, "z": 0.05, "beta": 1.0}
FAST_SCHEME = {"kind": "tensor_grid", "points_per_axis": [32, 16, 8],
               "mc_fallback_samples": 2000}


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"command": "fly"}), {})
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"command": "expand",
                                            "format": "yaml",
                                            "model": BASE_MODEL}), {})
    cfg = load_config(write_config(tmp_path, {"command": "radius",
                                              "model": BASE_MODEL}),
                      {"seed": 7})
    assert cfg.seed == 7 and cfg.command == "radius"


def test_radius_report(tmp_path, capsys):
    out = tmp_path / "radius.json"
    cfg = load_config(write_config(tmp_path, {
        "command": "radius", "model": BASE_MODEL,
        "reference_grid_size": 16, "out": str(out)}), {})
    assert run(cfg) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "markedgibbs-report-v1"
    assert payload["results"]["radius"]["z_star"] > 0
    assert payload["results"]["radius"]["c_beta"] > 0
    assert payload["provenance"]["model"] == "toy-repulsive-spin"


def test_radius_report_refinement_delta(tmp_path):
    # the report carries check_integrability's grid-refinement gap
    from markedgibbs.potential import check_integrability, model_from_dict

    out = tmp_path / "radius.json"
    cfg = load_config(write_config(tmp_path, {
        "command": "radius", "model": BASE_MODEL,
        "reference_grid_size": 8, "out": str(out)}), {})
    assert run(cfg) == 0
    radius = json.loads(out.read_text())["results"]["radius"]
    model = model_from_dict(BASE_MODEL)
    expected = check_integrability(model.potential, model, 8).refinement_delta
    assert radius["refinement_delta"] == expected


def test_expand_report_and_csv(tmp_path):
    out = tmp_path / "expand.json"
    cfg = load_config(write_config(tmp_path, {
        "command": "expand", "model": BASE_MODEL, "order": 2,
        "scheme": FAST_SCHEME, "format": "csv", "out": str(out)}), {})
    assert run(cfg) == 0
    payload = json.loads(out.read_text())
    exp = payload["results"]["expansion"]
    assert len(exp["coefficients"]) == 2
    assert exp["within_radius"] is True
    csv_body = (tmp_path / "expand.csv").read_text().splitlines()
    assert csv_body[0] == "order,coefficient,error"
    assert len(csv_body) == 3


def test_expand_honours_reference_grid_size(tmp_path):
    # C(beta) on the config's reference grid; 32 points when none is given
    from markedgibbs.cluster import convergence_radius
    from markedgibbs.potential import model_from_dict

    model = model_from_dict(BASE_MODEL)
    for grid, expected in ((4, 4), (64, 64), (None, 32)):
        out = tmp_path / f"expand_{grid}.json"
        config = {"command": "expand", "model": BASE_MODEL, "order": 1,
                  "scheme": FAST_SCHEME, "out": str(out)}
        if grid is not None:
            config["reference_grid_size"] = grid
        assert run(load_config(write_config(tmp_path, config), {})) == 0
        c_beta = json.loads(out.read_text())["results"]["expansion"]["c_beta"]
        assert c_beta == convergence_radius(model, expected).c_beta


def test_expand_zero_activity_limit(tmp_path):
    out = tmp_path / "exp0.json"
    cfg = load_config(write_config(tmp_path, {
        "command": "expand", "model": {"name": "ideal", "z": 1e-12},
        "order": 2, "scheme": FAST_SCHEME, "out": str(out)}), {})
    assert run(cfg) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["results"]["expansion"]["log_z"]) < 1e-11


def test_correlate_report(tmp_path):
    out = tmp_path / "corr.json"
    cfg = load_config(write_config(tmp_path, {
        "command": "correlate", "model": BASE_MODEL, "order": 2,
        "scheme": FAST_SCHEME, "points": [[[0.5, 1.0]]], "out": str(out)}), {})
    assert run(cfg) == 0
    payload = json.loads(out.read_text())
    row = payload["results"]["correlations"][0]
    assert 0.9 < row["rho"] < 1.0


def test_sample_report_and_file(tmp_path):
    out = tmp_path / "sample.json"
    spill = tmp_path / "samples.txt"
    cfg = load_config(write_config(tmp_path, {
        "command": "sample", "model": BASE_MODEL,
        "sampler": {"sweeps": 2000, "burn_in": 100},
        "sample_file": str(spill), "out": str(out)}), {"seed": 3})
    assert run(cfg) == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["chain"]["sample_count"] == 1900
    assert spill.read_text().startswith("# markedgibbs-samples v1")


def test_report_byte_determinism_across_workers(tmp_path):
    conf = write_config(tmp_path, {
        "command": "expand", "model": BASE_MODEL, "order": 2,
        "scheme": {"kind": "monte_carlo", "samples": 3000},
        "seed": 9})
    outs = []
    for workers, tag in ((1, "a"), (4, "b")):
        out = tmp_path / f"report_{tag}.json"
        code = main(["--config", conf, "--out", str(out),
                     "--workers", str(workers)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_report_reparses_under_schema(tmp_path):
    out = tmp_path / "r.json"
    cfg = load_config(write_config(tmp_path, {
        "command": "radius", "model": BASE_MODEL,
        "reference_grid_size": 8, "out": str(out)}), {})
    run(cfg)
    payload = json.loads(out.read_text())
    for key in ("schema", "command", "provenance", "results"):
        assert key in payload
    prov = payload["provenance"]
    for key in ("model", "parameters", "stability_B", "range_R", "z", "beta",
                "seed", "generator"):
        assert key in prov


def test_cli_entrypoint_error_paths(tmp_path):
    assert main(["--config", str(tmp_path / "missing.json")]) == 2
    bad = write_config(tmp_path, {"command": "correlate", "model": BASE_MODEL})
    assert main(["--config", bad]) == 2  # correlate without points


@pytest.mark.parametrize("payload", [
    {"command": "expand", "model": BASE_MODEL,
     "scheme": {"kind": "tensor_grid", "points_per_axis": 0}},
    {"command": "expand", "model": BASE_MODEL,
     "scheme": {"kind": "tensor_grid", "points_per_axis": 8, "mark_rule": "simpson"}},
    {"command": "sample", "model": BASE_MODEL, "sampler": {"sweep": 100}},
    {"command": "sample", "model": BASE_MODEL,
     "sampler": {"p_birth": 0.5, "p_death": 0.5, "p_move": 0.5, "p_mark": 0.0}},
    {"command": "radius", "model": {"name": "toy-repulsive-spin", "z": -1}},
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "scheme": {"kind": "montecarlo", "samples": 100}},
    {"command": "sample", "model": BASE_MODEL,
     "sampler": {"sweeps": 50, "burn_in": 10, "thinning": 0}},
    {"command": "sample", "model": BASE_MODEL,
     "sampler": {"sweeps": 10, "burn_in": 50}},
    {"command": "sample", "model": BASE_MODEL,
     "sampler": {"sweeps": -5, "burn_in": -1}},
    {"command": "expand", "model": BASE_MODEL, "order": "abc"},
    {"command": "radius", "model": BASE_MODEL, "seed": "x"},
    {"command": "radius", "model": BASE_MODEL, "reference_grid_size": "big"},
    {"command": "expand", "model": BASE_MODEL, "order": 0},
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "scheme": {"kind": "tensor_grid", "points_per_axis": 8,
                "mc_fallback_samples": "many"}},
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "scheme": {"kind": "tensor_grid", "points_per_axis": 8,
                "mc_fallback_samples": 0}},
    {"command": "correlate", "model": BASE_MODEL, "order": 1,
     "points": [[["a", 1.0]]]},
    {"command": "correlate", "model": BASE_MODEL, "order": 1,
     "points": [[0.5, 1.0]]},
    # grid 0 and grid 2*0 are one grid, so the refinement delta would read 0
    {"command": "radius", "model": BASE_MODEL, "reference_grid_size": 0},
    {"command": "correlate", "model": BASE_MODEL, "order": 1,
     "points": [[[0.5, 1.0], [0.5, -1.0]]]},
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "region": {"lower": [0.5], "upper": [3.0]}},
    {"command": "sample", "model": BASE_MODEL,
     "region": {"lower": [0.5], "upper": [3.0]},
     "sampler": {"sweeps": 50, "burn_in": 10}},
    {"command": "correlate", "model": BASE_MODEL, "order": 1,
     "points": [[[0.5, 0.3]]]},
    {"command": "correlate", "model": {"name": "ferrofluid", "z": 0.05}, "order": 1,
     "points": [[[0.5, 1.5]]]},
    # json.dumps writes NaN and Infinity, which json.loads reads back
    {"command": "expand", "model": {**BASE_MODEL, "z": math.nan}, "order": 1},
    {"command": "radius", "model": {**BASE_MODEL, "z": math.inf}},
    {"command": "radius", "model": {**BASE_MODEL, "beta": math.inf}},
    {"command": "radius", "model": {**BASE_MODEL, "beta": math.nan}},
    {"command": "sample", "model": BASE_MODEL,
     "sampler": {"sweeps": 50, "burn_in": 10, "p_birth": math.nan}},
    {"command": "sample", "model": BASE_MODEL,
     "sampler": {"sweeps": 50, "burn_in": 10, "move_step": math.nan}},
    {"command": "expand", "order": 1,
     "model": {**INLINE_INTERVAL, "marks": {"kind": "interval", "lower": math.nan,
                                            "upper": 1.0}}},
    {"command": "radius", "reference_grid_size": 8,
     "model": {**INLINE_INTERVAL, "marks": {"kind": "interval", "lower": -1.0,
                                            "upper": math.inf}}},
    {"command": "sample", "sampler": {"sweeps": 50, "burn_in": 10},
     "model": {**INLINE_INTERVAL, "potential": {"name": "toy-repulsive-spin"},
               "marks": {"kind": "discrete", "labels": [1.0, math.nan],
                         "weights": [0.5, 0.5]}}},
    *({"command": "radius", "reference_grid_size": 8,
       "model": {"name": name, "z": 0.05, "params": params}}
      for name, params in (("toy-repulsive-spin-rc", {"range_cut": -1.0}),
                           ("toy-repulsive-spin-rc", {"range_cut": math.inf}),
                           ("toy-repulsive-spin-rc", {"range_cut": math.nan}),
                           ("hard-core", {"r0": math.nan}),
                           ("continuum-potts", {"r1": math.nan}),
                           ("toy-repulsive-spin", {"ell": math.nan}),
                           ("toy-repulsive-spin", {"coupling": math.inf}),
                           ("constant", {"value": math.nan}),
                           ("planar-rotator", {"ell_phi": 0.0}),
                           ("continuum-potts", {"q": 0}),
                           ("toy-repulsive-spin", {"dimension": 1.7}),
                           ("toy-repulsive-spin-rc", {"range_cutoff": 0.2}))),
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "scheme": {"kind": "tensor_grid", "points_per_axs": [16, 8]}},
    {"command": "expand", "model": BASE_MODEL, "oder": 9},
    [{"command": "radius", "model": BASE_MODEL}],
    {"command": "sample", "model": BASE_MODEL, "sampler": [50, 10]},
], ids=["points_per_axis_0", "unknown_mark_rule", "unknown_sampler_key",
        "probabilities_not_summing_to_1", "negative_activity",
        "unknown_scheme_kind", "thinning_0", "burn_in_past_sweeps",
        "negative_burn_in", "order_not_a_number", "seed_not_a_number",
        "grid_not_a_number", "expand_order_0", "fallback_not_a_number", "fallback_0",
        "coordinate_not_a_number", "flat_row_list", "grid_0",
        "coinciding_points", "expand_region_outside_box",
        "sample_region_outside_box", "mark_not_a_label", "mark_outside_interval",
        "activity_nan", "activity_infinite", "beta_infinite", "beta_nan",
        "p_birth_nan", "move_step_nan", "interval_bound_nan",
        "interval_bound_infinite", "discrete_label_nan", "range_cut_negative",
        "range_cut_infinite", "range_cut_nan", "hard_core_r0_nan", "potts_r1_nan",
        "ell_nan", "coupling_infinite", "constant_value_nan", "rotator_ell_phi_0",
        "potts_q_0", "dimension_not_whole", "unknown_model_param",
        "unknown_scheme_key", "unknown_config_key", "config_not_an_object",
        "sampler_not_an_object"])
def test_cli_malformed_values_are_config_errors(tmp_path, capsys, payload):
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    assert capsys.readouterr().err.startswith("config error")


def test_module_invocation(tmp_path):
    conf = write_config(tmp_path, {
        "command": "radius", "model": BASE_MODEL, "reference_grid_size": 8,
        "out": str(tmp_path / "out.json")})
    proc = subprocess.run([sys.executable, "-m", "markedgibbs.cli",
                           "--config", conf], capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "out.json").exists()


def test_import_does_not_load_scipy():
    import markedgibbs
    src = str(Path(markedgibbs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, markedgibbs; print(sorted(m for m in "
         "sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
