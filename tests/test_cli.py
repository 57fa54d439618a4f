import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import UNSTABLE_MODELS
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
    expected = check_integrability(model, 8)
    assert radius["refinement_delta"] == expected.refinement_delta
    # and where the maximum was found, and how many reference points it scanned
    assert radius["c_beta_argmax"] == {"position": list(expected.argmax_position),
                                       "mark": expected.argmax_mark}
    assert radius["c_beta_reference_points"] == expected.reference_points == (4 + 8) * 2


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
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        code = main(["--config", conf, "--out", str(out)])
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


@pytest.mark.parametrize("model, sides", [
    ({"space": {"dimension": 2, "side_lengths": [2.0, 0.5], "boundary": "periodic"},
      "marks": {"kind": "discrete", "labels": [1.0, -1.0], "weights": [0.5, 0.5]},
      "potential": {"name": "toy-repulsive-spin", "params": {"ell": 0.3}}},
     [2.0, 0.5]),
    ({"name": "toy-repulsive-spin", "params": {"dimension": 2}}, [1.0, 1.0]),
], ids=["inline_2d_box", "registry_dimension_2"])
def test_provenance_parameters_are_the_potentials_own(tmp_path, model, sides):
    # the box is in box_sides and boundary only, never among the parameters
    out = tmp_path / "radius.json"
    assert main(["--config", write_config(tmp_path, {
        "command": "radius", "model": model, "reference_grid_size": 4,
        "out": str(out)})]) == 0
    prov = json.loads(out.read_text())["provenance"]
    assert sorted(prov["parameters"]) == ["coupling", "ell", "range_cut"]
    assert prov["box_sides"] == sides
    assert prov["boundary"] == model.get("space", {}).get("boundary", "free")


@pytest.mark.parametrize("case", sorted(UNSTABLE_MODELS))
def test_unstable_models_exit_3_with_a_two_point_witness(tmp_path, capsys, case):
    # each declares B = 0 but has a negative pair value, which the C(beta)
    # quadrature meets on its nodes
    out = tmp_path / "radius.json"
    assert main(["--config", write_config(tmp_path, {
        "command": "radius", "model": UNSTABLE_MODELS[case],
        "reference_grid_size": 8, "out": str(out)})]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error [StabilityViolation]: pair value -")
    assert "below -2B for B=0 at the two points [((" in err
    assert not out.exists()


def test_refused_sample_model_exits_3_before_its_chain(tmp_path, capsys):
    # the certificate comes first: no chain runs and no sample file is written
    payload = json.loads((Path(__file__).parents[1] / "configs" / "toy_sample.json")
                         .read_text())
    spill, out = tmp_path / "samples.txt", tmp_path / "report.json"
    payload.update(model={**payload["model"], **UNSTABLE_MODELS["toy_coupling_3"]},
                   sample_file=str(spill), out=str(out))
    assert main(["--config", write_config(tmp_path, payload)]) == 3
    assert capsys.readouterr().err.startswith("error [StabilityViolation]")
    assert not spill.exists() and not out.exists()


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
                           ("constant", {"value": -1.0}),
                           ("planar-rotator", {"ell_phi": 0.0}),
                           ("continuum-potts", {"q": 0}),
                           ("toy-repulsive-spin", {"dimension": 1.7}),
                           ("toy-repulsive-spin-rc", {"range_cutoff": 0.2}),
                           # a JSON true is not a number
                           ("hard-core", {"r0": True}),
                           ("toy-repulsive-spin", {"side": True}),
                           ("toy-repulsive-spin", {"dimension": True}))),
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "scheme": {"kind": "tensor_grid", "points_per_axs": [16, 8]}},
    {"command": "expand", "model": BASE_MODEL, "oder": 9},
    [{"command": "radius", "model": BASE_MODEL}],
    {"command": "sample", "model": BASE_MODEL, "sampler": [50, 10]},
    {"command": "radius", "reference_grid_size": 8,
     "model": {**INLINE_INTERVAL, "space": {"dimension": 1.7, "side_lengths": [1.0]},
               "marks": {"kind": "interval", "lower": -1.0, "upper": 1.0}}},
    {"command": "radius", "reference_grid_size": 8,
     "model": {"name": "toy-repulsive-spin", "parms": {"ell": 0.3}}},
    {"command": "radius", "reference_grid_size": 8,
     "model": {**INLINE_INTERVAL, "marks": {"kind": "interval", "lower": -1.0,
                                            "upper": 1.0}, "activity": 0.1}},
    {"command": "radius", "reference_grid_size": 8,
     "model": {**INLINE_INTERVAL, "space": {"dimension": 1, "side_lengths": [1.0],
                                            "boundry": "periodic"},
               "marks": {"kind": "interval", "lower": -1.0, "upper": 1.0}}},
    {"command": "radius", "reference_grid_size": 8,
     "model": {**INLINE_INTERVAL, "marks": {"kind": "interval", "lower": -1.0,
                                            "upper": 1.0, "weights": [1.0]}}},
    {"command": "radius", "reference_grid_size": 8,
     "model": {**INLINE_INTERVAL, "marks": {"kind": "interval", "lower": -1.0,
                                            "upper": 1.0},
               "potential": {"name": "ferrofluid", "parms": {"ell": 0.3}}}},
    # q shapes only the registry's default marks; inline marks are given
    {"command": "radius", "reference_grid_size": 8,
     "model": {**INLINE_INTERVAL, "marks": {"kind": "discrete", "labels": [1.0, 2.0],
                                            "weights": [0.5, 0.5]},
               "potential": {"name": "continuum-potts", "params": {"q": 5}}}},
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "region": {"lower": [0.2], "upper": [0.8], "uper": [0.9]}},
    # a number that is not integral is an error, not truncated
    {"command": "radius", "model": BASE_MODEL, "reference_grid_size": 8.9},
    {"command": "radius", "model": BASE_MODEL, "reference_grid_size": True},
    {"command": "expand", "model": BASE_MODEL, "order": 1.9},
    {"command": "radius", "model": BASE_MODEL, "seed": 1.5},
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "scheme": {"kind": "tensor_grid", "points_per_axis": [8.7]}},
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "scheme": {"kind": "tensor_grid", "points_per_axis": True}},
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "scheme": {"kind": "tensor_grid", "points_per_axis": 8, "mark_nodes": 3.5}},
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "scheme": {"kind": "monte_carlo", "samples": 2.5}},
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "scheme": {"kind": "tensor_grid", "points_per_axis": 8,
                "mc_fallback_samples": 100.5}},
    {"command": "sample", "model": BASE_MODEL,
     "sampler": {"sweeps": 50, "burn_in": 10, "seed": 1.5}},
    {"command": "sample", "model": BASE_MODEL,
     "sampler": {"sweeps": 50, "burn_in": True}},
    {"command": "sample", "model": BASE_MODEL,
     "sampler": {"sweeps": 50.5, "burn_in": 10}},
    # the mark space picks the mark rule; the key is gone
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "scheme": {"kind": "tensor_grid", "points_per_axis": 8, "mark_rule": "auto"}},
    # a key that the scheme's kind does not read
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "scheme": {"kind": "tensor_grid", "points_per_axis": 16, "samples": 5}},
    {"command": "expand", "model": BASE_MODEL, "order": 1,
     "scheme": {"kind": "monte_carlo", "samples": 2000, "points_per_axis": 16,
                "mc_fallback_samples": 7}},
    # a JSON true or a string is not a number of the model
    *({"command": "radius", "reference_grid_size": 8, "model": model} for model in (
        {"name": "hard-core", "z": True},
        {"name": "hard-core", "beta": True},
        {**INLINE_INTERVAL, "space": {"dimension": 1, "side_lengths": ["2"]},
         "marks": {"kind": "interval", "lower": -1.0, "upper": 1.0}},
        {**INLINE_INTERVAL, "space": {"dimension": 1, "side_lengths": [True]},
         "marks": {"kind": "interval", "lower": -1.0, "upper": 1.0}},
        {**INLINE_INTERVAL, "marks": {"kind": "interval", "lower": "-1", "upper": 1.0}},
        {**INLINE_INTERVAL, "marks": {"kind": "interval", "lower": -1.0, "upper": True}},
        {**INLINE_INTERVAL, "marks": {"kind": "discrete", "labels": [True, False],
                                      "weights": [0.5, 0.5]}},
        {**INLINE_INTERVAL, "marks": {"kind": "discrete", "labels": [1.0, -1.0],
                                      "weights": [True, True]}},
        {**INLINE_INTERVAL, "marks": {"kind": "circle", "mass": True}})),
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
        "ell_nan", "coupling_infinite", "constant_value_nan", "constant_value_negative",
        "rotator_ell_phi_0",
        "potts_q_0", "dimension_not_whole", "unknown_model_param",
        "hard_core_r0_true", "side_true", "dimension_true",
        "unknown_scheme_key", "unknown_config_key", "config_not_an_object",
        "sampler_not_an_object", "inline_dimension_not_whole", "unknown_model_key",
        "unknown_inline_model_key", "unknown_space_key", "unknown_marks_key",
        "unknown_potential_key", "inline_potts_q", "unknown_region_key",
        "grid_fractional",
        "grid_true", "order_fractional", "seed_fractional",
        "points_per_axis_fractional", "points_per_axis_true",
        "mark_nodes_fractional", "samples_fractional", "fallback_fractional",
        "sampler_seed_fractional", "sampler_burn_in_true", "sampler_sweeps_fractional",
        "mark_rule_key", "tensor_grid_samples", "monte_carlo_grid_keys",
        "activity_true", "beta_true", "side_length_string", "side_length_true",
        "interval_lower_string", "interval_upper_true", "discrete_labels_true",
        "discrete_weights_true", "circle_mass_true"])
def test_cli_malformed_values_are_config_errors(tmp_path, capsys, payload):
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    assert capsys.readouterr().err.startswith("config error")


def test_integral_float_entries_are_accepted(tmp_path):
    # 8.0 is the integer 8: the report is the one the int config gives
    ints = {"command": "expand", "model": BASE_MODEL, "order": 1, "seed": 3,
            "reference_grid_size": 8,
            "scheme": {"kind": "tensor_grid", "points_per_axis": [16, 8],
                       "mark_nodes": 2, "mc_fallback_samples": 200}}
    floats = {**ints, "order": 1.0, "seed": 3.0, "reference_grid_size": 8.0,
              "scheme": {"kind": "tensor_grid", "points_per_axis": [16.0, 8.0],
                         "mark_nodes": 2.0, "mc_fallback_samples": 200.0}}
    sample_ints = {"command": "sample", "model": BASE_MODEL, "reference_grid_size": 8,
                   "sampler": {"sweeps": 200, "burn_in": 10, "thinning": 2, "seed": 4}}
    sample_floats = {**sample_ints, "sampler": {"sweeps": 200.0, "burn_in": 10.0,
                                                "thinning": 2.0, "seed": 4.0}}
    # whole numbers in the inline model's box and marks read as floats
    inline_ints = {"command": "radius", "reference_grid_size": 8, "model": {
        **INLINE_INTERVAL, "space": {"dimension": 1, "side_lengths": [2]},
        "marks": {"kind": "discrete", "labels": [1, -1], "weights": [1, 1]}}}
    inline_floats = {**inline_ints, "model": {
        **INLINE_INTERVAL, "space": {"dimension": 1, "side_lengths": [2.0]},
        "marks": {"kind": "discrete", "labels": [1.0, -1.0], "weights": [1.0, 1.0]}}}
    for pair in ((ints, floats), (sample_ints, sample_floats),
                 (inline_ints, inline_floats)):
        bodies = []
        for name, payload in zip(("ints", "floats"), pair):
            out = tmp_path / f"{name}.json"
            config = write_config(tmp_path, {**payload, "out": str(out)},
                                  f"{name}_run.json")
            assert main(["--config", config]) == 0
            bodies.append(out.read_text())
        assert bodies[0] == bodies[1]


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


def test_a_run_loads_neither_numpy_polynomial_nor_numpy_ma():
    # every command computes C(beta); a Gauss-Legendre rule from
    # numpy.polynomial or a plain np.unique (which imports numpy.ma) on that
    # path, or in the samplers, would load them
    import markedgibbs
    src = str(Path(markedgibbs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = """
import sys
from markedgibbs.cluster import convergence_radius
from markedgibbs.gibbsmc import (EMPTY_BOUNDARY, SamplerConfig, mcmc_run,
                                 rejection_sample_batch)
from markedgibbs.lpintegrate import philox_rng
from markedgibbs.potential import REGISTRY, build_model
for name in REGISTRY:
    convergence_radius(build_model(name), 8)
toy = build_model("toy-repulsive-spin", z=0.5, side=4.0)
mcmc_run(toy, toy.space.box, EMPTY_BOUNDARY,
         SamplerConfig(seed=1, sweeps=400, burn_in=40))
rejection_sample_batch(toy, toy.space.box, EMPTY_BOUNDARY, 200, philox_rng(2))
print(sorted(m for m in sys.modules if m.split(".")[:2] in (["numpy", "polynomial"],
                                                           ["numpy", "ma"])))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"
