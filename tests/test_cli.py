"""Command-line interface: subcommands, exit codes, report round-trips."""

import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

from cslsurf.cli import main
from cslsurf.geometry import box_mesh, mesh_to_stl


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


SPHERE = '{"type":"sphere","radius":"1 um"}'
CYL_X = '{"type":"cylinder","radius":"1 um","length":"5 um","axis":"x"}'


class TestTensors:
    def test_sphere_diagonal(self, capsys):
        report = run_json(capsys, "tensors", "--shape", SPHERE)
        s = np.array(report["results"]["surface_tensor"])
        expected = 4 * math.pi / 3 * (1e-6) ** 2
        assert np.allclose(np.diag(s), expected, rtol=1e-10, atol=0)
        assert report["results"]["area"] == pytest.approx(4 * math.pi * 1e-12, rel=1e-12)

    def test_cylinder_axis_component(self, capsys):
        report = run_json(capsys, "tensors", "--shape", CYL_X)
        s = np.array(report["results"]["surface_tensor"])
        assert s[0, 0] == pytest.approx(2 * math.pi * 1e-12, rel=1e-10, abs=0)

    def test_unit_normalization_in_config(self, capsys):
        report = run_json(capsys, "tensors", "--shape",
                          '{"type":"sphere","radius":"1e-4 cm"}',
                          "--sigma", "1e-5 cm")
        assert report["config"]["shape"]["radius"] == pytest.approx(1e-6, rel=1e-12)
        assert report["config"]["params"]["localization_length"] == pytest.approx(1e-7, rel=1e-12)

    def test_mesh_input(self, capsys, tmp_path):
        path = tmp_path / "cube.stl"
        path.write_bytes(mesh_to_stl(box_mesh(1e-6, 1e-6, 1e-6)))
        report = run_json(capsys, "tensors", "--mesh", str(path))
        assert report["results"]["volume"] == pytest.approx(1e-18, rel=1e-6)
        assert report["results"]["area"] == pytest.approx(6e-12, rel=1e-6)

    def test_origin_override_changes_rotational_tensor(self, capsys):
        base = run_json(capsys, "tensors", "--shape", SPHERE)
        moved = run_json(capsys, "tensors", "--shape", SPHERE,
                         "--origin", "2 um,0,0")
        s0 = np.array(base["results"]["rotational_surface_tensor"])
        s1 = np.array(moved["results"]["rotational_surface_tensor"])
        assert np.linalg.norm(s0) < 1e-30
        assert np.linalg.norm(s1) > 0


class TestRates:
    def test_missing_density_is_usage_error(self, capsys):
        code, out, err = run(capsys, "rates", "--shape", SPHERE)
        assert code == 1
        assert "density" in err

    def test_sphere_heating_fraction(self, capsys):
        report = run_json(capsys, "rates", "--shape", SPHERE,
                          "--density", "2 g/cm^3")
        frac = report["results"]["com_heating_fraction"]
        assert frac == pytest.approx(3 * (1e-7 / 1e-6) ** 4, rel=1e-12)

    def test_inertia_convention_flag(self, capsys):
        a = run_json(capsys, "rates", "--shape", CYL_X, "--density", "1000")
        b = run_json(capsys, "rates", "--shape", CYL_X, "--density", "1000",
                     "--inertia-convention", "second_moment")
        assert (a["results"]["rotational_heating_watts"]
                != b["results"]["rotational_heating_watts"])


class TestValidate:
    def test_large_sphere_passes(self, capsys):
        code, out, err = run(capsys, "validate", "--shape",
                             '{"type":"sphere","radius":"40 um"}',
                             "--sigma", "1 um", "--density", "1000")
        assert code == 0
        report = json.loads(out)
        errors = report["results"]["pairwise_relative_errors"]
        assert all(v < 0.01 for v in errors.values())

    def test_small_sphere_fails_tolerance(self, capsys):
        code, out, err = run(capsys, "validate", "--shape",
                             '{"type":"sphere","radius":"3 um"}',
                             "--sigma", "1 um", "--density", "1000",
                             "--tolerance", "0.01")
        assert code == 2
        report = json.loads(out)
        assert report["results"]["passed"] is False

    def test_box_off_diagonals_stay_small(self, capsys):
        # a 6-10 sigma box is inside the surface-formula breakdown regime,
        # so the tolerance gate may trip; the point here is the symmetry
        # of the oracle tensors themselves
        code, out, err = run(capsys, "validate", "--shape",
                             '{"type":"box","size":["10 um","8 um","6 um"]}',
                             "--sigma", "1 um", "--density", "1000")
        assert code in (0, 2)
        report = json.loads(out)
        for key in ("gradient_integral", "kspace_integral"):
            t = np.array(report["results"][key])
            off = t - np.diag(np.diag(t))
            assert np.max(np.abs(off)) < 1e-6 * np.trace(t)

    def test_voxel_cap_is_resource_error(self, capsys):
        code, out, err = run(capsys, "validate", "--shape", SPHERE,
                             "--max-voxels", "1000")
        assert code == 3

    @pytest.mark.parametrize("argv, message", [
        (("--max-voxels", "1000"), "exceed cap 1000"),
        (("--spacing", "1 um"), "exceeds sigma/2"),
    ])
    def test_grid_arguments_are_checked_before_the_kspace_ladder(self, capsys, monkeypatch,
                                                                 argv, message):
        def no_ladder(*args, **kwargs):
            raise AssertionError("k-space integral taken before the grid check")

        monkeypatch.setattr("cslsurf.cli.kspace_outer_integral", no_ladder)
        code, out, err = run(capsys, "validate", "--shape", SPHERE, *argv)
        assert code == 3 and message in err and not out


    def test_benchmark_cone_oracles_agree(self, capsys):
        # the gradient integral reads the filtered raster of the exact
        # indicator, the k-space integral the DFT route of the same fill
        s = 1e-7
        cone = json.dumps({"type": "cone_capped_cylinder", "radius": 6 * s,
                           "length": 12 * s, "apex_angle": math.radians(60.0)})
        code, out, err = run(capsys, "validate", "--shape", cone, "--sigma", str(s),
                             "--tolerance", "0.025")
        # the surface formula carries the cone's edge term, so the gate may trip
        assert code in (0, 2), err
        errors = json.loads(out)["results"]["pairwise_relative_errors"]
        assert errors["gradient_vs_kspace"] <= 0.025


class TestSweep:
    def test_length_sweep_constant_longitudinal(self, capsys):
        code, out, err = run(capsys, "sweep", "--shape", CYL_X,
                             "--variable", "L", "--values", "2 um,10 um,50 um",
                             "--density", "1000", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        lam = [float(r["lambda_axis"]) for r in rows]
        assert max(lam) - min(lam) <= 5e-3 * lam[0]
        lengths = [float(r["value"]) for r in rows]
        assert lengths == pytest.approx([2e-6, 1e-5, 5e-5], rel=1e-12)

    def test_cone_angle_sweep_matches_sine(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--shape",
            '{"type":"cone_capped_cylinder","radius":"1 um","length":"4 um",'
            '"apex_angle":"90 deg","axis":"x"}',
            "--variable", "theta", "--values", "30 deg,60 deg,90 deg,120 deg",
            "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        flat_face = 2 * math.pi * (1e-6) ** 2
        for row in rows:
            theta = float(row["value"])
            ratio = float(row["s_axis"]) / flat_face
            assert ratio == pytest.approx(math.sin(theta / 2), rel=1e-6)

    def test_gap_sweep_integer_multiplication(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--shape",
            '{"type":"gapped_cylinder","radius":"1 um","length":"10 um",'
            '"gap_count":0,"gap_width":"0.5 um","axis":"x"}',
            "--variable", "N", "--values", "0,1,2,3,4", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        base = float(rows[0]["s_axis"])
        for n, row in enumerate(rows):
            assert float(row["s_axis"]) == pytest.approx((n + 1) * base, rel=1e-10)

    def test_eccentricity_sweep(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--shape",
            '{"type":"elliptic_cylinder","semi_axis_a":"1 um","semi_axis_b":"1 um",'
            '"length":"3 um"}',
            "--variable", "e", "--values", "0.1,0.2", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        got = [float(r["srot_axis"]) for r in rows]
        # leading order (e^4/4) pi a^3 L
        for e, val in zip((0.1, 0.2), got):
            lead = e**4 / 4 * math.pi * (1e-6) ** 3 * 3e-6
            assert val == pytest.approx(lead, rel=0.05, abs=0)

    def test_unknown_variable(self, capsys):
        code, out, err = run(capsys, "sweep", "--shape", SPHERE,
                             "--variable", "R", "--values", "")
        assert code == 1


class TestDephasing:
    def test_rate_matches_quadratic_form(self, capsys):
        report = run_json(capsys, "dephasing", "--shape", SPHERE,
                          "--density", "2 g/cm^3", "--delta", "1e-9 m,0,0")
        lam = np.array(report["results"]["dephasing_matrix"])
        rate = report["results"]["rate_per_second"]
        assert rate == pytest.approx(lam[0, 0] * 1e-18, rel=1e-12, abs=0)
        assert report["results"]["quadratic_regime_warning"] is False

    def test_warning_flag_beyond_validity(self, capsys):
        report = run_json(capsys, "dephasing", "--shape", SPHERE,
                          "--density", "1000", "--delta", "5e-8 m,0,0")
        assert report["results"]["quadratic_regime_warning"] is True

    def test_exact_cross_check(self, capsys):
        report = run_json(capsys, "dephasing", "--shape",
                          '{"type":"sphere","radius":"3 um"}',
                          "--density", "1000", "--delta", "1e-8 m,0,0", "--exact")
        rel = report["results"]["quadratic_vs_exact_relative"]
        assert rel < 0.05

    def test_missing_delta(self, capsys):
        code, out, err = run(capsys, "dephasing", "--shape", SPHERE,
                             "--density", "1000")
        assert code == 1


class TestPlumbing:
    def test_config_file_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "shape": {"type": "sphere", "radius": "1 um"},
            "density": "3 g/cm^3",
            "resolution": 16,
        }))
        report = run_json(capsys, "rates", "--config", str(cfg),
                          "--density", "1000")
        assert report["config"]["density"] == 1000.0
        assert report["config"]["resolution"] == 16

    def test_both_shape_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "cube.stl"
        path.write_bytes(mesh_to_stl(box_mesh(1e-6, 1e-6, 1e-6)))
        code, out, err = run(capsys, "tensors", "--shape", SPHERE,
                             "--mesh", str(path))
        assert code == 1

    def test_json_report_roundtrips(self, capsys):
        code, out, err = run(capsys, "tensors", "--shape", SPHERE)
        assert code == 0
        parsed = json.loads(out)
        re_emitted = json.dumps(parsed, indent=2, sort_keys=True) + "\n"
        assert re_emitted == out
        assert json.loads(re_emitted) == parsed

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = run(capsys, "tensors", "--shape", SPHERE,
                             "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["command"] == "tensors"

    def test_bad_shape_json(self, capsys):
        code, out, err = run(capsys, "tensors", "--shape", '{"type":"torus"}')
        assert code == 1

    def test_bad_quantity(self, capsys):
        code, out, err = run(capsys, "tensors", "--shape",
                             '{"type":"sphere","radius":"1 parsec"}')
        assert code == 1

    def test_resolution_overflow_is_resource_error(self, capsys):
        code, out, err = run(capsys, "tensors", "--shape", SPHERE,
                             "--resolution", "100000")
        assert code == 3

    def test_no_shape(self, capsys):
        code, out, err = run(capsys, "rates", "--density", "1000")
        assert code == 1

    def test_zero_tolerance_is_honoured(self, capsys):
        code, out, err = run(capsys, "validate", "--shape",
                             '{"type":"sphere","radius":"0.6 um"}',
                             "--density", "1000", "--tolerance", "0")
        assert code == 2
        report = json.loads(out)
        assert report["results"]["tolerance"] == 0.0
        assert report["results"]["passed"] is False

    @pytest.mark.parametrize("argv", [
        ("tensors", "--shape", SPHERE, "--resolution", "0"),
        ("tensors", "--shape", SPHERE, "--resolution", "-4"),
        ("validate", "--shape", SPHERE, "--tolerance", "-0.01"),
    ])
    def test_out_of_range_resolution_and_tolerance_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "must" in err

    @pytest.mark.parametrize("flag, value, word", [
        ("--spacing", "0 m", "spacing"),
        ("--spacing", "-1e-8 m", "spacing"),
        ("--padding", "1e-8 m", "padding"),
    ])
    def test_bad_grid_arguments_rejected(self, capsys, flag, value, word):
        code, out, err = run(capsys, "validate", "--shape", SPHERE,
                             "--sigma", "1e-7 m", flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and word in err

    def test_mesh_report_records_path_and_hash(self, capsys, tmp_path):
        path = tmp_path / "cube.stl"
        path.write_bytes(mesh_to_stl(box_mesh(1e-6, 1e-6, 1e-6)))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        shape_doc = json.dumps({"type": "box", "size": ["3 um", "3 um", "3 um"],
                                "cavities": [{"type": "mesh", "path": str(path)}]})
        for argv in (("--mesh", str(path)),
                     ("--shape", json.dumps({"type": "mesh", "path": str(path)}))):
            shape = run_json(capsys, "tensors", *argv)["config"]["shape"]
            assert shape["type"] == "mesh"
            assert (shape["path"], shape["sha256"]) == (str(path), digest)
            assert (shape["vertices"], shape["faces"]) == (8, 12)
        cavity = run_json(capsys, "tensors", "--shape", shape_doc)["config"]["shape"]
        assert cavity["cavities"][0]["sha256"] == digest

    def test_csv_key_value_fallback(self, capsys):
        code, out, err = run(capsys, "tensors", "--shape", SPHERE,
                             "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        keys = {r[0] for r in rows[1:]}
        assert "results.area" in keys


@pytest.mark.parametrize("command", ["rates", "validate"])
def test_density_whose_square_overflows_is_a_usage_error(capsys, command):
    # density**2 used to end the run in a bare OverflowError traceback
    code, out, err = run(capsys, command, "--shape", SPHERE, "--density", "1e300")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "density" in err


@pytest.mark.parametrize("params, named", [
    # an unknown key used to be dropped, so rates ran with the default collapse rate
    ('{"colapse_rate": 1e-8}', "colapse_rate"),
    # a params value that is not an object used to end the run in a traceback
    ('"1e-8"', "params"),
    ("[1]", "params"),
])
def test_bad_csl_params_in_config_are_a_usage_error(capsys, tmp_path, params, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"shape": %s, "density": 2000, "params": %s}' % (SPHERE, params))
    code, out, err = run(capsys, "rates", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and named in err


def test_csl_parameters_in_config_take_their_units(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"shape": %s, "density": 2000, "params": {"collapse_rate": "1e-8 1/s", '
                   '"localization_length": "1e-5 cm", "nucleon_mass": "1.67e-24 g"}}' % SPHERE)
    params = run_json(capsys, "rates", "--config", str(cfg))["config"]["params"]
    assert params["collapse_rate"] == 1e-8
    assert params["localization_length"] == pytest.approx(1e-7, rel=1e-12)
    assert params["nucleon_mass"] == pytest.approx(1.67e-27, rel=1e-12)
    assert set(params) == {"collapse_rate", "localization_length", "nucleon_mass", "hbar"}


def test_infinite_collapse_rate_in_config_is_a_usage_error(capsys, tmp_path):
    # JSON reads 1e999 as inf, which used to end the run in a LinAlgError traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"shape": %s, "density": 2000, "params": {"collapse_rate": 1e999}}' % SPHERE)
    code, out, err = run(capsys, "rates", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "collapse rate" in err
