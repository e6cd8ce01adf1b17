"""Command-line interface: subcommands, exit codes, report round-trips."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cslsurf
from cslsurf.cli import EXIT_TOLERANCE, main
from cslsurf.geometry import box_mesh, mesh_to_obj, mesh_to_stl


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


    @pytest.mark.parametrize("shape", [
        '{"type":"sphere","radius":1e300}',
        '{"type":"box","size":[1e200,1,1]}',
        '{"type":"cylinder","radius":1e200,"length":1}',
    ])
    def test_overflowing_dimension_is_usage_error(self, capsys, shape):
        # these used to end in an OverflowError or LinAlgError traceback
        code, out, err = run(capsys, "tensors", "--shape", shape)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "too large" in err


    @pytest.mark.parametrize("axis", ['[0, "a", 0]', "[0, [1, 2], 0]"])
    def test_axis_that_is_not_numbers_is_usage_error(self, axis):
        # these ended in a ValueError traceback, which exits 1 as well, so
        # the script is run and its stderr read
        shape = '{"type":"cylinder","radius":"1 um","length":"5 um","axis":%s}' % axis
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(Path(cslsurf.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "cslsurf.cli", "tensors", "--shape", shape],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


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
        # the cone has no form factor, so its k-space integral is the
        # gradient sum of its one deconvolved spectrum; the surface formula
        # lacks the cone's edge term, so the 2.5% gate trips, but it is 6.11e-2
        # off the gradient tensor (7.12e-2 with the cell average left in)
        s = 1e-7
        cone = json.dumps({"type": "cone_capped_cylinder", "radius": 6 * s,
                           "length": 12 * s, "apex_angle": math.radians(60.0)})
        code, out, err = run(capsys, "validate", "--shape", cone, "--sigma", str(s),
                             "--tolerance", "0.025")
        assert code == EXIT_TOLERANCE, err
        errors = json.loads(out)["results"]["pairwise_relative_errors"]
        assert errors["surface_vs_gradient"] <= 0.065

    @pytest.mark.parametrize("shape, route", [
        ('{"type":"cone_capped_cylinder","radius":"0.6 um","length":"1.2 um",'
         '"apex_angle":"60 deg"}', "gradient spectrum"),
        ("mesh", "gradient spectrum"),
        # a cavity off its center: the octant route's gradient of a bare
        # sphere is its closed-form k-space tensor to the last bit
        ('{"type":"sphere","radius":"0.6 um","cavities":[{"type":"sphere",'
         '"radius":"0.2 um","center":["0.1 um",0,0]}]}', "form factor"),
    ], ids=["cone", "mesh", "sphere"])
    def test_report_names_its_kspace_route(self, capsys, tmp_path, shape, route):
        # a body without a form factor takes the gradient sum of its own
        # spectrum as its k-space tensor, so its gradient_vs_kspace is 0.0 by
        # construction and the report says so; the config still reproduces
        # the report byte for byte
        if shape == "mesh":
            path = tmp_path / "box.stl"
            path.write_bytes(mesh_to_stl(box_mesh(0.83e-6, 0.71e-6, 0.62e-6)))
            body = ["--mesh", str(path)]
        else:
            body = ["--shape", shape]
        code, out, err = run(capsys, "validate", *body, "--tolerance", "0.5")
        assert code == 0, err
        report = json.loads(out)
        assert report["results"]["kspace_route"] == route
        pair = report["results"]["pairwise_relative_errors"]["gradient_vs_kspace"]
        assert (pair == 0.0) == (route == "gradient spectrum")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(report["config"]))
        assert run(capsys, "validate", "--config", str(config)) == (code, out, "")

    def test_x_axis_rod_writes_its_report(self, capsys):
        # the spherical ladder did not converge on this rod in six rungs, so
        # validate wrote no report; the surface formula misses the caps'
        # 2.4% edge term, so the 1% gate trips
        s = 1e-7
        rod = json.dumps({"type": "cylinder", "radius": 20 * s, "length": 80 * s,
                          "axis": "x"})
        code, out, err = run(capsys, "validate", "--shape", rod, "--sigma", str(s))
        assert code == EXIT_TOLERANCE, err
        results = json.loads(out)["results"]
        assert results["passed"] is False
        assert results["pairwise_relative_errors"]["gradient_vs_kspace"] <= 1e-6


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

    @pytest.mark.parametrize("values", ["-0.5,0.5", "1.0", "1.5", "-0.0001"])
    def test_eccentricity_outside_unit_interval_is_refused(self, capsys, values):
        # -0.5 used to fold to 0.5, and 1.0 to a zero semi-axis b
        code, out, err = run(
            capsys, "sweep", "--shape",
            '{"type":"elliptic_cylinder","semi_axis_a":"1 um","semi_axis_b":"1 um",'
            '"length":"3 um"}',
            "--variable", "e", f"--values={values}")
        assert code == 1 and out == ""
        assert "eccentricity e must be in [0, 1)" in err

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


@pytest.mark.parametrize("command, shape", [
    # density**2 used to end the run in a bare OverflowError traceback
    ("rates", SPHERE), ("validate", SPHERE),
    # the mass overflows: this exited 0 with 9 NaN and 1 Infinity in its report
    ("tensors", '{"type":"sphere","radius":1e10}'),
], ids=["rates", "validate", "tensors"])
def test_density_whose_square_overflows_is_a_usage_error(capsys, command, shape):
    code, out, err = run(capsys, command, "--shape", shape, "--density", "1e300")
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


@pytest.mark.parametrize("command, doc, named", [
    # a traceback, a traceback, and a resolution silently truncated to 2
    ("tensors", {"resolution": "abc"}, "'abc'"),
    ("tensors", {"resolution": [3]}, "[3]"),
    ("tensors", {"resolution": 2.7}, "2.7"),
    # exited 0 and wrote JSON
    ("tensors", {"format": "xml"}, "'xml'"),
    # TypeError tracebacks
    ("dephasing", {"delta": 5}, "5"),
    ("tensors", {"shape": {"type": "sphere", "radius": "1 um", "center": 5}}, "5"),
    ("sweep", {"sweep": {"variable": "R", "values": 5}}, "5"),
    ("sweep", {"sweep": 5}, "5"),
    ("tensors", {"shape": {"type": "sphere", "radius": "1 um", "cavities": 5}}, "5"),
    ("tensors", {"shape": {"type": 5}}, "5"),
    ("tensors", {"shape": None, "mesh": 5}, "5"),
    # taken as 1
    ("tensors", {"shape": {"type": "sphere", "radius": True}}, "True"),
    ("tensors", {"density": True}, "True"),
    # a ValueError traceback
    ("validate", {"tolerance": "x"}, "'x'"),
    # an OverflowError traceback: an integer past the float range
    ("tensors", {"shape": {"type": "sphere", "radius": 10**400}}, str(10**400)),
], ids=["resolution_str", "resolution_list", "resolution_float", "format", "delta", "center",
        "sweep_values", "sweep_block", "cavities", "shape_type", "mesh_path", "radius_bool",
        "density_bool", "tolerance_str", "radius_past_float_range"])
def test_config_value_of_the_wrong_type_is_a_usage_error(capsys, tmp_path, command, doc, named):
    cfg = {"shape": json.loads(SPHERE), "density": 2000, "delta": ["1 nm", 0, 0]}
    cfg.update(doc)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, command, "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ("validate",),
    ("dephasing", "--density", "1000", "--delta", "1e-8 m,0,0", "--exact"),
], ids=["validate", "dephasing"])
def test_voxel_cap_below_one_is_a_usage_error(capsys, argv, value):
    # this used to exit 3, as if a grid had exceeded the cap
    code, out, err = run(capsys, *argv, "--shape", SPHERE, "--max-voxels", value)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"max voxels must be at least 1, got {value}" in err


@pytest.mark.parametrize("shape, argv, expected", [
    (SPHERE, ("--spacing", "1e-300 m"), (3, "alone takes")),
    (SPHERE, ("--padding", "1e300 m"), (3, "alone takes")),
    ('{"type":"sphere","radius":"1 um","center":["1e9 m",0,0]}', (), (1, "from the origin")),
], ids=["spacing-1e-300", "padding-1e300", "center-1e9"])
def test_unusable_grid_is_an_error_not_a_traceback(capsys, shape, argv, expected):
    # the first two ended in a bare OverflowError, the third reported
    # tensors from coordinates that no longer resolve the lattice
    code, out, err = run(capsys, "validate", "--shape", shape, *argv)
    assert (code, out) == (expected[0], "")
    assert err.startswith("error: ") and expected[1] in err


def test_config_that_is_not_an_object_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1]")
    code, out, err = run(capsys, "tensors", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "object" in err


# each used to end in a traceback: UnicodeDecodeError, and a ValueError
# for an integer past the interpreter's 4,300-digit conversion limit
@pytest.mark.parametrize("source, data", [
    ("config", b'{"shape": {"type": "sphere", "radius": "1 um\xff\xfe"}}'),
    ("config", b'{"shape": {"type": "sphere", "radius": 1%s}}' % (b"0" * 4999)),
    ("--shape", '{"type": "sphere", "radius": 1%s}' % ("0" * 4999)),
], ids=["config-not-utf8", "config-5000-digits", "shape-5000-digits"])
def test_config_that_does_not_decode_is_a_usage_error(capsys, tmp_path, source, data):
    if source == "config":
        path = tmp_path / "cfg.json"
        path.write_bytes(data)
        argv = ["--config", str(path)]
    else:
        argv = ["--shape", data]
    code, out, err = run(capsys, "tensors", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and source in err


def test_cavity_corner_outside_host_is_a_usage_error(capsys):
    # the box's corner (0.6, 0.6, 0.6) um leaves the sphere; this used to exit 0
    shape = ('{"type":"sphere","radius":"1 um","cavities":'
             '[{"type":"box","size":["1.2 um","1.2 um","1.2 um"]}]}')
    code, out, err = run(capsys, "tensors", "--shape", shape)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "inside the host" in err


def test_integral_float_resolution_in_config_is_accepted(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"shape": %s, "resolution": 8.0}' % SPHERE)
    report = run_json(capsys, "tensors", "--config", str(path))
    assert report["config"]["resolution"] == 8
    assert report == run_json(capsys, "tensors", "--shape", SPHERE, "--resolution", "8")


@pytest.mark.parametrize("command", ["tensors", "rates", "sweep", "dephasing"])
def test_tolerance_is_a_validate_setting(capsys, tmp_path, command):
    # the other commands used to accept --tolerance and ignore it, and a
    # config's tolerance of "x" crashed tensors with a ValueError
    argv = [command, "--shape", SPHERE, "--density", "2000"]
    code, out, err = run(capsys, *argv, "--tolerance", "0.1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "--tolerance" in err
    path = tmp_path / "cfg.json"
    path.write_text('{"tolerance": "x", "sweep": {"variable": "R", "values": [1e-6]}, '
                    '"delta": ["1 nm", 0, 0]}')
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert code == 0, err


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


def test_consecutive_calls_share_no_state(capsys):
    # the parser is built once per process; each call parses into its own namespace
    small = ["--shape", '{"type":"sphere","radius":"3 um"}', "--sigma", "1 um",
             "--density", "1000"]
    code, out, err = run(capsys, "validate", *small, "--tolerance", "0.5")
    assert code == 0 and json.loads(out)["results"]["tolerance"] == 0.5
    code, out, err = run(capsys, "validate", *small)
    assert code == 2 and json.loads(out)["results"]["tolerance"] == 0.01
    dephasing = ["dephasing", *small, "--delta", "1e-8 m,0,0"]
    assert "exact_rate_per_second" in run_json(capsys, *dephasing, "--exact")["results"]
    code, out, err = run(capsys, "validate", *small, "--exact")
    assert (code, out) == (1, "") and "--exact" in err
    assert "exact_rate_per_second" not in run_json(capsys, *dephasing)["results"]
    code, out, err = run(capsys, "dephasing", "--no-such-flag")
    assert (code, out) == (1, "") and "--no-such-flag" in err
    assert run_json(capsys, "validate", *small, "--tolerance", "0.5")["results"]["passed"]


SMALL = '{"type":"sphere","radius":"3 um"}'

# each command with every setting it takes away from its default; the
# format is json here, so that the report's config can be read back
EVERY_SETTING = {
    "tensors": ["--shape", CYL_X, "--density", "2 g/cm^3", "--resolution", "12",
                "--origin", "2 um,0,0"],
    "rates": ["--shape", CYL_X, "--density", "1000", "--resolution", "12"],
    "validate": ["--shape", SMALL, "--sigma", "1 um", "--density", "2000", "--resolution", "12",
                 "--tolerance", "0.5", "--spacing", "0.4 um", "--padding", "7 um",
                 "--max-voxels", "200000"],
    "sweep": ["--shape", CYL_X, "--density", "1000", "--resolution", "12",
              "--variable", "L", "--values", "2 um,10 um"],
    "dephasing": ["--shape", SMALL, "--sigma", "1 um", "--density", "1000", "--resolution", "12",
                  "--delta", "1e-8 m,0,0", "--exact", "--max-voxels", "200000"],
}


@pytest.mark.parametrize("command", EVERY_SETTING)
def test_report_config_reproduces_the_run(capsys, tmp_path, command):
    # validate lost its tolerance, spacing and padding, and tensors and
    # dephasing did not echo --origin and --exact
    argv = [command, *EVERY_SETTING[command]]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    config = json.loads(out)["config"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(capsys, command, "--config", str(path)) == (code, out, "")
    # the format is a config key of the same name as well
    path.write_text(json.dumps(dict(config, format="csv")))
    csv_run = run(capsys, *argv, "--format", "csv")
    assert csv_run[0] == code and csv_run[1].startswith(("key,value", "value,", "pair,"))
    assert run(capsys, command, "--config", str(path)) == csv_run


@pytest.mark.parametrize("command, doc, named", [
    ("tensors", {"densty": 2000}, "densty"),
    ("validate", {"spacng": "1 um"}, "spacng"),
    # the sweep settings live in the sweep block, and take no other key there
    ("sweep", {"variable": "R", "values": [1e-6]}, "values"),
    ("sweep", {"sweep": {"variable": "R", "values": [1e-6], "valus": [2e-6]}}, "valus"),
    # a config of an older version is refused, not run on the inertia tensor
    ("rates", {"inertia_convention": "standard"}, "inertia_convention"),
])
def test_unknown_config_key_is_a_usage_error(capsys, tmp_path, command, doc, named):
    # each used to exit 0 with the default in its place
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"shape": json.loads(SPHERE), "delta": ["1 nm", 0, 0], **doc}))
    code, out, err = run(capsys, command, "--config", str(path), "--density", "1000")
    assert (code, out) == (1, "")
    assert err.startswith(("error: unknown config key", "error: sweep must be")) and named in err


@pytest.mark.parametrize("exact", [1, 0, "yes", None], ids=["1", "0", "yes", "null"])
def test_exact_in_config_must_be_a_bool(capsys, tmp_path, exact):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"shape": json.loads(SPHERE), "density": 1000,
                                "delta": ["1 nm", 0, 0], "exact": exact}))
    code, out, err = run(capsys, "dephasing", "--config", str(path))
    if exact is None:  # null is the default, as for every setting
        assert code == 0 and json.loads(out)["config"]["exact"] is False
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error: exact must be one of") and repr(exact) in err


def test_integral_float_resolution_flag_is_accepted(capsys):
    # --resolution took argparse's int, which refused the 8.0 that a config may hold
    report = run_json(capsys, "tensors", "--shape", SPHERE, "--resolution", "8.0")
    assert report == run_json(capsys, "tensors", "--shape", SPHERE, "--resolution", "8")


def _cube(tmp_path, side=1e-6):
    path = tmp_path / "cube.stl"
    path.write_bytes(mesh_to_stl(box_mesh(side, side, side)))
    return path


def test_mesh_document_takes_center_and_cavities(capsys, tmp_path):
    # both were dropped: the mesh sat at the origin with no cavity
    path = _cube(tmp_path, 3e-6)
    doc = {"type": "mesh", "path": str(path), "center": ["2 um", 0, 0],
           "cavities": [{"type": "sphere", "radius": "0.5 um", "center": ["2 um", 0, 0]}]}
    report = run_json(capsys, "tensors", "--shape", json.dumps(doc))
    results = report["results"]
    assert results["centroid"] == pytest.approx([2e-6, 0.0, 0.0], abs=1e-18)
    assert results["volume"] == pytest.approx(27e-18 - 4 * math.pi / 3 * 0.125e-18, rel=1e-3)
    shape = report["config"]["shape"]
    assert shape["center"] == [2e-6, 0.0, 0.0] and shape["cavities"][0]["radius"] == 5e-7
    config = tmp_path / "config.json"
    config.write_text(json.dumps(report["config"]))
    code, out, err = run(capsys, "tensors", "--config", str(config))
    assert code == 0 and json.loads(out) == report


@pytest.mark.parametrize("key, value", [("vertices", 9), ("faces", 13), ("sha256", "0" * 64)],
                         ids=["vertices", "faces", "sha256"])
def test_mesh_record_that_does_not_match_the_file_is_a_usage_error(capsys, tmp_path, key, value):
    # a report's counts and hash were ignored on read-back
    path = _cube(tmp_path)
    doc = run_json(capsys, "tensors", "--mesh", str(path))["config"]["shape"]
    code, out, err = run(capsys, "tensors", "--shape", json.dumps(dict(doc, **{key: value})))
    assert (code, out) == (1, "")
    assert err.startswith("error: mesh file") and key in err


def test_mesh_report_refuses_a_changed_file(capsys, tmp_path):
    path = _cube(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(run_json(capsys, "tensors", "--mesh", str(path))["config"]))
    path.write_bytes(mesh_to_stl(box_mesh(2e-6, 1e-6, 1e-6)))  # same counts, other bytes
    code, out, err = run(capsys, "tensors", "--config", str(config))
    assert (code, out) == (1, "")
    assert "sha256" in err


def test_mesh_file_is_read_once(capsys, tmp_path, monkeypatch):
    # it was read twice, to hash and then to parse, so a file rewritten in
    # between was reported under the hash of bytes that were not parsed
    path = _cube(tmp_path)
    data, other = path.read_bytes(), mesh_to_stl(box_mesh(2e-6, 1e-6, 1e-6))
    reads, read_bytes = [], Path.read_bytes

    def rewritten_after_one_read(self):
        if self != path:
            return read_bytes(self)
        reads.append(self)
        return data if len(reads) == 1 else other

    monkeypatch.setattr(Path, "read_bytes", rewritten_after_one_read)
    report = run_json(capsys, "tensors", "--mesh", str(path))
    assert len(reads) == 1
    assert report["config"]["shape"]["sha256"] == hashlib.sha256(data).hexdigest()
    assert report["results"]["volume"] == pytest.approx(1e-18, rel=1e-12)


def test_mesh_file_suffix_declares_its_format(capsys, tmp_path):
    path = tmp_path / "cube.stl"
    path.write_text(mesh_to_obj(box_mesh(1e-6, 1e-6, 1e-6)))
    code, out, err = run(capsys, "tensors", "--mesh", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "declared stl" in err
