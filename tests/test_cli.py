"""Command-line surface tests.

Reference values reproduced by tests/oracles/compute_reference_values.py.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import capfield
from capfield import support_finder
from capfield._numerics import brent_root
from capfield.cli import build_parser, emit_density_table, main
from capfield.equilibrium import density_general, nofield_density, profile_from_callable
from capfield.fields import PointChargeField, ZeroField
from capfield.geometry import boundary_clustered_grid, south_cap

PI = math.pi

ALPHA0_PC_12 = 0.7270148450291979835692054
FQ_PC_12 = 1.491533425110004003327
ALPHA0_NP_1 = 1.1217246238633008265287
FF_PC_12_AT_1 = 1.499752751127168435835
ALPHA0_QUAD = 1.905121063815038955604994
FF_QUAD_AT_1 = 2.971200326891697139886
H_PLUS_1 = 2.6180339887498948482
H_MINUS_1 = 0.21922359359558486254

SCHEMA = json.loads(
    (Path(capfield.__file__).parent / "schemas" / "summary.schema.json").read_text()
)


def write_table(path, x, values):
    np.savetxt(path, np.column_stack([x, values]), delimiter=",")
    return path


def run_cli(args, tmp_path, name="out.json"):
    """Run a command with a JSON sink; return (exit code, parsed summary)."""
    out = tmp_path / name
    code = main([*args, "--json", str(out)])
    summary = json.loads(out.read_text()) if out.exists() else None
    if summary is not None:
        jsonschema.validate(summary, SCHEMA)
    return code, summary


class TestSupportCommand:
    def test_point_charge_example(self, tmp_path):
        code, summary = run_cli(
            ["support", "--field", "point-charge", "--q", "1", "--h", "2"], tmp_path
        )
        assert code == 0
        assert summary["method"] == "TranscendentalRoot"
        assert abs(summary["alpha0"] - ALPHA0_PC_12) <= 1e-10
        assert abs(summary["residuals"]["support_equation"]) <= 1e-12
        assert abs(summary["FQ"] - FQ_PC_12) <= 1e-9

    def test_north_pole(self, tmp_path):
        code, summary = run_cli(["support", "--field", "north-pole", "--q", "1"], tmp_path)
        assert code == 0
        assert abs(summary["alpha0"] - ALPHA0_NP_1) <= 1e-10

    def test_far_charge_full_sphere(self, tmp_path):
        code, summary = run_cli(
            ["support", "--field", "point-charge", "--q", "0.5", "--h", "2.2"], tmp_path
        )
        assert code == 0
        assert summary["alpha0"] == 0.0
        assert summary["method"] == "FullSphere"

    def test_rejects_bad_charge(self, tmp_path):
        code, _ = run_cli(
            ["support", "--field", "point-charge", "--q", "-1", "--h", "2"], tmp_path
        )
        assert code == 2

    def test_root_finder_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def one_pass(f, a, b, xtol, rtol):
            return brent_root(f, a, b, xtol, rtol, maxiter=1)

        monkeypatch.setattr(support_finder, "brent_root", one_pass)
        code, summary = run_cli(
            ["support", "--field", "point-charge", "--q", "1", "--h", "2"], tmp_path
        )
        assert code == 3
        assert summary is None
        assert "nonconvergence in support_finder." in capsys.readouterr().err

    def test_residual_keeping_its_sign_exits_3(self, tmp_path, capsys, monkeypatch):
        # a support equation that never turns positive is a failure, not a
        # full-sphere support
        monkeypatch.setattr(support_finder, "ffunctional_pointcharge", lambda q, h, a: -1.0)
        code, summary = run_cli(
            ["support", "--field", "point-charge", "--q", "1", "--h", "2"], tmp_path
        )
        assert code == 3
        assert summary is None
        assert "rim equation keeps its sign" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [201, 401])
    @pytest.mark.parametrize(
        "values,alpha0",
        [
            (lambda x: 1.0 / np.sqrt(5.0 - 4.0 * x), ALPHA0_PC_12),  # point charge (1, 2)
            (lambda x: x * x + 2.5 * x + 2.0, ALPHA0_QUAD),  # quadratic (1, 2.5, 2)
        ],
        ids=["point-charge", "quadratic"],
    )
    def test_coarse_tables(self, tmp_path, values, alpha0, samples):
        # adaptive quad once found roundoff at the knots of such tables
        x = np.linspace(-1.0, 1.0, samples)
        table = write_table(tmp_path / "field.csv", x, values(x))
        code, summary = run_cli(["support", "--field", "tabulated", "--table", str(table)],
                                tmp_path)
        assert code == 0
        assert summary["method"] == "TranscendentalRoot"
        assert abs(summary["alpha0"] - alpha0) <= 1e-6

    def test_linear_table_full_sphere(self, tmp_path):
        # golden section once stalled on the flat functional at alpha0 = 9.8e-5
        table = tmp_path / "field.csv"
        table.write_text("x3,Q\n-1,0.2\n0,0.3\n1,0.4\n")
        code, summary = run_cli(["support", "--field", "tabulated", "--table", str(table)],
                                tmp_path)
        assert code == 0
        assert summary["method"] == "FullSphere"
        assert summary["alpha0"] == 0.0
        assert abs(summary["FQ"] - 1.3) <= 1e-12


# the closed-form commands, each run in a fresh interpreter, since
# sys.modules only grows within one
NUMPY_ONLY_COMMANDS = [
    ["support", "--field", "zero"],
    ["support", "--field", "point-charge", "--q", "1", "--h", "2"],
    ["support", "--field", "point-charge", "--q", "1", "--h", "0.5"],
    ["support", "--field", "north-pole", "--q", "1"],
    ["support", "--field", "quadratic", "--a", "1", "--b", "2.5", "--c", "2"],
    ["gonchar", "--q", "1"],
    ["capacity", "--alpha", "1"],
    ["ffunctional", "--field", "zero", "--alpha", "1"],
    ["ffunctional", "--field", "point-charge", "--q", "1", "--h", "2", "--alpha", "1"],
    ["ffunctional", "--field", "quadratic", "--a", "1", "--b", "2.5", "--c", "2",
     "--alpha", "1"],
]


def scipy_modules_after(argv, tmp_path):
    """Run a command in a fresh interpreter; return the scipy modules it loaded."""
    code = (
        "import json, sys, capfield.cli\n"
        "rc = capfield.cli.main(sys.argv[1:])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(capfield.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv, "--json", str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rc, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    assert rc == 0
    return scipy_modules


class TestStartUp:
    @pytest.mark.parametrize("argv", NUMPY_ONLY_COMMANDS, ids=" ".join)
    def test_closed_form_commands_import_no_scipy(self, tmp_path, argv):
        assert scipy_modules_after(argv, tmp_path) == []

    def test_tabulated_support_imports_no_integrate(self, tmp_path):
        # the table's support comes from a fixed Gauss rule, not from quad
        x = np.linspace(-1.0, 1.0, 201)
        table = write_table(tmp_path / "field.csv", x, x * x + 2.5 * x + 2.0)
        modules = scipy_modules_after(
            ["support", "--field", "tabulated", "--table", str(table)], tmp_path
        )
        assert "scipy.interpolate" in modules
        assert not any(m == "scipy.integrate" or m.startswith("scipy.integrate.")
                       for m in modules)


class TestCapacityCommand:
    def test_half_sphere_value(self, tmp_path, capsys):
        code, summary = run_cli(["capacity", "--alpha", "1.5707963267948966"], tmp_path)
        assert code == 0
        assert "0.818309886" in capsys.readouterr().out
        assert abs(summary["capacity"] - (0.5 + 1.0 / PI)) <= 1e-12

    def test_rejects_degrees(self, tmp_path):
        code, _ = run_cli(["capacity", "--alpha", "60"], tmp_path)
        assert code == 2


class TestGoncharCommand:
    def test_unit_charge(self, tmp_path):
        code, summary = run_cli(["gonchar", "--q", "1"], tmp_path)
        assert code == 0
        assert abs(summary["h_plus"] - H_PLUS_1) <= 1e-10
        assert abs(summary["h_minus"] - H_MINUS_1) <= 1e-10


class TestDensityTable:
    def test_zero_field_table_contract(self, tmp_path):
        cap = south_cap(PI / 3)
        grid = boundary_clustered_grid(cap, 8)
        profile = profile_from_callable(
            cap, grid, lambda p: nofield_density(PI / 3, p), PI / (PI - PI / 3 + math.sin(PI / 3))
        )
        path = tmp_path / "table.csv"
        emit_density_table(profile, ZeroField(), path)
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"phi,f,Q,U,weighted_potential"
        rows = [ln for ln in lines[1:] if ln]
        assert len(rows) == 8
        assert all(len(ln.split(b",")) == 5 for ln in rows)
        weighted = [float(ln.split(b",")[4]) for ln in rows]
        assert max(weighted) - min(weighted) <= 1e-4

    def test_rerun_byte_identical(self, tmp_path):
        cap = south_cap(PI / 3)
        grid = boundary_clustered_grid(cap, 8)
        profile = profile_from_callable(
            cap, grid, lambda p: nofield_density(PI / 3, p), PI / cap.normalizer
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_density_table(profile, ZeroField(), p1)
        emit_density_table(profile, ZeroField(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path_names_file(self, tmp_path):
        cap = south_cap(PI / 3)
        grid = boundary_clustered_grid(cap, 8)
        profile = profile_from_callable(
            cap, grid, lambda p: nofield_density(PI / 3, p), PI / cap.normalizer
        )
        bad = tmp_path / "missing-dir" / "t.csv"
        with pytest.raises(OSError, match="t.csv"):
            emit_density_table(profile, ZeroField(), bad)


class TestDensityCommand:
    def test_point_charge_end_to_end(self, tmp_path):
        csv_path = tmp_path / "density.csv"
        code, summary = run_cli(
            [
                "density", "--field", "point-charge", "--q", "1", "--h", "2",
                "--n", "16", "--csv", str(csv_path),
            ],
            tmp_path,
        )
        assert code == 0
        assert abs(summary["alpha0"] - ALPHA0_PC_12) <= 1e-9
        assert abs(summary["mass"] - 1.0) <= 1e-6
        assert summary["residuals"]["mass_error"] <= 1e-6
        rows = [ln for ln in csv_path.read_text().split("\n")[1:] if ln]
        assert len(rows) == 16

    def test_explicit_rim_angle(self, tmp_path):
        code, summary = run_cli(
            [
                "density", "--field", "zero", "--alpha", repr(PI / 3), "--n", "12",
            ],
            tmp_path,
        )
        assert code == 0
        assert summary["alpha0"] == pytest.approx(PI / 3, rel=0, abs=1e-15)
        assert abs(summary["FQ"] - PI / (PI - PI / 3 + math.sin(PI / 3))) <= 1e-9

    def test_tabulated_field(self, tmp_path):
        table = tmp_path / "field.csv"
        # increasing and (weakly) convex, so the hypothesis scan passes; a
        # kinked table such as 0.2, 0.3, 0.5 leaves the first-stage table
        # unresolved at the knot
        table.write_text("x3,Q\n-1,0.2\n0,0.3\n1,0.4\n")
        code, summary = run_cli(
            [
                "density", "--field", "tabulated", "--table", str(table),
                "--alpha", "1.0", "--n", "12",
            ],
            tmp_path,
        )
        assert code == 0
        assert abs(summary["mass"] - 1.0) <= 1e-6

    @pytest.mark.parametrize("command", ["support", "density", "verify", "oracle"])
    def test_decreasing_table_refused(self, tmp_path, capsys, command):
        table = tmp_path / "field.csv"
        table.write_text("x3,Q\n-1,0.4\n0,0.3\n1,0.2\n")
        args = [command, "--field", "tabulated", "--table", str(table)]
        if command != "support":
            args += ["--alpha", "1.0", "--n", "16"]
        code, summary = run_cli(args, tmp_path)
        assert code == 2
        assert summary is None
        assert "not monotone" in capsys.readouterr().err

    def test_coarse_table_of_a_peaked_charge_refused(self, tmp_path, capsys):
        # the 201 samples of a convex field, but their PCHIP bends the other
        # way on [0.98, 0.99], between two knots
        x = np.linspace(-1.0, 1.0, 201)
        q = PointChargeField(4.733335691893191, 1.052476780733111).value_at_x3(x)
        table = tmp_path / "field.csv"
        rows = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, q))
        table.write_text("x3,Q\n" + rows)
        code, summary = run_cli(
            ["density", "--field", "tabulated", "--table", str(table), "--n", "32"], tmp_path
        )
        assert code == 2
        assert summary is None
        err = capsys.readouterr().err
        assert "validation error in fields.require_south_cap" in err
        assert "not convex" in err

    def test_linear_table_without_rim(self, tmp_path):
        # the support is the whole sphere, so the density has unit mass there
        table = tmp_path / "field.csv"
        table.write_text("x3,Q\n-1,0.2\n0,0.3\n1,0.4\n")
        code, summary = run_cli(
            ["density", "--field", "tabulated", "--table", str(table), "--n", "32"],
            tmp_path,
        )
        assert code == 0
        assert summary["alpha0"] == 0.0
        assert abs(summary["mass"] - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "samples,values",
        [
            (201, lambda x: 0.919728 * x * x + 2.355968 * x + 2.062475),
            (201, lambda x: 0.965269 * x * x + 2.346555 * x + 1.817326),
            (401, lambda x: 0.759799 / np.sqrt(1.0 + 1.565008**2 - 2.0 * 1.565008 * x)),
        ],
        ids=["quadratic-201", "quadratic-201-b", "point-charge-401"],
    )
    def test_coarse_table_density(self, tmp_path, samples, values):
        # the first stage of these tables ends on its plateau, so sigma
        # stops at the resolution of the second-stage series it reads
        x = np.linspace(-1.0, 1.0, samples)
        table = write_table(tmp_path / "field.csv", x, values(x))
        code, summary = run_cli(
            ["density", "--field", "tabulated", "--table", str(table), "--n", "32"],
            tmp_path,
        )
        assert code == 0
        assert abs(summary["mass"] - 1.0) <= 1e-6

    def test_failure_names_the_failing_operation(self, tmp_path, capsys):
        # the support is found, and the first Abel stage then fails on the
        # knots inside the cap before any density is formed
        x = np.linspace(-1.0, 1.0, 401)
        table = write_table(tmp_path / "field.csv", x, x * x + 2.5 * x + 2.0)
        code, summary = run_cli(
            ["density", "--field", "tabulated", "--table", str(table), "--n", "32"],
            tmp_path,
        )
        assert code == 3
        assert summary is None
        err = capsys.readouterr().err
        assert "nonconvergence in singular_quadrature.first_stage_table" in err
        assert "first-stage table unresolved" in err
        assert "equilibrium.density_general" not in err


class TestFFunctionalCommand:
    def test_point_charge_closed_form(self, tmp_path):
        code, summary = run_cli(
            ["ffunctional", "--field", "point-charge", "--q", "1", "--h", "2",
             "--alpha", "1.0"],
            tmp_path,
        )
        assert code == 0
        assert abs(summary["ffunctional"] - FF_PC_12_AT_1) <= 1e-9

    def test_coarse_table(self, tmp_path):
        # the rule's panels break at the knots, so no quadrature error
        # hides in the 401-sample PCHIP of the quadratic
        x = np.linspace(-1.0, 1.0, 401)
        table = write_table(tmp_path / "field.csv", x, x * x + 2.5 * x + 2.0)
        code, summary = run_cli(
            ["ffunctional", "--field", "tabulated", "--table", str(table),
             "--alpha", "1.0"],
            tmp_path,
        )
        assert code == 0
        assert summary["method"] == "Numeric"
        assert abs(summary["ffunctional"] - FF_QUAD_AT_1) <= 1e-10


class TestVerifyCommand:
    def test_shipped_point_charge_triple(self, tmp_path):
        code, summary = run_cli(
            ["verify", "--field", "point-charge", "--q", "1", "--h", "2",
             "--alpha", repr(ALPHA0_PC_12), "--n", "48"],
            tmp_path,
        )
        assert code == 0
        assert summary["verdict"] is True
        assert summary["residuals"]["sup_deviation"] <= 1e-4

    @pytest.mark.parametrize(
        "q,h,alpha",
        [
            ("0.5", "2.2", "0"),  # the whole sphere is the support
            ("5", "0.06015838194201617", "0.05206713760220365"),  # a rim of 0.052
        ],
    )
    def test_true_support_passes_at_small_and_empty_rims(self, tmp_path, q, h, alpha):
        code, summary = run_cli(
            ["verify", "--field", "point-charge", "--q", q, "--h", h,
             "--alpha", alpha, "--n", "32"],
            tmp_path,
        )
        assert code == 0
        assert summary["verdict"] is True
        assert summary["residuals"]["mass_error"] <= 1e-8


class TestOracleCommand:
    def test_nystrom_zero_field(self, tmp_path):
        alpha = PI / 3
        code, summary = run_cli(
            ["oracle", "--field", "zero", "--alpha", repr(alpha), "--n", "32"],
            tmp_path,
        )
        assert code == 0
        assert summary["method"] == "NystromCollocation"
        assert abs(summary["FQ"] - PI / (PI - alpha + math.sin(alpha))) <= 1e-4

    def test_nystrom_non_finite_solution_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "capfield.oracle.dense_solve", lambda system, rhs: np.full(rhs.shape, np.inf)
        )
        code, summary = run_cli(
            ["oracle", "--field", "zero", "--alpha", "1.0", "--n", "16"], tmp_path
        )
        assert code == 3
        assert summary is None
        assert "oracle.nystrom_solve" in capsys.readouterr().err

    def test_energy_mode_nonconvergence_exit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("capfield.oracle._STEPS_PER_RING", 0.1)
        code, _ = run_cli(
            ["oracle", "--mode", "energy", "--field", "point-charge", "--q", "1",
             "--h", "2", "--rings", "32"],
            tmp_path,
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "oracle.discrete_energy_minimize" in err
        # the iterate stays on the exception; the message names its type
        assert "estimate=DiscreteMeasure" in err
        assert max(len(line) for line in err.splitlines()) < 300

    def test_energy_mode_takes_any_field(self, tmp_path):
        # no support is assumed, so a field outside the south-cap
        # hypotheses still has a discrete energy minimizer
        table = tmp_path / "field.csv"
        table.write_text("x3,Q\n-1,0.4\n0,0.3\n1,0.2\n")
        code, summary = run_cli(
            ["oracle", "--mode", "energy", "--field", "tabulated", "--table", str(table),
             "--rings", "32"],
            tmp_path,
        )
        assert code == 0
        assert summary["residuals"]["kkt_spread"] <= 1e-13 * summary["FQ"]

    def test_energy_mode_multiplier(self, tmp_path):
        code, summary = run_cli(
            ["oracle", "--mode", "energy", "--field", "point-charge", "--q", "1",
             "--h", "2", "--rings", "48"],
            tmp_path,
        )
        assert code == 0
        assert summary["method"] == "ActiveSet"
        assert abs(summary["FQ"] - FQ_PC_12) <= 1e-2 * FQ_PC_12
        assert 0.0 < summary["min_slack"]


class TestPinWorkflow:
    def test_write_then_match_then_mismatch(self, tmp_path):
        pin = tmp_path / "golden.json"
        args = ["support", "--field", "point-charge", "--q", "1", "--h", "2",
                "--pin", str(pin)]
        code, _ = run_cli(args, tmp_path, name="first.json")
        assert code == 0
        assert pin.exists()
        code, _ = run_cli(args, tmp_path, name="second.json")
        assert code == 0
        other = ["support", "--field", "point-charge", "--q", "1.5", "--h", "2",
                 "--pin", str(pin)]
        code, _ = run_cli(other, tmp_path, name="third.json")
        assert code == 2


class TestDeterminism:
    def test_identical_json_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gonchar", "--q", "2"]
        assert main([*argv, "--json", str(a)]) == 0
        assert main([*argv, "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timings_default_empty(self, tmp_path):
        code, summary = run_cli(["gonchar", "--q", "1"], tmp_path)
        assert code == 0
        assert summary["timings"] == {}

    def test_timings_opt_in(self, tmp_path):
        code, summary = run_cli(["gonchar", "--q", "1", "--timings"], tmp_path)
        assert code == 0
        assert summary["timings"] and all(v >= 0 for v in summary["timings"].values())


class TestArgumentHandling:
    @pytest.mark.parametrize(
        "argv,key",
        [
            (["support", "--field", "quadratic", "--a", "1", "--b", "2.5", "--c", "1e308"],
             "FQ"),
            (["ffunctional", "--field", "quadratic", "--a", "1", "--b", "2.5", "--c", "1e308",
              "--alpha", "1"], "ffunctional"),
            (["ffunctional", "--field", "point-charge", "--q", "1e308", "--h", "1.0000001",
              "--alpha", "1"], "ffunctional"),
        ],
        ids=["support-quadratic", "ffunctional-quadratic", "ffunctional-point-charge"],
    )
    def test_overflow_exits_3(self, tmp_path, capsys, argv, key):
        # admissible, finite input whose summary overflows is a numerical
        # failure: nothing is pinned, printed or written
        pin = tmp_path / "golden.json"
        code, summary = run_cli([*argv, "--pin", str(pin)], tmp_path)
        assert code == 3
        assert summary is None
        assert not pin.exists()
        out, err = capsys.readouterr()
        assert out == ""
        assert f"nonconvergence in {argv[0]}: non-finite {key}" in err
        assert "Traceback" not in err

    def test_overflowing_field_warns_nothing(self, tmp_path):
        # the hypothesis scan differences scaled samples, so a field near
        # the largest float leaves only the documented exit-3 message
        argv = ["support", "--field", "quadratic", "--a", "1", "--b", "2.5", "--c", "1e308"]
        env = dict(os.environ, PYTHONPATH=str(Path(capfield.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c",
             "import sys, capfield.cli; sys.exit(capfield.cli.main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=60, cwd=tmp_path,
        )
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert done.stderr.strip() == "nonconvergence in support: non-finite FQ"

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_2(self):
        assert main(["capacity"]) == 2

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    def test_parser_is_built_once_and_keeps_no_state(self):
        # main reuses one parser; a command parsed after another with
        # different flags matches a fresh parser's namespace
        parser = build_parser()
        assert build_parser() is parser
        parser.parse_args(["density", "--alpha", "0.7", "--n", "16", "--timings"])
        fresh = build_parser.__wrapped__()
        for argv in (["support"], ["oracle", "--mode", "energy", "--rings", "32"]):
            assert vars(parser.parse_args(argv)) == vars(fresh.parse_args(argv))
