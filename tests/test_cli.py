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
from capfield.equilibrium import density_general
from capfield.fields import PointChargeField, ZeroField
from capfield.geometry import SphericalCap, boundary_clustered_grid

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


# the one line that every route prints for a field infinite at the top of
# its cap, a charge on the sphere at a rim of 0
POLE_AT_THE_TOP = (
    "validation error in fields.require_finite_at_top: field is not finite at the"
    " cap's top x3 = cos(alpha) = 1.0\n"
)


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

    def test_charge_at_its_critical_height_full_sphere(self, tmp_path):
        # h is gonchar_heights(1.875).h_minus to the last bit: the rim
        # residual at alpha = 0 is zero, and reads -8.9e-16 in rounding
        code, summary = run_cli(
            ["support", "--field", "point-charge", "--q", "1.875",
             "--h", "0.1383662278567187"], tmp_path
        )
        assert code == 0
        assert summary["method"] == "FullSphere"
        assert summary["FQ"] == 2.875

    def test_rejects_bad_charge(self, tmp_path):
        code, _ = run_cli(
            ["support", "--field", "point-charge", "--q", "-1", "--h", "2"], tmp_path
        )
        assert code == 2

    @pytest.mark.parametrize(
        "lo, hi, argv, where",
        [(-0.5, 1.0, ["support"], "fields._evaluate"),
         (-1.0, 0.5, ["density", "--alpha", "0.5", "--n", "16"], "fields._evaluate")],
        ids=["south-pole-uncovered", "cap-uncovered"],
    )
    def test_table_short_of_the_range_names_it_in_plain_floats(
        self, tmp_path, capsys, lo, hi, argv, where
    ):
        x = np.linspace(lo, hi, 31)
        table = write_table(tmp_path / "short.csv", x, x * x + 2.5 * x + 2.0)
        code, summary = run_cli([*argv, "--field", "tabulated", "--table", str(table)], tmp_path)
        assert code == 2
        assert summary is None
        err = capsys.readouterr().err
        assert err == (
            f"validation error in {where}: x3 outside tabulated range [{lo!r}, {hi!r}]\n"
        )

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
# sys.modules only grows within one.  They compute with `math` alone, so
# they load no scipy, and numpy stays registered but never executes
STDLIB_COMMANDS = [
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


# the density pipeline, the potentials and the oracles read their splines,
# Gauss-Legendre rules, ring-kernel K, spline slopes and dense solves from
# numpy, so none of them loads scipy
SPLINE_COMMANDS = [
    ["density", "--field", "point-charge", "--q", "1", "--h", "2", "--n", "32"],
    ["verify", "--field", "point-charge", "--q", "1", "--h", "2",
     "--alpha", repr(ALPHA0_PC_12), "--n", "16"],
    ["oracle", "--mode", "nystrom", "--field", "point-charge", "--q", "1", "--h", "2",
     "--alpha", repr(ALPHA0_PC_12), "--n", "32"],
    ["oracle", "--mode", "energy", "--field", "point-charge", "--q", "1", "--h", "2",
     "--rings", "32"],
]


def scipy_modules_after(argv, tmp_path):
    """Run a command in a fresh interpreter; return the scipy modules and
    numpy submodules it loaded."""
    code = (
        "import json, sys, capfield.cli\n"
        "rc = capfield.cli.main(sys.argv[1:])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m.startswith('numpy.'))]))\n"
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
    @pytest.mark.parametrize("argv", STDLIB_COMMANDS, ids=" ".join)
    def test_closed_form_commands_import_no_scipy(self, tmp_path, argv):
        # nor any numpy submodule
        assert scipy_modules_after(argv, tmp_path) == []

    @pytest.mark.parametrize("argv", SPLINE_COMMANDS, ids=lambda argv: " ".join(argv[:3]))
    def test_closed_form_splines_import_no_interpolate(self, tmp_path, argv):
        modules = scipy_modules_after(argv, tmp_path)
        assert [m for m in modules if m.startswith("scipy")] == []

    def test_tabulated_support_imports_no_integrate(self, tmp_path):
        # the table's support comes from a fixed Gauss rule, not from quad,
        # and the rule's nodes, the PCHIP and the Chebyshev tables from numpy
        x = np.linspace(-1.0, 1.0, 201)
        table = write_table(tmp_path / "field.csv", x, x * x + 2.5 * x + 2.0)
        modules = scipy_modules_after(
            ["support", "--field", "tabulated", "--table", str(table)], tmp_path
        )
        assert [m for m in modules if m.startswith("scipy")] == []

    def test_tabulated_density_imports_no_interpolate_or_fft(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 201)
        table = write_table(tmp_path / "field.csv", x, x * x + 2.5 * x + 2.0)
        modules = scipy_modules_after(
            ["density", "--field", "tabulated", "--table", str(table), "--n", "16"], tmp_path
        )
        assert [m for m in modules if m.startswith("scipy")] == []


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

    @pytest.mark.parametrize("q", ["1e-17", "1e20", "1e300"])
    def test_extreme_charges(self, tmp_path, q):
        # h_minus once cancelled to 0 at q = 1e20, and the bracket of
        # h_plus once failed at 1e-17 and above 1e30
        code, summary = run_cli(["gonchar", "--q", q], tmp_path)
        assert code == 0
        assert 0.0 < summary["h_minus"] < 1.0 < summary["h_plus"]


class TestDensityTable:
    def test_zero_field_table_contract(self, tmp_path):
        cap = SphericalCap(PI / 3)
        grid = boundary_clustered_grid(cap, 8)
        profile = density_general(ZeroField(), cap, grid)
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
        cap = SphericalCap(PI / 3)
        grid = boundary_clustered_grid(cap, 8)
        profile = density_general(ZeroField(), cap, grid)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_density_table(profile, ZeroField(), p1)
        emit_density_table(profile, ZeroField(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path_names_file(self, tmp_path):
        cap = SphericalCap(PI / 3)
        grid = boundary_clustered_grid(cap, 8)
        profile = density_general(ZeroField(), cap, grid)
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
        # knots inside the cap before any density is formed; the second
        # density's mass misses 1 in the command itself, whose module is
        # `__main__` under python -m.  Both entry points name the same
        # operation
        x = np.linspace(-1.0, 1.0, 401)
        table = write_table(tmp_path / "field.csv", x, x * x + 2.5 * x + 2.0)
        cases = [
            (["density", "--field", "tabulated", "--table", str(table), "--n", "32"],
             "nonconvergence in singular_quadrature.first_stage_table: "
             "first-stage table unresolved"),
            (["density", "--field", "point-charge", "--q", "1e12", "--h", "2", "--n", "16"],
             "nonconvergence in cli._cmd_density: density mass misses 1"),
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(capfield.__file__).parent.parent))
        for argv, message in cases:
            code, summary = run_cli(argv, tmp_path)
            err = capsys.readouterr().err
            assert (code, summary) == (3, None)
            assert err.startswith(message), err
            done = subprocess.run([sys.executable, "-m", "capfield.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 3
            assert done.stderr == err


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


    def test_solved_rim_of_a_table_passes(self, tmp_path):
        # the potentials read the table at angles in no monotone order, so
        # its pieces are found by binary search
        x = np.linspace(-1.0, 1.0, 1601)
        table = write_table(tmp_path / "pc.csv", x, PointChargeField(1.0, 2.0).value_at_x3(x))
        tab = ["--field", "tabulated", "--table", str(table)]
        code, support = run_cli(["support", *tab], tmp_path, "support.json")
        assert code == 0
        assert abs(support["alpha0"] - ALPHA0_PC_12) <= 1e-8
        code, summary = run_cli(
            ["verify", *tab, "--alpha", repr(support["alpha0"]), "--n", "24"], tmp_path
        )
        assert code == 0
        assert summary["verdict"] is True
        assert summary["negative_nodes"] == 0
        assert summary["residuals"]["sup_deviation"] <= 1e-8
        assert summary["residuals"]["mass_error"] <= 1e-10


class TestOracleCommand:
    def test_nystrom_zero_field(self, tmp_path):
        alpha = PI / 3
        code, summary = run_cli(
            ["oracle", "--field", "zero", "--alpha", repr(alpha), "--n", "32"],
            tmp_path,
        )
        assert code == 0
        assert summary["method"] == "NystromCollocation"
        assert summary["negative_nodes"] == 0
        assert abs(summary["FQ"] - PI / (PI - alpha + math.sin(alpha))) <= 1e-4

    def test_nystrom_counts_negative_nodes(self, tmp_path, monkeypatch):
        # the Nystrom's summary flags a density of either sign as density's
        # does: here every node of a profile forced negative
        from capfield import oracle

        solve = oracle.dense_solve

        def negated(system, rhs):
            solution = solve(system, rhs)
            solution[:-1] *= -1.0
            return solution

        monkeypatch.setattr(oracle, "dense_solve", negated)
        code, summary = run_cli(
            ["oracle", "--field", "point-charge", "--alpha", "0.7", "--n", "16"], tmp_path
        )
        assert code == 0
        assert summary["negative_nodes"] == 16

    def test_nystrom_refuses_a_pole_at_the_cap_top(self, tmp_path, capsys):
        # a charge on the sphere is infinite at the top of a full-sphere cap,
        # outside the hypotheses, as density refuses it
        code, summary = run_cli(
            ["oracle", "--field", "north-pole", "--q", "1", "--alpha", "0", "--n", "16"],
            tmp_path,
        )
        assert code == 2
        assert summary is None
        assert capsys.readouterr().err == POLE_AT_THE_TOP

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
        assert "estimate=ndarray" in err
        assert max(len(line) for line in err.splitlines()) < 300

    @pytest.mark.parametrize("q", ["1e8", "1e9"])
    def test_energy_mode_on_a_large_charge(self, tmp_path, q):
        # the solve sees Q less its least ring value: all the mass settles
        # on the ring nearest the south pole
        code, summary = run_cli(
            ["oracle", "--mode", "energy", "--field", "point-charge", "--q", q, "--h", "2"],
            tmp_path,
        )
        assert code == 0
        assert summary["active_rings"] == 1
        assert summary["first_active_angle"] == (63 + 0.5) * (PI / 64)
        assert abs(summary["mass"] - 1.0) <= 1e-12

    def test_energy_mode_refuses_csv(self, tmp_path, capsys):
        # the energy oracle computes ring weights, not a density table
        table = tmp_path / "energy.csv"
        code, summary = run_cli(["oracle", "--mode", "energy", "--csv", str(table)], tmp_path)
        assert code == 2
        assert summary is None
        assert not table.exists()
        assert "--csv" in capsys.readouterr().err

    def test_energy_mode_refuses_alpha(self, tmp_path, capsys):
        # the energy oracle finds its own support; a rim it would ignore
        # is refused rather than dropped without a word
        code, summary = run_cli(["oracle", "--mode", "energy", "--alpha", "0.7"], tmp_path)
        assert code == 2
        assert summary is None
        assert "finds its own support" in capsys.readouterr().err

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


# the commands of the extreme point-charge grid: q and h each range over
# 1e-300, 1e-150, 1, 1e100, 1e150 and 1e300
EXTREME_COMMANDS = (["support"], ["density", "--n", "16"], ["verify", "--alpha", "1", "--n", "16"],
                    ["oracle", "--mode", "nystrom", "--alpha", "1", "--n", "16"],
                    ["oracle", "--mode", "energy", "--rings", "32"], ["ffunctional", "--alpha", "1"])
_SUPPORT, _DENSITY, _VERIFY = EXTREME_COMMANDS[:3]
# (command, q, h) of the grid's cells that ended in a traceback (an
# overflow in the rim equation at h = 1e300, a division by zero for a weak
# charge on the sphere) or a numpy warning, and the charge that
# overflowed F_Q
EXTREME_CHARGES = (
    [(c, q, "1e300") for c in (_SUPPORT, _DENSITY)
     for q in ("1e-300", "1e-150", "1", "1e100", "1e150", "1e300")]
    + [(c, q, "1") for c in (_SUPPORT, _DENSITY) for q in ("1e-300", "1e-150")]
    + [(c, q, "1e150") for c in (_DENSITY, _VERIFY)
       for q in ("1e-300", "1e-150", "1", "1e100", "1e150")]
    + [(_VERIFY, q, h) for q, h in (("1e100", "1e300"), ("1e150", "1e300"), ("1e300", "1e300"),
                                     ("1e300", "1e100"), ("1e300", "1e150"))]
    + [(["ffunctional", "--alpha", "1"], "1e308", "1.0000001")]
)


class TestArgumentHandling:
    @pytest.mark.parametrize(
        "argv,key",
        [
            (["support", "--field", "quadratic", "--a", "1", "--b", "2.5", "--c", "1e308"],
             "FQ"),
            (["ffunctional", "--field", "quadratic", "--a", "1", "--b", "2.5", "--c", "1e308",
              "--alpha", "1"], "ffunctional"),
        ],
        ids=["support-quadratic", "ffunctional-quadratic"],
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

    @pytest.mark.parametrize("command", ["density", "verify"])
    def test_pipeline_on_a_constant_near_the_float_range_exits_3(
        self, tmp_path, capsys, command
    ):
        # the first-stage table overflows inside its FFT, quietly, and
        # refuses the non-finite tail; pytest turns any warning into an error
        argv = [command, "--field", "quadratic", "--a", "1", "--b", "2.5", "--c", "1e308",
                "--alpha", "1.9", "--n", "32"]
        code, summary = run_cli(argv, tmp_path)
        assert code == 3
        assert summary is None
        err = capsys.readouterr().err
        assert "nonconvergence in singular_quadrature.first_stage_table" in err

    @pytest.mark.parametrize(
        "argv,q,h", EXTREME_CHARGES, ids=[f"{a[0]}-q{q}-h{h}" for a, q, h in EXTREME_CHARGES]
    )
    def test_extreme_point_charge_refused(self, tmp_path, capsys, argv, q, h):
        # each of these ended in a traceback or a numpy warning before the
        # charge's bounds; now it is refused with the bound it breaks
        code, summary = run_cli([*argv, "--field", "point-charge", "--q", q, "--h", h], tmp_path)
        assert code == 2
        assert summary is None
        err = capsys.readouterr().err
        assert ("at most 1e+100" in err or "q * max(h, 1/h) <= 1e+300" in err
                or "below the bracket [1e-12," in err), err

    @pytest.mark.parametrize("q,h", [("1e200", "1e100"), ("1e-300", "1e100"), ("1", "1e-300"),
                                     ("1e300", "1"), ("1e-24", "1"), ("1e150", "1e-150")])
    def test_extreme_point_charge_in_range(self, tmp_path, capsys, q, h):
        # inside the bounds every command finishes or reports its own
        # nonconvergence; pytest turns any warning into an error.  The one
        # exception: the support of q = 1e-24 on the sphere has its rim at
        # 1.4e-12, whose cosine rounds to the charge's pole, so density
        # refuses that cap as the Nystrom refuses it
        for argv in EXTREME_COMMANDS:
            capsys.readouterr()
            code, _ = run_cli([*argv, "--field", "point-charge", "--q", q, "--h", h], tmp_path)
            if (argv[0], q, h) == ("density", "1e-24", "1"):
                assert code == 2
                assert capsys.readouterr().err == POLE_AT_THE_TOP
            else:
                assert code in (0, 3), argv

    @pytest.mark.parametrize("command", ["density", "verify"])
    def test_pole_at_the_cap_top_refused(self, tmp_path, capsys, command):
        # the pipeline refuses a field infinite at the top of its cap by the
        # Nystrom's check, before its first-stage table runs
        argv = [command, "--field", "north-pole", "--q", "1", "--alpha", "0", "--n", "16"]
        code, summary = run_cli(argv, tmp_path)
        assert code == 2
        assert summary is None
        assert capsys.readouterr().err == POLE_AT_THE_TOP

    @pytest.mark.parametrize("command", ["density", "verify"])
    def test_slope_overflow_at_a_small_rim_refused(self, tmp_path, capsys, command):
        # q*h/d^3 is about q/alpha^3 = 1e309 beside a rim at 0.001 under an
        # on-sphere charge: refused with the bound, where it once warned
        # and exited 3 with estimate nan
        argv = [command, "--alpha", "0.001", "--n", "16", "--field", "point-charge",
                "--q", "1e300", "--h", "1"]
        code, summary = run_cli(argv, tmp_path)
        assert code == 2
        assert summary is None
        err = capsys.readouterr().err
        assert ("validation error in fields.slope_at_x3: slope q*h/d^3 exceeds the float range"
                in err)

    @pytest.mark.parametrize("command", ["density", "verify"])
    def test_slope_inside_the_float_range_exits_3(self, tmp_path, capsys, command):
        # 1e290 at the same rim stays finite: the first-stage table then
        # reports its own nonconvergence with a finite estimate
        argv = [command, "--alpha", "0.001", "--n", "16", "--field", "point-charge",
                "--q", "1e290", "--h", "1"]
        code, summary = run_cli(argv, tmp_path)
        assert code == 3
        assert summary is None
        err = capsys.readouterr().err
        assert "nonconvergence in singular_quadrature.first_stage_table" in err
        estimate = float(err.split("estimate=")[1].split(",")[0])
        assert math.isfinite(estimate)

    @pytest.mark.parametrize(
        "argv, message",
        [(["--field", "quadratic", "--a", "1", "--b", "2.5", "--c", "1e300", "--n", "32"],
          "sigma table unresolved at degree 1024"),
         (["--field", "point-charge", "--q", "1e12", "--h", "2", "--n", "16"],
          "density mass misses 1 by more than 1e-06")],
        ids=["quadratic-constant-1e300", "point-charge-1e12"],
    )
    def test_density_mass_off_one_exits_3(self, tmp_path, capsys, argv, message):
        # the pipeline's density has unit mass by construction, so a mass
        # off 1 is its own error estimate.  A constant of 1e300 swamps the
        # terms of sigma, whose table stops unresolved before the mass gate
        code, summary = run_cli(["density", *argv], tmp_path)
        assert code == 3
        assert summary is None
        assert message in capsys.readouterr().err

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

    def test_overflowing_table_refused_before_its_interpolant(self, tmp_path):
        # a table whose PCHIP would overflow is refused in the table's own
        # terms, before any interpolant arithmetic can warn
        table = tmp_path / "steep.csv"
        table.write_text("-1,0\n0,1e308\n1,1.7e308\n")
        argv = ["support", "--field", "tabulated", "--table", str(table)]
        env = dict(os.environ, PYTHONPATH=str(Path(capfield.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c",
             "import sys, capfield.cli; sys.exit(capfield.cli.main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=60, cwd=tmp_path,
        )
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr.strip().endswith(
            "tabulated field's interpolant would overflow: Q = 0.0, 1e+308 at x3 = -1.0, 0.0"
        )
        assert "Warning" not in done.stderr

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_2_without_a_traceback(self, tmp_path, buffered):
        # the pipe's read end is closed before the run, so every write to
        # stdout fails, whether at the print or at the flush
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=str(Path(capfield.__file__).parent.parent))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            done = subprocess.run(
                [sys.executable, "-m", "capfield.cli", "gonchar", "--q", "1"],
                env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
                cwd=tmp_path,
            )
        finally:
            os.close(write)
        assert done.returncode == 2
        assert done.stderr == "cannot write to standard output: [Errno 32] Broken pipe\n"

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
