"""Command-line surface for cap equilibria.

Every run writes a JSON summary with a fixed key set {alpha0, FQ, mass,
residuals, method, timings} plus command-specific extras, and density
commands can emit a CSV table.  Identical configurations produce
byte-identical outputs: timings stay empty unless --timings is passed,
floats are printed with 17 significant digits, and files use LF line
endings.  Exit codes: 0 success, 2 validation, pin mismatch or an
output that cannot be written, 3 numerical nonconvergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from ._numerics import NonconvergenceError, np
from .fields import (
    ExternalField,
    PointChargeField,
    QuadraticField,
    TabulatedField,
    ZeroField,
)
from .geometry import SphericalCap, boundary_clustered_grid, capacity_south_cap
from .support_finder import ffunctional, gonchar_heights, solve_support

# the pipeline, the potentials and the oracles are imported by the
# handlers that call them, and numpy executes on its first use
# (`_numerics.np`), so that the closed-form commands, which compute with
# `math` alone, run on the standard library; no command loads scipy
if TYPE_CHECKING:
    from ._numerics import DensityProfile

# the pipeline's density has unit mass by construction, so its computed
# mass misses 1 by its own error; the acceptance gate holds every shipped
# density to this bound
_MASS_TOLERANCE = 1e-6

# absolute tolerance applied to every numeric leaf when comparing a run
# against its pinned golden summary
_PIN_TOLERANCES = {
    "capacity": 1e-12,
    "support": 1e-9,
    "density": 1e-7,
    "ffunctional": 1e-9,
    "verify": 1e-6,
    "oracle": 1e-7,
    "gonchar": 1e-10,
}


def build_field(args: argparse.Namespace) -> ExternalField:
    """The field named by the parsed --field options."""
    kind = args.field_kind
    if kind == "zero":
        return ZeroField()
    if kind == "point-charge":
        return PointChargeField(args.q, args.h)
    if kind == "north-pole":
        return PointChargeField(args.q, 1.0)
    if kind == "quadratic":
        if None in (args.a, args.b, args.c):
            raise ValueError("quadratic field needs --a, --b and --c")
        return QuadraticField(args.a, args.b, args.c)
    if kind == "tabulated":
        if args.table is None:
            raise ValueError("tabulated field needs --table")
        return TabulatedField.from_csv(args.table)
    raise ValueError(f"unknown field kind {kind!r}")


def _admissible_field(args: argparse.Namespace) -> ExternalField:
    """The field, refused unless it meets the south-cap hypotheses.

    The closed-form fields meet them by construction; a table is checked
    exactly on the pieces of its interpolant.
    """
    field = build_field(args)
    if isinstance(field, TabulatedField):
        field.require_south_cap()
    return field


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit_density_table(profile: DensityProfile, field: ExternalField, path) -> Path:
    """Write the density table for a profile: phi, f, Q, U, U+Q per node.

    One row per grid node, 17 significant digits, LF endings; rerunning
    with the same profile and field is byte-identical.
    """
    from .potential import potential_on_sphere

    path = Path(path)
    nodes = np.asarray(profile.grid.nodes)
    f = np.asarray(profile.values)
    q = np.asarray(field.value_at_x3(np.clip(np.cos(nodes), -1.0, 1.0)))
    u = potential_on_sphere(profile, nodes)
    try:
        with open(path, "w", newline="") as fh:
            fh.write("phi,f,Q,U,weighted_potential\n")
            for row in zip(nodes, f, q, u, u + q):
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as err:
        raise OSError(f"cannot write density table {path}: {err}") from err
    return path


def _summary(method, alpha0=None, fq=None, mass=None, residuals=None, **extra) -> dict:
    """The fixed keys {alpha0, FQ, mass, residuals, method} and the extras."""
    return {"alpha0": alpha0, "FQ": fq, "mass": mass, "residuals": residuals or {},
            "method": method, **extra}


def _profile_summary(args: argparse.Namespace, field: ExternalField, alpha: float,
                     profile: DensityProfile, method: str) -> dict:
    """The summary of a density profile on the cap with rim alpha, with its
    CSV table written when --csv is given."""
    summary = _summary(method, alpha, profile.robin_constant, profile.mass,
                       {"mass_error": abs(profile.mass - 1.0)},
                       negative_nodes=len(profile.negative_nodes))
    if args.csv_path is not None:
        emit_density_table(profile, field, args.csv_path)
        summary["csv"] = str(args.csv_path)
    return summary


def _require_alpha(args: argparse.Namespace) -> float:
    if args.alpha is None:
        raise ValueError("this command needs --alpha (radians)")
    return args.alpha


def _cmd_capacity(args: argparse.Namespace):
    alpha = args.alpha
    value = capacity_south_cap(alpha)
    return _summary("ClosedForm", alpha, capacity=value), _fmt(value)


def _cmd_support(args: argparse.Namespace):
    field = _admissible_field(args)
    solution = solve_support(field)
    summary = _summary(solution.method.value, solution.alpha0, solution.robin_constant,
                       residuals={"support_equation": abs(solution.residual)},
                       iterations=solution.iterations)
    return summary, f"alpha0 = {_fmt(solution.alpha0)} ({solution.method.value})"


def _cmd_density(args: argparse.Namespace):
    from .equilibrium import density_general

    field = _admissible_field(args)
    if args.alpha is not None:
        alpha = args.alpha
    else:
        alpha = solve_support(field).alpha0
    cap = SphericalCap(alpha)
    profile = density_general(field, cap, boundary_clustered_grid(cap, args.n))
    mass_error = abs(profile.mass - 1.0)
    if not mass_error <= _MASS_TOLERANCE:
        raise NonconvergenceError(
            f"density mass misses 1 by more than {_MASS_TOLERANCE:g}", profile.mass, mass_error
        )
    summary = _profile_summary(args, field, alpha, profile, "TwoStageInversion")
    return summary, f"alpha0 = {_fmt(alpha)}  mass = {_fmt(profile.mass)}"


def _cmd_ffunctional(args: argparse.Namespace):
    field = build_field(args)
    alpha = args.alpha
    value, method = ffunctional(field, alpha)
    return _summary(method, alpha, ffunctional=value), _fmt(value)


def _cmd_verify(args: argparse.Namespace):
    from .equilibrium import density_general
    from .potential import verify_equilibrium

    field = _admissible_field(args)
    alpha = args.alpha
    cap = SphericalCap(alpha)
    profile = density_general(field, cap, boundary_clustered_grid(cap, args.n))
    report = verify_equilibrium(field, profile, tol=args.tol)
    residuals = {"sup_deviation": report.sup_deviation_on_support,
                 "mass_error": report.mass_error}
    summary = _summary("VariationalCheck", alpha, report.robin_constant, profile.mass,
                       residuals, verdict=report.verdict,
                       min_slack=report.min_slack_off_support,
                       negative_nodes=report.negative_node_count)
    return summary, f"verdict = {'pass' if report.verdict else 'fail'}"


def _cmd_oracle(args: argparse.Namespace):
    from .oracle import discrete_energy_minimize, nystrom_solve

    if args.mode == "energy" and args.csv_path is not None:
        raise ValueError("--csv writes a density table, which only --mode nystrom computes")
    if args.mode == "energy" and args.alpha is not None:
        raise ValueError("the energy oracle finds its own support, so --alpha is for --mode nystrom")
    if args.mode == "nystrom":
        field = _admissible_field(args)
        alpha = _require_alpha(args)
        profile = nystrom_solve(field, SphericalCap(alpha), args.n)
        summary = _profile_summary(args, field, alpha, profile, "NystromCollocation")
        return summary, f"FQ = {_fmt(profile.robin_constant)}"

    # the energy oracle assumes no support, so it takes any field
    result = discrete_energy_minimize(build_field(args), args.rings)
    fq, active = result.robin_constant, result.weights > 0.0
    count = int(np.count_nonzero(active))
    summary = _summary("ActiveSet", fq=fq, mass=float(result.weights.sum()),
                       residuals={"kkt_spread": result.kkt_spread},
                       min_slack=result.min_slack, active_rings=count,
                       first_active_angle=float(result.angles[active][0]))
    return summary, f"FQ = {_fmt(fq)}  active rings = {count}"


def _cmd_gonchar(args: argparse.Namespace):
    heights = gonchar_heights(args.q)
    summary = _summary("ClosedForm", h_minus=heights.h_minus, h_plus=heights.h_plus)
    return summary, f"h_minus = {_fmt(heights.h_minus)}  h_plus = {_fmt(heights.h_plus)}"


_HANDLERS = {
    "capacity": _cmd_capacity,
    "support": _cmd_support,
    "density": _cmd_density,
    "ffunctional": _cmd_ffunctional,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "gonchar": _cmd_gonchar,
}


def _pin_compare(golden, fresh, tol: float, trail: str = "") -> list[str]:
    """Recursive numeric comparison; returns human-readable mismatches."""
    problems = []
    keys = sorted(set(golden) | set(fresh))
    for key in keys:
        where = f"{trail}{key}"
        if key not in golden or key not in fresh:
            problems.append(f"{where}: present on one side only")
            continue
        g, f = golden[key], fresh[key]
        if isinstance(g, dict) and isinstance(f, dict):
            problems.extend(_pin_compare(g, f, tol, where + "."))
        elif isinstance(g, (int, float)) and not isinstance(g, bool) and isinstance(
            f, (int, float)
        ) and not isinstance(f, bool):
            if not abs(float(g) - float(f)) <= tol:
                problems.append(f"{where}: {f!r} differs from pinned {g!r} by more than {tol:g}")
        elif g != f:
            problems.append(f"{where}: {f!r} != pinned {g!r}")
    return problems


def _apply_pin(args: argparse.Namespace, summary: dict) -> int:
    """Golden-file workflow: first run records, later runs must agree."""
    pinnable = {k: v for k, v in summary.items() if k != "timings"}
    path = Path(args.pin_path)
    if not path.exists():
        path.write_text(json.dumps(pinnable, sort_keys=True, indent=2) + "\n")
        print(f"pinned golden summary to {path}", file=sys.stderr)
        return 0
    golden = json.loads(path.read_text())
    problems = _pin_compare(golden, pinnable, _PIN_TOLERANCES[args.command])
    if problems:
        for p in problems:
            print(f"pin mismatch: {p}", file=sys.stderr)
        return 2
    return 0


def _failing_operation(err: BaseException) -> str:
    """module.function of the innermost package frame that raised err.

    Frames are matched by their code's file in the package directory, not
    by module name, which reads `__main__` for this module under `python
    -m capfield.cli`.  The shared helpers of `_numerics` are skipped: a
    root finder or a derivative that fails names the computation that
    called it.
    """
    package = Path(__file__).resolve().parent
    where = "cli.run"
    tb = err.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        path = Path(code.co_filename).resolve()
        if path.parent == package and path.stem != "_numerics":
            where = f"{path.stem}.{code.co_name}"
        tb = tb.tb_next
    return where


def _non_finite_keys(summary: dict, trail: str = ""):
    """Dotted keys of the summary's non-finite numbers, in key order."""
    for key, value in sorted(summary.items()):
        if isinstance(value, dict):
            yield from _non_finite_keys(value, f"{trail}{key}.")
        elif isinstance(value, float) and not math.isfinite(value):
            yield trail + key


def run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        summary, line = _HANDLERS[args.command](args)
    except ValueError as err:
        print(f"validation error in {_failing_operation(err)}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(str(err), file=sys.stderr)
        return 2
    except NonconvergenceError as err:
        print(f"nonconvergence in {_failing_operation(err)}: {err}", file=sys.stderr)
        return 3
    # an overflow on admissible input leaves inf or nan in the summary,
    # which is a numerical failure: nothing is pinned, printed or written
    bad = next(_non_finite_keys(summary), None)
    if bad is not None:
        print(f"nonconvergence in {args.command}: non-finite {bad}", file=sys.stderr)
        return 3

    summary["timings"] = (
        {"total_s": time.perf_counter() - started} if args.timings_enabled else {}
    )
    status = 0
    if args.pin_path is not None:
        status = _apply_pin(args, summary)

    payload = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n"
    try:
        print(line)
        if args.json_path is None:
            sys.stdout.write(payload)
        sys.stdout.flush()
    except BrokenPipeError as err:
        # what is still buffered goes to the null device, so that the
        # interpreter's last flush at exit finds nothing to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"cannot write to standard output: {err}", file=sys.stderr)
        return 2
    if args.json_path is not None:
        try:
            Path(args.json_path).write_text(payload)
        except OSError as err:
            print(f"cannot write summary {args.json_path}: {err}", file=sys.stderr)
            return 2
    return status


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="capfield",
        description="Weighted equilibrium measures on spherical caps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", dest="json_path", metavar="PATH",
                        help="write the JSON summary here instead of stdout")
    output.add_argument("--pin", dest="pin_path", metavar="PATH",
                        help="golden summary: first run writes, later runs compare")
    output.add_argument("--timings", dest="timings_enabled", action="store_true",
                        help="include wall timings (breaks byte determinism)")

    fieldp = argparse.ArgumentParser(add_help=False)
    fieldp.add_argument("--field", dest="field_kind", default="zero",
                        choices=["zero", "point-charge", "north-pole", "quadratic", "tabulated"])
    fieldp.add_argument("--q", type=float, default=1.0, help="charge (point-charge, north-pole)")
    fieldp.add_argument("--h", type=float, default=2.0, help="charge height (point-charge)")
    fieldp.add_argument("--a", type=float, help="quadratic coefficient of x3^2")
    fieldp.add_argument("--b", type=float, help="quadratic coefficient of x3")
    fieldp.add_argument("--c", type=float, help="quadratic constant term")
    fieldp.add_argument("--table", help="CSV of (x3, Q) samples for --field tabulated")

    p = sub.add_parser("capacity", parents=[output], help="capacity of a south cap")
    p.add_argument("--alpha", type=float, required=True, help="rim angle, radians")

    sub.add_parser("support", parents=[output, fieldp], help="support rim angle")

    p = sub.add_parser("density", parents=[output, fieldp], help="equilibrium density table")
    p.add_argument("--alpha", type=float, help="rim angle; solved from the field when omitted")
    p.add_argument("--n", type=int, default=64, help="grid nodes")
    p.add_argument("--csv", dest="csv_path", metavar="PATH", help="density table sink")

    p = sub.add_parser("ffunctional", parents=[output, fieldp], help="cap functional value")
    p.add_argument("--alpha", type=float, required=True, help="rim angle, radians")

    p = sub.add_parser("verify", parents=[output, fieldp], help="variational check of a triple")
    p.add_argument("--alpha", type=float, required=True, help="support rim angle, radians")
    p.add_argument("--n", type=int, default=64, help="grid nodes")
    p.add_argument("--tol", type=float, default=1e-4, help="verification tolerance")

    p = sub.add_parser("oracle", parents=[output, fieldp], help="independent solvers")
    p.add_argument("--mode", choices=["nystrom", "energy"], default="nystrom")
    p.add_argument("--alpha", type=float, help="cap rim angle (nystrom mode)")
    p.add_argument("--n", type=int, default=64,
                   help="profile nodes (nystrom mode; it collocates at max(16, n // 4))")
    p.add_argument("--rings", type=int, default=64, help="latitude rings (energy mode)")
    p.add_argument("--csv", dest="csv_path", metavar="PATH", help="density table sink")

    p = sub.add_parser("gonchar", parents=[output], help="critical charge heights")
    p.add_argument("--q", type=float, required=True, help="charge")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return run(namespace)

if __name__ == "__main__":
    sys.exit(main())
