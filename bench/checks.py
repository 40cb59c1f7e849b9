"""Checks of every command's output against the references and the method's
properties, and the accuracy figures they yield.  Nothing here imports
capfield.

Tolerances come from the accuracy each method states:

- closed: the two-stage pipeline on a closed-form field.  The acceptance
  gate allows 1e-5 on node values and 1e-6 on the mass; the rim equations
  are solved to xtol 1e-14.
- table: the same pipeline on a PCHIP table of 1601 samples (spacing
  h = 1.25e-3).  PCHIP reproduces Q to O(h^3) ~ 2e-9 and Q' to O(h^2)
  ~ 1.6e-6, and the density depends on Q', so node values are held to
  1e-4.  The support is a golden-section minimum (xtol 1e-8) of the cap
  functional, held to 1e-6; F_Q, its value there, is stationary in the
  rim angle and carries the O(h^3) field error, held to 1e-7.
- nystrom: the collocation oracle, tested to 1e-2 on node values, 1e-3 on
  F_Q and 1e-4 on the mass.
- energy: the ring-energy oracle, tested to 1e-2 on F_Q and on the KKT
  spread, with the first active ring within two ring spacings of the rim.

The weighted potential U + Q printed in a CSV must equal F_Q on the
support within `potential`, the variational check's default tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath as mp

import reference

TOLERANCES = {
    "closed": {"alpha": 1e-12, "fq": 1e-6, "mass": 1e-6, "density": 1e-5, "potential": 1e-4},
    "table": {"alpha": 1e-6, "fq": 1e-7, "mass": 1e-6, "density": 1e-4, "potential": 1e-4},
    "nystrom": {"fq": 1e-3, "mass": 1e-4, "density": 1e-2, "potential": 1e-3},
    "energy": {"fq": 1e-2, "mass": 1e-9, "kkt": 1e-2, "rings": 2},
}

# digits reported for an error that reads exactly zero
DIGITS_CAP = 20.0

ACCURACY = ("density_relerr", "mass_err", "robin_relerr", "alpha0_err")

TWIN_RTOL = 1e-9


def parse_summary(stdout: str):
    """The JSON summary the CLI prints after its one-line headline."""
    _, _, payload = stdout.partition("\n")
    return json.loads(payload)


def digits(err) -> float:
    if err is None:
        return float("nan")
    err = float(err)
    return DIGITS_CAP if err <= 0.0 else min(DIGITS_CAP, -math.log10(err))


def _rel(value, ref):
    return abs(mp.mpf(value) - ref) / abs(ref)


class Outcome:
    """Problems found in one command's output, and its accuracy figures."""

    def __init__(self) -> None:
        self.problems = []
        self.errors = {name: [] for name in ACCURACY}

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def bounded(self, name: str, err, tol: float, what: str) -> None:
        self.errors[name].append(err)
        self.require(err <= tol, f"{what} error {mp.nstr(err, 3)} exceeds {tol:g}")


def _check_csv(out: Outcome, text, field, alpha0, fq_ref, fq_reported, tol) -> None:
    if text is None:
        out.require(False, "no CSV table written")
        return
    rows = list(csv.DictReader(io.StringIO(text)))
    out.require(len(rows) > 0, "empty CSV table")
    for row in rows:
        phi, f = float(row["phi"]), float(row["f"])
        ref = reference.density(field, alpha0, fq_ref, phi)
        out.require(f >= 0.0, f"negative density {f!r} at phi={phi!r}")
        out.bounded("density_relerr", _rel(f, ref), tol["density"], f"density at phi={phi!r}")
        gap = abs(float(row["weighted_potential"]) - fq_reported)
        out.require(gap <= tol["potential"],
                    f"U + Q departs from F_Q by {gap:.3g} at phi={phi!r}")


def check_command(cmd, result, plan) -> Outcome:
    """Every check of one command, given its round-one result."""
    out = Outcome()
    out.require(result["rc"] == cmd.expect_rc,
                f"exit code {result['rc']!r}, expected {cmd.expect_rc}")
    if cmd.expect_rc != 0 or result["rc"] != 0:
        return out
    try:
        summary = parse_summary(result["stdout"])
    except ValueError as err:
        out.require(False, f"unreadable summary: {err}")
        return out

    tol = TOLERANCES[cmd.accuracy]
    field = plan.fields[cmd.field]
    alpha0, fq_ref = plan.refs[cmd.field]
    fq = summary.get("FQ")
    mass = summary.get("mass")

    if cmd.kind == "verify":
        expected = cmd.rim == "true"
        out.require(summary.get("verdict") is expected,
                    f"verdict {summary.get('verdict')!r} at the {cmd.rim} rim")
        if not expected:
            return out

    if cmd.kind in ("support", "density", "verify", "nystrom"):
        if cmd.alpha_given:
            given = float(cmd.argv[cmd.argv.index("--alpha") + 1])
            out.require(summary["alpha0"] == given, "alpha0 differs from --alpha")
        else:
            out.bounded("alpha0_err", abs(mp.mpf(summary["alpha0"]) - alpha0), tol["alpha"],
                        "rim angle")
        out.bounded("robin_relerr", _rel(fq, fq_ref), tol["fq"], "F_Q")

    if cmd.kind in ("density", "verify", "nystrom"):
        out.bounded("mass_err", abs(mp.mpf(mass) - 1), tol["mass"], "mass")
    if cmd.kind in ("density", "verify"):
        out.require(summary.get("negative_nodes") == 0,
                    f"{summary.get('negative_nodes')!r} negative density nodes")
    if cmd.csv is not None:
        _check_csv(out, result["csv"], field, alpha0, fq_ref, fq, tol)

    if cmd.kind == "energy":
        spacing = math.pi / cmd.size
        first = mp.mpf(summary["first_active_angle"])
        out.bounded("alpha0_err", abs(first - alpha0), tol["rings"] * spacing,
                    "first active ring")
        out.bounded("robin_relerr", _rel(fq, fq_ref), tol["fq"], "F_Q")
        out.bounded("mass_err", abs(mp.mpf(mass) - 1), tol["mass"], "mass")
        spread = summary["residuals"]["kkt_spread"]
        out.require(spread <= tol["kkt"] * fq, f"KKT spread {spread:.3g}")
    return out


def _same_numbers(a, b, trail=""):
    """Leaves of two summaries that differ beyond rounding."""
    problems = []
    for key in sorted(set(a) | set(b)):
        where = trail + key
        if key == "csv":
            continue
        if key not in a or key not in b:
            problems.append(f"{where} present on one side only")
            continue
        x, y = a[key], b[key]
        if isinstance(x, dict) and isinstance(y, dict):
            problems.extend(_same_numbers(x, y, where + "."))
        elif isinstance(x, float) and isinstance(y, float):
            if abs(x - y) > TWIN_RTOL * max(1.0, abs(x), abs(y)):
                problems.append(f"{where}: {x!r} vs {y!r}")
        elif x != y:
            problems.append(f"{where}: {x!r} vs {y!r}")
    return problems


def check_twin(cmd, result, twin_result) -> list:
    """A repeated invocation must match byte for byte; a Kelvin image, to rounding."""
    if cmd.byte_twin:
        same = (result["rc"], result["stdout"], result["csv"]) == (
            twin_result["rc"], twin_result["stdout"], twin_result["csv"])
        return [] if same else ["repeated invocation is not byte-identical"]
    if result["rc"] != 0 or twin_result["rc"] != 0:
        return ["Kelvin pair not comparable: a command failed"]
    problems = _same_numbers(parse_summary(twin_result["stdout"]),
                             parse_summary(result["stdout"]))
    return [f"Kelvin image differs: {p}" for p in problems]


def evaluate(plan, rounds) -> dict:
    """Failures per round and the workload's accuracy figures.

    A command fails in a round when its round-one output fails a check, or
    when that round's output is not byte-identical to round one's.  In a
    traced run each command runs twice a round, and each run counts.
    """
    first = rounds[0]["results"]
    index = {cmd.id: i for i, cmd in enumerate(plan.commands)}
    problems = {}
    errors = {name: [] for name in ACCURACY}
    for i, cmd in enumerate(plan.commands):
        out = check_command(cmd, first[i], plan)
        if cmd.twin is not None:
            out.problems.extend(check_twin(cmd, first[i], first[index[cmd.twin]]))
        if out.problems:
            problems[cmd.id] = out.problems
        for name in ACCURACY:
            errors[name].extend(out.errors[name])

    attempted = failed = 0
    unexpected = set()
    reference_digests = rounds[0]["digests"]
    for number, record in enumerate(rounds, start=1):
        for key, how in (("digests", ""), ("traced_digests", "traced ")):
            if key not in record:
                continue
            for i, cmd in enumerate(plan.commands):
                attempted += 1
                bad = cmd.id in problems
                if record[key][i] != reference_digests[i]:
                    bad = True
                    problems.setdefault(cmd.id, []).append(
                        f"round {number} {how}output differs")
                if bad:
                    failed += 1
                    if not cmd.known_fault:
                        unexpected.add(cmd.id)
    worst = {name: (max(errs) if errs else None) for name, errs in errors.items()}
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not unexpected,
        "problems": problems,
        "worst": worst,
    }
