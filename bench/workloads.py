"""The benchmark's workloads: fixed lists of capfield CLI commands.

A workload's seed draws the field parameters from admissible ranges;
it never changes the sizes or the make-up of the command list.  Each
command carries what its checks need: the field it runs on, which of its
outputs are compared with the references, and the command whose results
it must reproduce (a charge and its Kelvin image, or a repeated
invocation).  Nothing here imports capfield.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Optional

import mpmath as mp

import reference

WORKLOADS = ("pipeline", "oracles", "tabulated")

# rims offset to each side of the true one, where verify must fail
# (the perturbation of the package's variational acceptance criterion)
RIM_SHIFT = 0.2

# samples per table; on coarser tables the adaptive quad inside `support`
# costs anywhere from 0.1 s to 6 s depending on the seed's parameters
TABLE_SAMPLES = 1601


@dataclass
class Command:
    """One CLI invocation and the expectations its output is checked against."""

    id: str
    argv: list
    kind: str  # support | density | verify | nystrom | energy
    field: Optional[str] = None  # key into Plan.fields
    accuracy: str = "closed"  # tolerance class, see checks.TOLERANCES
    expect_rc: int = 0
    csv: Optional[str] = None
    alpha_given: bool = False
    rim: str = "true"  # verify only: true | inner | outer
    size: int = 0
    twin: Optional[str] = None  # id of a command whose results this one must match
    byte_twin: bool = False  # the twin is the same invocation: compare bytes
    known_fault: bool = False  # expected to fail until the program is mended


@dataclass
class Plan:
    workload: str
    seed: int
    fields: dict  # key -> reference field tuple (kind, params)
    refs: dict = dataclass_field(default_factory=dict)  # key -> (alpha0, FQ) in mpmath
    commands: list = dataclass_field(default_factory=list)
    warmup: list = dataclass_field(default_factory=list)


def _fmt(x) -> str:
    return repr(float(x))


def _field_args(field) -> list:
    kind, params = field
    if kind == "point-charge":
        return ["--field", "point-charge", "--q", _fmt(params[0]), "--h", _fmt(params[1])]
    if kind == "north-pole":
        return ["--field", "north-pole", "--q", _fmt(params[0])]
    if kind == "quadratic":
        a, b, c = params
        return ["--field", "quadratic", "--a", _fmt(a), "--b", _fmt(b), "--c", _fmt(c)]
    raise ValueError(kind)


def _draw_fields(rng: random.Random) -> dict:
    """Closed-form fields with a proper cap support, drawn from the seed.

    pc_in is the Kelvin image of pc: charge q/h at height 1/h gives the
    same field on the sphere as charge q at height h.
    """
    q = round(rng.uniform(0.7, 1.3), 6)
    h = round(rng.uniform(1.5, 2.0), 6)  # below the critical height for q >= 0.7
    a = round(rng.uniform(0.9, 1.1), 6)
    b = round(a * rng.uniform(2.3, 2.7), 6)
    c = round(b * b / (4.0 * a) + rng.uniform(0.2, 0.6), 6)
    return {
        "pc": ("point-charge", (q, h)),
        "pc_in": ("point-charge", (q / h, 1.0 / h)),
        "np": ("north-pole", (round(rng.uniform(0.5, 2.0), 6),)),
        "quad": ("quadratic", (a, b, c)),
    }


def write_table(path: Path, field, samples: int) -> None:
    """Sample an analytic field at equally spaced x3, 17 significant digits."""
    lines = ["x3,Q"]
    for k in range(samples):
        x3 = mp.mpf(2 * k - (samples - 1)) / (samples - 1)
        lines.append(f"{float(x3)!r},{float(reference.field_value(field, x3))!r}")
    path.write_text("\n".join(lines) + "\n")


def build(workload: str, seed: int, work: Path, small: bool = False) -> Plan:
    """The workload's command list for this seed, with its references.

    small halves the density grids and ring counts, for the self-check;
    Nystrom solves keep their sizes, which are cheap and below which the
    oracle's stated mass accuracy no longer holds.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    fields = _draw_fields(rng)
    if workload == "oracles":
        # a second draw of each field: the energy oracle's rim error depends
        # on where the rim falls between rings, and its largest value over
        # six independent fields moves far less with the seed than over three
        fields.update({f"{key}2": fld for key, fld in _draw_fields(rng).items()
                       if key != "pc_in"})
    plan = Plan(workload, seed, fields)

    def size(n: int) -> int:
        return n // 2 if small else n

    def add(cmd: Command) -> None:
        plan.commands.append(cmd)

    def ref_alpha(key: str) -> float:
        return float(plan.refs[key][0])

    if workload in ("pipeline", "oracles"):
        for key, fld in fields.items():
            plan.refs[key] = reference.support(fld)
    args = {key: _field_args(fld) for key, fld in fields.items()}

    if workload == "pipeline":
        for key, n, csv in (("pc", 32, False), ("pc", 64, True), ("pc", 128, False),
                            ("pc_in", 64, False), ("np", 64, False),
                            ("quad", 32, False), ("quad", 128, False)):
            n = size(n)
            argv = ["density", *args[key], "--n", str(n)]
            path = None
            if csv:
                path = str(work / f"density-{key}-{n}.csv")
                argv += ["--csv", path]
            add(Command(f"density/{key}/n{n}", argv, "density", key, csv=path, size=n,
                        twin=f"density/pc/n{n}" if key == "pc_in" else None))
        # every command costs about 2 s whatever its n, so to keep a run
        # short only the point charge is verified at the perturbed rims
        n = size(32)
        for key, rim, shift in (("pc", "true", 0.0), ("pc", "inner", -RIM_SHIFT),
                                ("pc", "outer", RIM_SHIFT), ("quad", "true", 0.0)):
            alpha = ref_alpha(key) + shift
            argv = ["verify", *args[key], "--alpha", _fmt(alpha), "--n", str(n)]
            add(Command(f"verify/{key}/{rim}", argv, "verify", key, alpha_given=True,
                        rim=rim, size=n))
    elif workload == "oracles":
        # sizes are laid out so that the median command is a Nystrom solve
        # at n = 128, whose cost does not depend on the seed
        for key, n, csv in (("pc", 128, True), ("pc", 64, False), ("pc", 256, False),
                            ("pc_in", 128, False), ("np", 128, False),
                            ("quad", 128, False), ("quad", 256, False),
                            ("pc2", 128, False), ("np2", 128, False), ("quad2", 128, False)):
            argv = ["oracle", "--mode", "nystrom", *args[key],
                    "--alpha", _fmt(ref_alpha(key)), "--n", str(n)]
            path = None
            if csv:
                path = str(work / f"nystrom-{key}-{n}.csv")
                argv += ["--csv", path]
            add(Command(f"nystrom/{key}/n{n}", argv, "nystrom", key, accuracy="nystrom",
                        csv=path, alpha_given=True, size=n,
                        twin=f"nystrom/pc/n{n}" if key == "pc_in" else None))
        # every independent field runs once at the coarsest ring count, which
        # sets the largest rim-angle error
        for key, rings in (("pc", 64), ("pc", 128), ("pc", 256), ("pc_in", 128),
                           ("np", 64), ("quad", 64), ("quad", 256),
                           ("pc2", 64), ("np2", 64), ("quad2", 64)):
            rings = size(rings)
            argv = ["oracle", "--mode", "energy", *args[key], "--rings", str(rings)]
            add(Command(f"energy/{key}/r{rings}", argv, "energy", key, accuracy="energy",
                        size=rings, twin=f"energy/pc/r{rings}" if key == "pc_in" else None))
    else:
        tables = {"pc": fields["pc"], "quad": fields["quad"]}
        plan.fields = {f"tab_{key}": fld for key, fld in tables.items()}
        for key, fld in tables.items():
            plan.refs[f"tab_{key}"] = reference.support(fld)
            write_table(work / f"table-{key}.csv", fld, TABLE_SAMPLES)
        square = work / "table-square.csv"
        write_table(square, ("square", (2.0,)), TABLE_SAMPLES)

        def tab(key: str) -> list:
            return ["--field", "tabulated", "--table", str(work / f"table-{key}.csv")]

        # the first density is also the one repeated, so that the median
        # timed command is one of three densities of like cost.  The point
        # charge table goes through support and the oracle, the quadratic
        # table through density, which solves the support itself without --alpha
        for key, n, csv in (("quad", 32, False), ("quad", 64, True)):
            n = size(n)
            argv = ["density", *tab(key), "--n", str(n)]
            path = None
            if csv:
                path = str(work / f"density-tab_{key}-{n}.csv")
                argv += ["--alpha", _fmt(ref_alpha(f"tab_{key}")), "--csv", path]
            add(Command(f"density/tab_{key}/n{n}", argv, "density", f"tab_{key}",
                        accuracy="table", csv=path, alpha_given=csv, size=n))
        add(Command("support/tab_pc", ["support", *tab("pc")], "support", "tab_pc",
                    accuracy="table"))
        n = 64
        add(Command(f"nystrom/tab_pc/n{n}",
                    ["oracle", "--mode", "nystrom", *tab("pc"),
                     "--alpha", _fmt(ref_alpha("tab_pc")), "--n", str(n)],
                    "nystrom", "tab_pc", accuracy="nystrom", alpha_given=True, size=n))
        # Q = 2 x3^2 falls on the southern half: outside the hypotheses, so
        # the CLI should refuse it with exit code 2
        n = size(32)
        add(Command(f"density/square/n{n}",
                    ["density", "--field", "tabulated", "--table", str(square), "--n", str(n)],
                    "density", None, expect_rc=2, size=n, known_fault=True))

    first = plan.commands[0]
    add(Command(f"{first.id}/repeat", list(first.argv), first.kind, first.field,
                accuracy=first.accuracy, csv=first.csv, alpha_given=first.alpha_given,
                rim=first.rim, size=first.size, twin=first.id, byte_twin=True))
    if len({cmd.id for cmd in plan.commands}) != len(plan.commands):
        raise ValueError(f"{workload}: command ids are not unique")
    plan.warmup = ["support", "--field", "point-charge", "--q", "1", "--h", "2"]
    return plan
