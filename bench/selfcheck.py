"""Quick self-check of the benchmark's references and checks.

    python3 bench/selfcheck.py

1. The mpmath references are consistent: each reference density has unit
   mass, and its inverse-square-root rim term vanishes at the reference
   support angle and not 0.01 away from it.
2. Every workload's command list runs once at small sizes, and only the
   known fault fails.
3. Corrupting one density node, one mass, one rim angle, a Kelvin image's
   Robin constant or a byte of a repeated invocation makes the corrupted
   command fail, so no check is vacuous.

Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys
from pathlib import Path

import mpmath as mp

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from run import ROOT, run_worker  # noqa: E402

# the seed of the field parameters the self-check runs on
SEED = 0


def _with_summary(result, edit):
    headline, _, payload = result["stdout"].partition("\n")
    summary = json.loads(payload)
    edit(summary)
    result["stdout"] = headline + "\n" + json.dumps(summary, sort_keys=True, indent=2) + "\n"


def _scale_first_density(result, factor):
    lines = result["csv"].splitlines()
    head, row = lines[0].split(","), lines[1].split(",")
    col = head.index("f")
    row[col] = repr(float(row[col]) * factor)
    lines[1] = ",".join(row)
    result["csv"] = "\n".join(lines) + "\n"


def corruptions(plan):
    """(label, command index, edit) triples for the outputs this plan has."""
    out = []
    for i, cmd in enumerate(plan.commands):
        if cmd.expect_rc != 0 or cmd.byte_twin:
            continue
        tol = checks.TOLERANCES[cmd.accuracy]
        if cmd.csv is not None:
            out.append(("density node", i, lambda r, t=tol: _scale_first_density(
                r, 1.0 + 10.0 * t["density"])))
        if cmd.kind in ("density", "nystrom") or (cmd.kind == "verify" and cmd.rim == "true"):
            out.append(("mass", i, lambda r, t=tol: _with_summary(
                r, lambda s: s.update(mass=s["mass"] + 10.0 * t["mass"]))))
        if cmd.kind in ("support", "density") and not cmd.alpha_given:
            out.append(("rim angle", i, lambda r, t=tol: _with_summary(
                r, lambda s: s.update(alpha0=s["alpha0"] + 10.0 * t["alpha"]))))
        if cmd.kind == "energy":
            shift = 3 * math.pi / cmd.size
            out.append(("first active ring", i, lambda r, d=shift: _with_summary(
                r, lambda s: s.update(first_active_angle=s["first_active_angle"] + d))))
        if cmd.twin is not None:
            out.append(("Kelvin image", i, lambda r: _with_summary(
                r, lambda s: s.update(FQ=s["FQ"] * (1.0 + 1e-6)))))
    for i, cmd in enumerate(plan.commands):
        if cmd.byte_twin:
            out.append(("repeated invocation", i, lambda r: r.update(stdout=r["stdout"] + " ")))
    # keep one corruption of each label per workload
    seen, kept = set(), []
    for label, i, edit in out:
        if label not in seen:
            seen.add(label)
            kept.append((label, i, edit))
    return kept


def check_references(plan) -> list:
    problems = []
    for key, (alpha0, fq) in plan.refs.items():
        field = plan.fields[key]
        mass_err = abs(reference.mass(field, alpha0, fq) - 1)
        rim = abs(reference.rim_coefficient(field, alpha0, fq))
        off = min(abs(reference.rim_coefficient(field, alpha0 + d,
                                                reference.cap_functional(field, alpha0 + d)))
                  for d in (mp.mpf("-0.01"), mp.mpf("0.01")))
        ok = mass_err < 1e-20 and rim < 1e-20 and off > 1e-6
        print(f"  reference {key:8s} alpha0={mp.nstr(alpha0, 17)} mass-1={mp.nstr(mass_err, 2)} "
              f"rim term {mp.nstr(rim, 2)} (0.01 off: {mp.nstr(off, 2)}) "
              f"{'ok' if ok else 'INCONSISTENT'}")
        if not ok:
            problems.append(f"reference {key} is inconsistent")
    return problems


def main() -> int:
    problems = []
    for name in workloads.WORKLOADS:
        print(f"{name}:")
        work = ROOT / ".bench_work" / f"selfcheck-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            plan = workloads.build(name, SEED, work, small=True)
            problems += check_references(plan)
            rounds = run_worker(plan, work, 0.0, False)["rounds"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        verdict = checks.evaluate(plan, rounds)
        for command_id, found in verdict["problems"].items():
            print(f"  {command_id} failed: {'; '.join(found)}")
        if not verdict["correct"]:
            problems.append(f"{name}: a command other than the known fault failed")
        for label, i, edit in corruptions(plan):
            corrupted = copy.deepcopy(rounds)
            edit(corrupted[0]["results"][i])
            cmd_id = plan.commands[i].id
            caught = cmd_id in checks.evaluate(plan, corrupted)["problems"]
            print(f"  corrupted {label} of {cmd_id}: {'caught' if caught else 'MISSED'}")
            if not caught:
                problems.append(f"{name}: corrupted {label} of {cmd_id} went unnoticed")
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)
    print("self-check passed" if not problems else "self-check failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
