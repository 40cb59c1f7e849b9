"""capfield benchmark: one workload, one run, every metric by name and unit.

    python3 bench/run.py --workload pipeline|oracles|tabulated \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; capfield is imported from src/.
The seed draws the workload's field parameters; the command list and its
sizes are fixed.  References are computed first, with mpmath, and are not
timed.  With --trace 0 the run reports the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  The last line printed
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import METRICS as LAYER_METRICS  # noqa: E402

# fresh processes timed for setup_s.  They run after the worker, so each
# finds the same warm file cache and compiled bytecode
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150

def process_env() -> dict:
    """One BLAS/OpenMP thread and serial node loops, for steady timings."""
    env = dict(os.environ)
    env.pop("CAPFIELD_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(warmup: list) -> float:
    """Median wall time of a fresh process that imports capfield and runs one command."""
    code = ("import sys, capfield.cli; "
            f"sys.exit(capfield.cli.main({warmup!r}))")
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=process_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60, cwd=ROOT)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up command failed: {done.stderr.decode()[-500:]}")
        times.append(elapsed)
    return statistics.median(times)


def run_worker(plan, work: Path, seconds: float, trace: bool) -> dict:
    spec = {
        "seconds": seconds,
        "trace": trace,
        "warmup": plan.warmup,
        "commands": [{"argv": c.argv, "csv": c.csv} for c in plan.commands],
    }
    plan_path, results_path = work / "plan.json", work / "results.json"
    plan_path.write_text(json.dumps(spec))
    done = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(plan_path),
                           str(results_path)], env=process_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed: {done.stderr.decode()[-2000:]}")
    return json.loads(results_path.read_text())


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed(plan, elapsed: list) -> list:
    """The command times that count towards the timing metrics.

    A known fault is run and checked but not timed, so that mending it,
    which makes the command stop early, does not read as a speed-up.
    """
    return [t for cmd, t in zip(plan.commands, elapsed) if not cmd.known_fault]


def end_to_end(plan, results, verdict, setup_s: float) -> dict:
    batches = [sum(timed(plan, r["elapsed"])) for r in results["rounds"]]
    worst = verdict["worst"]
    return {
        "setup_s": metric(setup_s, "s"),
        "batch_s": metric(statistics.median(batches), "s"),
        "peak_rss_mb": metric(results["peak_rss_mb"], "MB"),
        "density_relerr.digits": metric(checks.digits(worst["density_relerr"]), "digits"),
        "mass_err.digits": metric(checks.digits(worst["mass_err"]), "digits"),
        "robin_relerr.digits": metric(checks.digits(worst["robin_relerr"]), "digits"),
        "alpha0_err.digits": metric(checks.digits(worst["alpha0_err"]), "digits"),
    }


def per_layer(plan, results) -> dict:
    rounds = results["rounds"]
    # the median command time, from the untraced runs.  It is reported here,
    # without a bound, because a single short command follows the host's
    # speed drift more closely than any bound allowed for an end-to-end metric
    out = {"cmd_s.p50": metric(
        statistics.median(t for r in rounds for t in timed(plan, r["elapsed"])), "s")}
    for name, figure, layer in LAYER_METRICS:
        values = [r["layers"][figure].get(layer, 0) for r in rounds]
        unit = "s" if figure == "self_s" else "count"
        out[name] = metric(statistics.median(values), unit)
    # each command's traced run follows its untraced run at once
    overhead = statistics.median(
        sum(timed(plan, r["traced_elapsed"])) - sum(timed(plan, r["elapsed"]))
        for r in rounds)
    out["trace.overhead_s"] = metric(overhead, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "capfield" / "cli.py").is_file():
        print(f"no capfield sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        plan = workloads.build(args.workload, args.seed, work)
        results = run_worker(plan, work, args.seconds, bool(args.trace))
        setup_s = None if args.trace else measure_setup(plan.warmup)
        verdict = checks.evaluate(plan, results["rounds"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for command_id, problems in verdict["problems"].items():
        for problem in problems:
            print(f"FAILED {command_id}: {problem}", file=sys.stderr)
    if results["absent_layers"]:
        print("absent layers (reported as 0): " + ", ".join(results["absent_layers"]),
              file=sys.stderr)
    metrics = (per_layer(plan, results) if args.trace
               else end_to_end(plan, results, verdict, setup_s))
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
