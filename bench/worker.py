"""Runs one workload's command list in a single long-lived capfield process.

    python3 bench/worker.py PLAN.json RESULTS.json

PLAN holds the command lines, the run length in seconds and whether to
trace.  The worker calls `capfield.cli.main(argv)` for every command,
captures what it prints and the CSV it writes, and repeats whole rounds
of the list until the next round would overrun the run length (at least
one round).  With tracing on, each command of a round runs untraced and
then traced, back to back, so that the difference of the two times is
the tracing cost rather than the host's drift.  Round one's untraced
outputs are kept in full, every other output as a digest, so the checker
can require byte-identical reruns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))


def run_command(main, argv, csv_path):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except Exception:  # a crash is a failed command, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    csv_text = None
    if csv_path is not None and Path(csv_path).exists():
        csv_text = Path(csv_path).read_text()
    return {"rc": rc, "elapsed": elapsed, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:], "csv": csv_text}


def digest(result) -> str:
    h = hashlib.sha256()
    for part in (str(result["rc"]), result["stdout"], result["csv"] or ""):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    from capfield.cli import main as cli_main

    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    run_command(cli_main, plan["warmup"], None)

    commands = plan["commands"]
    rounds = []
    begin = time.perf_counter()
    while True:
        results, traced_results = [], []
        if tracer is not None:
            tracer.reset()
        for c in commands:
            results.append(run_command(cli_main, c["argv"], c["csv"]))
            if tracer is not None:
                tracer.install()
                try:
                    traced_results.append(run_command(cli_main, c["argv"], c["csv"]))
                finally:
                    tracer.uninstall()
        record = {
            "elapsed": [r["elapsed"] for r in results],
            "digests": [digest(r) for r in results],
        }
        if not rounds:
            record["results"] = results
        if tracer is not None:
            record["traced_elapsed"] = [r["elapsed"] for r in traced_results]
            record["traced_digests"] = [digest(r) for r in traced_results]
            record["layers"] = tracer.snapshot()
        rounds.append(record)
        spent = time.perf_counter() - begin
        if spent + spent / len(rounds) > plan["seconds"]:
            break

    usage = resource.getrusage(resource.RUSAGE_SELF)
    payload = {
        "rounds": rounds,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "absent_layers": tracer.absent if tracer is not None else [],
    }
    Path(sys.argv[2]).write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
