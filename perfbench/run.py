"""Benchmark entry point.

    python3 perfbench/run.py --workload fewshot --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. With ``--trace 0`` whole passes over the workload's
inputs are timed, as many as fit in ``--seconds`` at the workload's nominal
pass time and at least one, and the last line of output is the end-to-end
result. With
``--trace 1`` one pass runs untraced and one traced, and the last line
holds the per-layer metrics and the tracing overhead (traced minus
untraced). The line before it gives the workload's own named metrics,
sample counts and the environment; spans of a traced run are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Cap BLAS threads before numpy loads: each workload is a single caller.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5


def _load_package():
    if not (SRC / "wakespot" / "__init__.py").is_file():
        sys.exit(f"perfbench: no wakespot sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def environment(seed: int) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    digest = hashlib.sha256()
    for path in sorted((SRC / "wakespot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
    }


def _as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def workload_passes(workload, seconds: float) -> int:
    """Passes in an untraced run: as many nominal passes as fit in
    ``seconds``, and at least one. The count depends on ``seconds`` alone,
    not on how fast the passes run, so the attempted and failed counts of a
    run repeat exactly for a seed."""
    return max(1, int(seconds // workload.pass_seconds))


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail line)."""
    import workloads as w
    from clock import Clock
    from tracing import Tracer, _perf as perf

    setup_clock = Clock(interval=0.0)
    setups, state = [], None
    for _ in range(SETUP_REPEATS):
        state = None  # repeated set-ups do not hold two sets of inputs at once
        start = perf()
        state = workload.setup(seed)
        setups.append(setup_clock.record(start))
    setup_clock.close()

    log, clock = workload.new_log(), Clock()
    workload.run_pass(state, log, w.NoTracer(), clock)
    # Later passes repeat the same work and only add timing records.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(1, 1 if trace else workload_passes(workload, seconds)):
        workload.run_pass(state, log, w.NoTracer(), clock)
    clock.close()
    untraced, named = workload.end_to_end(state, log, clock)
    common = {
        "setup_s": (statistics.median(setup_clock.seconds(setups)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {**common, **named, "machine_speed": (clock.speed, "ratio")}
    if trace:
        with Tracer() as setup_tracer:
            w.instrument(setup_tracer)
            state = workload.setup(seed)
        log, clock = workload.new_log(), Clock()
        with Tracer() as tracer:
            w.instrument(tracer)
            workload.run_pass(state, log, tracer, clock)
        clock.close()
        traced, _ = workload.end_to_end(state, log, clock)
        checked = workload.check(state, log)
        metrics = w.layer_metrics(workload, state, log, tracer, setup_tracer)
        metrics["wakeword.events_not_bit_equal"] = checked.notes.get(
            "wakeword.events_not_bit_equal", (0, "count")
        )
        for name, (value, unit) in untraced.items():
            metrics[f"trace.overhead.{name}"] = (traced[name][0] - value, unit)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    else:
        checked = workload.check(state, log)
        metrics = {**common, **untraced}
    detail.update(checked.notes)
    result = {
        "correct": checked.correct,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": _as_json(metrics),
    }
    return result, {"workload": workload.name, "trace": int(trace), "detail": _as_json(detail)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # A fixed hash seed removes one source of run-to-run variation in
        # dict and set layout; exec replaces this process, starting none.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    _load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    result, detail = measure(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    detail["environment"] = environment(args.seed)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
