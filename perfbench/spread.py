"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workloads fewshot listen --seeds 1-10 --seconds 30
    python3 perfbench/spread.py --workloads all --seeds 1-10 --seconds 30 --trace-seed 1 \
        --out perfbench/baseline.json

Each run is a separate process, started one after another. For every
end-to-end metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median. The workload's
own named metrics (``episodes_per_s.donut``, ``enroll_ms.p75``, ``rtf``,
...) are printed and summarized the same way, so one seed
(``--seeds 1``) prints every metric of every workload once. With ``--trace-seed``, one
traced run per workload adds the per-layer metrics. ``--out`` writes the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fewshot", "enroll_score", "listen")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return result, detail


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["all"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workloads == ["all"] else args.workloads
    summary = {}
    for name in names:
        runs = [run_once(name, seed, args.seconds, 0) for seed in parse_seeds(args.seeds)]
        entry = {
            "runs": len(runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "attempted": sum(r["attempted"] for r, _ in runs),
            "correct": all(r["correct"] for r, _ in runs),
            "environment": runs[0][1]["environment"],
        }
        for section, pick in (("end_to_end", lambda r, d: r["metrics"]),
                              ("detail", lambda r, d: d["detail"])):
            entry[section] = {
                metric: {"unit": first["unit"],
                         **summarize([pick(r, d)[metric]["value"] for r, d in runs])}
                for metric, first in pick(*runs[0]).items()
            }
        if args.trace_seed is not None:
            result, _ = run_once(name, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "correct": result["correct"],
                                  "metrics": result["metrics"]}
        summary[name] = entry
        for section in ("end_to_end", "detail"):
            for metric, s in entry[section].items():
                if section == "detail" and metric in entry["end_to_end"]:
                    continue
                spread = "" if s["spread"] is None else f"spread {s['spread']:.4f}"
                print(f"{name:13s} {section:10s} {metric:32s} median {s['median']:12.4f} "
                      f"{s['unit']:10s} {spread}", flush=True)
        print(f"{name:13s} failed {entry['failed']} of {entry['attempted']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
