"""Run workloads over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads exact_ladder,...]
                               [--trace 0|1] [--out FILE]

Run from the repository root.  Each run is one `perfbench/run.py` process
with the run length from BENCHMARK.json; the workloads default to the ones
BENCHMARK.json lists.  For every workload and metric the
sweep prints the median, the quartiles and the spread, (q3 - q1) / median,
with quartiles as `statistics.quantiles(values, n=4)` gives them, and with
--out writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text())
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_frac": record["fail_frac"],
        "raw_error_frac": record["raw_error_frac"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
        "environment": record["environment"],
        "taxonomy": record["taxonomy"],
    }


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = config["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    doc = {
        "run_seconds": seconds,
        "seeds": args.seeds,
        "trace": args.trace,
        "environment": None,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, args.trace))
            env = runs[-1].pop("environment")
            if doc["environment"] is None:
                doc["environment"] = {k: v for k, v in env.items() if k not in ("workload", "seed")}
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {
            name: {
                "unit": runs[0]["units"][name],
                **summarise([r["metrics"][name] for r in runs]),
            }
            for name in names
        }
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "fail_frac": summarise([r["fail_frac"] for r in runs]),
            "raw_error_frac": summarise([r["raw_error_frac"] for r in runs]),
            "summary": summary,
            "runs": runs,
        }
        print(
            f"== {workload}: correct on every seed: {doc['workloads'][workload]['correct']}; "
            f"unexpected failures: {sum(r['failed'] for r in runs)}"
        )
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  (spread above bound/3)"
            print(
                f"  {name:36s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}"
            )
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
