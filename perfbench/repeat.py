"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root):

    python3 perfbench/repeat.py --workloads classes,large --seeds 1-10 \
        --seconds 10 [--trace 0] [--output perfbench/baseline.json]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json. A
change's runs are compared with the parent's by these medians.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="classes,large,scenarios,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}
    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    failed = False
    for workload in args.workloads.split(","):
        runs, durations = [], []
        for seed in seed_list(args.seeds):
            command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
            start = perf_counter()
            process = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            durations.append(perf_counter() - start)
            result = json.loads(process.stdout.strip().splitlines()[-1])
            failed |= process.returncode != 0 or not result["correct"]
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
        metrics = {name: summarize([run[name] for run in runs]) for name in runs[0]}
        summary["workloads"][workload] = {
            "metrics": metrics,
            "run_s": summarize(durations),
        }
        print(f"{workload}: {len(runs)} runs, median run {statistics.median(durations):.1f} s")
        for name, entry in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None or entry["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:34s} median {entry['median']:12.6g}  q1 {entry['q1']:12.6g}"
                  f"  q3 {entry['q3']:12.6g}  spread {entry['spread']:7.4f}"
                  f"  bound {bound}{flag}")
    if args.output:
        Path(args.output).write_text(json.dumps(summary, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
