"""classrank benchmark: one workload per run, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload classes --seed 1 --seconds 20 --trace 0

Workloads: classes, large, scenarios, cli (see README.md). The program is
imported from ``src/`` of the checkout this file sits in. With ``--trace
0`` the run times the workload untraced and reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics from a traced
run. Every report produced is checked; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}, and the exit code is
nonzero when any check failed.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# One BLAS thread, set before numpy loads and inherited by every child:
# with the thread count left free, n=3000 surveys move by ~25% with
# whatever else the machine runs.
BLAS_THREADS = 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 7
IMPORT = ["-c", "import classrank"]

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_mib": "MiB",
}


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    import spans

    spec = []
    for name in spans.TRACED + spans.BENCH_SPANS:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower")]
    spec += [
        ("report.rate_survey.incl_ms", "ms", "lower"),
        ("report.bytes", "B", "lower"),
        ("eigenfactor.iterations", "count", "lower"),
        ("eigenfactor.us_per_iteration", "us", "lower"),
        ("eigenfactor.gbytes_per_s_computed", "GB/s", "higher"),
        ("eigenfactor.converged_ratio", "1", "higher"),
        ("scenarios.method_failures", "count", "lower"),
        ("cli.main.rate.self_ms", "ms", "lower"),
        ("cli.main.scenarios.self_ms", "ms", "lower"),
        ("cli.main.dispersion.self_ms", "ms", "lower"),
        ("cli.process_overhead_ms", "ms", "lower"),
        ("import.numpy_ms", "ms", "lower"),
        ("import.classrank_self_ms", "ms", "lower"),
        ("trace.passes", "count", "higher"),
        ("trace.pass_ms", "ms", "lower"),
        ("trace.accounted_ratio", "1", "higher"),
        ("trace.ops_per_s_untraced", "1/s", "higher"),
        ("trace.ops_per_s_traced", "1/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return spec


class Context:
    """Paths, child-process environment and reference modules of one run."""

    def __init__(self, tiny):
        import importlib.util

        import spans

        self.tiny = tiny
        self.root = ROOT
        self.bench_dir = BENCH_DIR
        self.out_dir = BENCH_DIR / "out"
        self.work_dir = self.out_dir / f"work-{os.getpid()}"
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.null_tracer = spans.NullTracer()
        self.child_env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for name in ("oracles", "goldens"):
            spec = importlib.util.spec_from_file_location(
                f"perfbench_ref_{name}", ROOT / "tests" / f"{name}.py"
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            setattr(self, name, module)

    def close(self):
        for path in self.work_dir.iterdir():
            path.unlink()
        self.work_dir.rmdir()


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, ops, problems):
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems += problems[: 20 - len(self.problems)]


def check_pass(workload, api, tally, tamper=None):
    """Run every item once, untimed, and check every report in full.

    This is also the warm-up. Returns the report texts, which later passes
    must reproduce exactly.
    """
    texts, reports = [], []
    for index in workload.items:
        ops = workload.ops_in(index)
        try:
            text = workload.run_item(api, workload.ctx.null_tracer, index)[0]
            report = json.loads(text)
            if tamper:
                tamper(workload.name, report)
            problems = workload.check(index, report)
        except Exception as exc:  # an operation that raises counts as failed
            text, report, problems = None, None, [repr(exc)]
        texts.append(text)
        reports.append(report)
        tally.record(ops, [f"{workload.name} item {index}: {p}" for p in problems])
    try:
        cases, problems = workload.extra_checks(api, reports, texts)
    except Exception as exc:
        cases, problems = 1, [f"reference checks raised {exc!r}"]
    tally.record(cases, problems)
    return texts


def timed_loop(workload, api, tracer, seconds, texts, tally, whole_passes=False,
               reference=None):
    """Run items in order, cyclically, until ``seconds`` have passed (at the
    end of a pass, with ``whole_passes``). Each output must equal the
    checked one.

    With a ``reference``, a reference slice closes every ``window_s`` of
    items and its factor rescales their times (see speed.py). Returns raw and
    rescaled latencies, operations, raw and rescaled busy seconds, passes.
    """
    timing = SimpleNamespace(
        latencies=[], scaled=[], indexes=[], ops=0, busy=0.0, scaled_busy=0.0
    )
    window, window_indexes, window_ops, window_busy = [], [], 0, 0.0
    passes, index = 0, 0
    deadline = perf_counter() + seconds
    window_end = perf_counter() + workload.window_s
    while True:
        count = workload.ops_in(index)
        try:
            text, item_latencies, elapsed = workload.run_item(api, tracer, index)
            window.extend(item_latencies)
            window_indexes += [index] * len(item_latencies)
            window_busy += elapsed
            window_ops += count
            tally.record(count, [] if text == texts[index] else [
                f"{workload.name} item {index}: output differs from the checked one"])
        except Exception as exc:
            tally.record(count, [f"{workload.name} item {index}: {exc!r}"])
        index += 1
        if index == len(workload.items):
            index, passes = 0, passes + 1
        now = perf_counter()
        done = now >= deadline and (index == 0 or not whole_passes)
        if done or now >= window_end:
            factor = reference.slice() if reference else 1.0
            timing.latencies += window
            timing.scaled += [latency * factor for latency in window]
            timing.indexes += window_indexes
            timing.ops += window_ops
            timing.busy += window_busy
            timing.scaled_busy += window_busy * factor
            window, window_indexes, window_ops, window_busy = [], [], 0, 0.0
            window_end = perf_counter() + workload.window_s
        if done:
            timing.passes = max(passes, 1)
            return timing


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(share * len(ordered)) - 1))]


def fresh_python(arguments):
    """Wall seconds and stderr of one fresh interpreter."""
    start = perf_counter()
    process = subprocess.run(
        [sys.executable, *arguments], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=True,
    )
    return perf_counter() - start, process.stderr.decode()


def setup_seconds(repeats):
    """Median rescaled and raw wall time of a fresh ``import classrank``,
    each run followed by a process reference slice."""
    import speed

    reference = speed.Reference("process", dict(os.environ), ROOT)
    fresh_python(IMPORT)  # fills the file cache and writes bytecode
    reference.warm()
    raw, scaled = [], []
    for _ in range(repeats):
        seconds = fresh_python(IMPORT)[0]
        raw.append(seconds)
        scaled.append(seconds * reference.slice())
    return statistics.median(scaled), statistics.median(raw)


def import_times(repeats):
    """Median numpy import and classrank self time from -X importtime."""
    numpy_ms, own_ms = [], []
    fresh_python(["-X", "importtime", *IMPORT])
    for _ in range(repeats):
        numpy, own = 0.0, 0.0
        for line in fresh_python(["-X", "importtime", *IMPORT])[1].splitlines():
            match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| *(\S+)", line)
            if not match:
                continue
            self_us, cumulative_us, package = match.groups()
            if package == "numpy":
                numpy = int(cumulative_us) / 1000
            if package.startswith("classrank"):
                own += int(self_us) / 1000
        numpy_ms.append(numpy)
        own_ms.append(own)
    return statistics.median(numpy_ms), statistics.median(own_ms)


def end_to_end_metrics(workload, api, seconds, texts, tally):
    import speed

    ctx = workload.ctx
    reference = speed.Reference(workload.reference_kind, ctx.child_env, ROOT)
    reference.warm()
    timing = timed_loop(
        workload, api, ctx.null_tracer, seconds, texts, tally,
        whole_passes=workload.pass_is_one_operation, reference=reference,
    )
    setup = setup_seconds(2 if ctx.tiny else SETUP_REPEATS)
    peak_mib = workload.peak_bytes(api) / 2**20
    size = len(workload.items) if workload.pass_is_one_operation else 1

    def summary(latencies, busy, setup_s):
        operations = [sum(latencies[i:i + size]) for i in range(0, len(latencies), size)]
        return {
            "setup_s": setup_s,
            "ops_per_s": len(operations) / busy,
            "op_ms_p50": statistics.median(operations) * 1000,
            "op_ms_p90": percentile(operations, 0.90) * 1000,
            "op_ms_p99": percentile(operations, 0.99) * 1000,
            "peak_mib": peak_mib,
        }

    scaled = summary(timing.scaled, timing.scaled_busy, setup[0])
    samples = {
        "operations": len(timing.latencies) // size,
        "tail_ms": {"p90": scaled["op_ms_p90"], "p99": scaled["op_ms_p99"]},
        "busy_s": timing.busy,
        "reference": workload.reference_kind,
        "reference_s": reference.seconds,
        "speed_factor": timing.scaled_busy / timing.busy,
        "raw_metrics": summary(timing.latencies, timing.busy, setup[1]),
    }
    for index, (command, _) in enumerate(getattr(workload, "commands", ())):
        times = [t for t, i in zip(timing.scaled, timing.indexes) if i == index]
        if times:
            samples.setdefault("per_command_ms", {})[command] = statistics.median(times) * 1000
    return {name: scaled[name] for name in END_TO_END}, samples


def per_layer_metrics(workload, api, seconds, texts, tally, spans_path):
    import spans
    import speed
    from workloads import public_api

    # both halves are rescaled, so the overhead is not a drift between them
    reference = speed.Reference(workload.reference_kind, workload.ctx.child_env, ROOT)
    reference.warm()
    untraced = timed_loop(
        workload, api, workload.ctx.null_tracer, seconds / 2, texts, tally,
        reference=reference,
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = timed_loop(
            workload, public_api(), tracer, seconds / 2, texts, tally,
            whole_passes=True, reference=reference,
        )
    finally:
        tracer.uninstall()
    passes, traced_busy = traced.passes, traced.busy
    tracer.dump(spans_path)
    stats = spans.self_times(tracer.spans)
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}

    def total(name, key="self_s"):
        return stats.get(name, empty)[key]

    values = {}
    for name in spans.TRACED + spans.BENCH_SPANS:
        values[f"{name}.calls"] = total(name, "calls") / passes
        values[f"{name}.self_ms"] = total(name) * 1000 / passes
    solver = [
        span[5] or {}
        for span in tracer.spans
        if span[0] == "eigenfactor.stationary_distribution"
    ]
    iterations = sum(facts.get("iterations", 0) for facts in solver)
    cells = sum(facts.get("iterations", 0) * facts.get("n", 0) ** 2 for facts in solver)
    solver_s = total("eigenfactor.stationary_distribution")
    layer_s = sum(
        entry["self_s"] for name, entry in stats.items()
        if name != "bench.op" and not name.startswith("cli.main.")
    )
    numpy_ms, own_ms = import_times(1 if workload.ctx.tiny else 3)
    values.update(
        {
            "report.rate_survey.incl_ms": total("report.rate_survey", "incl_s") * 1000 / passes,
            "report.bytes": tracer.counters.get("report.bytes", 0) / passes,
            "eigenfactor.iterations": iterations / passes,
            "eigenfactor.us_per_iteration": solver_s * 1e6 / iterations if iterations else 0.0,
            "eigenfactor.gbytes_per_s_computed": cells * 8 / solver_s / 1e9 if solver_s else 0.0,
            "eigenfactor.converged_ratio": (
                sum("error" not in facts for facts in solver) / len(solver) if solver else 0.0
            ),
            "scenarios.method_failures": tracer.counters.get("scenarios.method_failures", 0)
            / passes,
            "cli.main.rate.self_ms": total("cli.main.rate") * 1000 / passes,
            "cli.main.scenarios.self_ms": total("cli.main.scenarios") * 1000 / passes,
            "cli.main.dispersion.self_ms": total("cli.main.dispersion") * 1000 / passes,
            "cli.process_overhead_ms": (
                total("bench.op") * 1000 / passes if workload.name == "cli" else 0.0
            ),
            "import.numpy_ms": numpy_ms,
            "import.classrank_self_ms": own_ms,
            "trace.passes": passes,
            "trace.pass_ms": traced_busy * 1000 / passes,
            "trace.accounted_ratio": layer_s / traced_busy,
            "trace.ops_per_s_untraced": untraced.ops / untraced.scaled_busy,
            "trace.ops_per_s_traced": traced.ops / traced.scaled_busy,
            "trace.overhead_pct": 100.0 * (
                1.0 - (traced.ops / traced.scaled_busy) / (untraced.ops / untraced.scaled_busy)
            ),
        }
    )
    samples = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return values, samples


def git_commit():
    """HEAD of the checkout when it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def blas_threads_in_use():
    """Thread count OpenBLAS reports, asked through the library numpy loaded."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        library = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def environment():
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def run(workload_name, seed, seconds, trace, tiny=False, tamper=None):
    """Run one workload; returns (result line dict, details dict).

    ``tiny`` shrinks every input for the self-test; ``tamper(workload, report)``
    may corrupt a parsed report before it is checked.
    """
    import numpy as np

    from workloads import WORKLOADS, public_api

    ctx = Context(tiny)
    try:
        workload = WORKLOADS[workload_name](np.random.default_rng(seed), ctx)
        api = public_api()
        tally = Tally()
        texts = check_pass(workload, api, tally, tamper)
        tag = f"{workload_name}-seed{seed}" + ("-tiny" if tiny else "")
        if trace:
            values, samples = per_layer_metrics(
                workload, api, seconds, texts, tally, ctx.out_dir / f"spans-{tag}.json"
            )
            units = {name: unit for name, unit, _ in per_layer_spec()}
        else:
            values, samples = end_to_end_metrics(workload, api, seconds, texts, tally)
            units = END_TO_END
    finally:
        ctx.close()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    details = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "failed_ratio": tally.failed / max(tally.attempted, 1),
        "problems": tally.problems,
        "samples": samples,
        "census": workload.census,
        "environment": environment(),
    }
    with open(ctx.out_dir / f"result-{tag}-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
        json.dump({**details, **result}, handle, indent=2)
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("classes", "large", "scenarios", "cli"))
    parser.add_argument(
        "--seed", type=int, default=1,
        help="input seed (default 1; seed 7 is held out to confirm a claimed gain)",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [
        path for path in ("src/classrank/__init__.py", "tests/oracles.py", "tests/goldens.py")
        if not (ROOT / path).is_file()
    ]
    if missing:
        print(f"error: {ROOT} is not a classrank checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import classrank

    if Path(classrank.__file__).resolve().parent != ROOT / "src" / "classrank":
        print(f"error: imported classrank from {classrank.__file__}", file=sys.stderr)
        return 2
    result, details = run(args.workload, args.seed, args.seconds, args.trace)
    for key in ("environment", "census", "samples"):
        print(f"{key}: {json.dumps(details[key])}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"failed_ratio: {details['failed_ratio']} ({result['failed']}/{result['attempted']})")
    for problem in details["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
