"""In-memory spans around calls into classrank's public functions.

A traced function is wrapped once and the wrapper is bound in place of
every attribute of every ``classrank`` module that refers to the original,
so calls made inside the package (``rate_survey`` calling ``normalize``)
are recorded as well as the benchmark's own calls. A listed function that
the checked-out code no longer has is skipped: it records no span.
"""

import contextlib
import functools
import json
import sys
from time import perf_counter

PACKAGE = "classrank"

# "<module>.<function>" as laid out at the commit that defined the benchmark
TRACED = (
    "survey.load_survey_json",
    "survey.validate_survey",
    "survey.normalize",
    "degree.degree_weights",
    "degree.weighted_rating",
    "eigenfactor.build_stochastic",
    "eigenfactor.stationary_distribution",
    "eigenfactor.eigenfactor_weights",
    "report.rate_survey",
    "report.rating_report_dict",
    "report.scenario_report_dict",
    "scenarios.load_scenarios",
    "scenarios.run_scenario",
    "scenarios.error_reduction_summary",
    "dispersion.read_dispersion_csv",
    "dispersion.aggregate",
    "cli.main",
)
# spans the benchmark opens itself: one per operation, and its json.dumps
BENCH_SPANS = ("bench.op", "report.json_dumps")


def _solver_facts(args, kwargs, result):
    values = getattr(result, "values", ())
    return {"n": len(values), "iterations": getattr(result, "iterations", 0)}


def _cli_facts(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv") or sys.argv[1:]
    return {"command": argv[0] if argv else "", "exit": result}


FACTS = {
    "eigenfactor.stationary_distribution": _solver_facts,
    "cli.main": _cli_facts,
}


class Tracer:
    """Collects spans as [name, start, end, parent index, op id, facts]."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op = 0
        self._stack = []
        self._restore = []

    @contextlib.contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record, facts=None):
        record[2] = perf_counter()
        self._stack.pop()
        record[5] = facts

    def _wrap(self, name, function):
        facts = FACTS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                self._close(record, {"error": type(exc).__name__})
                raise
            self._close(record, facts(args, kwargs, result) if facts else None)
            return result

        return traced

    def install(self):
        """Bind a traced wrapper in place of each function in TRACED."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for dotted in TRACED:
            module_name, function_name = dotted.split(".")
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, function_name, None)
            if original is None:
                continue
            traced = self._wrap(dotted, original)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, traced)
                        self._restore.append((module, attribute, original))

    def uninstall(self):
        for module, attribute, original in reversed(self._restore):
            setattr(module, attribute, original)
        self._restore.clear()

    def adopt(self, spans):
        """Append spans recorded in a child process under the open span."""
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, child_parent, _, facts in spans:
            self.spans.append(
                [name, start, end, parent if child_parent < 0 else child_parent + offset,
                 self.op, facts]
            )

    def dump(self, path):
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [
            [index[name], round(start * 1e6, 1), round(end * 1e6, 1), parent, op, facts]
            for name, start, end, parent, op, facts in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"names": names, "columns": ["name", "start_us", "end_us", "parent",
                                             "op", "facts"], "spans": rows},
                handle,
            )


class NullTracer:
    """Stands in for Tracer when tracing is off; records nothing."""

    op = 0
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def add(self, name, value):
        pass


def self_times(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread never overlap, so that is the part of
    the interval no child covers.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for (name, start, end, _, _, facts), covered in zip(spans, child):
        keys = [name]
        if name == "cli.main" and facts and facts.get("command"):
            keys.append(f"cli.main.{facts['command']}")
        for key in keys:
            entry = stats.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += end - start - covered
    return stats
