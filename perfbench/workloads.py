"""The four benchmark workloads.

Every workload is a closed loop from one caller: an item starts only after
the previous one has finished. A workload generates its inputs from the
seeded Generator it is given and exposes:

- ``items``: the input set; one pass runs every item once, in order;
- ``run_item(api, tracer, index)``: runs one item and returns its report
  text, the latency of each operation in it, and its wall time;
- ``check(index, report)``: problems with one parsed report;
- ``extra_checks(api, reports, texts)``: (cases, problems) of checks against
  independent references;
- ``peak_bytes(api)``: peak traced allocation of the workload's largest
  operation;
- ``census``: the input properties the workload was generated with.

The program is driven only through its public entry points, looked up by
``public_api`` at call time so that tracing can rebind them.
"""

import contextlib
import io
import json
import subprocess
import sys
import tracemalloc
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import checks
import gen

RATE_CONFIG = {"command": "rate"}
SCENARIO_CONFIG = {"command": "scenarios"}
DEFAULT_ALPHA = 0.85  # the documented default of every entry point
MIN_N = 5


def public_api():
    import classrank
    import classrank.cli
    import classrank.data
    import classrank.report

    return SimpleNamespace(
        load_survey_json=classrank.load_survey_json,
        validate_survey=classrank.validate_survey,
        rate_survey=classrank.rate_survey,
        rating_report_dict=classrank.report.rating_report_dict,
        load_scenarios=classrank.load_scenarios,
        run_scenario=classrank.run_scenario,
        error_reduction_summary=classrank.error_reduction_summary,
        scenario_report_dict=classrank.report.scenario_report_dict,
        main=classrank.cli.main,
        fixture_path=classrank.data.scenario_fixture_path,
    )


def peak_of(call):
    """Peak bytes traced while ``call`` runs, above what was live before."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _failure_count(report):
    return sum(
        row[method]["failure"] is not None
        for row in report["results"]
        for method in checks.METHODS
    )


class Workload:
    """In-process workload: one item is one operation unless it says otherwise."""

    def __init__(self, ctx):
        self.ctx = ctx

    def prepare(self, index):
        """Untimed per-item set-up; returns what ``operate`` consumes."""
        return index

    def run_item(self, api, tracer, index):
        item = self.prepare(index)
        tracer.op += 1
        start = perf_counter()
        with tracer.span("bench.op"):
            text, latencies = self.operate(api, tracer, item)
        elapsed = perf_counter() - start
        tracer.add("report.bytes", len(text))
        return text, latencies or (elapsed,), elapsed

    def ops_in(self, index):
        return 1

    pass_is_one_operation = False
    window_s = 0.1  # timed work between two reference slices (see speed.py)

    def peak_bytes(self, api):
        item = self.prepare(self.largest)
        return peak_of(lambda: self.operate(api, self.ctx.null_tracer, item))


class Classes(Workload):
    """A stream of survey documents of realistic class sizes."""

    name = "classes"
    reference_kind = "small"  # see speed.py

    def __init__(self, rng, ctx):
        super().__init__(ctx)
        self.documents, self.facts = gen.class_documents(rng, 60 if ctx.tiny else 2000)
        self.items = range(len(self.documents))
        self.largest = int(np.argmax([len(f["ratings"]) for f in self.facts]))
        self.sample = rng.choice(len(self.items), min(20, len(self.items)), replace=False)
        self.census = gen.census(self.facts)

    def operate(self, api, tracer, index):
        survey = api.load_survey_json(self.documents[index])
        report = api.rating_report_dict(api.rate_survey(survey), RATE_CONFIG)
        with tracer.span("report.json_dumps"):
            text = json.dumps(report, indent=2)
        return text, None

    def check(self, index, report):
        return checks.rating_report(report, self.facts[index])

    def extra_checks(self, api, reports, texts):
        problems = []
        for index in self.sample:
            report = reports[index]
            problems += checks.against_oracle(
                report["eigenfactor"]["influence"],
                report["eigenfactor"]["weights"],
                report["degree"]["weights"],
                self.facts[index]["matrix"],
                report["eigenfactor"]["alpha"],
                self.ctx.oracles.stationary_oracle,
            )
        return len(self.sample), problems


class Large(Workload):
    """A few single large surveys handed over as numpy arrays."""

    name = "large"
    reference_kind = "dense"  # see speed.py

    def __init__(self, rng, ctx):
        super().__init__(ctx)
        n = 200 if ctx.tiny else 3000
        self.surveys, self.facts = [], []
        for _ in range(3):
            ratings = gen.likert(rng, n).astype(float)
            matrix = gen.competence(rng, n).astype(np.int8)  # widened per item
            self.surveys.append((ratings, matrix))
            self.facts.append({"ratings": ratings, "matrix": matrix, "self_endorsed": False})
        self.items = range(len(self.surveys))
        self.largest = 0
        self.census = gen.census(self.facts)

    def prepare(self, index):
        ratings, matrix = self.surveys[index]
        return index, ratings, matrix.astype(np.int64)

    def operate(self, api, tracer, item):
        index, ratings, matrix = item
        survey = api.validate_survey(ratings, matrix, label=f"large-{index}")
        report = api.rating_report_dict(api.rate_survey(survey), RATE_CONFIG)
        with tracer.span("report.json_dumps"):
            text = json.dumps(report, indent=2)
        return text, None

    def check(self, index, report):
        return checks.rating_report(report, self.facts[index])

    def extra_checks(self, api, reports, texts):
        report = reports[0]
        return 1, checks.against_oracle(
            report["eigenfactor"]["influence"],
            report["eigenfactor"]["weights"],
            report["degree"]["weights"],
            self.facts[0]["matrix"].astype(np.int64),
            report["eigenfactor"]["alpha"],
            self.ctx.oracles.stationary_oracle,
        )


class Scenarios(Workload):
    """One generated scenario bundle, run whole: load, every scenario,
    summary, report, text. Each scenario is one operation."""

    name = "scenarios"
    reference_kind = "small"  # see speed.py

    def __init__(self, rng, ctx):
        super().__init__(ctx)
        count = 20 if ctx.tiny else 200
        self.bundle, self.facts = gen.scenario_bundle(rng, count)
        self.items = range(1)
        self.largest = 0
        empty = len(self.facts["empty_ids"])
        self.sample = [
            int(sid)
            for sid in rng.permutation(sorted(self.facts["matrices"]))
            if sid not in self.facts["empty_ids"]
        ][:10]
        surveys = [
            {"ratings": self.facts["ratings"], "matrix": matrix, "self_endorsed": False}
            for matrix in self.facts["matrices"].values()
        ]
        self.census = {**gen.census(surveys), "empty_network_share": empty / count}

    def ops_in(self, index):
        return len(self.bundle["scenarios"])

    def operate(self, api, tracer, index):
        results, latencies = [], []
        for scenario in api.load_scenarios(self.bundle):
            tracer.op += 1
            start = perf_counter()
            results.append(api.run_scenario(scenario))
            latencies.append(perf_counter() - start)
        summary = api.error_reduction_summary(results)
        report = api.scenario_report_dict(results, summary, SCENARIO_CONFIG)
        tracer.add("scenarios.method_failures", _failure_count(report))
        with tracer.span("report.json_dumps"):
            text = json.dumps(report, indent=2)
        return text, latencies

    def check(self, index, report):
        return checks.scenario_report(report, self.facts)

    def extra_checks(self, api, reports, texts):
        rows = {row["id"]: row for row in reports[0]["results"]}
        problems = []
        for sid in self.sample:
            row = rows[sid]
            problems += [
                f"scenario {sid}: {p}"
                for p in checks.against_oracle(
                    row["eigenfactor"]["influence"],
                    row["eigenfactor"]["weights"],
                    row["degree"]["weights"],
                    self.facts["matrices"][sid],
                    DEFAULT_ALPHA,
                    self.ctx.oracles.stationary_oracle,
                )
            ]
        results = [api.run_scenario(s) for s in api.load_scenarios(api.fixture_path())]
        summary = api.error_reduction_summary(results)
        fixture = json.loads(
            json.dumps(api.scenario_report_dict(results, summary, SCENARIO_CONFIG))
        )
        problems += checks.golden_fixture(fixture, self.ctx.goldens)
        return len(self.sample) + 1, problems


class Cli(Workload):
    """Fresh ``python -m classrank.cli`` processes in a fixed rotation of
    rate, scenarios and dispersion, each writing its report with --output.
    One rotation, as a script would run it, is one operation."""

    name = "cli"
    pass_is_one_operation = True
    window_s = 0.5  # one rotation: a reference process costs as much as a command
    reference_kind = "process"  # see speed.py

    def __init__(self, rng, ctx):
        super().__init__(ctx)
        tiny = ctx.tiny
        work = ctx.work_dir
        n = 12 if tiny else 60
        documents, facts = gen.class_documents(rng, 1, low=n, high=n)
        self.survey_fact = facts[0]
        survey_path = work / "survey.json"
        survey_path.write_text(json.dumps(documents[0]), encoding="utf-8")
        self.bundle, self.bundle_facts = gen.scenario_bundle(rng, 4 if tiny else 12)
        bundle_path = work / "bundle.json"
        bundle_path.write_text(json.dumps(self.bundle), encoding="utf-8")
        self.by_label = gen.dispersion_ratings(rng, 60 if tiny else 3000)
        csv_path = work / "ratings.csv"
        csv_path.write_text(gen.dispersion_csv_text(self.by_label), encoding="utf-8")
        self.commands = [
            ("rate", ["--survey", str(survey_path)]),
            ("scenarios", ["--scenario-file", str(bundle_path)]),
            ("dispersion", ["--ratings-csv", str(csv_path), "--min-n", str(MIN_N)]),
        ]
        self.items = range(len(self.commands))
        self.output = work / "report.json"
        self.census = {
            "rate": gen.census(facts),
            "scenarios": {
                "scenarios": len(self.bundle["scenarios"]),
                "empty_network_share": len(self.bundle_facts["empty_ids"])
                / len(self.bundle["scenarios"]),
            },
            "dispersion": {
                "instructors": len(self.by_label),
                "ratings": sum(len(v) for v in self.by_label.values()),
                "csv_bytes": csv_path.stat().st_size,
                "excluded_below_min_n": sum(len(v) < MIN_N for v in self.by_label.values()),
            },
        }

    def _argv(self, index, output):
        command, arguments = self.commands[index]
        return [command, *arguments, "--output", str(output)]

    def run_item(self, api, tracer, index):
        traced = hasattr(tracer, "adopt")
        spans_path = self.ctx.work_dir / "child-spans.json"
        launcher = (
            [str(self.ctx.bench_dir / "trace_child.py"), str(spans_path)]
            if traced
            else ["-m", "classrank.cli"]
        )
        tracer.op += 1
        start = perf_counter()
        with tracer.span("bench.op"):
            process = subprocess.run(
                [sys.executable, *launcher, *self._argv(index, self.output)],
                env=self.ctx.child_env,
                cwd=self.ctx.root,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
            if traced:
                tracer.adopt(json.loads(spans_path.read_text(encoding="utf-8")))
        elapsed = perf_counter() - start
        if process.returncode != 0:
            raise RuntimeError(
                f"{self.commands[index][0]} exited {process.returncode}: "
                + process.stderr.decode(errors="replace")[-300:]
            )
        text = self.output.read_text(encoding="utf-8")
        self.output.unlink()
        tracer.add("report.bytes", len(text))
        if traced and self.commands[index][0] == "scenarios":
            tracer.add("scenarios.method_failures", _failure_count(json.loads(text)))
        return text, (elapsed,), elapsed

    def _in_process(self, api, index, output):
        with contextlib.redirect_stderr(io.StringIO()):
            return api.main(self._argv(index, output))

    def check(self, index, report):
        command = self.commands[index][0]
        if command == "rate":
            return checks.rating_report(report, self.survey_fact)
        if command == "scenarios":
            return checks.scenario_report(report, self.bundle_facts)
        return checks.dispersion_report(report, self.by_label, MIN_N)

    def extra_checks(self, api, reports, texts):
        """The same commands run in-process must write the same bytes."""
        problems = []
        reference = self.ctx.work_dir / "in-process.json"
        for index, (command, _) in enumerate(self.commands):
            code = self._in_process(api, index, reference)
            if code != 0 or reference.read_text(encoding="utf-8") != texts[index]:
                problems.append(f"{command}: in-process report differs from the process's")
            reference.unlink(missing_ok=True)
        rate = reports[0]
        problems += checks.against_oracle(
            rate["eigenfactor"]["influence"],
            rate["eigenfactor"]["weights"],
            rate["degree"]["weights"],
            self.survey_fact["matrix"],
            rate["eigenfactor"]["alpha"],
            self.ctx.oracles.stationary_oracle,
        )
        return len(self.commands) + 1, problems

    def peak_bytes(self, api):
        reference = self.ctx.work_dir / "in-process.json"
        peak = max(
            peak_of(lambda index=index: self._in_process(api, index, reference))
            for index in self.items
        )
        reference.unlink(missing_ok=True)
        return peak


WORKLOADS = {cls.name: cls for cls in (Classes, Large, Scenarios, Cli)}
