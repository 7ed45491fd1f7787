"""Command line front end.

Three subcommands: ``rate`` scores one survey with both weighting methods,
``dispersion`` aggregates mode-deviation counts from a ratings CSV, and
``scenarios`` runs a biased-rating scenario bundle. JSON reports go to
stdout (or --output); short human summaries go to stderr. Numeric flags
take plain ASCII numbers, as CSV cells do: ``1_000`` or ``٥`` exits 2.

Exit codes: 0 success, 2 invalid input, 3 degenerate network,
4 no convergence. ``EXIT_CODES`` maps each error class with a code of its
own to that code, which its subclasses share; any other input or file
error exits 2.

Each command imports its modules when it runs, so parsing the command
line loads none of them: ``dispersion`` loads no numpy, ``rate`` and
``scenarios`` do not load the dispersion module, and ``scenarios`` looks
up the bundled fixture only when no ``--scenario-file`` is given.
"""

import argparse
import contextlib
import json
import sys

from .common import (
    DEFAULT_ALPHA,
    DEFAULT_DIAGONAL_POLICY,
    DEFAULT_MAX_ITER,
    DEFAULT_MIN_N,
    DEFAULT_SCALE,
    DEFAULT_TIEBREAK,
    DEFAULT_TOL,
    DIAGONAL_POLICIES,
    TIEBREAKS,
    integer,
    number,
)
from .errors import ClassrankError, DegenerateNetwork, NoConvergence

EXIT_CODES = {DegenerateNetwork: 3, NoConvergence: 4}


# the settings every report's config holds after its command, in report
# order, with their defaults: each subcommand sets them all, the one home of
# each flag's default and of the settings it has no flag for
REPORTED_SETTINGS = {
    "alpha": DEFAULT_ALPHA,
    "tol": DEFAULT_TOL,
    "max_iter": DEFAULT_MAX_ITER,
    "diagonal_policy": DEFAULT_DIAGONAL_POLICY,
    "min_n": DEFAULT_MIN_N,
    "mode_tiebreak": DEFAULT_TIEBREAK,
    "strict_likert": False,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classrank",
        description="Bias-robust weighted course ratings from peer "
        "competence-perception networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags rate and scenarios share, declared once
    walk = argparse.ArgumentParser(add_help=False)
    walk.add_argument(
        "--alpha",
        type=number,
        help="walk-following probability, teleportation is 1-alpha "
        "(default %(default)s)",
    )
    walk.add_argument(
        "--tol",
        type=number,
        help="stop once the L1 change between power-iteration steps is at "
        "most TOL (default %(default)s); the influence vector is then within "
        "alpha/(1-alpha)*TOL of exact in L1",
    )
    walk.add_argument(
        "--max-iter",
        type=integer,
        help="power iteration cap (default %(default)s)",
    )
    walk.add_argument(
        "--diagonal-policy",
        choices=DIAGONAL_POLICIES,
        help="what to do with self-endorsements (default %(default)s)",
    )
    walk.add_argument("--output", help="write the JSON report here instead of stdout")

    rate = sub.add_parser(
        "rate", parents=[walk], help="score one survey with both methods"
    )
    rate.add_argument("--survey", help="survey JSON document")
    rate.add_argument(
        "--competence-csv", help="competence matrix CSV (with --ratings-csv)"
    )
    rate.add_argument(
        "--ratings-csv", help="single-column ratings CSV (with --competence-csv)"
    )
    rate.add_argument(
        "--scale",
        nargs=2,
        type=number,
        default=None,
        metavar=("MIN", "MAX"),
        help="rating scale for CSV input (default 1 5); a survey document "
        "carries its own, so --survey excludes it",
    )
    rate.add_argument(
        "--strict-likert",
        action="store_true",
        help="reject non-integer ratings",
    )
    rate.set_defaults(handler=_cmd_rate, **REPORTED_SETTINGS)

    dispersion = sub.add_parser(
        "dispersion", help="aggregate mode-deviation counts from a CSV"
    )
    dispersion.add_argument(
        "--ratings-csv",
        required=True,
        help="label,rating or label,n,mode,dev2,dev3plus CSV",
    )
    dispersion.add_argument(
        "--min-n",
        type=integer,
        help="exclude instructors with fewer ratings (default %(default)s)",
    )
    dispersion.add_argument(
        "--mode-tiebreak",
        choices=TIEBREAKS,
        help="mode tie resolution for long-form input (default %(default)s)",
    )
    dispersion.add_argument("--output", help="write the JSON report here")
    dispersion.set_defaults(handler=_cmd_dispersion, **REPORTED_SETTINGS)

    scenarios = sub.add_parser(
        "scenarios", parents=[walk], help="run a biased-rating scenario bundle"
    )
    scenarios.add_argument(
        "--scenario-file",
        help="scenario bundle JSON (default: bundled six-scenario fixture)",
    )
    scenarios.set_defaults(handler=_cmd_scenarios, **REPORTED_SETTINGS)

    return parser


def _emit(document: dict, output: str | None) -> None:
    """Write ``document`` to ``output`` (or stdout) with ``json.dump`` at
    indent 2, then a newline.

    ``json.dump`` writes each chunk as it is encoded, so the report text is
    never held whole. The file is opened before encoding starts; every
    report builder emits only JSON-native values.
    """
    if output:
        sink = open(output, "w", encoding="utf-8")
    else:
        sink = contextlib.nullcontext(sys.stdout)
    with sink as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def _figure(value: float, places: int) -> str:
    """``value`` with ``places`` decimals for a stderr summary: fixed point
    below a magnitude of 1e15, e notation from there up, where fixed point
    would print every one of a large float's up to 309 digits. The
    dispersion summary's percentages, at most 100, print in fixed point
    without it."""
    return f"{value:.{places}{'f' if abs(value) < 1e15 else 'e'}}"


def _cmd_rate(args, config: dict) -> None:
    from .report import rate_survey, rating_report_dict
    from .survey import load_competence_csv, load_ratings_csv
    from .survey import load_survey_json, validate_survey

    if args.survey and (args.competence_csv or args.ratings_csv or args.scale):
        raise ValueError("--survey excludes --competence-csv/--ratings-csv/--scale")
    if args.survey:
        survey = load_survey_json(
            args.survey,
            diagonal_policy=args.diagonal_policy,
            strict_likert=args.strict_likert,
        )
    elif args.competence_csv and args.ratings_csv:
        # the matrix file first, so that its errors come before the ratings'
        matrix = load_competence_csv(args.competence_csv)
        survey = validate_survey(
            load_ratings_csv(args.ratings_csv),
            matrix,
            scale=tuple(args.scale or DEFAULT_SCALE),
            diagonal_policy=args.diagonal_policy,
            strict_likert=args.strict_likert,
        )
    else:
        raise ValueError("provide --survey, or --competence-csv with --ratings-csv")

    report = rate_survey(survey, alpha=args.alpha, tol=args.tol, max_iter=args.max_iter)
    _emit(rating_report_dict(report, config), args.output)
    print(
        f"{survey.label or 'survey'}: n={survey.n} "
        f"mean={_figure(report.arithmetic_mean, 4)} "
        f"degree={_figure(report.degree.rating, 4)} "
        f"eigenfactor={_figure(report.eigenfactor.rating, 4)} "
        f"({report.eigenfactor.iterations} iterations)",
        file=sys.stderr,
    )


def _cmd_dispersion(args, config: dict) -> None:
    from .dispersion import aggregate, dispersion_report_dict, read_dispersion_csv

    rows, excluded = read_dispersion_csv(
        args.ratings_csv, min_n=args.min_n, tiebreak=args.mode_tiebreak
    )
    pooled = aggregate(rows)
    _emit(dispersion_report_dict(rows, pooled, excluded, config), args.output)
    note = f", {len(excluded)} excluded below n={args.min_n}" if excluded else ""
    print(
        f"{len(rows)} instructors, {pooled.total_n} ratings{note} | "
        f"dev2 {pooled.pct_dev2:.2f}% dev3+ {pooled.pct_dev3plus:.2f}% "
        f"dev>=2 {pooled.pct_dev2plus:.2f}%",
        file=sys.stderr,
    )


def _cmd_scenarios(args, config: dict) -> None:
    from .report import METHODS, scenario_report_dict
    from .scenarios import error_reduction_summary, load_scenarios, run_scenario

    path = args.scenario_file
    if path is None:
        from .data import scenario_fixture_path

        path = str(scenario_fixture_path())
    bundle = load_scenarios(path, diagonal_policy=args.diagonal_policy)
    results = [
        run_scenario(scenario, alpha=args.alpha, tol=args.tol, max_iter=args.max_iter)
        for scenario in bundle
    ]
    summary = error_reduction_summary(results)
    _emit(scenario_report_dict(results, summary, config), args.output)
    # the scenario report has no warnings field: zeroed self-endorsements
    # are told here instead, once the report is out, so that a run that
    # fails prints its one error line and nothing else
    for scenario in bundle:
        for warning in scenario.survey.warnings:
            print(f"scenario {scenario.id}: {warning}", file=sys.stderr)
    for result in results:
        parts = [f"scenario {result.id}: mean={_figure(result.arithmetic_mean, 4)}"]
        for method in METHODS:
            scored = getattr(result, method)
            if scored is not None:
                parts.append(f"{method}={_figure(scored.rating, 4)}")
        if result.winner:
            parts.append(f"winner={result.winner}")
        print(" ".join(parts), file=sys.stderr)
    # a method that failed in every scenario has no mean
    shown = [
        f"{method} {_figure(mean, 2)}%"
        for method, mean in summary.items()
        if mean is not None
    ]
    if shown:
        print(f"mean error reduction: {', '.join(shown)}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {"command": args.command}
    for name in REPORTED_SETTINGS:
        config[name] = getattr(args, name)
    try:
        args.handler(args, config)
    except (ClassrankError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(
            (code for kind, code in EXIT_CODES.items() if isinstance(exc, kind)), 2
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
