"""Run ``classrank.cli.main`` in a fresh process with tracing on.

Usage: python trace_child.py SPANS_JSON CLI_ARGS...

The traced ``cli`` workload starts this in place of ``python -m
classrank.cli``; the spans recorded here are written to SPANS_JSON for the
parent to merge. Expects ``classrank`` on PYTHONPATH.
"""

import json
import sys

import spans


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import classrank.cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = classrank.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
