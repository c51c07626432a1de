"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload q3-analyze --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; ``repro`` is imported from its ``src``.
Workloads (TPC-H from ``generate_tpch``, columnar backend, ``workers=1``):

* ``q3-analyze``  cold fig-7 q3: fresh prepare -> count -> sensitivity;
* ``q2-maintain`` one maintained q2 session: apply(16) -> sensitivity ->
  probe -> DP release, round after round;
* ``q2-serve``    the same q2 round through ``SessionServer`` in its own
  process, from two closed-loop connections.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that gives the per-layer metrics (see README.md).
Every run checks its answers, prints each metric with its unit, writes one
self-contained file under ``perfbench/results/`` and prints as its last
line ``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 when
an answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

WORKLOADS = ("q3-analyze", "q2-maintain", "q2-serve")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="TSens session benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller inputs for the benchmark's own smoke test only.
    parser.add_argument("--scale", type=float, default=harness.SCALE,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.use_checkout_src()
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    declared = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }

    drift_start = harness.drift_probe_ms()
    report = harness.Report()
    tracer = None
    if args.workload == "q3-analyze":
        import analyze as workload
    elif args.workload == "q2-maintain":
        import maintain as workload
    else:
        import serving as workload
    if args.trace and args.workload != "q2-serve":
        import tracing

        tracer = tracing.Tracer()
        tracing.install_engine_spans(tracer)
    samples = workload.run(args, report, tracer)
    if tracer is not None:
        tracing.trace_metrics(args.workload, tracer.aggregate(), samples, report)
        report.spans = tracer.dump()
    drift_end = harness.drift_probe_ms()
    report.diagnostic("host_drift_probe_ms", {"start": drift_start, "end": drift_end})
    report.diagnostic(
        "error_rate", report.failed / report.attempted if report.attempted else 0.0
    )

    for name, entry in sorted(report.metrics.items()):
        mark = "" if name in declared else "  (not a benchmark metric)"
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']} "
              f"(n={entry['samples']}){mark}")
    for name, value in sorted(report.diagnostics.items()):
        print(f"diagnostic {name} = {value}")
    for problem in report.problems[:20]:
        print(f"WRONG: {problem}")
    for failure in report.failures:
        print(f"FAILED OP: {failure}")

    missing = [n for n in declared if n not in report.metrics]
    wrong_unit = [
        n for n, unit in declared.items()
        if n in report.metrics and report.metrics[n]["unit"] != unit
    ]
    if missing or wrong_unit:
        print(f"perfbench: metrics missing {missing} or with wrong unit "
              f"{wrong_unit}", file=sys.stderr)
        return 3
    path = report.write(
        args, {"declared_metrics": sorted(declared), "samples": samples.values}
    )
    print(f"wrote {path.relative_to(harness.ROOT)}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name]["value"], "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
