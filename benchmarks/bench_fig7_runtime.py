"""Benchmark E3 — Figure 7: runtime of TSens vs Elastic vs evaluation.

pytest-benchmark separately times, per TPC-H query, (a) the TSens pass,
(b) the Elastic static analysis, and (c) the count-only Yannakakis
evaluation.  The figure's claims: Elastic ≪ evaluation ≈ TSens (within a
small constant factor).

The module doubles as a standalone backend-comparison script::

    PYTHONPATH=src python benchmarks/bench_fig7_runtime.py --backend columnar

times TSens and the count evaluation per query on the requested backend
*and* on the python reference, and prints the per-query and aggregate
speedups (the columnar engine's headline number).

Both modes gate the figure's shape on the cyclic q3: best-of-N TSens
must cost at most :data:`MAX_Q3_TSENS_COUNT_RATIO` times best-of-N count
evaluation on the backend under test.
"""

import pytest

from repro.baselines import elastic_sensitivity, plan_from_tree
from repro.core import local_sensitivity
from repro.evaluation import count_query
from repro.query import auto_decompose
from repro.workloads import q1_workload, q2_workload, q3_workload

WORKLOADS = {
    "q1": q1_workload(),
    "q2": q2_workload(),
    "q3": q3_workload(),
}

#: Fig. 7's claim: TSens within a small constant factor of evaluation.
#: Left-deep table builds put q3 near 50x; early aggregation near 5x.
MAX_Q3_TSENS_COUNT_RATIO = 10.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_fig7_tsens_time(benchmark, tpch_base, name):
    workload = WORKLOADS[name]
    db = workload.prepared(tpch_base)
    benchmark.pedantic(
        lambda: local_sensitivity(
            workload.query, db, tree=workload.tree,
            skip_relations=workload.skip_relations,
        ),
        rounds=3,
        iterations=1,
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_fig7_elastic_time(benchmark, tpch_base, name):
    workload = WORKLOADS[name]
    db = workload.prepared(tpch_base)
    tree = workload.tree or auto_decompose(workload.query)
    plan = plan_from_tree(tree)
    benchmark(lambda: elastic_sensitivity(workload.query, db, plan=plan))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_fig7_evaluation_time(benchmark, tpch_base, name):
    workload = WORKLOADS[name]
    db = workload.prepared(tpch_base)
    benchmark.pedantic(
        lambda: count_query(workload.query, db, tree=workload.tree),
        rounds=3,
        iterations=1,
    )


def test_fig7_q3_tsens_within_constant_factor_of_count(tpch_base):
    timed = time_workload(WORKLOADS["q3"], tpch_base, rounds=3)
    ratio = timed["tsens_seconds"] / timed["count_seconds"]
    assert ratio <= MAX_Q3_TSENS_COUNT_RATIO, (
        f"q3 TSens is {ratio:.1f}x count evaluation "
        f"(gate {MAX_Q3_TSENS_COUNT_RATIO:.0f}x)"
    )


# --------------------------------------------------------------- script mode
def _best_of(fn, rounds):
    import time

    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def time_workload(workload, base, rounds):
    """Best-of-``rounds`` TSens and count wall times of one workload."""
    db = workload.prepared(base)
    return {
        "tsens_seconds": _best_of(
            lambda: local_sensitivity(
                workload.query, db, tree=workload.tree,
                skip_relations=workload.skip_relations,
            ),
            rounds,
        ),
        "count_seconds": _best_of(
            lambda: count_query(workload.query, db, tree=workload.tree),
            rounds,
        ),
    }


def run_backend(backend, scale, seed, rounds):
    """Per-query TSens + count wall times (best of ``rounds``) on ``backend``."""
    from repro.datasets import generate_tpch

    base = generate_tpch(scale, seed=seed, backend=backend)
    return {
        name: time_workload(workload, base, rounds)
        for name, workload in WORKLOADS.items()
    }


if __name__ == "__main__":
    import argparse
    import json
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import SEED, TPCH_SCALE

    parser = argparse.ArgumentParser(
        description="Figure 7 runtimes per backend, with python-reference speedups."
    )
    parser.add_argument(
        "--backend", default="columnar", choices=("python", "columnar"),
        help="backend to report (python skips the comparison run)",
    )
    parser.add_argument("--scale", type=float, default=TPCH_SCALE)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--json", type=Path, default=None,
        help="also write the full result document to this path",
    )
    args = parser.parse_args()

    timed = {args.backend: run_backend(args.backend, args.scale, args.seed, args.rounds)}
    if args.backend != "python":
        timed["python"] = run_backend("python", args.scale, args.seed, args.rounds)

    document = {"scale": args.scale, "seed": args.seed, "backends": timed}
    print(f"fig7 runtimes  scale={args.scale}  seed={args.seed}  rounds={args.rounds}")
    for name in WORKLOADS:
        line = f"  {name}:"
        for backend_name, results in timed.items():
            entry = results[name]
            line += (
                f"  {backend_name}: tsens={entry['tsens_seconds']*1e3:8.2f}ms"
                f" count={entry['count_seconds']*1e3:8.2f}ms"
            )
        print(line)

    if "python" in timed and args.backend != "python":
        fast, ref = timed[args.backend], timed["python"]
        speedups = {}
        for name in WORKLOADS:
            speedups[name] = {
                metric: ref[name][metric] / max(fast[name][metric], 1e-9)
                for metric in ("tsens_seconds", "count_seconds")
            }
        ref_total = sum(v[m] for v in ref.values() for m in v)
        fast_total = sum(v[m] for v in fast.values() for m in v)
        overall = ref_total / max(fast_total, 1e-9)
        document["speedup_vs_python"] = {"per_query": speedups, "overall": overall}
        print(f"speedup ({args.backend} vs python):")
        for name, entry in speedups.items():
            print(
                f"  {name}: tsens {entry['tsens_seconds']:.1f}x,"
                f" count {entry['count_seconds']:.1f}x"
            )
        print(f"  overall (total wall time): {overall:.1f}x")

    q3 = timed[args.backend]["q3"]
    ratio = q3["tsens_seconds"] / q3["count_seconds"]
    document["q3_tsens_count_ratio"] = ratio
    if args.json is not None:
        args.json.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    print(
        f"q3 TSens/count on {args.backend}: {ratio:.1f}x "
        f"(gate {MAX_Q3_TSENS_COUNT_RATIO:.0f}x)"
    )
    if ratio > MAX_Q3_TSENS_COUNT_RATIO:
        sys.exit(f"q3 TSens/count ratio {ratio:.1f}x exceeds the gate")
