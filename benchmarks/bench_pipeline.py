"""Benchmark — worker-resident fold pipelines vs per-op sharding.

The resident chain path compiles a component's whole botjoin/topjoin fold
chain into one per-shard program: intermediates stay in the workers' own
shared-memory arenas across steps and only final per-shard aggregates
return for the overflow-checked reduction.  The PR 7 per-op path
(``chains=False``) round-trips every operator's output through the
coordinator instead.  This module pins, per fig-7 TPC-H workload:

* **exactness** — resident, per-op and serial sessions agree on count,
  sensitivity and witness on every run;
* **the speedup claim** — on the fig-7 q3 botjoin chain (the deep fold
  the pipeline exists for), the resident chain is >= 2x the per-op path
  (columnar engine, machines with >= 4 cores).

The module doubles as a standalone script recording the resident-chain
trajectory for :mod:`benchmarks.trend`::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --backend columnar --workers 2

writes ``benchmarks/BENCH_<backend>_pipeline.json`` (payload ``backend``
key ``"<backend>_pipeline"``), which ``trend.py`` renders as an extra
column next to the serial backends.
"""

import os

import pytest

from repro.engine.parallel import ParallelContext
from repro.session import prepare
from repro.workloads import q1_workload, q2_workload, q3_workload

WORKLOADS = {
    "q1": q1_workload(),
    "q2": q2_workload(),
    "q3": q3_workload(),
}

#: Worker count for the pytest-mode timings (script mode takes ``--workers``).
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _witness_key(result):
    witness = result.witness
    if witness is None:
        return None
    return (witness.relation, tuple(sorted(witness.assignment.items())),
            witness.sensitivity)


def _run_workload(workload, db, context=None):
    """Fresh session per call: count + TSens, the fig-7 hot path."""
    with prepare(workload.query, db, tree=workload.tree,
                 parallel=context) as session:
        count = session.count()
        result = session.sensitivity(skip_relations=workload.skip_relations)
    return count, result


def _assert_agreement(name, label, serial, candidate):
    s_count, s_result = serial
    c_count, c_result = candidate
    assert c_count == s_count, (
        f"{name}: {label} count {c_count} != serial {s_count}"
    )
    assert c_result.local_sensitivity == s_result.local_sensitivity, (
        f"{name}: {label} sensitivity {c_result.local_sensitivity} "
        f"!= serial {s_result.local_sensitivity}"
    )
    assert _witness_key(c_result) == _witness_key(s_result), (
        f"{name}: {label} witness {_witness_key(c_result)} "
        f"!= serial {_witness_key(s_result)}"
    )


# ------------------------------------------------------------- pytest mode
@pytest.fixture(scope="module")
def contexts():
    pools = {
        "resident": ParallelContext(BENCH_WORKERS, chains=True),
        "per-op": ParallelContext(BENCH_WORKERS, chains=False),
    }
    yield pools
    for context in pools.values():
        context.close()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_pipeline_agreement(tpch_base, name, contexts):
    workload = WORKLOADS[name]
    db = workload.prepared(tpch_base)
    serial = _run_workload(workload, db)
    for label, context in contexts.items():
        _assert_agreement(
            name, label, serial, _run_workload(workload, db, context)
        )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_pipeline_tsens_time(benchmark, tpch_base, name, contexts):
    workload = WORKLOADS[name]
    db = workload.prepared(tpch_base)
    benchmark.pedantic(
        lambda: _run_workload(workload, db, contexts["resident"]),
        rounds=3,
        iterations=1,
    )


#: Scale for the gated speedup measurement — the q3 botjoin chain must
#: take long enough per sweep that dispatch overheads are noise.
SPEEDUP_SCALE = float(os.environ.get("REPRO_SPEEDUP_SCALE", "0.2"))


def _botjoin_chain_speedup(backend, scale, seed, workers, rounds=3):
    """Resident vs per-op wall time of the fig-7 q3 botjoin chain.

    Both paths run the same bottom-up sweep over the same bound tree and
    worker count; the only difference is residency — the per-op path
    imports every botjoin back to the coordinator and re-exports it as
    the next operator's operand, the resident chain keeps all of them in
    the worker arenas and returns only the root aggregate.  Exact bag
    equality of the root botjoin (the |Q(D)| carrier) is asserted before
    timing.
    """
    from repro.datasets import generate_tpch
    from repro.engine import symmetric_difference_size
    from repro.engine.sharding import ShardMap
    from repro.evaluation import compute_botjoins, bind
    from repro.evaluation.yannakakis import ResidentFoldPipeline

    workload = WORKLOADS["q3"]
    base = generate_tpch(scale, seed=seed, backend=backend)
    db = workload.prepared(base)
    tree = workload.tree
    bound = bind(workload.query, tree, db)
    root = tree.root
    serial_root = compute_botjoins(bound)[root]

    with ParallelContext(workers, chains=False) as per_op_context, \
            ParallelContext(workers, chains=True) as chain_context:

        def per_op_run():
            cache = ShardMap()
            try:
                return compute_botjoins(
                    bound, parallel=per_op_context, shard_cache=cache
                )[root]
            finally:
                cache.close()

        def resident_run():
            pipeline = ResidentFoldPipeline.try_create(
                bound, chain_context, None
            )
            assert pipeline is not None, (
                "q3 botjoin chain did not compile for the resident path"
            )
            try:
                return pipeline.botjoins()[root]
            finally:
                pipeline.close()

        assert symmetric_difference_size(per_op_run(), serial_root) == 0, (
            "per-op sharded botjoins disagree with serial"
        )
        assert symmetric_difference_size(resident_run(), serial_root) == 0, (
            "resident chain botjoins disagree with serial"
        )
        per_op = _best_of(per_op_run, rounds)
        resident = _best_of(resident_run, rounds)
    return per_op, resident


@pytest.mark.skipif(
    _cores() < 4,
    reason="speedup assertion needs >= 4 cores for an honest measurement",
)
def test_resident_chain_speedup_fig7_q3(backend):
    """Resident chain >= 2x the per-op path on the q3 botjoin chain."""
    if backend != "columnar":
        pytest.skip(
            "resident-chain speedup is a columnar-engine claim; the "
            "python backend exists for semantics, not speed"
        )
    workers = min(_cores(), 4)
    per_op, resident = _botjoin_chain_speedup(
        backend, SPEEDUP_SCALE, 0, workers
    )
    speedup = per_op / max(resident, 1e-9)
    assert speedup >= 2.0, (
        f"fig-7 q3 botjoin chain: resident ({workers} workers) is only "
        f"{speedup:.2f}x the per-op path at scale {SPEEDUP_SCALE} "
        "(need >= 2x)"
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


def run_comparison(backend, workers, scale, seed, rounds):
    """Serial vs per-op vs resident wall times, with agreement checks."""
    from repro.datasets import generate_tpch

    base = generate_tpch(scale, seed=seed, backend=backend)
    results = {}
    with ParallelContext(workers, chains=True) as resident_context, \
            ParallelContext(workers, chains=False) as per_op_context:
        for name, workload in WORKLOADS.items():
            db = workload.prepared(base)
            serial_out = _run_workload(workload, db)
            for label, context in (
                ("resident", resident_context),
                ("per-op", per_op_context),
            ):
                _assert_agreement(
                    name, label, serial_out, _run_workload(workload, db, context)
                )
            results[name] = {
                "serial_seconds": _best_of(
                    lambda: _run_workload(workload, db), rounds
                ),
                "per_op_seconds": _best_of(
                    lambda: _run_workload(workload, db, per_op_context), rounds
                ),
                "resident_seconds": _best_of(
                    lambda: _run_workload(workload, db, resident_context),
                    rounds,
                ),
            }
            results[name]["speedup_vs_per_op"] = (
                results[name]["per_op_seconds"]
                / max(results[name]["resident_seconds"], 1e-9)
            )
            results[name]["speedup_vs_serial"] = (
                results[name]["serial_seconds"]
                / max(results[name]["resident_seconds"], 1e-9)
            )
    return results


def write_bench_report(path, backend, workers, scale, seed, results):
    """Merge resident timings into BENCH_<backend>_pipeline.json.

    ``timings_seconds`` holds the resident times trend.py lines up;
    ``serial_comparison`` keeps, per workload, the serial, per-op and
    resident times with the resident path's ``speedup_vs_serial`` — the
    end-to-end number that decides whether ``workers>1`` earns its keep.
    """
    import json

    from conftest import load_matching_timings

    provenance = {
        "backend": f"{backend}_pipeline",
        "workers": workers,
        "tpch_scale": scale,
        "seed": seed,
    }
    timings = load_matching_timings(path, provenance)
    for name, entry in results.items():
        timings[f"bench_pipeline.py::{name}::tsens"] = round(
            entry["resident_seconds"], 6
        )
    comparison = {
        name: {
            key: round(entry[key], 6)
            for key in (
                "serial_seconds", "per_op_seconds", "resident_seconds",
                "speedup_vs_serial",
            )
        }
        for name, entry in results.items()
    }
    payload = dict(
        provenance,
        timings_seconds=dict(sorted(timings.items())),
        serial_comparison=comparison,
    )
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import argparse
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import SEED, TPCH_SCALE

    parser = argparse.ArgumentParser(
        description="Resident-chain vs per-op fig-7 runtimes with "
        "exactness checks."
    )
    parser.add_argument(
        "--backend", default="columnar", choices=("python", "columnar")
    )
    parser.add_argument("--workers", type=int, default=BENCH_WORKERS)
    parser.add_argument("--scale", type=float, default=TPCH_SCALE)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--speedup-scale", type=float, default=SPEEDUP_SCALE,
        help="scale for the q3 botjoin-chain speedup measurement",
    )
    parser.add_argument(
        "--no-report", action="store_true",
        help="skip writing benchmarks/BENCH_<backend>_pipeline.json",
    )
    args = parser.parse_args()

    cores = _cores()
    print(
        f"pipeline bench  backend={args.backend}  workers={args.workers}"
        f"  scale={args.scale}  seed={args.seed}  cores={cores}"
    )
    results = run_comparison(
        args.backend, args.workers, args.scale, args.seed, args.rounds
    )
    for name, entry in results.items():
        print(
            f"  {name}: serial={entry['serial_seconds']*1e3:8.2f}ms"
            f"  per-op={entry['per_op_seconds']*1e3:8.2f}ms"
            f"  resident={entry['resident_seconds']*1e3:8.2f}ms"
            f"  resident/per-op={entry['speedup_vs_per_op']:.2f}x"
            f"  serial/resident={entry['speedup_vs_serial']:.2f}x"
        )
    print("  exact agreement: count, sensitivity, witness — all workloads")

    if not args.no_report:
        out = Path(__file__).resolve().parent / (
            f"BENCH_{args.backend}_pipeline.json"
        )
        write_bench_report(
            out, args.backend, args.workers, args.scale, args.seed, results
        )
        print(f"wrote {out}")

    if cores >= 4 and args.backend == "columnar":
        workers = min(cores, 4)
        per_op, resident = _botjoin_chain_speedup(
            args.backend, args.speedup_scale, args.seed, workers, args.rounds
        )
        speedup = per_op / max(resident, 1e-9)
        print(
            f"  q3 botjoin chain (scale {args.speedup_scale}, "
            f"{workers} workers): per-op={per_op*1e3:.0f}ms "
            f"resident={resident*1e3:.0f}ms speedup={speedup:.2f}x"
        )
        assert speedup >= 2.0, (
            f"fig-7 q3 botjoin chain: resident is only {speedup:.2f}x "
            "the per-op path (need >= 2x)"
        )
        print(f"  speedup assertion passed ({speedup:.2f}x >= 2x)")
    else:
        print(
            f"  speedup assertion skipped: needs >= 4 cores (have {cores}) "
            "and the columnar backend"
        )
