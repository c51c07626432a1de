"""Benchmark — sharded parallel execution vs serial on the fig-7 workloads.

Times the full prepared-session pipeline (plan + bind + TSens, and the
count-only evaluation) once serially (``workers=1``) and once sharded
(``workers=N``), per TPC-H workload, at the raised default scale.  Exact
agreement between the two executions is asserted on every run — sharding
is a pure execution strategy and must never change a count, a sensitivity,
or a witness.

The speedup assertion (sharded ≥ 2× serial on at least one workload) only
runs on machines with enough cores to honestly measure it; a single-core
container cannot, and says so instead of failing.

The module doubles as a standalone script that records the sharded
trajectory for :mod:`benchmarks.trend`::

    PYTHONPATH=src python benchmarks/bench_sharded.py --backend columnar --workers 2

writes ``benchmarks/BENCH_<backend>_w<N>.json`` (payload ``backend`` key
``"<backend>_w<N>"``), which ``trend.py`` renders as an extra column next
to the serial backends.
"""

import os

import pytest

from repro.session import prepare
from repro.workloads import q1_workload, q2_workload, q3_workload

WORKLOADS = {
    "q1": q1_workload(),
    "q2": q2_workload(),
    "q3": q3_workload(),
}

#: Worker count for the pytest-mode sharded timings (script mode takes
#: ``--workers``).
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


def _run_workload(workload, db, workers):
    """Fresh session per call: count + TSens, the fig-7 hot path."""
    with prepare(workload.query, db, tree=workload.tree,
                 workers=workers) as session:
        count = session.count()
        result = session.sensitivity(skip_relations=workload.skip_relations)
    return count, result


def _assert_agreement(name, serial, sharded):
    s_count, s_result = serial
    p_count, p_result = sharded
    assert p_count == s_count, (
        f"{name}: sharded count {p_count} != serial {s_count}"
    )
    assert p_result.local_sensitivity == s_result.local_sensitivity, (
        f"{name}: sharded sensitivity {p_result.local_sensitivity} "
        f"!= serial {s_result.local_sensitivity}"
    )
    assert _witness_key(p_result) == _witness_key(s_result), (
        f"{name}: sharded witness {_witness_key(p_result)} "
        f"!= serial {_witness_key(s_result)}"
    )


# ------------------------------------------------------------- pytest mode
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_sharded_agreement(tpch_base, name):
    workload = WORKLOADS[name]
    db = workload.prepared(tpch_base)
    _assert_agreement(
        name,
        _run_workload(workload, db, workers=1),
        _run_workload(workload, db, workers=BENCH_WORKERS),
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_sharded_tsens_time(benchmark, tpch_base, name):
    workload = WORKLOADS[name]
    db = workload.prepared(tpch_base)
    benchmark.pedantic(
        lambda: _run_workload(workload, db, workers=BENCH_WORKERS),
        rounds=3,
        iterations=1,
    )


#: Scale for the gated speedup measurement — large enough that the heavy
#: fig-7 join takes whole seconds serially, so the parallel fraction
#: dominates process overheads.
SPEEDUP_SCALE = float(os.environ.get("REPRO_SPEEDUP_SCALE", "0.2"))


def _kernel_speedup(backend, scale, seed, workers, rounds=3):
    """Serial vs sharded wall time of the fig-7 hot-spot join.

    Lineitem ⋈ Partsupp → γ_SK is the heavy co-partitioned join inside
    the fig-7 TPC-H queries, with a small aggregated output: the
    coordinator's share of the sharded run is one memcpy per operand and
    a tiny regroup, so this is the shape sharding exists for.  Exact bag
    equality between the two outputs is asserted before timing.
    """
    from repro.datasets import generate_tpch
    from repro.engine import operators as ops
    from repro.engine.parallel import ParallelContext

    base = generate_tpch(scale, seed=seed, backend=backend)
    left, right = base["Lineitem"], base["Partsupp"]

    def serial_run():
        return ops.group_by(ops.join(left, right), ["SK"])

    serial_out = serial_run()
    serial = _best_of(serial_run, rounds)
    with ParallelContext(workers) as context:
        sharded_out = context.join(left, right, group=["SK"])
        assert ops.symmetric_difference_size(serial_out, sharded_out) == 0, (
            "sharded join+group disagrees with serial"
        )
        sharded = _best_of(
            lambda: context.join(left, right, group=["SK"]), rounds
        )
    return serial, sharded


@pytest.mark.skipif(
    _cores() < 4,
    reason="speedup assertion needs >= 4 cores for an honest measurement",
)
def test_sharded_speedup_fig7(backend):
    """Sharded execution is >= 2x serial on the fig-7 hot-spot join."""
    if backend != "columnar":
        pytest.skip(
            "sharded speedup is a columnar-engine claim; the python "
            "backend exists for semantics, not speed"
        )
    workers = min(_cores(), 4)
    serial, sharded = _kernel_speedup(backend, SPEEDUP_SCALE, 0, workers)
    speedup = serial / max(sharded, 1e-9)
    assert speedup >= 2.0, (
        f"fig-7 hot-spot join: sharded ({workers} workers) is only "
        f"{speedup:.2f}x serial at scale {SPEEDUP_SCALE} (need >= 2x)"
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
    """Serial vs sharded wall times per workload, with agreement checks."""
    from repro.datasets import generate_tpch

    base = generate_tpch(scale, seed=seed, backend=backend)
    results = {}
    for name, workload in WORKLOADS.items():
        db = workload.prepared(base)
        serial_out = _run_workload(workload, db, workers=1)
        sharded_out = _run_workload(workload, db, workers=workers)
        _assert_agreement(name, serial_out, sharded_out)
        results[name] = {
            "serial_seconds": _best_of(
                lambda: _run_workload(workload, db, 1), rounds
            ),
            "sharded_seconds": _best_of(
                lambda: _run_workload(workload, db, workers), rounds
            ),
        }
        results[name]["speedup"] = (
            results[name]["serial_seconds"]
            / max(results[name]["sharded_seconds"], 1e-9)
        )
    return results


def write_bench_report(path, backend, workers, scale, seed, results):
    """Merge sharded timings into BENCH_<backend>_w<N>.json for trend.py."""
    import json

    from conftest import load_matching_timings

    provenance = {
        "backend": f"{backend}_w{workers}",
        "workers": workers,
        "tpch_scale": scale,
        "seed": seed,
    }
    timings = load_matching_timings(path, provenance)
    for name, entry in results.items():
        timings[f"bench_sharded.py::{name}::tsens"] = round(
            entry["sharded_seconds"], 6
        )
    payload = dict(provenance, timings_seconds=dict(sorted(timings.items())))
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import argparse
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import SEED, TPCH_SCALE

    parser = argparse.ArgumentParser(
        description="Sharded vs serial fig-7 runtimes with exactness checks."
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
        help="scale for the hot-spot join speedup measurement",
    )
    parser.add_argument(
        "--no-report", action="store_true",
        help="skip writing benchmarks/BENCH_<backend>_w<N>.json",
    )
    args = parser.parse_args()

    cores = _cores()
    print(
        f"sharded bench  backend={args.backend}  workers={args.workers}"
        f"  scale={args.scale}  seed={args.seed}  cores={cores}"
    )
    results = run_comparison(
        args.backend, args.workers, args.scale, args.seed, args.rounds
    )
    for name, entry in results.items():
        print(
            f"  {name}: serial={entry['serial_seconds']*1e3:8.2f}ms"
            f"  sharded={entry['sharded_seconds']*1e3:8.2f}ms"
            f"  speedup={entry['speedup']:.2f}x"
        )
    print("  exact agreement: count, sensitivity, witness — all workloads")

    if not args.no_report:
        out = Path(__file__).resolve().parent / (
            f"BENCH_{args.backend}_w{args.workers}.json"
        )
        write_bench_report(
            out, args.backend, args.workers, args.scale, args.seed, results
        )
        print(f"wrote {out}")

    if cores >= 4 and args.backend == "columnar":
        workers = min(cores, 4)
        serial, sharded = _kernel_speedup(
            args.backend, args.speedup_scale, args.seed, workers, args.rounds
        )
        speedup = serial / max(sharded, 1e-9)
        print(
            f"  hot-spot join (scale {args.speedup_scale}, {workers} workers):"
            f" serial={serial*1e3:.0f}ms sharded={sharded*1e3:.0f}ms"
            f" speedup={speedup:.2f}x"
        )
        assert speedup >= 2.0, (
            f"fig-7 hot-spot join: sharded is only {speedup:.2f}x serial "
            "(need >= 2x)"
        )
        print(f"  speedup assertion passed ({speedup:.2f}x >= 2x)")
    else:
        print(
            f"  speedup assertion skipped: needs >= 4 cores (have {cores}) "
            "and the columnar backend"
        )
