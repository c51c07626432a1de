"""Shared fixtures for the benchmark suite.

Scales are chosen so the whole suite finishes in minutes on a laptop while
preserving every shape claim; pass larger scales through the experiment
modules (``python -m repro.experiments.fig6a``) for paper-sized runs.

The suite is backend-parametrised: ``pytest benchmarks/ --backend columnar``
runs every benchmark on the vectorized columnar engine.  Each run emits a
machine-readable ``benchmarks/BENCH_<backend>.json`` with per-test wall
times so the performance trajectory of both backends is tracked over time
(compare the two files for the python-vs-columnar picture).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.datasets import generate_ego_network, generate_tpch

#: Default TPC-H scale for the ``tpch_base`` fixture — raised 10× (0.0005 →
#: 0.005) when sharded execution landed, so the heavy joins are big enough
#: for fan-out to bite.  Override per run with ``--tpch-scale`` or the
#: ``REPRO_TPCH_SCALE`` environment variable.
TPCH_SCALE = float(os.environ.get("REPRO_TPCH_SCALE", "0.005"))
SEED = 0


def pytest_addoption(parser):
    parser.addoption(
        "--backend",
        action="store",
        default="python",
        choices=("python", "columnar"),
        help="execution backend the benchmark fixtures materialise data on",
    )
    parser.addoption(
        "--tpch-scale",
        action="store",
        type=float,
        default=TPCH_SCALE,
        dest="tpch_scale",
        help="TPC-H scale factor for the tpch_base fixture "
             "(default: %(default)s, or REPRO_TPCH_SCALE)",
    )


def pytest_configure(config):
    config._bench_wall_times = {}


@pytest.fixture(scope="session")
def backend(request):
    return request.config.getoption("--backend")


@pytest.fixture(scope="session")
def tpch_scale(request):
    return request.config.getoption("tpch_scale")


@pytest.fixture(scope="session")
def tpch_base(backend, tpch_scale):
    return generate_tpch(tpch_scale, seed=SEED, backend=backend)


@pytest.fixture(scope="session")
def tpch_small(backend):
    return generate_tpch(0.0001, seed=SEED, backend=backend)


@pytest.fixture(scope="session")
def facebook_base(backend):
    return generate_ego_network(
        nodes=120, directed_edges=2000, num_circles=250, seed=SEED,
        backend=backend,
    )


def _normalized_nodeid(nodeid: str) -> str:
    """Node id relative to this directory, whatever the invocation rootdir.

    ``pytest benchmarks/bench_x.py`` from the repo root and ``pytest
    bench_x.py`` from inside ``benchmarks/`` must key the same timing
    entry, or the merged BENCH_<backend>.json accumulates diverging
    duplicates."""
    prefix = Path(__file__).resolve().parent.name + "/"
    return nodeid[len(prefix):] if nodeid.startswith(prefix) else nodeid


@pytest.fixture(autouse=True)
def _record_wall_time(request):
    """Record per-test wall time for the BENCH_<backend>.json report."""
    start = time.perf_counter()
    yield
    request.config._bench_wall_times[_normalized_nodeid(request.node.nodeid)] = (
        time.perf_counter() - start
    )


def load_matching_timings(path: Path, provenance: dict) -> dict:
    """The ``timings_seconds`` of an existing report, if it was measured
    under exactly ``provenance`` (backend, scale, seed, ...), else ``{}``.

    Filtered runs (-k, a single file) update only the entries they ran,
    so a report is a merge of several runs — but only runs that measured
    the same thing may share a file.  A report written under another
    scale or seed is replaced whole, never relabelled."""
    if not path.exists():
        return {}
    try:
        payload = json.loads(path.read_text())
    except (ValueError, OSError):
        return {}
    if any(payload.get(key) != value for key, value in provenance.items()):
        return {}
    return payload.get("timings_seconds", {})


def pytest_sessionfinish(session, exitstatus):
    config = session.config
    times = getattr(config, "_bench_wall_times", None)
    if not times or exitstatus != 0:
        # A failed/interrupted run must not clobber good trajectory data.
        return
    backend = config.getoption("--backend")
    out = Path(__file__).resolve().parent / f"BENCH_{backend}.json"
    provenance = {
        "backend": backend,
        "tpch_scale": config.getoption("tpch_scale"),
        "seed": SEED,
    }
    timings = load_matching_timings(out, provenance)
    timings.update({node: round(t, 6) for node, t in times.items()})
    payload = dict(provenance, timings_seconds=dict(sorted(timings.items())))
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
