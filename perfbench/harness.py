"""Shared pieces of the benchmark: inputs, the timing window, statistics,
the host-drift probe, provenance and the per-run report.

Every workload runs the default serial configuration (``workers=1``) on
the columnar backend over TPC-H from ``generate_tpch``.  Inputs depend on
the workload seed only; the program under test receives generated data
and update batches, never the seed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

#: TPC-H scale factor of every workload (the ROADMAP's measurement scale).
SCALE = 0.005
BACKEND = "columnar"
#: Set-up is timed this many times before the measured window and as many
#: times after it; ``setup_s`` is the median of all of them, so it samples
#: the host at both ends of the run.
SETUP_REPEATS = 3
#: One ``apply`` carries this many stream elements.
BATCH = 16
#: Rows per ``probe("S", ...)`` request.
PROBE_ROWS = 64
#: The DP release every q2 round makes (epsilon 1.0 per release).
RELEASE = {"mechanism": "tsensdp", "primary": "S", "ell": 500}
#: Batches the update feed plays forward before playing them back.
FEED_BATCHES = 64
#: A p90 is reported only when the run holds at least this many samples.
P90_MIN_SAMPLES = 100

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    Exits with code 2 when the checkout holds no sources, so a directory
    with only the benchmark's own files fails without printing a result.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def now() -> float:
    return time.perf_counter()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drift_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a host-speed diagnostic.

    It is printed beside the metrics and never used to scale them; it only
    helps tell a noisy host apart from a change in the program.
    """
    times = []
    for _ in range(repeats):
        start = now()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((now() - start) * 1000.0)
    return statistics.median(times)


def another_round(start: float, seconds: float, last_round_s) -> bool:
    """Whether to start another round: always the first, then while a
    round as long as the last one would still end inside the window."""
    if last_round_s is None:
        return True
    return now() - start + last_round_s <= seconds


def timed(step, repeats: int = SETUP_REPEATS):
    """Run ``step()`` ``repeats`` times; return (seconds of each, the last
    result)."""
    times, result = [], None
    for _ in range(repeats):
        start = now()
        result = step()
        times.append(now() - start)
    return times, result


def report_setup(report, times) -> None:
    report.metric("setup_s", statistics.median(times), "s", len(times))
    report.diagnostic("setup_times_s", times)


# ----------------------------------------------------------------- inputs
def tpch(workload, seed: int, scale: float):
    """Generate TPC-H for ``seed`` and derive ``workload``'s views."""
    from repro.datasets import generate_tpch

    base = generate_tpch(scale, seed=seed, backend=BACKEND)
    return workload.prepared(base)


def probe_rows(rng: np.random.Generator, n_suppliers: int) -> List[tuple]:
    """PROBE_ROWS supplier keys; about one in nine is absent from S."""
    keys = rng.integers(0, n_suppliers + n_suppliers // 8 + 1, size=PROBE_ROWS)
    return [(int(k),) for k in keys]


class UpdateFeed:
    """Seeded ``apply`` batches of BATCH elements, in a cycle.

    ``random_update_stream`` draws FEED_BATCHES batches against the
    initial database (about half inserts, half deletes; every delete hits
    a present row).  The feed plays them forward, then their inverses
    (each op inverted, in reverse order) back to the initial database,
    and repeats.  So the database never strays more than FEED_BATCHES
    batches from where it started, and the work of round ``i`` depends
    only on the seed and ``i``, not on how many rounds the window holds.
    (An open-ended stream lets the rows drift: over ~20k updates S fell
    from 50 distinct rows to about 5.)  Both q2 workloads apply exactly
    the same batches.
    """

    def __init__(self, query, db, seed: int):
        from repro.datasets.random_db import random_update_stream

        rng = np.random.default_rng([seed, 1])
        stream = random_update_stream(query, db, rng, BATCH * FEED_BATCHES)
        forward = [stream[i : i + BATCH] for i in range(0, len(stream), BATCH)]
        inverse = {"insert": "delete", "delete": "insert"}
        backward = [
            [(inverse[op], name, row) for op, name, row in reversed(batch)]
            for batch in reversed(forward)
        ]
        self._cycle = forward + backward
        self._next = 0
        self.inserts = self.deletes = self.delta_rows = 0

    def next_batch(self) -> list:
        batch = self._cycle[self._next % len(self._cycle)]
        self._next += 1
        net: Dict[tuple, int] = {}
        for op, name, row in batch:
            key = (name, tuple(row))
            net[key] = net.get(key, 0) + (1 if op == "insert" else -1)
            if op == "insert":
                self.inserts += 1
            else:
                self.deletes += 1
        # No delete is ever clamped (it targets a present row), so the
        # batch's effective delta rows are its per-row nets.
        self.delta_rows += sum(abs(count) for count in net.values())
        return batch

    def stats(self) -> Dict[str, float]:
        """Insert/delete mix and effective delta rows per update, so far."""
        total = self.inserts + self.deletes
        return {
            "inserts": self.inserts,
            "deletes": self.deletes,
            "delta_rows_per_update": self.delta_rows / total if total else 0.0,
        }


# ------------------------------------------------------------- statistics
class Samples:
    """Named lists of measured values (milliseconds unless stated)."""

    def __init__(self) -> None:
        self.values: Dict[str, List[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def count(self, name: str) -> int:
        return len(self.values.get(name, ()))

    def median(self, name: str) -> float:
        return statistics.median(self.values[name])

    def p90(self, name: str) -> Optional[float]:
        data = self.values.get(name, ())
        if len(data) < P90_MIN_SAMPLES:
            return None
        return statistics.quantiles(data, n=10)[-1]


def report_ratio(report, samples, denominator: str) -> None:
    """The gated ``tsens_count_ratio``: the run's mean sensitivity time
    over its mean ``denominator`` time.

    Both kinds of operation are interleaved over the whole window, so a
    change of host speed moves both alike and cancels in the ratio.  Means,
    not medians: a multi-second q3 sensitivity averages over the host's
    short slow spells, and only the mean of the short operations, some of
    which a spell hits and some not, averages over them alike.  On q2 the
    ratio of means also spread least (0.035 over ten seeds, and 0.105
    against 0.160 for the median of per-round ratios over ten seeds during
    which the host slowed the served apply 2.4x).
    """
    tsens, other = samples.values["tsens"], samples.values[denominator]
    report.metric(
        "tsens_count_ratio",
        statistics.mean(tsens) / statistics.mean(other),
        "x",
        min(len(tsens), len(other)),
    )


def timing_diagnostics(report, samples, names) -> None:
    """Print and save the absolute per-op timings as diagnostics: the
    median ``<name>_ms`` and, with enough samples, ``<name>_p90_ms``.

    They are not gated metrics: on a shared machine host speed can drift
    by a quarter over minutes, which moves every absolute time together,
    while the gated ratios pair operations inside one round and cancel it.
    """
    for name in names:
        if not samples.count(name):
            continue
        report.diagnostic(f"{name}_ms", samples.median(name))
        p90 = samples.p90(name)
        if p90 is not None:
            report.diagnostic(f"{name}_p90_ms", p90)


# ------------------------------------------------------------- provenance
def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git (a
    checkout that is not a repository reports ``unknown``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> Dict[str, object]:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "backend": BACKEND,
        "workers": 1,
        "tpch_scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
        "argv": sys.argv,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


class Report:
    """Everything one run prints and writes.

    ``metric`` records a named value with its unit and the number of
    samples behind it; ``diagnostic`` records values that are printed and
    saved but are not benchmark metrics.  ``check`` records a correctness
    condition; one failed check makes the run incorrect.
    """

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.diagnostics: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.problems: List[str] = []
        self.spans: Optional[dict] = None
        self._mutex = threading.Lock()

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = {
            "value": float(value),
            "unit": unit,
            "samples": int(samples),
        }

    def diagnostic(self, name: str, value) -> None:
        self.diagnostics[name] = value

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; an exception counts as failed and yields None.
        Safe to call from several load threads."""
        with self._mutex:
            self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted, not fatal
            with self._mutex:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{type(exc).__name__}: {exc}")
            return None

    @property
    def correct(self) -> bool:
        return not self.problems

    def write(self, args, extra: Dict[str, object]) -> Path:
        """Write this run's self-contained file; never merges into another."""
        RESULTS_DIR.mkdir(exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        path = RESULTS_DIR / (
            f"{args.workload}_seed{args.seed}_trace{args.trace}_"
            f"{stamp}_{os.getpid()}.json"
        )
        payload = {
            "provenance": provenance(args),
            "correct": self.correct,
            "problems": self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": self.metrics,
            "diagnostics": self.diagnostics,
            **extra,
        }
        if self.spans is not None:
            payload["spans"] = self.spans
        with open(path, "x") as handle:
            json.dump(payload, handle)
        return path
