"""Workload ``q2-serve``: the q2-maintain data, query and op mix, served.

The server (``server.py``) runs in its own process.  The load is a closed
loop from this process: two connections on two threads, each waiting for
its reply before sending the next request.  The writer connection runs
q2-maintain's round over the wire (``apply(16)`` -> ``sensitivity`` ->
``probe("S", 64 rows)`` -> ``release``), so it sends an ``apply`` every
fourth request; the reader connection sends the read mix (``sensitivity``
-> ``probe`` -> ``release``) in a loop.  Both run the same engine work as
q2-maintain, so a difference between the two workloads is the serving
layer.
"""

from __future__ import annotations

import json
import math
import select
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import harness
from harness import Samples, now

SERVER = Path(__file__).resolve().parent / "server.py"
#: Seconds a server may take to boot, answer a control line or exit.
SERVER_TIMEOUT = 60.0
#: Rounds per traced/untraced block in the traced run.
TRACE_BLOCK = 8


class ServerProcess:
    """One ``server.py`` child process and its stdout line protocol."""

    def __init__(self, args):
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER), "--seed", str(args.seed),
             "--scale", str(args.scale), "--trace", str(args.trace)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(harness.ROOT),
        )
        try:
            line = self.read_line()
            if not line.startswith("READY "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.kill()
            raise

    def read_line(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT)
        if not ready:
            raise RuntimeError("server did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with {self.proc.wait()}")
        return line.strip()

    def control(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        answer = self.read_line()
        if answer != "ok":
            raise RuntimeError(f"server answered {answer!r} to {command!r}")

    def shutdown(self) -> dict:
        """Ask the server to drain and exit; return its summary line."""
        from repro.serve import ServeClient

        try:
            with ServeClient("127.0.0.1", self.port) as client:
                client.shutdown()
            summary = json.loads(self.read_line())
            self.proc.stdin.close()
            self.proc.wait(timeout=SERVER_TIMEOUT)
            return summary
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def run(args, report, tracer):
    from repro.serve import ServeClient
    from repro.session import prepare
    from repro.workloads import q2_workload

    workload = q2_workload()
    # The client's copy of the data feeds the update batches and the
    # replay check only; the timed set-up is the server boot, which
    # generates, prepares and warms on its own.
    db = harness.tpch(workload, args.seed, args.scale)
    servers = []

    def boots():
        """Boot SETUP_REPEATS servers one after another, keeping the last;
        return each boot's seconds (shutting the previous one down is not
        part of it)."""
        times = []
        for _ in range(harness.SETUP_REPEATS):
            while servers:
                servers.pop().shutdown()
            start = now()
            servers.append(ServerProcess(args))
            times.append(now() - start)
        return times

    try:
        setup_times = boots()
        server = servers[0]
        samples, applied, window, feed_stats, requests = _load(
            args, report, server, workload, db
        )
        with ServeClient("127.0.0.1", server.port, tenant="checker") as client:
            served_count = client.count()
            served_ls = client.sensitivity()["local_sensitivity"]
            stats = client.stats()
        servers.clear()
        summary = server.shutdown()
        setup_times += boots()
        while servers:
            servers.pop().shutdown()
    finally:
        for leftover in servers:
            leftover.kill()
    harness.report_setup(report, setup_times)

    # The served answers must equal a local session replaying the batches.
    local = prepare(workload.query, db, tree=workload.tree)
    local.apply([update for batch in applied for update in batch])
    local_count = local.count()
    local_ls = local.sensitivity().local_sensitivity
    local.close()
    report.check(
        served_count == local_count,
        f"served count {served_count} != local replay {local_count}",
    )
    report.check(
        served_ls == local_ls, f"served LS {served_ls} != local replay {local_ls}"
    )
    admission = stats["admission"]
    ratios = {
        "probe": admission["probe_requests"] / max(admission["probe_passes"], 1),
        "read": admission["read_requests"] / max(admission["read_executions"], 1),
    }
    report.diagnostic("batches_applied", len(applied))
    report.diagnostic("feed", feed_stats)
    report.diagnostic("final_count", served_count)
    report.diagnostic("final_local_sensitivity", served_ls)
    report.diagnostic("admission", admission)
    report.diagnostic("epochs", stats["epochs"])
    report.diagnostic("coalesce_ratios", ratios)

    if not args.trace:
        n = samples.count("round")
        reads = samples.count("read")
        harness.report_ratio(report, samples, "apply")
        harness.timing_diagnostics(report, samples, ("round", "apply", "tsens", "read"))
        report.diagnostic("ops_per_s", (n + reads) / window)
    else:
        import tracing

        tracing.trace_metrics(
            "q2-serve", summary["trace"], samples, report, ratios,
            request_s=tracing.covered(requests),
        )
        report.spans = summary["spans"]
    report.metric("peak_rss_mb", summary["peak_rss_mb"], "MB", 1)
    return samples


def _load(args, report, server, workload, db):
    """Drive the closed loop for ``args.seconds``.

    Returns the samples, the batches the server applied (in order), the
    measured window, the feed's statistics and, in a traced run, the
    (start, end) of every request either connection sent while the server
    was recording spans.
    """
    from repro.serve import ServeClient

    feed = harness.UpdateFeed(workload.query, db, args.seed)
    n_suppliers = len(db.relation("S"))
    samples = Samples()
    mutex = threading.Lock()
    applied = []
    requests = []  # client-side intervals of requests sent while tracing
    tracing_on = threading.Event()
    start = now()
    deadline = start + args.seconds

    def record(name, value):
        with mutex:
            samples.add(name, value)

    def writer():
        rng = np.random.default_rng([args.seed, 3])
        traced_block = None
        rounds = 0
        with ServeClient("127.0.0.1", server.port, tenant="writer") as client:
            while rounds == 0 or now() < deadline:
                batch = feed.next_batch()
                rows = harness.probe_rows(rng, n_suppliers)
                traced = bool(args.trace) and (rounds // TRACE_BLOCK) % 2 == 0
                if args.trace and traced != traced_block:
                    server.control("trace on" if traced else "trace off")
                    traced_block = traced
                    if traced:
                        tracing_on.set()
                    else:
                        tracing_on.clear()
                t0 = now()
                result = report.attempt(client.apply, batch)
                t1 = now()
                sens = report.attempt(client.sensitivity)
                t2 = now()
                weights = report.attempt(client.probe, "S", rows)
                t3 = now()
                outcome = report.attempt(client.release, 1.0, **harness.RELEASE)
                t4 = now()
                rounds += 1
                if result is not None:
                    applied.append(batch)
                if traced:
                    with mutex:
                        requests.extend(((t0, t1), (t1, t2), (t2, t3), (t3, t4)))
                if None in (result, sens, weights, outcome):
                    continue
                report.check(
                    outcome["true_count"] == result["count"]
                    and math.isfinite(outcome["answer"]),
                    f"writer round {rounds}: release saw count "
                    f"{outcome['true_count']}, apply returned {result['count']}",
                )
                report.check(
                    len(weights) == len(rows) and min(weights) >= 0,
                    f"writer round {rounds}: probe returned {weights!r}",
                )
                kind = "traced_" if traced else ""
                apply_ms, tsens_ms = (t1 - t0) * 1000, (t2 - t1) * 1000
                record(kind + "round", (t4 - t0) * 1000)
                record(kind + "wall", (t4 - t0) * 1000)
                record(kind + "apply", apply_ms)
                record(kind + "tsens", tsens_ms)
                for ms in ((t2 - t1) * 1000, (t3 - t2) * 1000, (t4 - t3) * 1000):
                    record(kind + "read", ms)
            if args.trace and traced_block:
                server.control("trace off")

    def reader():
        rng = np.random.default_rng([args.seed, 5])
        with ServeClient("127.0.0.1", server.port, tenant="reader") as client:
            while now() < deadline:
                rows = harness.probe_rows(rng, n_suppliers)
                for op, call in (
                    ("sensitivity", client.sensitivity),
                    ("probe", lambda: client.probe("S", rows)),
                    ("release", lambda: client.release(1.0, **harness.RELEASE)),
                ):
                    traced = tracing_on.is_set()
                    t0 = now()
                    answer = report.attempt(call)
                    t1 = now()
                    if traced and tracing_on.is_set():
                        with mutex:
                            requests.append((t0, t1))
                    if answer is None:
                        continue
                    if op == "release":
                        report.check(
                            math.isfinite(answer["answer"]),
                            f"reader release answered {answer['answer']!r}",
                        )
                    record(("traced_" if traced else "") + "read", (t1 - t0) * 1000)

    errors = []

    def guarded(target):
        def body():
            try:
                target()
            except Exception as exc:  # surfaced below; the run must not hang
                errors.append(exc)
        return body

    threads = [threading.Thread(target=guarded(t)) for t in (writer, reader)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = now() - start
    if errors:
        raise errors[0]
    return samples, applied, window, feed.stats(), requests
