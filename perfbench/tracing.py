"""Span recorder for the traced run.

The traced run installs wrappers from this file around the entry points
of each layer; nothing in the program itself changes.  A wrapper is
installed on the name the *caller* looks up: the evaluation modules import
the engine operators by name (``from repro.engine.operators import join``),
so the ``join`` that ``JoinState`` calls is ``repro.evaluation.joinstate.
join``, and patching ``repro.engine.operators`` alone would record
nothing.  Installing a wrapper looks the target up first, so a renamed
entry point fails the traced run instead of reading as a silent zero.

Each span records its name, start, end, parent and the id of the unit of
work it belongs to (a benchmark round, or on the server the request-side
thread activity that started it).  Spans stay in memory, per thread, and
are written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional

# Span record fields (lists, so a closing span can be filled in place).
NAME, START, END, PARENT, UNIT, ROWS_IN, ROWS_OUT = range(7)


class Tracer:
    """In-memory span recorder; records only while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        #: Unit id given to root spans opened on the benchmark's own thread.
        self.round_id: Optional[int] = None
        self._local = threading.local()
        self._threads: List[list] = []
        self._mutex = threading.Lock()
        self._anonymous = 0

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # spans, open-span stack
            with self._mutex:
                self._threads.append(state[0])
        return state

    def _unit(self):
        if self.round_id is not None:
            return self.round_id
        with self._mutex:
            self._anonymous += 1
            return f"t{self._anonymous}"

    def wrap(
        self,
        name: str,
        fn: Callable,
        rows_out: Optional[Callable] = None,
        rows_in: Optional[Callable] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer._state()
            parent = stack[-1] if stack else None
            unit = spans[parent][UNIT] if parent is not None else tracer._unit()
            span = [name, time.perf_counter(), 0.0, parent, unit, 0, 0]
            if rows_in is not None:
                span[ROWS_IN] = rows_in(*args, **kwargs)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if rows_out is not None:
                    span[ROWS_OUT] = rows_out(result)
                return result
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, owner, attribute: str, name: str, rows_out=None, rows_in=None):
        """Replace ``owner.attribute`` (a module global or a class method)
        with its traced wrapper.  A missing attribute raises."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, original, rows_out, rows_in))

    # ------------------------------------------------------------ results
    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total/self seconds and row counts over the
        closed spans.  The pseudo-name ``""`` carries, as ``total_s``, the
        wall time covered by at least one span (root spans of concurrent
        threads may overlap; their union is counted once)."""
        out: Dict[str, Dict[str, float]] = {}
        roots = []
        for spans in list(self._threads):
            children = [0.0] * len(spans)
            for span in spans:
                if span[END] and span[PARENT] is not None:
                    children[span[PARENT]] += span[END] - span[START]
            for i, span in enumerate(spans):
                if not span[END]:
                    continue
                duration = span[END] - span[START]
                if span[PARENT] is None:
                    roots.append((span[START], span[END]))
                entry = out.setdefault(span[NAME], _empty())
                entry["calls"] += 1
                entry["total_s"] += duration
                entry["self_s"] += duration - children[i]
                entry["rows_in"] += span[ROWS_IN]
                entry["rows_out"] += span[ROWS_OUT]
                entry["rows_max"] = max(entry["rows_max"], span[ROWS_OUT])
        out[""] = dict(_empty(), total_s=covered(roots))
        return out

    def dump(self, limit: int = 200_000) -> dict:
        """The recorded spans (times relative to the first span, in µs),
        capped at ``limit`` spans in total."""
        threads = [spans for spans in self._threads if spans]
        starts = [spans[0][START] for spans in threads]
        origin = min(starts) if starts else 0.0
        kept, out = 0, []
        for spans in threads:
            take = spans[: max(0, limit - kept)]
            kept += len(take)
            out.append([
                [s[NAME], round((s[START] - origin) * 1e6),
                 round((s[END] - origin) * 1e6), s[PARENT], str(s[UNIT]),
                 s[ROWS_IN], s[ROWS_OUT]]
                for s in take
            ])
        total = sum(len(spans) for spans in threads)
        return {"fields": ["name", "start_us", "end_us", "parent", "unit",
                           "rows_in", "rows_out"],
                "recorded": total, "written": kept, "threads": out}


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for begin, end in sorted(intervals):
        if end > reach:
            total += end - max(begin, reach)
            reach = end
    return total


def _empty() -> Dict[str, float]:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0,
            "rows_in": 0, "rows_out": 0, "rows_max": 0}


# ------------------------------------------------------------- row counts
def _relations_rows(mapping) -> int:
    return sum(len(rel) for rel in mapping.values() if rel is not None)


def _bound_rows(bound) -> int:
    return _relations_rows(bound.node_relations)


def _table_rows(table) -> int:
    return sum(len(factor) for factor in table.factors)


def _delta_rows(deltas) -> int:
    return sum(delta.tuple_count() for delta in deltas)


def _updates_in(db, updates) -> int:
    return len(updates)


#: Every span the per-layer metrics report; the last three are installed
#: in the server process only.
SPANS = (
    "query.plan", "yannakakis.bind", "yannakakis.botjoins",
    "yannakakis.topjoins", "joinstate.tables", "joinstate.fold",
    "incremental.apply", "incremental.compact", "incremental.probe",
    "core.tsens", "dp.oracle", "dp.release", "engine.join", "engine.group_by",
    "epochs.fork", "epochs.writer_fold", "protocol.frame",
)


def install_engine_spans(tracer: Tracer) -> None:
    """Wrap the layer entry points every workload calls."""
    import repro.dp.tsensdp as tsensdp
    import repro.session as session
    from repro.evaluation import incremental, joinstate, yannakakis

    tracer.install(session, "_component_trees", "query.plan")
    tracer.install(joinstate, "bind", "yannakakis.bind", _bound_rows)
    tracer.install(joinstate, "compute_botjoins", "yannakakis.botjoins", _relations_rows)
    tracer.install(joinstate, "compute_topjoins", "yannakakis.topjoins", _relations_rows)
    tracer.install(joinstate, "build_table", "joinstate.tables", _table_rows)
    # The evaluator stages and commits each component's fold directly
    # (JoinState.apply_update_batch is the single-state convenience form).
    tracer.install(incremental.IncrementalEvaluator, "apply_batch", "incremental.apply")
    tracer.install(joinstate.JoinState, "stage_update_batch", "joinstate.fold")
    tracer.install(joinstate.JoinState, "commit_update_batch", "joinstate.fold")
    tracer.install(
        session, "compact_updates", "incremental.compact", _delta_rows, _updates_in
    )
    tracer.install(incremental.IncrementalEvaluator, "delta_batch", "incremental.probe")
    tracer.install(session, "tsens_from_states", "core.tsens")
    tracer.install(session.PreparedQuery, "truncation_oracle", "dp.oracle")
    tracer.install(tsensdp, "run_tsens_dp", "dp.release")
    # The operators as the evaluation modules call them.
    for module, names in (
        (joinstate, ("join", "join_all", "group_by")),
        (yannakakis, ("join", "join_all", "group_by")),
        (incremental, ("join", "group_by")),
    ):
        for attribute in names:
            span = "engine.group_by" if attribute == "group_by" else "engine.join"
            tracer.install(module, attribute, span, len)


def install_server_spans(tracer: Tracer) -> None:
    """Wrap the serving-layer entry points (server process only)."""
    import repro.serve.server as server
    from repro.session import PreparedQuery

    tracer.install(PreparedQuery, "fork", "epochs.fork")
    tracer.install(PreparedQuery, "apply", "epochs.writer_fold")
    tracer.install(server, "encode_frame", "protocol.frame")
    tracer.install(server, "decode_frame", "protocol.frame")


# ------------------------------------------------------- per-layer metrics
#: Spans that must fire in every traced run of a workload.  epochs.fork
#: is installed (so a rename still fails) but not required: whether a read
#: lands on a superseded epoch depends on timing.
REQUIRED = {
    "q3-analyze": ("query.plan", "yannakakis.bind", "yannakakis.botjoins",
                   "yannakakis.topjoins", "joinstate.tables", "core.tsens",
                   "engine.join", "engine.group_by"),
    "q2-maintain": ("joinstate.fold", "incremental.apply", "incremental.compact",
                    "incremental.probe", "core.tsens", "dp.oracle",
                    "dp.release"),
    "q2-serve": ("joinstate.fold", "incremental.apply", "incremental.probe",
                 "epochs.writer_fold", "protocol.frame"),
}

#: Row counters: metric -> (span, field).
ROW_METRICS = {
    "yannakakis.bind_rows": ("yannakakis.bind", "rows_out"),
    "yannakakis.botjoin_rows": ("yannakakis.botjoins", "rows_out"),
    "yannakakis.topjoin_rows": ("yannakakis.topjoins", "rows_out"),
    "joinstate.table_rows": ("joinstate.tables", "rows_out"),
}


#: Op samples reported as ``e2e.<op>_ms`` from the untraced rounds of the
#: traced run (0 where a workload has no such op).
E2E_OPS = ("round", "count", "apply", "tsens", "probe", "release", "read")


def trace_metrics(
    workload: str, agg, samples, report, admission=None, request_s=None
) -> None:
    """The traced run's per-layer metrics, normalised per traced round.

    For every span S: ``S_ms`` (total ms per round), ``S.self_ms`` and
    ``S.calls`` (per round); the named counters on top; the time no
    span covers (``trace.unattributed_ms``); the tracing overhead, the
    traced rounds' median against the untraced rounds interleaved with
    them in the same run; and ``e2e.<op>_ms``, the absolute op timings
    of those untraced rounds.  A required span that never fired fails the
    run.

    On q2-serve a "round" is a writer round, and the span totals hold
    the work of both connections in the traced blocks; ``request_s`` is
    the client-side time during which at least one request of either
    connection was in flight, and the unattributed time is that time
    minus the time the server's root spans cover.
    """
    for span in REQUIRED[workload]:
        report.check(
            agg.get(span, {}).get("calls", 0) > 0,
            f"traced span {span} never fired on {workload}",
        )
    rounds = samples.count("traced_round")
    per = 1.0 / max(rounds, 1)

    def get(span):
        return agg.get(span, _empty())

    for span in SPANS:
        entry = get(span)
        report.metric(f"{span}_ms", entry["total_s"] * 1000 * per, "ms", rounds)
        report.metric(f"{span}.self_ms", entry["self_s"] * 1000 * per, "ms", rounds)
        report.metric(f"{span}.calls", entry["calls"] * per, "count", rounds)
    for name, (span, field) in ROW_METRICS.items():
        report.metric(name, get(span)[field] * per, "rows", rounds)
    report.metric("core.witness_ms", get("core.tsens")["self_s"] * 1000 * per, "ms", rounds)
    join = get("engine.join")
    report.metric("engine.join_calls", join["calls"] * per, "count", rounds)
    report.metric("engine.join_rows_max", join["rows_max"], "rows", join["calls"])
    report.metric("epochs.fork_builds", get("epochs.fork")["calls"] * per, "count", rounds)
    compact = get("incremental.compact")
    report.metric(
        "incremental.delta_rows_per_update",
        compact["rows_out"] / compact["rows_in"] if compact["rows_in"] else 0.0,
        "ratio", compact["calls"],
    )
    admission = admission or {}
    for name in ("probe", "read"):
        report.metric(
            f"admission.{name}_coalesce_ratio", admission.get(name, 0.0), "ratio",
            rounds,
        )
    if request_s is None:
        request_s = sum(samples.values.get("traced_wall", ())) / 1000
    report.metric(
        "trace.unattributed_ms", (request_s - get("")["total_s"]) * 1000 * per,
        "ms", rounds,
    )
    tsens_ms = sum(samples.values.get("traced_tsens", ()))
    report.metric(
        "joinstate.tables_share_of_tsens",
        get("joinstate.tables")["total_s"] * 1000 / tsens_ms if tsens_ms else 0.0,
        "fraction", rounds,
    )
    overhead = 0.0
    if rounds and samples.count("round"):
        overhead = (samples.median("traced_round") / samples.median("round") - 1) * 100
    report.metric("trace.overhead_pct", overhead, "%", samples.count("round"))
    for op in E2E_OPS:
        n = samples.count(op)
        report.metric(f"e2e.{op}_ms", samples.median(op) if n else 0.0, "ms", n)
