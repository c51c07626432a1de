"""Workload ``q3-analyze``: the paper's cyclic fig-7 query, cold.

One round is a fresh ``prepare(q3, tree=Fig. 5a GHD)`` -> ``count()`` ->
``sensitivity(skip_relations=("L",))`` against the same database; nothing
is cached across rounds.  No updates, no serving.  A count is short beside
the sensitivity, so each round takes COUNTS_PER_SIDE cold ``prepare`` +
``count()`` samples before the sensitivity (which runs on the last of
those sessions) and as many after it: the counts are spread over the
whole window, and the gated ratio of the means cancels host-speed drift.
One untimed sensitivity after set-up warms the code paths and gives the
LS and witness every round must reproduce.
"""

from __future__ import annotations

import harness
from harness import Samples, now

COUNTS_PER_SIDE = 4


def _witness_key(result):
    witness = result.witness
    return (
        result.local_sensitivity,
        None if witness is None else (
            witness.relation,
            tuple(sorted(witness.assignment.items())),
            witness.sensitivity,
        ),
    )


def run(args, report, tracer):
    from repro.evaluation import count_query
    from repro.session import prepare
    from repro.workloads import q3_workload

    workload = q3_workload()
    skip = workload.skip_relations

    def setup():
        return harness.tpch(workload, args.seed, args.scale)

    setup_times, db = harness.timed(setup)
    # The one-shot count every round must reproduce, and one untimed
    # sensitivity whose LS and witness every round must reproduce; they
    # also warm the code paths, so the first timed round is not a cold one.
    expected_count = count_query(workload.query, db, tree=workload.tree)
    warm = prepare(workload.query, db, tree=workload.tree)
    first_answer = _witness_key(warm.sensitivity(skip_relations=skip))
    warm.close()
    del warm

    samples = Samples()
    rounds, last_round_s = 0, None

    def cold_count(counts_ms, keep: bool):
        """One fresh prepare + count(); return the session if ``keep``."""
        c0 = now()
        session = report.attempt(prepare, workload.query, db, tree=workload.tree)
        count = report.attempt(session.count) if session is not None else None
        counts_ms.append((now() - c0) * 1000)
        if count is not None:
            report.check(
                count == expected_count,
                f"round {rounds}: count {count} != one-shot count_query "
                f"{expected_count}",
            )
        if session is not None and not (keep and count is not None):
            session.close()
            session = None
        return session

    start = now()
    while harness.another_round(start, args.seconds, last_round_s):
        traced = tracer is not None and rounds % 2 == 0
        if tracer is not None:
            tracer.round_id = rounds if traced else None
            tracer.active = traced
        t0 = now()
        counts_ms = []
        for i in range(COUNTS_PER_SIDE):
            session = cold_count(counts_ms, keep=i == COUNTS_PER_SIDE - 1)
        t1 = now()
        result = (
            report.attempt(session.sensitivity, skip_relations=skip)
            if session is not None else None
        )
        t2 = now()
        if session is not None:
            session.close()
        for _ in range(COUNTS_PER_SIDE):
            cold_count(counts_ms, keep=False)
        t3 = now()
        if tracer is not None:
            tracer.active = False
        rounds += 1
        last_round_s = t3 - t0
        if result is None:
            continue
        answer = _witness_key(result)
        report.check(
            answer == first_answer,
            f"round {rounds}: LS/witness {answer} differ from the warm-up's "
            f"{first_answer}",
        )
        kind = "traced_" if traced else ""
        tsens_ms = (t2 - t1) * 1000
        samples.add(kind + "wall", last_round_s * 1000)
        for count_ms in counts_ms:
            samples.add(kind + "count", count_ms)
        samples.add(kind + "round", counts_ms[COUNTS_PER_SIDE - 1] + tsens_ms)
        samples.add(kind + "tsens", tsens_ms)
        result = None
    window = now() - start
    report.diagnostic("rounds", rounds)
    report.diagnostic("expected_count", expected_count)
    report.diagnostic("local_sensitivity", first_answer[0])

    if tracer is None:
        n = samples.count("round")
        harness.report_ratio(report, samples, "count")
        harness.timing_diagnostics(report, samples, ("round", "count", "tsens"))
        ops = n + samples.count("count")
        report.diagnostic("ops_per_s", ops / window)
    report.metric("peak_rss_mb", harness.peak_rss_mb(), "MB", 1)
    setup_times += harness.timed(setup)[0]
    harness.report_setup(report, setup_times)
    return samples
