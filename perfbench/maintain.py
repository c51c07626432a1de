"""Workload ``q2-maintain``: writes beside reads on one maintained session.

The acyclic q2 session is prepared once and warmed in set-up (the cold
table build happens only there).  One round is ``apply(16 updates)`` ->
``sensitivity()`` -> ``probe("S", 64 rows)`` -> ``release(1.0, "tsensdp",
primary="S", ell=500, seeded rng)``.
"""

from __future__ import annotations

import math

import numpy as np

import harness
from harness import Samples, now


def prepared_q2(seed: int, scale: float):
    """Generate q2's database and return (workload, db, warmed session)."""
    from repro.session import prepare
    from repro.workloads import q2_workload

    workload = q2_workload()
    db = harness.tpch(workload, seed, scale)
    session = prepare(workload.query, db, tree=workload.tree)
    warm(session, np.random.default_rng([seed, 2]))
    return workload, db, session


def warm(session, rng) -> None:
    """Build every maintained structure a round reads."""
    session.count()
    session.sensitivity()
    session.probe("S", harness.probe_rows(rng, len(session.db.relation("S"))))
    session.release(1.0, rng=rng, **harness.RELEASE)


def run(args, report, tracer):
    from repro.session import prepare

    sessions = []

    def setup():
        while sessions:
            sessions.pop().close()
        workload, db, session = prepared_q2(args.seed, args.scale)
        sessions.append(session)
        return workload, db, session

    setup_times, (workload, db, session) = harness.timed(setup)
    feed = harness.UpdateFeed(workload.query, db, args.seed)
    rng = np.random.default_rng([args.seed, 3])
    n_suppliers = len(db.relation("S"))
    names = workload.query.relation_names
    initial_rows = {name: len(db.relation(name)) for name in names}

    samples = Samples()
    rounds, last_round_s = 0, None
    start = now()
    while harness.another_round(start, args.seconds, last_round_s):
        batch = feed.next_batch()
        rows = harness.probe_rows(rng, n_suppliers)
        release_rng = np.random.default_rng([args.seed, 4, rounds])
        traced = tracer is not None and (rounds // 8) % 2 == 0
        if tracer is not None:
            tracer.round_id = rounds if traced else None
            tracer.active = traced
        t0 = now()
        count = report.attempt(session.apply, batch)
        t1 = now()
        result = report.attempt(session.sensitivity)
        t2 = now()
        weights = report.attempt(session.probe, "S", rows)
        t3 = now()
        outcome = report.attempt(
            session.release, 1.0, rng=release_rng, **harness.RELEASE
        )
        t4 = now()
        if tracer is not None:
            tracer.active = False
        rounds += 1
        last_round_s = t4 - t0
        if None in (count, result, weights, outcome):
            continue
        report.check(
            weights is not None and len(weights) == len(rows)
            and min(weights) >= 0,
            f"round {rounds}: probe returned {weights!r}",
        )
        report.check(
            outcome.true_count == count and math.isfinite(outcome.answer),
            f"round {rounds}: release saw count {outcome.true_count}, "
            f"apply returned {count}",
        )
        kind = "traced_" if traced else ""
        apply_ms, tsens_ms = (t1 - t0) * 1000, (t2 - t1) * 1000
        samples.add(kind + "round", (t4 - t0) * 1000)
        samples.add(kind + "wall", (t4 - t0) * 1000)
        samples.add(kind + "apply", apply_ms)
        samples.add(kind + "tsens", tsens_ms)
        samples.add(kind + "probe", (t3 - t2) * 1000)
        samples.add(kind + "release", (t4 - t3) * 1000)
    window = now() - start
    report.diagnostic("rounds", rounds)
    report.diagnostic("updates_applied", session.updates_applied)
    report.diagnostic("feed", feed.stats())
    report.diagnostic("rows_initial_final", {
        name: [initial_rows[name], len(session.db.relation(name))] for name in names
    })

    # The maintained answers must equal a fresh prepare over session.db.
    fresh = prepare(workload.query, session.db, tree=workload.tree)
    maintained_count, fresh_count = session.count(), fresh.count()
    maintained_ls = session.sensitivity().local_sensitivity
    fresh_ls = fresh.sensitivity().local_sensitivity
    report.check(
        maintained_count == fresh_count,
        f"maintained count {maintained_count} != fresh {fresh_count}",
    )
    report.check(
        maintained_ls == fresh_ls,
        f"maintained LS {maintained_ls} != fresh {fresh_ls}",
    )
    report.diagnostic("final_count", maintained_count)
    report.diagnostic("final_local_sensitivity", maintained_ls)
    fresh.close()
    session.close()

    if tracer is None:
        n = samples.count("round")
        harness.report_ratio(report, samples, "apply")
        harness.timing_diagnostics(
            report, samples, ("round", "apply", "tsens", "probe", "release")
        )
        report.diagnostic("ops_per_s", 4 * n / window)
    report.metric("peak_rss_mb", harness.peak_rss_mb(), "MB", 1)
    del session
    setup_times += harness.timed(setup)[0]
    while sessions:
        sessions.pop().close()
    harness.report_setup(report, setup_times)
    return samples
