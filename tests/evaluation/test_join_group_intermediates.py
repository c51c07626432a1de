"""Fig-7 q3 never materialises a join bigger than its inputs or result.

Deterministic regression for the table-build blow-up: a left-deep
``group_by(join_all(parts))`` over q3's multiplicity-table parts joined
``bot:gOC (NK,OK)`` with ``bot:gSP (NK,PK,SK)`` on NK alone, a many-to-
many join (15.3 M rows at TPC-H 0.005) that the group-by then shrank to
a few dozen rows.  Every ``join`` that ``join_group`` makes must stay
within ``max(largest input part, result)`` rows — counted in rows, not
timed, so the check is exact on any host.
"""

import pytest

from repro import prepare
from repro.datasets import generate_tpch
from repro.evaluation import joinstate, yannakakis
from repro.workloads import q3_workload
import repro.core.topk as topk

Q3 = q3_workload()


@pytest.fixture(scope="module")
def q3_db():
    return Q3.prepared(generate_tpch(0.001, seed=0))


@pytest.fixture
def join_group_calls(monkeypatch):
    """Record ``(largest part, result, largest join output)`` per call."""
    calls = []
    frames = []
    original_join = yannakakis.join
    original_join_group = yannakakis.join_group

    def recording_join(left, right):
        joined = original_join(left, right)
        if frames:
            frames[-1].append(joined.distinct_count())
        return joined

    def recording_join_group(parts, attrs):
        frames.append([])
        try:
            result = original_join_group(parts, attrs)
        finally:
            joins = frames.pop()
        calls.append(
            (
                max(part.distinct_count() for part in parts),
                result.distinct_count(),
                max(joins, default=0),
            )
        )
        return result

    monkeypatch.setattr(yannakakis, "join", recording_join)
    for module in (yannakakis, joinstate, topk):
        monkeypatch.setattr(module, "join_group", recording_join_group)
    return calls


@pytest.mark.parametrize("backend", ["python", "columnar"])
def test_q3_join_outputs_bounded_by_inputs_or_result(
    q3_db, join_group_calls, backend
):
    db = q3_db if backend == "python" else q3_db.with_backend("columnar")
    session = prepare(Q3.query, db, tree=Q3.tree)
    session.count()
    session.sensitivity(skip_relations=Q3.skip_relations)
    session.top_k(5)
    # Botjoins, topjoins and tables of all three reads went through it.
    assert len(join_group_calls) > 20
    assert any(joined for _, _, joined in join_group_calls)
    for largest_part, result, largest_join in join_group_calls:
        assert largest_join <= max(largest_part, result)
