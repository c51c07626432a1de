"""``join_group`` is ``group_by(join_all(parts), attrs)``, in every order.

The early-aggregating operator picks its join order greedily from degree
statistics and sums attributes away as soon as nothing else needs them.
Bag join and group-by form a commutative semiring over multiplicities,
so the order may change intermediate sizes but never the result.  Each
property runs on both backends; permuting the parts changes the greedy's
tie-breaks, so the permutation property covers several elimination
orders.  The q3 properties shuffle the parts inside each multiplicity
table component and demand the same LS, witness and top-k.
"""

import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import prepare
from repro.datasets import generate_tpch
from repro.engine import Relation, group_by, join, join_all
from repro.engine.columnar import ColumnarRelation
from repro.evaluation import joinstate
from repro.evaluation.yannakakis import join_group
from repro.workloads import q3_workload
import repro.core.acyclic as acyclic

BACKENDS = {"python": Relation, "columnar": ColumnarRelation}
POOL = ("A", "B", "C", "D", "E")
values = st.integers(min_value=0, max_value=2)


@st.composite
def parts_and_attrs(draw, connected=True, max_parts=4, allow_empty=True):
    """Random parts over ``POOL`` plus output attributes they cover.

    ``connected`` chains each new part to an earlier one through a
    shared attribute; otherwise parts may be attribute-disjoint or
    nullary.
    """
    n_parts = draw(st.integers(min_value=1, max_value=max_parts))
    schemas = []
    for index in range(n_parts):
        # Unconnected parts may be nullary, like a botjoin that shares
        # nothing with its parent.
        attrs = draw(
            st.lists(
                st.sampled_from(POOL),
                min_size=1 if connected else 0,
                max_size=3,
                unique=True,
            )
        )
        if connected and index:
            seen = sorted(set().union(*schemas))
            link = draw(st.sampled_from(seen))
            if link not in attrs:
                attrs = [link] + attrs[:2]
        schemas.append(attrs)
    parts = []
    for attrs in schemas:
        rows = draw(
            st.lists(
                st.tuples(*[values] * len(attrs)),
                min_size=0 if allow_empty else 1,
                max_size=6,
            )
        )
        parts.append((tuple(attrs), rows))
    covered = sorted(set().union(*map(set, schemas)))
    if not covered:
        return parts, ()
    out = draw(st.lists(st.sampled_from(covered), unique=True, max_size=3))
    return parts, tuple(out)


def _build(backend, parts):
    cls = BACKENDS[backend]
    return [cls(list(attrs), rows) for attrs, rows in parts]


def _assert_join_group_exact(relations, attrs):
    expected = group_by(join_all(relations), attrs)
    got = join_group(relations, attrs)
    assert got.attributes == attrs
    assert dict(got.counts) == dict(expected.counts)
    return got


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestJoinGroupExact:
    @given(parts_and_attrs(connected=True))
    @settings(max_examples=80, deadline=None)
    def test_connected_parts(self, backend, case):
        parts, attrs = case
        _assert_join_group_exact(_build(backend, parts), attrs)

    @given(parts_and_attrs(connected=False))
    @settings(max_examples=80, deadline=None)
    def test_cross_products(self, backend, case):
        parts, attrs = case
        # Rename every part apart so no two share an attribute.
        disjoint = [
            (tuple(f"{a}{i}" for a in names), rows)
            for i, (names, rows) in enumerate(parts)
        ]
        out = tuple(
            next(f"{a}{i}" for i, (names, _) in enumerate(parts) if a in names)
            for a in attrs
        )
        _assert_join_group_exact(_build(backend, disjoint), out)

    @given(parts_and_attrs(connected=True), st.data())
    @settings(max_examples=40, deadline=None)
    def test_empty_part(self, backend, case, data):
        parts, attrs = case
        emptied = data.draw(st.integers(min_value=0, max_value=len(parts) - 1))
        parts = [
            (names, [] if i == emptied else rows)
            for i, (names, rows) in enumerate(parts)
        ]
        got = _assert_join_group_exact(_build(backend, parts), attrs)
        assert got.is_empty()

    @given(parts_and_attrs(connected=False))
    @settings(max_examples=60, deadline=None)
    def test_zero_arity_output(self, backend, case):
        parts, _ = case
        relations = _build(backend, parts)
        got = _assert_join_group_exact(relations, ())
        assert got.total_count() == join_all(relations).total_count()

    @given(parts_and_attrs(connected=True, allow_empty=False))
    @settings(max_examples=30, deadline=None)
    def test_every_permutation(self, backend, case):
        parts, attrs = case
        relations = _build(backend, parts)
        expected = dict(group_by(join_all(relations), attrs).counts)
        for order in itertools.permutations(relations):
            assert dict(join_group(list(order), attrs).counts) == expected


def _brute_degree(relation, attribute):
    position = relation.attributes.index(attribute)
    return max(Counter(row[position] for row in relation).values(), default=0)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@given(parts_and_attrs(connected=False, max_parts=2))
@settings(max_examples=60, deadline=None)
def test_max_degree_exact_including_cross_products(backend, case):
    parts, _ = case
    relations = _build(
        backend,
        [
            (tuple(f"{a}{i}" for a in names), rows)
            for i, (names, rows) in enumerate(parts)
        ],
    )
    if len(relations) == 2:
        # The product's degrees are seeded from its operands.
        relations.append(join(relations[0], relations[1]))
    for relation in relations:
        for attribute in relation.attributes:
            assert relation.max_degree(attribute) == _brute_degree(
                relation, attribute
            )


# ------------------------------------------------ q3 under shuffled layouts
Q3 = q3_workload()


@pytest.fixture(scope="module")
def q3_dbs():
    base = generate_tpch(0.0005, seed=0)
    db = Q3.prepared(base)
    return {"python": db, "columnar": db.with_backend("columnar")}


@pytest.fixture(scope="module")
def q3_references(q3_dbs):
    """Unshuffled reads per backend, computed once."""
    return {backend: _q3_reads(db) for backend, db in q3_dbs.items()}


def _fingerprint(result):
    witness = result.witness
    return (
        result.local_sensitivity,
        None if witness is None else (
            witness.relation, dict(witness.assignment), witness.sensitivity
        ),
        {
            name: (t.sensitivity, dict(t.assignment))
            for name, t in result.per_relation.items()
        },
    )


def _q3_reads(db):
    session = prepare(Q3.query, db, tree=Q3.tree)
    return (
        session.count(),
        _fingerprint(session.sensitivity(skip_relations=Q3.skip_relations)),
        _fingerprint(session.top_k(5)),
    )


@pytest.mark.parametrize("backend", ["python", "columnar"])
@pytest.mark.parametrize("shuffle_seed", [1, 2, 3])
def test_q3_invariant_under_shuffled_table_parts(
    q3_dbs, q3_references, monkeypatch, backend, shuffle_seed
):
    db = q3_dbs[backend]
    rng = random.Random(shuffle_seed)
    original = joinstate.table_layout

    def shuffled_layout(query, tree, relation):
        layout = original(query, tree, relation)
        components = []
        for component in layout.components:
            parts = list(component.parts)
            rng.shuffle(parts)
            components.append(replace(component, parts=tuple(parts)))
        return replace(layout, components=tuple(components))

    monkeypatch.setattr(joinstate, "table_layout", shuffled_layout)
    monkeypatch.setattr(acyclic, "table_layout", shuffled_layout)
    assert _q3_reads(db) == q3_references[backend]
