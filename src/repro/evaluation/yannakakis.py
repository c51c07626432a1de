"""Yannakakis-style evaluation of (decomposed) conjunctive queries.

This module binds a structural decomposition tree to a concrete database —
materialising each node as the bag join of its assigned atoms — and then
evaluates the query:

* :func:`count_query` — ``|Q(D)|`` via a single bottom-up botjoin pass
  (near-linear for join trees, the paper's query-evaluation baseline in
  Fig. 7 / Table 1);
* :func:`evaluate_query` — the full join output, using semijoin reduction
  before joining so intermediate sizes stay bounded by input + output.

The botjoin pass implemented here (:func:`compute_botjoins`) is shared with
the sensitivity algorithms in :mod:`repro.core.acyclic`, which add the
top-down topjoin pass on top of it.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple,
)

from repro.engine.operators import group_by, join, join_all, semijoin
from repro.engine.database import Database
from repro.engine.parallel import PipelinePlan, WorkerState
from repro.engine.relation import Relation
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.ghd import auto_decompose
from repro.query.jointree import DecompositionTree
from repro.exceptions import InternalError


@dataclass
class BoundTree:
    """A decomposition tree with each node materialised over a database.

    Attributes
    ----------
    tree:
        The structural decomposition.
    node_relations:
        ``node_id -> Relation``: the bag join of the node's atoms, with the
        query's selections already applied and columns renamed to query
        variables.
    atom_relations:
        ``relation name -> Relation``: the individual bound atoms (needed
        when a GHD node holds several relations and one must be excluded).
    query:
        The query this binding was made for.
    """

    tree: DecompositionTree
    node_relations: Dict[str, Relation]
    atom_relations: Dict[str, Relation]
    query: ConjunctiveQuery

    def relation(self, node_id: str) -> Relation:
        return self.node_relations[node_id]

    def atom_relation(self, relation: str) -> Relation:
        return self.atom_relations[relation]


def bind(
    query: ConjunctiveQuery,
    tree: DecompositionTree,
    db: Database,
    parallel=None,
) -> BoundTree:
    """Materialise every tree node over ``db``.

    Width-1 nodes are just the (renamed, selection-filtered) base relation;
    wider GHD nodes are the bag join of their atoms.  The per-node join cost
    is the paper's ``n^p`` factor.  ``parallel`` (a
    :class:`~repro.engine.parallel.ParallelContext`) shard-partitions the
    selection filters and multi-atom node joins; inactive contexts take the
    identical serial path.
    """
    query.validate_against(db)
    atom_relations: Dict[str, Relation] = {
        rel: query.bound_relation(db, rel, parallel=parallel)
        for rel in query.relation_names
    }
    node_relations: Dict[str, Relation] = {}
    sharded = parallel is not None and parallel.active
    for node_id in tree.node_ids:
        node = tree.node(node_id)
        parts = [atom_relations[rel] for rel in node.relations]
        if sharded:
            keys = [f"atom:{rel}" for rel in node.relations]
            node_relations[node_id] = parallel.join_all(parts, keys=keys)
        else:
            node_relations[node_id] = join_all(parts)
    return BoundTree(
        tree=tree,
        node_relations=node_relations,
        atom_relations=atom_relations,
        query=query,
    )


def bound_delta(
    query: ConjunctiveQuery,
    relation: str,
    rows: Mapping[Tuple[object, ...], int],
    relation_cls,
) -> Relation:
    """A signed delta relation bound to ``relation``'s atom.

    Mirrors :meth:`ConjunctiveQuery.bound_relation` for a small update
    batch: columns are renamed positionally to the atom's variables and
    the query's selection (if any) filters rows *before* they enter the
    maintained join state — filtered rows still reach the database, they
    just contribute nothing to any derived level.
    """
    atom = query.atom(relation)
    predicate = query.selections.get(relation)
    if predicate is not None:
        rows = {
            row: cnt
            for row, cnt in rows.items()
            if predicate(dict(zip(atom.variables, row)))
        }
    return relation_cls(list(atom.variables), dict(rows))


def _pair_estimate(left: Relation, right: Relation) -> Tuple[int, int]:
    """Sort key for joining ``left`` with ``right``: cross products last,
    then the degree bound ``min(|l|·deg_r(S), |r|·deg_l(S))`` on the
    shared attributes ``S``, where ``deg(S)`` is the smallest max-degree
    over ``S`` (the UES most-common-value bound)."""
    shared = [a for a in left.attributes if a in right.schema]
    if not shared:
        return (1, left.distinct_count() * right.distinct_count())
    left_degree = min(left.max_degree(a) for a in shared)
    right_degree = min(right.max_degree(a) for a in shared)
    return (
        0,
        min(
            left.distinct_count() * right_degree,
            right.distinct_count() * left_degree,
        ),
    )


def join_group(parts: Sequence[Relation], attrs: Sequence[str]) -> Relation:
    """``group_by(join_all(parts), attrs)`` with early aggregation.

    Greedy sum-product variable elimination (FAQ / InsideOut): join the
    pair of parts with the smallest estimated output (:func:`_pair_estimate`;
    index order breaks ties), then sum away every attribute that neither
    a remaining part nor ``attrs`` mentions, and repeat.  Multiplicities
    form a commutative semiring under join and group-by, so the result is
    the same bag in any order — only the intermediate sizes differ.  Two
    parts have one order, so they skip the statistics.
    """
    if not parts:
        raise InternalError("join_group requires at least one relation")
    attrs = tuple(attrs)
    pending = list(parts)
    while len(pending) > 1:
        if len(pending) == 2:
            i, j = 0, 1
        else:
            _, i, j = min(
                (_pair_estimate(pending[i], pending[j]), i, j)
                for i in range(len(pending))
                for j in range(i + 1, len(pending))
            )
        joined = join(pending[i], pending[j])
        del pending[j]
        del pending[i]
        needed = set(attrs)
        for part in pending:
            needed.update(part.attributes)
        keep = [a for a in joined.attributes if a in needed]
        if pending and len(keep) < len(joined.attributes):
            joined = group_by(joined, keep)
        pending.insert(i, joined)
    return group_by(pending[0], attrs)


def compute_botjoins(
    bound: BoundTree, parallel=None, shard_cache=None, resident=None
) -> Dict[str, Relation]:
    """Botjoins ``K(v)`` for every node, in post-order (paper Eqn. 5/7).

    ``K(v) = γ_{A_v ∩ A_p(v)} r̃join(rel_v, {K(c) | c ∈ children(v)})``.
    For the root the grouping attribute set is empty, so ``K(root)`` is a
    zero-arity relation whose single count is ``|Q(D)|``.  Serially each
    level is one :func:`join_group`.

    With an active ``parallel`` context each level's join+group runs
    hash-sharded across the worker pool and the per-shard partial botjoins
    are reduced on the coordinator; ``shard_cache`` (a
    :class:`~repro.engine.sharding.ShardMap`) keeps node/botjoin
    partitionings alive across passes (the maintained join state hands in
    its long-lived map so repeated reads re-use shard layouts).

    ``resident`` (a :class:`ResidentFoldPipeline`) runs the whole chain
    worker-side instead: every non-root botjoin stays resident in the
    workers and only the root aggregate returns, the result being a
    dict-compatible :class:`ResidentMapping` that fetches registers on
    demand.  A failed chain (worker death) falls back to the per-op path
    right here — overflow errors are *not* caught; they mean the same
    thing they mean serially.
    """
    if resident is not None and resident.enabled:
        try:
            return resident.botjoins()
        except (ChainUnsupported, InternalError):
            resident.disable()
    tree = bound.tree
    botjoins: Dict[str, Relation] = {}
    sharded = parallel is not None and parallel.active
    for node_id in tree.post_order():
        children = tree.children(node_id)
        group_attrs = sorted(tree.shared_with_parent(node_id))
        if sharded:
            parts = [bound.relation(node_id)]
            parts.extend(botjoins[child] for child in children)
            keys = [f"node:{node_id}"]
            keys.extend(f"bot:{child}" for child in children)
            botjoins[node_id] = parallel.join_group(
                parts, group_attrs, cache=shard_cache, keys=keys
            )
        else:
            parts = [bound.relation(node_id)]
            parts.extend(botjoins[child] for child in children)
            botjoins[node_id] = join_group(parts, group_attrs)
    return botjoins


def compute_topjoins(
    bound: BoundTree,
    botjoins: Dict[str, Relation],
    parallel=None,
    shard_cache=None,
    resident=None,
) -> Dict[str, Optional[Relation]]:
    """Topjoins ``J(v)`` for every node, in pre-order (paper Eqn. 8).

    ``J(root)`` is ``None`` (the complement of the whole tree is empty).
    For a node whose parent is the root the topjoin omits ``J(parent)``;
    otherwise ``J(v) = γ_{A_v ∩ A_p} r̃join(rel_p, J(p), {K(s) | s ∈ N(v)})``,
    one :func:`join_group` per node when serial.
    ``parallel``/``shard_cache`` shard each level exactly as in
    :func:`compute_botjoins`; ``resident`` runs the sweep against the
    worker-resident botjoin registers (falling back per-op on failure).
    """
    if resident is not None and resident.enabled:
        try:
            return resident.topjoins(botjoins)
        except (ChainUnsupported, InternalError):
            resident.disable()
    tree = bound.tree
    topjoins: Dict[str, Optional[Relation]] = {tree.root: None}
    sharded = parallel is not None and parallel.active
    for node_id in tree.pre_order():
        if node_id == tree.root:
            continue
        parent = tree.parent(node_id)
        if parent is None:
            raise InternalError(f"non-root node {node_id} has no parent")
        parts: List[Relation] = [bound.relation(parent)]
        keys: List[Optional[str]] = [f"node:{parent}"]
        parent_top = topjoins[parent]
        if parent_top is not None:
            parts.append(parent_top)
            keys.append(f"top:{parent}")
        for sibling in tree.neighbours(node_id):
            parts.append(botjoins[sibling])
            keys.append(f"bot:{sibling}")
        group_attrs = sorted(tree.shared_with_parent(node_id))
        if sharded:
            topjoins[node_id] = parallel.join_group(
                parts, group_attrs, cache=shard_cache, keys=keys
            )
        else:
            topjoins[node_id] = join_group(parts, group_attrs)
    return topjoins


# ---------------------------------------------------- worker-resident chains
class ChainUnsupported(Exception):
    """This component's fold chain cannot run worker-resident.

    Raised by the chain compiler for shapes the resident pipeline does not
    cover (cross-product joins inside a chain, nullary node relations,
    tree edges sharing no attributes); callers fall back to the per-op
    sharded or serial path, which handles everything.
    """


class _ChainCompiler:
    """Builds one :class:`~repro.engine.parallel.PipelinePlan`.

    Tracks, per register, its attribute set and the attribute its shards
    are partitioned on, and inserts peer-to-peer exchanges exactly where
    an operator needs a different co-partitioning:

    * a join runs shard-local only if both operands hash on the same
      shared attribute — otherwise the smaller-by-construction operand
      (the grouped botjoin) is re-scattered to the other's attribute;
    * a grouping that *drops* the partition attribute would leave partial
      sums split across shards, so it runs as a combiner: local partial
      group, exchange on the first group attribute, final group.

    Every register a plan keeps is therefore fully grouped and key-
    disjoint across shards — the invariant that makes worker-side delta
    folds (bag union/monus per shard) exact.
    """

    def __init__(self) -> None:
        self.steps: List[Tuple] = []
        #: register -> (attribute set, partition attribute).
        self.regs: Dict[str, Tuple[FrozenSet[str], str]] = {}
        self.loads: Dict[str, str] = {}
        self.reads: List[str] = []
        self.keeps: Dict[str, str] = {}
        self.emits: List[str] = []
        self._temp = 0

    #: Temporary-register prefix.  ``~`` keeps temporaries disjoint from
    #: every named register family (``node:``/``bot:``/``top:`` — a bare
    #: ``t`` prefix would make a join *free* the ``top:`` operand it just
    #: consumed, deleting a resident register other nodes still read).
    TEMP_PREFIX = "~t"

    def _fresh(self) -> str:
        self._temp += 1
        return f"{self.TEMP_PREFIX}{self._temp}"

    def _free(self, reg: str) -> None:
        if reg in self.regs and reg.startswith(self.TEMP_PREFIX):
            self.steps.append(("free", reg))
            del self.regs[reg]

    def load(self, name: str, attrs, attribute: str) -> None:
        if attribute not in attrs:
            raise ChainUnsupported(f"load attribute {attribute!r} not in schema")
        self.steps.append(("load", name))
        self.loads[name] = attribute
        self.regs[name] = (frozenset(attrs), attribute)

    def read(self, name: str, attrs, attribute: str) -> None:
        """Declare a register left resident by an earlier plan."""
        self.reads.append(name)
        self.regs[name] = (frozenset(attrs), attribute)

    def repartition(self, reg: str, attribute: str) -> str:
        attrs, part = self.regs[reg]
        if part == attribute:
            return reg
        if attribute not in attrs:
            raise ChainUnsupported(
                f"cannot repartition {reg!r} on foreign attribute {attribute!r}"
            )
        target = self._fresh()
        self.steps.append(("scatter", target, reg, attribute))
        self._free(reg)
        self.steps.append(("collect", target))
        self.regs[target] = (attrs, attribute)
        return target

    def join(self, left: str, right: str) -> str:
        lattrs, lpart = self.regs[left]
        rattrs, rpart = self.regs[right]
        common = lattrs & rattrs
        if not common:
            raise ChainUnsupported("cross-product join inside a chain")
        if lpart in common:
            attribute = lpart
        elif rpart in common:
            attribute = rpart
        else:
            attribute = sorted(common)[0]
        left = self.repartition(left, attribute)
        right = self.repartition(right, attribute)
        target = self._fresh()
        self.steps.append(("join", target, left, right))
        self.regs[target] = (lattrs | rattrs, attribute)
        self._free(left)
        self._free(right)
        return target

    def group(self, source: str, group_attrs) -> str:
        attrs, part = self.regs[source]
        group_attrs = tuple(group_attrs)
        if not group_attrs or part in group_attrs:
            # Root groupings (empty attrs) produce *partial* sums — their
            # only legal consumer is an emit, reduced coordinator-side.
            target = self._fresh()
            self.steps.append(("group", target, source, group_attrs))
            self.regs[target] = (frozenset(group_attrs), part)
            self._free(source)
            return target
        # Combiner: the grouping drops the partition attribute, so local
        # sums are partial.  Pre-group locally (shrinks the exchange),
        # scatter on the first group attribute, group again for finals.
        partial = self._fresh()
        self.steps.append(("group", partial, source, group_attrs))
        self.regs[partial] = (frozenset(group_attrs), part)
        self._free(source)
        moved = self.repartition(partial, group_attrs[0])
        target = self._fresh()
        self.steps.append(("group", target, moved, group_attrs))
        self.regs[target] = (frozenset(group_attrs), group_attrs[0])
        self._free(moved)
        return target

    def keep(self, name: str, source: str) -> None:
        attrs, part = self.regs[source]
        self.steps.append(("keep", name, source))
        self.regs[name] = (attrs, part)
        self.keeps[name] = part
        self._free(source)

    def emit(self, name: str, source: str) -> None:
        self.steps.append(("emit", name, source))
        self.emits.append(name)
        self._free(source)

    def plan(self) -> PipelinePlan:
        return PipelinePlan(
            steps=tuple(self.steps),
            loads=dict(self.loads),
            reads=tuple(self.reads),
            keeps=dict(self.keeps),
            emits=tuple(self.emits),
        )

    def named_registers(self) -> Dict[str, Tuple[FrozenSet[str], str]]:
        """Register info for everything that outlives this plan."""
        return {
            name: info
            for name, info in self.regs.items()
            if not name.startswith(self.TEMP_PREFIX)
        }


def compile_botjoin_chain(
    bound: BoundTree,
) -> Tuple[PipelinePlan, Dict[str, Tuple[FrozenSet[str], str]]]:
    """The bottom-up sweep as one per-shard program.

    Loads every node relation (partitioned to co-locate with its first
    child's botjoin), folds the botjoin joins worker-side, keeps each
    non-root ``bot:<id>`` resident, and emits only the root partials.
    Returns the plan plus the resident-register map the topjoin compiler
    (and delta folds) build on.
    """
    tree = bound.tree
    if len(tree.node_ids) < 2:
        raise ChainUnsupported("single-node tree gains nothing from residency")
    compiler = _ChainCompiler()
    for node_id in tree.post_order():
        node_attrs = sorted(tree.node(node_id).attributes)
        if not node_attrs:
            raise ChainUnsupported(f"nullary node relation at {node_id!r}")
        children = tree.children(node_id)
        group_attrs = sorted(tree.shared_with_parent(node_id))
        attribute = None
        for child in children:
            child_part = compiler.regs[f"bot:{child}"][1]
            if child_part in node_attrs:
                attribute = child_part
                break
        if attribute is None:
            attribute = group_attrs[0] if group_attrs else node_attrs[0]
        compiler.load(f"node:{node_id}", node_attrs, attribute)
        current = f"node:{node_id}"
        for child in children:
            current = compiler.join(current, f"bot:{child}")
        grouped = compiler.group(current, group_attrs)
        if node_id == tree.root:
            compiler.emit("root", grouped)
        else:
            compiler.keep(f"bot:{node_id}", grouped)
    return compiler.plan(), compiler.named_registers()


def compile_topjoin_chain(
    bound: BoundTree,
    resident_registers: Dict[str, Tuple[FrozenSet[str], str]],
) -> PipelinePlan:
    """The top-down sweep over the botjoin plan's resident registers.

    Reads the ``node:``/``bot:`` registers the bottom-up plan left in the
    workers, keeps every non-root ``top:<id>`` resident, and emits
    nothing — topjoins are fetched lazily, only when a sensitivity read
    actually needs them.
    """
    tree = bound.tree
    compiler = _ChainCompiler()
    for name, (attrs, part) in resident_registers.items():
        compiler.read(name, attrs, part)
    for node_id in tree.pre_order():
        if node_id == tree.root:
            continue
        parent = tree.parent(node_id)
        if parent is None:
            raise InternalError(f"non-root node {node_id} has no parent")
        group_attrs = sorted(tree.shared_with_parent(node_id))
        if not group_attrs:
            raise ChainUnsupported(
                f"node {node_id!r} shares no attributes with its parent"
            )
        current = f"node:{parent}"
        if parent != tree.root:
            current = compiler.join(current, f"top:{parent}")
        for sibling in tree.neighbours(node_id):
            current = compiler.join(current, f"bot:{sibling}")
        grouped = compiler.group(current, group_attrs)
        compiler.keep(f"top:{node_id}", grouped)
    return compiler.plan()


class ResidentMapping(MutableMapping):
    """Dict-compatible view over worker-resident registers.

    Committed writes (:meth:`__setitem__`, from the maintained state's
    commit sweep) land in a local overlay that always wins; reads of keys
    without a local value fetch the register from the workers once and
    cache it.  A failed fetch (worker death, dropped register) triggers
    ``recover()``, which recomputes the *entire* dict on the per-op path
    and populates the overlay — after which the mapping is just a dict
    with extra steps.
    """

    def __init__(
        self,
        state: WorkerState,
        register_of: Dict[str, Optional[str]],
        local: Dict[str, Optional[Relation]],
        recover: Callable[[], Dict],
    ):
        self._state = state
        self._register_of = dict(register_of)
        self._local: Dict[str, Optional[Relation]] = dict(local)
        self._recover = recover

    def peek(self, key: str) -> Optional[Relation]:
        """The locally-materialised value, or ``None`` — never fetches."""
        return self._local.get(key)

    def materialized(self, key: str) -> bool:
        return key in self._local

    def __getitem__(self, key: str):
        if key in self._local:
            return self._local[key]
        register = self._register_of.get(key)
        if register is None:
            raise KeyError(key)
        try:
            value = self._state.fetch(register)
        except InternalError:
            self._local.update(self._recover())
            return self._local[key]
        self._local[key] = value
        return value

    def __setitem__(self, key: str, value) -> None:
        self._local[key] = value

    def __delitem__(self, key: str) -> None:
        self._local.pop(key, None)
        self._register_of.pop(key, None)

    def __iter__(self):
        return iter(set(self._register_of) | set(self._local))

    def __len__(self) -> int:
        return len(set(self._register_of) | set(self._local))


class ResidentFoldPipeline:
    """Compiles and drives the worker-resident chain of one component.

    Owns one :class:`~repro.engine.parallel.WorkerState`; the bottom-up
    plan runs on first botjoin materialisation, the top-down plan on
    first topjoin materialisation, and committed update deltas fold into
    the resident registers via :meth:`fold`.  Every failure path disables
    the pipeline and lands on the per-op sharded path — never on wrong
    answers.
    """

    def __init__(
        self,
        bound: BoundTree,
        parallel,
        shards,
        state: WorkerState,
        bot_plan: PipelinePlan,
        top_plan: PipelinePlan,
        registers: Dict[str, Tuple[FrozenSet[str], str]],
    ):
        self.bound = bound
        self.parallel = parallel
        self.shards = shards
        self.state = state
        self._bot_plan = bot_plan
        self._top_plan = top_plan
        self._registers = registers
        self.enabled = True
        self._botjoins: Optional[ResidentMapping] = None

    @classmethod
    def try_create(cls, bound: BoundTree, parallel, shards):
        """A pipeline for this component, or ``None`` for the per-op path.

        Gates: an active multi-worker context with chains on, at least
        two tree nodes, a single backend across the node relations, and
        at least one operand past the context's fan-out threshold.
        """
        if parallel is None or not getattr(parallel, "active", False):
            return None
        if not getattr(parallel, "chains", False):
            return None
        relations = list(bound.node_relations.values())
        if not relations or len({type(r) for r in relations}) != 1:
            return None
        if max(r.distinct_count() for r in relations) < max(
            1, parallel.min_shard_rows
        ):
            return None
        try:
            bot_plan, registers = compile_botjoin_chain(bound)
            top_plan = compile_topjoin_chain(bound, registers)
        except ChainUnsupported:
            return None
        state = parallel.chain_state()
        if state is None:
            return None
        return cls(bound, parallel, shards, state, bot_plan, top_plan, registers)

    def disable(self) -> None:
        """Stop using the resident path; registers are dropped."""
        self.enabled = False
        self.state.drop()

    def close(self) -> None:
        self.enabled = False
        self.state.close()

    # ------------------------------------------------------------- sweeps
    def botjoins(self) -> ResidentMapping:
        """Run the bottom-up plan; only the root aggregate comes home."""
        tree = self.bound.tree
        inputs = {
            name: self.bound.node_relations[name.partition(":")[2]]
            for name in self._bot_plan.loads
        }
        emits = self.state.run_plan(self._bot_plan, inputs)
        register_of = {
            node_id: f"bot:{node_id}"
            for node_id in tree.node_ids
            if node_id != tree.root
        }
        mapping = ResidentMapping(
            self.state,
            register_of,
            {tree.root: emits["root"]},
            self._recover_botjoins,
        )
        self._botjoins = mapping
        return mapping

    def topjoins(self, botjoins) -> ResidentMapping:
        """Run the top-down sweep against the resident botjoins."""
        tree = self.bound.tree
        self.state.run_plan(self._top_plan, {})
        register_of = {
            node_id: f"top:{node_id}"
            for node_id in tree.node_ids
            if node_id != tree.root
        }
        return ResidentMapping(
            self.state,
            register_of,
            {tree.root: None},
            lambda: self._recover_topjoins(botjoins),
        )

    # ----------------------------------------------------------- recovery
    def _recover_botjoins(self) -> Dict[str, Relation]:
        self.disable()
        return compute_botjoins(
            self.bound, parallel=self.parallel, shard_cache=self.shards
        )

    def _recover_topjoins(self, botjoins) -> Dict[str, Optional[Relation]]:
        self.disable()
        return compute_topjoins(
            self.bound, botjoins, parallel=self.parallel, shard_cache=self.shards
        )

    # -------------------------------------------------------- maintenance
    def fold(self, name: str, folds, new_source) -> bool:
        """Fold committed deltas into one resident register (never raises).

        ``new_source`` (the relation the maintained state just committed,
        when it is materialised) cross-checks the folded total; a mismatch
        or any failure drops the register, and the next read recomputes.
        """
        if not self.enabled:
            return False
        expected = new_source.total_count() if new_source is not None else None
        return self.state.fold_delta(name, folds, expected_total=expected)


def count_bound(bound: BoundTree) -> int:
    """``|Q(D)|`` from a bound tree via one botjoin pass."""
    botjoins = compute_botjoins(bound)
    return botjoins[bound.tree.root].total_count()


def semijoin_reduce(bound: BoundTree) -> Dict[str, Relation]:
    """Full (two-pass) semijoin reduction of the node relations.

    After the bottom-up and top-down passes, every remaining tuple
    participates in at least one join result, so the final join phase never
    grows beyond the output size.  Returns the reduced node relations.
    """
    tree = bound.tree
    reduced = dict(bound.node_relations)
    for node_id in tree.post_order():
        for child in tree.children(node_id):
            reduced[node_id] = semijoin(reduced[node_id], reduced[child])
    for node_id in tree.pre_order():
        parent = tree.parent(node_id)
        if parent is not None:
            reduced[node_id] = semijoin(reduced[node_id], reduced[parent])
    return reduced


def evaluate_bound(bound: BoundTree) -> Relation:
    """The full bag join output of a bound tree."""
    reduced = semijoin_reduce(bound)
    result: Optional[Relation] = None
    for node_id in bound.tree.pre_order():
        rel = reduced[node_id]
        result = rel if result is None else join(result, rel)
    if result is None:
        raise InternalError("bound query has no nodes to evaluate")
    return result


def default_tree(query: ConjunctiveQuery, max_width: int = 3) -> DecompositionTree:
    """The tree the engine picks when the caller supplies none: GYO join
    tree for acyclic queries, automatic GHD (node size ≤ ``max_width``)
    otherwise.  The query must be connected (components are handled by the
    top-level functions)."""
    return auto_decompose(query, max_width=max_width)


def _component_trees(
    query: ConjunctiveQuery,
    tree: Optional[DecompositionTree],
    max_width: int = 3,
) -> List[Tuple[ConjunctiveQuery, DecompositionTree]]:
    if tree is not None:
        return [(query, tree)]
    components = query.connected_components()
    if len(components) == 1:
        return [(query, default_tree(query, max_width))]
    pairs: List[Tuple[ConjunctiveQuery, DecompositionTree]] = []
    for i, component in enumerate(components):
        sub = query.subquery(component, name=f"{query.name}#c{i}")
        pairs.append((sub, default_tree(sub, max_width)))
    return pairs


def count_query(
    query: ConjunctiveQuery, db: Database, tree: Optional[DecompositionTree] = None
) -> int:
    """``|Q(D)|`` under bag semantics.

    Disconnected queries multiply their components' counts (the join of
    attribute-disjoint components is a cross product).
    """
    total = 1
    for sub, sub_tree in _component_trees(query, tree):
        total *= count_bound(bind(sub, sub_tree, db))
        if total == 0:
            return 0
    return total


def evaluate_query(
    query: ConjunctiveQuery, db: Database, tree: Optional[DecompositionTree] = None
) -> Relation:
    """The full join output ``Q(D)`` as a bag relation."""
    result: Optional[Relation] = None
    for sub, sub_tree in _component_trees(query, tree):
        part = evaluate_bound(bind(sub, sub_tree, db))
        result = part if result is None else join(result, part)
    if result is None:
        raise InternalError("query has no connected components to evaluate")
    return result


def naive_join(query: ConjunctiveQuery, db: Database) -> Relation:
    """Left-deep join in body order — the brute-force oracle for tests."""
    parts = [query.bound_relation(db, rel) for rel in query.relation_names]
    return join_all(parts)
