"""Lowering a :class:`Schedule` to a :class:`Program`.

For every round and cluster the generator emits one :class:`VisitOps`:

* context loads for all of the cluster's kernels (one CM block per
  visit, alternating);
* data loads for each object in the cluster plan's ``loads``, one per
  iteration of the round.  Kept inputs produce **no** load — that is
  the Complete Data Scheduler's saving made concrete;
* kernel launches in loop-fission order (kernel-outer,
  iteration-inner);
* stores for each object in the plan's ``stores``, one per iteration.

Loads are emitted in first-use order (shared data with the most
distant consumer first, then inputs by their last consuming kernel,
mirroring the allocator's placement order) so the DMA delivers data in
the order the cluster needs it.

Visits are round-invariant per cluster: between two visits of the same
cluster only the visit index, the iteration window and the CM-block
parity change.  So each cluster is compiled **once** into a
:class:`ClusterTemplate` (load order, context loads, kernel launches
and stores as small per-cluster tables), and the program's ``visits``
is a :class:`TemplateVisits` lazy sequence that stamps every
:class:`VisitOps` from the templates on first access.  Consumers that
never touch the ops, notably the fast verifier
(:mod:`repro.codegen.fastverify`), read the templates directly and
skip materialization entirely.  The eager per-visit emitter in
:mod:`repro.fuzz._eager_codegen` is the oracle the stamped ops are
held byte-identical to (the golden suite and the ``progequiv`` fuzz
oracle).
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from typing import Dict, List, Optional, Tuple

from repro.alloc.allocator import input_placement_order
from repro.codegen.ops import LoadContext, LoadData, RunKernel, StoreData, Visit, VisitOps
from repro.codegen.program import Program
from repro.errors import CodegenError
from repro.schedule.plan import Schedule

__all__ = [
    "ClusterTemplate",
    "TemplateVisits",
    "cluster_codegen_facts",
    "generate_program",
]


def generate_program(
    schedule: Schedule, *, reuse_resident_contexts: bool = False
) -> Program:
    """Lower *schedule* into an executable :class:`Program`.

    Args:
        schedule: the schedule to lower.
        reuse_resident_contexts: skip a visit's context loads when its
            CM block still holds exactly that cluster's contexts from
            two visits ago (possible for applications with one or two
            clusters, where the blocks never get displaced).  Off by
            default — the paper's accounting assumes contexts are
            loaded once per visit (``n/RF`` times per kernel).
    """
    templates = _build_templates(schedule)
    flags = _context_flags(schedule, len(templates), reuse_resident_contexts)
    return Program(
        schedule=schedule,
        visits=TemplateVisits(schedule, templates, flags),
    )


class ClusterTemplate:
    """Round-invariant codegen facts for one cluster.

    Attributes:
        cluster_index: the cluster this template stamps visits for.
        fb_set: frame-buffer set the cluster executes from.
        context_loads: the context-load op tuple per CM block parity
            (index 0 and 1) — complete, validated ops shared by every
            stamped visit of matching parity.
        context_total: context words one full refill moves.
        loads: ``(name, words, fixed_iterations)`` per planned load, in
            the allocator's placement order; ``fixed_iterations`` is
            ``(0,)`` for iteration-invariant objects (always moved as
            instance 0, truthy) and ``None`` for per-iteration objects
            (falsy — stamp over the visit's window).
        compute: ``(kernel_name, cycles)`` per kernel, execution order.
        stores: ``(name, words)`` per planned store.
    """

    __slots__ = (
        "cluster_index", "fb_set", "context_loads", "context_total",
        "loads", "compute", "stores",
    )

    def __init__(
        self,
        cluster_index: int,
        fb_set: int,
        context_loads: Tuple[Tuple[LoadContext, ...], Tuple[LoadContext, ...]],
        loads: Tuple[Tuple[str, int, Optional[Tuple[int, ...]]], ...],
        compute: Tuple[Tuple[str, int], ...],
        stores: Tuple[Tuple[str, int], ...],
    ) -> None:
        self.cluster_index = cluster_index
        self.fb_set = fb_set
        self.context_loads = context_loads
        self.context_total = sum(load.words for load in context_loads[0])
        self.loads = loads
        self.compute = compute
        self.stores = stores


def _build_templates(schedule: Schedule) -> Tuple[ClusterTemplate, ...]:
    """Compile every cluster of *schedule* into its template, in
    clustering order.  Raises :class:`CodegenError` for a cluster with
    no compute."""
    dataflow = schedule.dataflow
    templates: List[ClusterTemplate] = []
    for cluster in schedule.clustering:
        if not cluster.kernel_names:
            raise CodegenError(f"cluster {cluster.name} generates no compute")
        plan = schedule.plan_for(cluster.index)
        load_order, context_loads = cluster_codegen_facts(schedule, cluster)
        loads = tuple(
            (
                name,
                dataflow[name].size,
                (0,) if dataflow[name].invariant else None,
            )
            for name in load_order
        )
        compute = tuple(
            (kernel.name, kernel.cycles)
            for kernel in schedule.clustering.kernels_of(cluster)
        )
        stores = tuple(
            (name, dataflow[name].size) for name in plan.stores
        )
        templates.append(
            ClusterTemplate(
                cluster.index, cluster.fb_set, context_loads,
                loads, compute, stores,
            )
        )
    return tuple(templates)


def _context_flags(
    schedule: Schedule, n_clusters: int, reuse: bool
) -> Optional[Tuple[bool, ...]]:
    """Per-visit "this visit loads contexts" flags, or ``None`` when
    every visit does (the default accounting)."""
    if not reuse:
        return None
    flags: List[bool] = []
    block_holds: List[Optional[int]] = [None, None]
    for index in range(schedule.rounds * n_clusters):
        cluster_index = index % n_clusters
        block = index % 2
        if block_holds[block] == cluster_index:
            flags.append(False)
        else:
            flags.append(True)
            block_holds[block] = cluster_index
    return tuple(flags)


class TemplateVisits(Sequence):
    """Lazy visit sequence of a template-compiled program.

    Behaves exactly like the tuple of its :class:`VisitOps`: equality,
    hashing, indexing and slicing all materialize on demand and compare
    by value, so a program equals one holding the plain tuple.  Slices
    return plain tuples (callers splice mutated visits back together as
    tuples).
    """

    __slots__ = ("schedule", "templates", "context_flags", "_count", "_ops")

    def __init__(
        self,
        schedule: Schedule,
        templates: Tuple[ClusterTemplate, ...],
        context_flags: Optional[Tuple[bool, ...]],
    ) -> None:
        self.schedule = schedule
        self.templates = templates
        self.context_flags = context_flags
        self._count = schedule.rounds * len(templates)
        self._ops: Optional[Tuple[VisitOps, ...]] = None

    # -- materialization ---------------------------------------------------

    def materialize(self) -> Tuple[VisitOps, ...]:
        """The full op tuple, stamped from the templates (cached)."""
        ops = self._ops
        if ops is None:
            ops = self._ops = self._stamp()
            # The templates have served their purpose; the cached tuple
            # now answers every access.
        return ops

    def _stamp(self) -> Tuple[VisitOps, ...]:
        # Stamping is correct by construction — windows are non-empty
        # ascending ranges and the template tables are pre-validated —
        # so the frozen-dataclass constructors (generated __init__,
        # per-field object.__setattr__, __post_init__ re-validation)
        # are bypassed with direct __dict__ assignment, and the leaf
        # ops skip their validating __new__ the same way.
        schedule = self.schedule
        templates = self.templates
        flags = self.context_flags
        new = tuple.__new__
        obj_new = object.__new__
        visits: List[VisitOps] = []
        append = visits.append
        visit_index = 0
        next_iteration = 0
        for round_index in range(schedule.rounds):
            round_iterations = schedule.iterations_in_round(round_index)
            iterations = tuple(
                range(next_iteration, next_iteration + round_iterations)
            )
            next_iteration += round_iterations
            for template in templates:
                fb_set = template.fb_set
                if flags is not None and not flags[visit_index]:
                    context_loads: Tuple[LoadContext, ...] = ()
                else:
                    context_loads = template.context_loads[visit_index % 2]
                visit = obj_new(Visit)
                # Frozen dataclasses veto __setattr__, but mutating
                # the instance dict directly is allowed — and skips
                # the generated __init__ entirely.
                visit.__dict__.update(
                    index=visit_index,
                    round_index=round_index,
                    cluster_index=template.cluster_index,
                    fb_set=fb_set,
                    iterations=iterations,
                )
                visit_index += 1
                ops = obj_new(VisitOps)
                ops.__dict__.update(
                    visit=visit,
                    context_loads=context_loads,
                    data_loads=tuple([
                        new(LoadData, (name, iteration, size, fb_set))
                        for name, size, fixed in template.loads
                        for iteration in (fixed or iterations)
                    ]),
                    compute=tuple([
                        new(RunKernel, (kernel, iteration, cycles, fb_set))
                        for kernel, cycles in template.compute
                        for iteration in iterations
                    ]),
                    stores=tuple([
                        new(StoreData, (name, iteration, size, fb_set))
                        for name, size in template.stores
                        for iteration in iterations
                    ]),
                )
                append(ops)
        return tuple(visits)

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self.materialize())

    def __getitem__(self, index):
        # Slices return plain tuples: callers splice visit tuples
        # together (``visits[:i] + (mutated,) + visits[i + 1:]``).
        return self.materialize()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TemplateVisits):
            return self.materialize() == other.materialize()
        if isinstance(other, tuple):
            return self.materialize() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.materialize())

    def __repr__(self) -> str:
        return repr(self.materialize())

    def __reduce__(self):
        # Pickle (and deepcopy) as the plain tuple: transported
        # programs are indistinguishable from eagerly built ones.
        return (tuple, (self.materialize(),))


# Cluster codegen facts (load order + per-parity context loads) are
# pure functions of the cluster plan, the keep set and the dataflow.
# They are memoized so repeated ``generate_program`` calls over the
# same workload — warm corpus replays, service followers, the three
# schedulers of one comparison sharing an application/clustering —
# skip the O(kernels x loads) ordering work.  Keys carry content (plan loads, keeps, kernel names) plus the
# identity of the application/clustering objects; weak references
# guard against id() reuse after garbage collection.
_FACTS_MEMO: Dict[tuple, tuple] = {}
_FACTS_MEMO_CAP = 4096


def cluster_codegen_facts(
    schedule: Schedule, cluster
) -> Tuple[Tuple[str, ...], Tuple[Tuple[LoadContext, ...], ...]]:
    """``(load_order, context_loads_per_cm_block)`` for one cluster."""
    plan = schedule.plan_for(cluster.index)
    key = (
        cluster.index,
        cluster.fb_set,
        cluster.kernel_names,
        plan.loads,
        schedule.keeps,
        id(schedule.application),
        id(schedule.clustering),
    )
    entry = _FACTS_MEMO.get(key)
    if entry is not None:
        app_ref, clustering_ref, facts = entry
        if (
            app_ref() is schedule.application
            and clustering_ref() is schedule.clustering
        ):
            return facts
    order = input_placement_order(schedule, cluster)
    context_loads = tuple(
        tuple(
            LoadContext(
                kernel=kernel.name,
                words=kernel.context_words,
                cm_block=block,
            )
            for kernel in schedule.clustering.kernels_of(cluster)
        )
        for block in (0, 1)
    )
    facts = (order, context_loads)
    if len(_FACTS_MEMO) >= _FACTS_MEMO_CAP:
        _FACTS_MEMO.clear()
    _FACTS_MEMO[key] = (
        weakref.ref(schedule.application),
        weakref.ref(schedule.clustering),
        facts,
    )
    return facts
