"""Lowering a compiled :class:`Program` into a def-use IR.

Every leaf op of every visit becomes one :class:`IRNode` carrying its
memory *effects*: which frame-buffer words (when an allocation map is
available) or context-memory words it reads and writes.  A verifier
style replay threads values through the nodes, producing one
:class:`ValueLifetime` per resident instance — its defining node, every
consuming node, the visit at whose end it leaves the set, and the
node-order position at which the allocator returns its words to the
free list.

The IR is purely *program-order*: it says what the program means, not
when the DMA channel moves the words.  The timing dimension is added
separately by :class:`repro.dataflow.hazards.HappensBefore`; the hazard
passes (:mod:`repro.dataflow.passes`) then check that the timing order
can never contradict the program order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.frame_buffer import Extent
from repro.codegen.ops import VisitOps
from repro.codegen.program import Program
from repro.codegen.residency import ResidencyReplay

__all__ = [
    "CONTEXT_LOAD",
    "DATA_LOAD",
    "COMPUTE",
    "STORE",
    "Access",
    "IRNode",
    "ValueLifetime",
    "VisitNodes",
    "ProgramIR",
    "lower_program",
]

#: Node kinds, one per leaf op class.
CONTEXT_LOAD = "context_load"
DATA_LOAD = "data_load"
COMPUTE = "compute"
STORE = "store"


@dataclass(frozen=True)
class Access:
    """One read or write of a word range by a node.

    Attributes:
        space: ``"fb"`` (a frame-buffer set) or ``"cm"`` (a context
            memory block).
        index: the set index or block index within the space.
        extents: the word ranges touched.
        write: True for a write, False for a read.
        value_id: the :class:`ValueLifetime` involved (FB accesses of
            known values only; ``None`` for CM accesses and for
            accesses whose placement is unknown).
    """

    space: str
    index: int
    extents: Tuple[Extent, ...]
    write: bool
    value_id: Optional[int] = None


@dataclass(frozen=True)
class IRNode:
    """One leaf op with its memory effects.

    ``node_id`` doubles as the node's program-order position: ids are
    assigned sequentially in replay order (context loads, data loads,
    compute, stores — visit by visit).
    """

    node_id: int
    kind: str
    visit_index: int
    op: object
    accesses: Tuple[Access, ...]

    def describe(self) -> str:
        """Short human-readable label, e.g. ``"load x#3"``."""
        op = self.op
        if self.kind == CONTEXT_LOAD:
            return f"ctx {op.kernel}"
        if self.kind == DATA_LOAD:
            return f"load {op.name}#{op.iteration}"
        if self.kind == STORE:
            return f"store {op.name}#{op.iteration}"
        return f"run {op.kernel}#{op.iteration}"


@dataclass
class ValueLifetime:
    """One resident instance of one object in one FB set.

    Positions (``def_pos`` / ``release_pos``) live on a doubled node-id
    scale so an end-of-node release (``2 * node + 1``) sorts strictly
    between the node itself and its successor.  ``release_pos`` mirrors
    the allocator's free rules: stored/kept/outbound values hold their
    words until the end of the visit that drains them; plain inputs and
    intermediates return their words right after their last use.
    """

    value_id: int
    name: str
    instance: int
    fb_set: int
    words: int
    def_node: int
    def_visit: int
    def_kind: str
    extents: Tuple[Extent, ...] = ()
    uses: List[int] = field(default_factory=list)
    store_nodes: List[int] = field(default_factory=list)
    kept: bool = False
    survived_drain: bool = False
    end_visit: int = -1
    release_pos: int = -1

    @property
    def def_pos(self) -> int:
        return 2 * self.def_node

    @property
    def dead(self) -> bool:
        """Loaded (or produced) but never read by any kernel."""
        return not self.uses

    @property
    def last_use_node(self) -> Optional[int]:
        candidates = list(self.uses) + list(self.store_nodes)
        return max(candidates) if candidates else None


@dataclass(frozen=True)
class VisitNodes:
    """The node-id groups of one visit, in program order."""

    visit_index: int
    context_loads: Tuple[int, ...]
    data_loads: Tuple[int, ...]
    compute: Tuple[int, ...]
    stores: Tuple[int, ...]

    @property
    def last(self) -> int:
        for group in (self.stores, self.compute, self.data_loads,
                      self.context_loads):
            if group:
                return group[-1]
        raise ValueError("empty visit")


@dataclass
class ProgramIR:
    """The lowered def-use IR of one program."""

    program: Program
    nodes: List[IRNode]
    visit_nodes: List[VisitNodes]
    values: List[ValueLifetime]
    has_placement: bool
    fb_capacity: int
    cm_block_capacity: int

    def describe(self, node_id: int) -> str:
        node = self.nodes[node_id]
        return f"{node.describe()} (visit {node.visit_index})"


def _placement_index(
    allocations: Optional[Sequence[object]],
) -> Optional[Tuple[Dict[Tuple[str, int], Dict[int, Tuple[Extent, ...]]], ...]]:
    """Per-set ``(name, instance-in-round) -> {cluster -> extents}`` tables.

    An object consumed by several clusters of the same set gets one
    record *per consuming cluster* (each visit re-loads it into whatever
    words are free then), so the cluster index is part of the key.
    """
    if not allocations:
        return None
    tables: List[Dict[Tuple[str, int], Dict[int, Tuple[Extent, ...]]]] = []
    for alloc_map in allocations:
        table: Dict[Tuple[str, int], Dict[int, Tuple[Extent, ...]]] = {}
        for record in alloc_map.records:
            table.setdefault((record.name, record.instance), {})[
                record.cluster_index
            ] = record.extents
        tables.append(table)
    return tuple(tables)


def lower_program(
    program: Program,
    allocations: Optional[Sequence[object]] = None,
) -> ProgramIR:
    """Lower *program* into a :class:`ProgramIR`.

    Args:
        program: the compiled program.
        allocations: the ``(set0, set1)`` :class:`AllocationMap` pair
            from :class:`~repro.alloc.allocator.FrameBufferAllocator`.
            When omitted, FB accesses carry no extents and the word
            level passes degrade to what sizes alone can prove.

    The lowering is a :class:`~repro.codegen.residency.ResidencyReplay`,
    the same walk the verifier reports from, so it tolerates the same
    broken programs the verifier reports on (a missing operand becomes
    a value-less read, not a crash).
    """
    lowering = _Lowering(program.schedule, _placement_index(allocations))
    for ops in program.visits:
        lowering.step(ops)
    # A well-formed program drains everything; close leftovers anyway so
    # broken programs still produce a complete IR.
    nodes = lowering.nodes
    last_node = max(len(nodes) - 1, 0)
    last_visit = program.visits[-1].visit.index if program.visits else -1
    for in_set in lowering.resident:
        for bucket in in_set.values():
            for value in bucket.values():
                _close(value, last_visit, last_node)

    schedule = program.schedule
    return ProgramIR(
        program=program,
        nodes=nodes,
        visit_nodes=lowering.visit_nodes,
        values=lowering.values,
        has_placement=lowering.placement is not None,
        fb_capacity=schedule.fb_set_words,
        cm_block_capacity=lowering.rules.block_capacity(
            ops.context_words for ops in program.visits
        ),
    )


def _close(value: ValueLifetime, end_visit: int, end_node: int) -> None:
    """Record that *value* leaves its set at *end_node* of *end_visit*."""
    value.end_visit = end_visit
    last_use = value.last_use_node
    if value.kept or value.store_nodes or last_use is None:
        # Stored and kept values hold their words until the draining
        # visit's finish phase completes (stores issued / keep span
        # ended); the others free theirs right after their last use.
        last_use = end_node
    value.release_pos = 2 * last_use + 1


class _Lowering(ResidencyReplay[ValueLifetime]):
    """The residency replay, recording one node per op and one
    :class:`ValueLifetime` per resident instance."""

    def __init__(self, schedule, placement) -> None:
        super().__init__(schedule)
        self.dataflow = schedule.dataflow
        self.placement = placement
        self.nodes: List[IRNode] = []
        self.visit_nodes: List[VisitNodes] = []
        self.values: List[ValueLifetime] = []
        # Node ids of the current visit, per phase.
        self.groups: Tuple[List[int], ...] = ([], [], [], [])
        self.accesses: List[Access] = []

    def _extents(self, ops: VisitOps, name: str,
                 instance: int) -> Tuple[Extent, ...]:
        if self.placement is None:
            return ()
        visit = ops.visit
        invariant = name in self.dataflow and self.dataflow[name].invariant
        in_round = 0 if invariant else instance - visit.iterations[0]
        by_cluster = self.placement[visit.fb_set].get((name, in_round))
        if not by_cluster:
            return ()
        extents = by_cluster.get(visit.cluster_index)
        if extents is not None:
            return extents
        if len(by_cluster) == 1:
            return next(iter(by_cluster.values()))
        return ()

    def _node(self, kind: str, ops: VisitOps, op: object,
              accesses: Sequence[Access]) -> int:
        node_id = len(self.nodes)
        self.nodes.append(IRNode(node_id, kind, ops.visit.index, op, tuple(accesses)))
        return node_id

    def _value(self, ops: VisitOps, name: str, instance: int, words: int,
               kind: str, previous: Optional[ValueLifetime]) -> ValueLifetime:
        fb_set = ops.visit.fb_set
        node_id = len(self.nodes)
        value = ValueLifetime(
            value_id=len(self.values),
            name=name,
            instance=instance,
            fb_set=fb_set,
            words=words,
            def_node=node_id,
            def_visit=ops.visit.index,
            def_kind=kind,
            extents=self._extents(ops, name, instance),
            kept=self.rules.homes.get(name) == fb_set,
        )
        if previous is not None:
            # A redundant load or rerun clobbers the old value.
            _close(previous, ops.visit.index, node_id)
        self.values.append(value)
        return value

    def on_context_load(self, ops: VisitOps, load, extent) -> None:
        self.groups[0].append(self._node(
            CONTEXT_LOAD, ops, load,
            [Access("cm", ops.visit.cm_block, (extent,), True)],
        ))

    def on_load(self, ops: VisitOps, load, previous) -> ValueLifetime:
        value = self._value(ops, load.name, load.iteration, load.words,
                            DATA_LOAD, previous)
        self.groups[1].append(self._node(
            DATA_LOAD, ops, load,
            [Access("fb", value.fb_set, value.extents, True, value.value_id)]
            if value.extents else [],
        ))
        return value

    def begin_run(self, ops: VisitOps, run, region) -> None:
        self.accesses = (
            [] if region is None
            else [Access("cm", ops.visit.cm_block, (region,), False)]
        )

    def on_operand(self, ops: VisitOps, run, name: str, instance: int,
                   home: int, value: ValueLifetime) -> None:
        value.uses.append(len(self.nodes))
        if value.extents:
            self.accesses.append(Access(
                "fb", value.fb_set, value.extents, False, value.value_id,
            ))

    def on_output(self, ops: VisitOps, run, name: str,
                  previous) -> ValueLifetime:
        value = self._value(
            ops, name, run.iteration,
            self.dataflow[name].size if name in self.dataflow else 0,
            COMPUTE, previous,
        )
        if value.extents:
            self.accesses.append(Access(
                "fb", value.fb_set, value.extents, True, value.value_id,
            ))
        return value

    def end_run(self, ops: VisitOps, run) -> None:
        self.groups[2].append(self._node(COMPUTE, ops, run, self.accesses))

    def on_store(self, ops: VisitOps, store, value) -> None:
        accesses = []
        if value is not None:
            value.store_nodes.append(len(self.nodes))
            if value.extents:
                accesses.append(Access(
                    "fb", value.fb_set, value.extents, False, value.value_id,
                ))
        self.groups[3].append(self._node(STORE, ops, store, accesses))

    def on_drain(self, ops: VisitOps, released) -> None:
        visit = ops.visit
        group = VisitNodes(visit.index, *(tuple(ids) for ids in self.groups))
        self.visit_nodes.append(group)
        self.groups = ([], [], [], [])
        if (group.stores or group.compute or group.data_loads
                or group.context_loads):
            end_node = group.last
        else:
            end_node = max(len(self.nodes) - 1, 0)
        for bucket in released:
            for value in bucket.values():
                _close(value, visit.index, end_node)
        for bucket in self.resident[visit.fb_set].values():
            for value in bucket.values():
                value.survived_drain = True
