"""The hazard passes over the def-use IR.

Five checks, each emitting through a lint-style ``emit(code, message,
location=..., cost_words=..., **details)`` callable:

* ``HAZ001`` **race detection** — program order says access *A*
  precedes access *B* on overlapping words, but the happens-before
  graph cannot prove the DMA/RC-array timing preserves that order.
  Covers the classic overlap-window clobber: arriving loads issued
  ahead of the departing visit's stores, landing in words the pending
  stores still have to read.
* ``HAZ002`` **live-range interference** — two values whose program
  order lifetimes overlap occupy overlapping FB words.  An end-to-end
  cross-check of :class:`~repro.alloc.allocator.FrameBufferAllocator`
  from the *program's* perspective.
* ``HAZ003`` **capacity over time** — CM block refills within budget,
  FB residency along the program order within the set capacity, and
  every loads-before-stores overlap window within the ``DS(C) <= FBS``
  budget the adaptive policy's soundness argument relies on.
* ``DFA001`` **dead transfers** — values defined by a data load and
  never read by any kernel: pure wasted traffic, priced in words.
* ``DFA002`` **retention liveness** — keep decisions whose retained
  values survive a drain but are never read afterwards: the retention
  buys none of its claimed traffic savings.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.dataflow.hazards import HappensBefore
from repro.dataflow.ir import COMPUTE, DATA_LOAD, ProgramIR, ValueLifetime

__all__ = [
    "HAZARD_RULES",
    "check_races",
    "check_interference",
    "check_dead_transfers",
    "check_retention_liveness",
    "check_capacity",
    "run_hazard_passes",
]

#: Every rule code the hazard passes can emit.
HAZARD_RULES: Tuple[str, ...] = (
    "HAZ001", "HAZ002", "HAZ003", "DFA001", "DFA002",
)

Emit = Callable[..., object]


_State = Tuple[Optional[int], Tuple[int, ...]]


class _IntervalMap:
    """Last-accessor state per word over one address space.

    Segments are disjoint, sorted ``[start, end)`` ranges, each holding
    the last writing node and the reading nodes since that write
    (``state``).  They live in three parallel lists; since segments are
    disjoint, ``ends`` is sorted too.  An access bisects for the run of
    segments it overlaps and splices only that run back, so it costs
    ``O(log n + k)`` plus one list splice, for *n* segments of which *k*
    overlap — not a scan and re-sort of all *n*.  Segments are never
    merged: the boundaries, the per-word state and the returned
    predecessors are exactly those of a per-segment scan.
    """

    __slots__ = ("_starts", "_ends", "_state")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._state: List[_State] = []

    def access(
        self, start: int, end: int, node: int, write: bool
    ) -> Dict[int, int]:
        """Record an access; return predecessor nodes -> words shared."""
        starts, ends, state = self._starts, self._ends, self._state
        first = bisect_right(ends, start)
        last = bisect_left(starts, end, first)
        preds: Dict[int, int] = {}
        new_starts: List[int] = []
        new_ends: List[int] = []
        new_state: List[_State] = []
        cursor = start
        for i in range(first, last):
            seg_start, seg_end = starts[i], ends[i]
            writer, readers = state[i]
            lo = max(start, seg_start)
            hi = min(end, seg_end)
            words = hi - lo
            if writer is not None and writer != node:
                preds[writer] = preds.get(writer, 0) + words
            if write:
                for reader in readers:
                    if reader != node:
                        preds[reader] = preds.get(reader, 0) + words
                continue
            if cursor < lo:  # reads over previously untouched words
                new_starts.append(cursor)
                new_ends.append(lo)
                new_state.append((None, (node,)))
            # Non-overlapping remnants keep their old state.
            if seg_start < lo:
                new_starts.append(seg_start)
                new_ends.append(lo)
                new_state.append(state[i])
            new_starts.append(lo)
            new_ends.append(hi)
            new_state.append((writer, readers + (node,)))
            if hi < seg_end:
                new_starts.append(hi)
                new_ends.append(seg_end)
                new_state.append(state[i])
            cursor = hi
        if write:
            if first < last and starts[first] < start:
                new_starts.append(starts[first])
                new_ends.append(start)
                new_state.append(state[first])
            new_starts.append(start)
            new_ends.append(end)
            new_state.append((node, ()))
            if first < last and ends[last - 1] > end:
                new_starts.append(end)
                new_ends.append(ends[last - 1])
                new_state.append(state[last - 1])
        elif cursor < end:
            new_starts.append(cursor)
            new_ends.append(end)
            new_state.append((None, (node,)))
        starts[first:last] = new_starts
        ends[first:last] = new_ends
        state[first:last] = new_state
        return preds


def check_races(ir: ProgramIR, hb: HappensBefore, emit: Emit) -> None:
    """HAZ001: program order vs. happens-before over shared words."""
    maps: Dict[Tuple[str, int], _IntervalMap] = {}
    conflicts: Dict[Tuple[int, int], Dict[str, object]] = {}
    for node in ir.nodes:
        for access in node.accesses:
            space = maps.setdefault(
                (access.space, access.index), _IntervalMap()
            )
            for extent in access.extents:
                preds = space.access(
                    extent.start, extent.end, node.node_id, access.write
                )
                for pred, words in preds.items():
                    pred_node = ir.nodes[pred]
                    if pred_node.kind == COMPUTE and node.kind == COMPUTE:
                        continue  # one RC array: always ordered
                    if hb.happens_before(pred, node.node_id):
                        continue
                    key = (pred, node.node_id)
                    entry = conflicts.setdefault(key, {
                        "space": access.space,
                        "index": access.index,
                        "words": 0,
                        "reversed": hb.happens_before(node.node_id, pred),
                    })
                    entry["words"] = int(entry["words"]) + words
    for (pred, succ), entry in sorted(conflicts.items()):
        succ_node = ir.nodes[succ]
        space = "CM block" if entry["space"] == "cm" else "FB set"
        how = (
            "is overtaken by" if entry["reversed"]
            else "is unordered against"
        )
        emit(
            "HAZ001",
            f"{ir.describe(pred)} {how} {ir.describe(succ)} on "
            f"{entry['words']} shared word(s) of {space} {entry['index']} "
            f"under policy {hb.policy.name}",
            location=f"visit {succ_node.visit_index}",
            cost_words=int(entry["words"]),
            policy=hb.policy.name,
            first=ir.describe(pred),
            second=ir.describe(succ),
            space=f"{entry['space']}{entry['index']}",
            reversed_order=bool(entry["reversed"]),
        )


def check_interference(ir: ProgramIR, emit: Emit) -> None:
    """HAZ002: simultaneously-live values never share FB words.

    A sweep line over each set's values in ``def_pos`` order: a heap on
    ``release_pos`` expires values, and the extents of the live ones sit
    in a sorted ``(start, end, index)`` list.  A value's candidates are
    the live extents starting in ``[start - max_extent + 1, end)`` of
    one of its own extents, found by bisection.  That costs
    ``O(n log n)`` plus the candidates examined, instead of comparing
    each value with every live one.  Candidates are reported in
    ``def_pos`` order (the order they became live), with the overlap
    summed over every pair of extents.
    """
    if not ir.has_placement:
        return
    for fb_set in (0, 1):
        placed = [
            value for value in ir.values
            if value.fb_set == fb_set and value.extents
        ]
        placed.sort(key=lambda value: value.def_pos)
        max_extent = max(
            (extent.size for value in placed for extent in value.extents),
            default=0,
        )
        expiry: List[Tuple[int, int]] = []  # heap of (release_pos, index)
        live: List[Tuple[int, int, int]] = []  # sorted (start, end, index)
        for index, value in enumerate(placed):
            while expiry and expiry[0][0] <= value.def_pos:
                _, gone = heapq.heappop(expiry)
                for extent in placed[gone].extents:
                    del live[bisect_left(live, (extent.start, extent.end, gone))]
            candidates: Set[int] = set()
            for extent in value.extents:
                lo = bisect_left(live, (extent.start - max_extent + 1,))
                hi = bisect_left(live, (extent.end,), lo)
                for _, other_end, other_index in live[lo:hi]:
                    if other_end > extent.start:
                        candidates.add(other_index)
            for other in [placed[i] for i in sorted(candidates)]:
                overlap = sum(
                    min(a.end, b.end) - max(a.start, b.start)
                    for a in value.extents
                    for b in other.extents
                    if a.overlaps(b)
                )
                if overlap:
                    emit(
                        "HAZ002",
                        f"{value.name}#{value.instance} and "
                        f"{other.name}#{other.instance} are live "
                        f"simultaneously on {overlap} shared word(s) of "
                        f"FB set {fb_set}",
                        location=f"visit {value.def_visit}",
                        cost_words=overlap,
                        first=f"{other.name}#{other.instance}",
                        second=f"{value.name}#{value.instance}",
                        fb_set=fb_set,
                    )
            heapq.heappush(expiry, (value.release_pos, index))
            for extent in value.extents:
                insort(live, (extent.start, extent.end, index))


def check_dead_transfers(ir: ProgramIR, emit: Emit) -> None:
    """DFA001: loaded-but-never-read values are wasted traffic."""
    for value in ir.values:
        if value.def_kind != DATA_LOAD or value.uses:
            continue
        emit(
            "DFA001",
            f"load of {value.name}#{value.instance} into FB set "
            f"{value.fb_set} is never read by any kernel "
            f"({value.words} wasted word(s))",
            location=f"visit {value.def_visit}",
            cost_words=value.words,
            object=value.name,
            instance=value.instance,
            fb_set=value.fb_set,
        )


def check_retention_liveness(ir: ProgramIR, emit: Emit) -> None:
    """DFA002: retained values must be reused before eviction."""
    schedule = ir.program.schedule
    if not schedule.keeps:
        return
    by_keep: Dict[str, List[ValueLifetime]] = {}
    for value in ir.values:
        if value.kept:
            by_keep.setdefault(value.name, []).append(value)
    node_visit = {node.node_id: node.visit_index for node in ir.nodes}
    total_iterations = schedule.application.total_iterations
    for keep in schedule.keeps:
        values = by_keep.get(keep.name, ())
        survivors = [value for value in values if value.survived_drain]
        if not survivors:
            continue
        reused = any(
            node_visit[use] > value.def_visit
            for value in survivors
            for use in value.uses
        )
        if reused:
            continue
        invariant = bool(getattr(keep, "invariant", False))
        claimed = keep.words_avoided * (
            schedule.rounds if invariant else total_iterations
        )
        emit(
            "DFA002",
            f"keep {keep.label}({keep.name}) retains values across visits "
            f"but none is ever read after surviving a drain; the claimed "
            f"saving of {claimed} word(s) of traffic is never realised",
            location=f"keep {keep.label}",
            cost_words=claimed,
            object=keep.name,
            fb_set=keep.fb_set,
            span=list(keep.span),
        )


def check_capacity(ir: ProgramIR, hb: HappensBefore, emit: Emit) -> None:
    """HAZ003: CM/FB residency within capacity at every HB point."""
    program = ir.program
    schedule = program.schedule

    # Context-memory blocks: a refill must fit the block.
    for group in ir.visit_nodes:
        if not group.context_loads:
            continue
        words = sum(
            ir.nodes[node].op.words for node in group.context_loads
        )
        if words > ir.cm_block_capacity:
            visit = program.visits[group.visit_index].visit
            emit(
                "HAZ003",
                f"CM block {visit.cm_block} refill needs {words} words, "
                f"capacity is {ir.cm_block_capacity}",
                location=f"visit {group.visit_index}",
                cost_words=words - ir.cm_block_capacity,
                cm_block=visit.cm_block,
            )

    # Frame-buffer residency along the program order.
    for fb_set in (0, 1):
        events: List[Tuple[int, int, int]] = []
        for value in ir.values:
            if value.fb_set != fb_set or value.words <= 0:
                continue
            events.append((value.def_pos, 1, value.words))
            events.append((value.release_pos, 0, -value.words))
        events.sort()
        current = 0
        peak = 0
        peak_pos = 0
        for pos, _, delta in events:
            current += delta
            if current > peak:
                peak = current
                peak_pos = pos
        if peak > ir.fb_capacity:
            visit_index = _visit_at(ir, peak_pos)
            emit(
                "HAZ003",
                f"FB set {fb_set} residency reaches {peak} words, "
                f"capacity is {ir.fb_capacity}",
                location=f"visit {visit_index}",
                cost_words=peak - ir.fb_capacity,
                fb_set=fb_set,
            )

    # Overlap windows where arriving loads overtake departing stores:
    # the set briefly holds both; the adaptive policy's own soundness
    # bound (departing stores + arriving DS(C) <= FBS) must hold.
    visits = program.visits
    dataflow = schedule.dataflow
    for window in hb.loads_first_windows:
        departing = visits[window - 1]
        arriving = visits[window + 1]
        if departing.visit.fb_set != arriving.visit.fb_set:
            continue
        plan = schedule.plan_for(arriving.visit.cluster_index)
        outgoing = schedule.plan_for(
            departing.visit.cluster_index
        ).store_words(dataflow, len(departing.visit.iterations))
        need = outgoing + plan.peak_occupancy
        if need > schedule.fb_set_words:
            emit(
                "HAZ003",
                f"overlap window at visit {window}: arriving loads of "
                f"visit {window + 1} overtake departing stores of visit "
                f"{window - 1}; worst-case residency {need} words exceeds "
                f"the {schedule.fb_set_words}-word set "
                f"(policy {hb.policy.name})",
                location=f"visit {window}",
                cost_words=need - schedule.fb_set_words,
                fb_set=arriving.visit.fb_set,
                policy=hb.policy.name,
            )


def _visit_at(ir: ProgramIR, pos: int) -> int:
    """Visit index owning doubled node position *pos*."""
    node_id = min(pos // 2, len(ir.nodes) - 1)
    if node_id < 0:
        return 0
    return ir.nodes[node_id].visit_index


def run_hazard_passes(ir: ProgramIR, hb: HappensBefore, emit: Emit) -> None:
    """Run all five hazard passes."""
    check_races(ir, hb, emit)
    check_interference(ir, emit)
    check_dead_transfers(ir, emit)
    check_retention_liveness(ir, emit)
    check_capacity(ir, hb, emit)
