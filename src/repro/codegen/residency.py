"""The program-level residency rules, written once.

A visit of cluster ``c`` loads its plan's inputs into the cluster's FB
set, runs the cluster's kernels there (each kernel once per iteration
of the round) and stores its results.  At the end of the visit the set
drains: a kept item (shared data or a shared result) survives while its
keep span still covers a later cluster, everything else leaves.  The
last cluster of a round drains both sets completely.  A kernel reads an
iteration-invariant operand as instance 0, every other operand as its
own iteration's instance; a kept operand homed in the other set is read
there in place (the cross-set retention extension,
``fb_cross_set_access``).  The visit's context loads refill its CM
block back to back; a visit without context loads runs on whatever its
block still holds.

:class:`ResidencyRules` holds those rules as per-schedule tables.
:class:`ResidencyReplay` walks a program one visit per :meth:`step`
call and raises one event per op; every op-level replay of a program is
a subclass that overrides only the hooks it cares about:

* the static verifier (:mod:`repro.codegen.verifier`) reports
  violations;
* the hazard IR (:func:`repro.dataflow.ir.lower_program`) records
  nodes and value lifetimes;
* the functional simulator (:mod:`repro.sim.engine`) moves real
  values.

The template-level fast verifier (:mod:`repro.codegen.fastverify`)
replays whole iteration windows instead of ops, but reads every rule
from :class:`ResidencyRules`.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.arch.frame_buffer import Extent
from repro.codegen.ops import LoadContext, LoadData, RunKernel, StoreData, VisitOps
from repro.schedule.plan import Schedule

__all__ = ["ResidencyReplay", "ResidencyRules"]

#: What a replay keeps per resident instance (never ``None``).
V = TypeVar("V")
#: A per-object residency bucket (a replay's ``{instance: V}`` dict, or
#: the fast verifier's presence bitmask).
B = TypeVar("B")


class ResidencyRules:
    """The residency rules of one schedule, as lookup tables.

    Attributes:
        schedule: the schedule the tables describe.
        operands: per kernel, ``(name, invariant)`` for each input in
            the kernel's declaration order.
        outputs: per kernel, the objects it produces.
        homes: per kept object, the set it is kept in.
    """

    __slots__ = ("schedule", "operands", "outputs", "homes", "_survivors",
                 "_last_cluster")

    def __init__(self, schedule: Schedule) -> None:
        dataflow = schedule.dataflow
        kernels = schedule.application.kernels
        self.schedule = schedule
        self.operands: Dict[str, Tuple[Tuple[str, bool], ...]] = {
            kernel.name: tuple(
                (name, dataflow[name].invariant) for name in kernel.inputs
            )
            for kernel in kernels
        }
        self.outputs: Dict[str, Tuple[str, ...]] = {
            kernel.name: kernel.outputs for kernel in kernels
        }
        self.homes: Dict[str, int] = {
            keep.name: keep.fb_set for keep in schedule.keeps
        }
        self._survivors: Dict[Tuple[int, int], FrozenSet[str]] = {}
        self._last_cluster = len(schedule.clustering) - 1

    @staticmethod
    def operand_window(invariant: bool, start: int, stop: int) -> Tuple[int, int]:
        """Instances ``[lo, hi)`` read by the kernel runs of iterations
        ``[start, stop)``: an invariant operand always reads instance 0."""
        return (0, 1) if invariant else (start, stop)

    def cross_set_home(self, name: str, fb_set: int) -> Optional[int]:
        """The other set a kept operand is read from in place, or
        ``None`` when *name* is not kept or is kept in *fb_set* itself."""
        home = self.homes.get(name)
        if home is None or home == fb_set:
            return None
        return home

    def survivors(self, cluster_index: int, fb_set: int) -> FrozenSet[str]:
        """Kept names that stay in *fb_set* after a visit of
        *cluster_index* (memoized): the keep is homed in that set and
        its span ``(first, last)`` has a consumer after this cluster."""
        key = (cluster_index, fb_set)
        found = self._survivors.get(key)
        if found is None:
            found = self._survivors[key] = frozenset(
                keep.name for keep in self.schedule.keeps
                if keep.fb_set == fb_set
                and keep.span[0] <= cluster_index < keep.span[1]
            )
        return found

    def drain(
        self, resident: List[Dict[str, B]], cluster_index: int, fb_set: int
    ) -> List[B]:
        """Apply the end of a visit of *cluster_index* on *fb_set* to
        *resident* (per set, object name -> bucket) in place and return
        the buckets that left."""
        survivors = self.survivors(cluster_index, fb_set)
        kept: Dict[str, B] = {}
        released: List[B] = []
        for name, bucket in resident[fb_set].items():
            if name in survivors:
                kept[name] = bucket
            else:
                released.append(bucket)
        resident[fb_set] = kept
        if cluster_index == self._last_cluster:
            # Round end: both sets drain completely.
            for index in (0, 1):
                released.extend(resident[index].values())
                resident[index] = {}
        return released

    def block_capacity(self, context_volumes: Iterable[int]) -> int:
        """Words one CM block holds.  A schedule that records no block
        size (``context_block_words`` 0) is held to the largest context
        volume any visit loads, the strictest bound consistent with the
        scheduler's per-visit check."""
        return (
            self.schedule.context_block_words
            or max(context_volumes, default=0)
            or 1
        )


class ResidencyReplay(Generic[V]):
    """One op-level walk over a program's visits, raising an event per op.

    Call :meth:`step` once per visit in program order.  The replay keeps
    ``resident[fb_set][name][instance]`` (the value the last load or
    kernel run of that instance produced, as returned by the hook) and
    ``cm_regions[block][kernel]`` (where the block's last refill put the
    kernel's contexts).  A subclass overrides the hooks it needs.  Per
    visit they fire in this order: :meth:`begin_visit`;
    :meth:`on_context_load` per context load; :meth:`on_load` per data
    load; per kernel run, :meth:`begin_run`, :meth:`on_operand` or
    :meth:`on_missing_operand` per input, :meth:`on_execute`,
    :meth:`on_output` per output and :meth:`end_run`; :meth:`on_store`
    per store; finally :meth:`on_drain`.
    """

    def __init__(self, schedule: Schedule) -> None:
        self.rules = ResidencyRules(schedule)
        self.resident: List[Dict[str, Dict[int, V]]] = [{}, {}]
        self.cm_regions: List[Dict[str, Extent]] = [{}, {}]

    def step(self, ops: VisitOps) -> None:
        """Replay one visit."""
        visit = ops.visit
        fb_set = visit.fb_set
        block = visit.cm_block
        rules = self.rules
        resident = self.resident
        self.begin_visit(ops)

        if ops.context_loads:
            regions: Dict[str, Extent] = {}
            self.cm_regions[block] = regions
            offset = 0
            for context in ops.context_loads:
                extent = Extent(offset, context.words)
                offset = extent.end
                regions[context.kernel] = extent
                self.on_context_load(ops, context, extent)
        regions = self.cm_regions[block]

        in_set = resident[fb_set]
        for load in ops.data_loads:
            bucket = in_set.get(load.name)
            if bucket is None:
                bucket = in_set[load.name] = {}
            bucket[load.iteration] = self.on_load(
                ops, load, bucket.get(load.iteration)
            )

        operands = rules.operands
        outputs = rules.outputs
        for run in ops.compute:
            iteration = run.iteration
            self.begin_run(ops, run, regions.get(run.kernel))
            for name, invariant in operands[run.kernel]:
                instance = 0 if invariant else iteration
                bucket = in_set.get(name)
                if bucket is not None and instance in bucket:
                    self.on_operand(ops, run, name, instance, fb_set,
                                    bucket[instance])
                    continue
                home = rules.cross_set_home(name, fb_set)
                bucket = None if home is None else resident[home].get(name)
                if home is not None and bucket is not None and instance in bucket:
                    self.on_operand(ops, run, name, instance, home,
                                    bucket[instance])
                else:
                    self.on_missing_operand(ops, run, name, instance)
            self.on_execute(ops, run)
            for name in outputs[run.kernel]:
                bucket = in_set.get(name)
                if bucket is None:
                    bucket = in_set[name] = {}
                bucket[iteration] = self.on_output(
                    ops, run, name, bucket.get(iteration)
                )
            self.end_run(ops, run)

        for store in ops.stores:
            bucket = in_set.get(store.name)
            self.on_store(
                ops, store, None if bucket is None else bucket.get(store.iteration)
            )

        self.on_drain(ops, rules.drain(resident, visit.cluster_index, fb_set))

    # -- event hooks (``on_load`` and ``on_output`` must be overridden) --

    def begin_visit(self, ops: VisitOps) -> None:
        """A visit starts."""

    def on_context_load(self, ops: VisitOps, load: LoadContext,
                        extent: Extent) -> None:
        """*load* refills the visit's CM block at *extent*."""

    def on_load(self, ops: VisitOps, load: LoadData, previous: Optional[V]) -> V:
        """*load* brings an instance in over *previous* (a redundant
        load) or ``None``; returns the value now resident."""
        raise NotImplementedError

    def begin_run(self, ops: VisitOps, run: RunKernel,
                  region: Optional[Extent]) -> None:
        """*run* is launched; *region* holds the kernel's contexts in
        the visit's CM block (``None``: not resident)."""

    def on_operand(self, ops: VisitOps, run: RunKernel, name: str,
                   instance: int, home: int, value: V) -> None:
        """*run* reads ``name#instance``, found in set *home*."""

    def on_missing_operand(self, ops: VisitOps, run: RunKernel, name: str,
                           instance: int) -> None:
        """*run* reads ``name#instance``, which no set holds."""

    def on_execute(self, ops: VisitOps, run: RunKernel) -> None:
        """Every operand of *run* is resolved; its outputs come next."""

    def on_output(self, ops: VisitOps, run: RunKernel, name: str,
                  previous: Optional[V]) -> V:
        """*run* produces ``name#iteration`` over *previous* (or
        ``None``); returns the value now resident."""
        raise NotImplementedError

    def end_run(self, ops: VisitOps, run: RunKernel) -> None:
        """*run* finished; its outputs are resident."""

    def on_store(self, ops: VisitOps, store: StoreData,
                 value: Optional[V]) -> None:
        """*store* writes *value* (``None``: not in the visit's set)."""

    def on_drain(self, ops: VisitOps, released: Sequence[Dict[int, V]]) -> None:
        """The visit ended and *released* left the sets;
        ``self.resident`` holds the survivors."""
