"""HAZ002's sweep line against the quadratic active-list scan it replaced.

No bundled or corpus program emits HAZ002, so these tests are what pins
its emission order: random lifetimes with planted overlaps must produce
exactly the reference sequence of findings — codes, messages, cost and
details, in order.
"""

import dataclasses
import random
from types import SimpleNamespace
from typing import List

import pytest

from repro.arch.frame_buffer import Extent
from repro.codegen.ops import LoadData
from repro.dataflow.analyzer import build_ir
from repro.dataflow.ir import DATA_LOAD, ValueLifetime
from repro.dataflow.passes import check_interference

from tests.dataflow.conftest import build_program


def reference_check_interference(ir, emit) -> None:
    """The quadratic HAZ002 pass: each value against every live one."""
    if not ir.has_placement:
        return
    for fb_set in (0, 1):
        placed = [
            value for value in ir.values
            if value.fb_set == fb_set and value.extents
        ]
        placed.sort(key=lambda value: value.def_pos)
        active: List[ValueLifetime] = []
        for value in placed:
            active = [
                other for other in active
                if other.release_pos > value.def_pos
            ]
            for other in active:
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
            active.append(value)


def _findings(check, ir):
    emitted = []
    check(ir, lambda *args, **kwargs: emitted.append((args, kwargs)))
    return emitted


def _random_extents(rng, capacity):
    extents = []
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        start = rng.randrange(capacity - 1)
        size = rng.randint(1, min(48, capacity - start))
        extents.append(Extent(start, size))
    return tuple(extents)


def _random_ir(seed, *, count=80, capacity=512):
    """Lifetimes shaped like the IR's, with overlaps planted on purpose."""
    rng = random.Random(seed)
    values = []
    for value_id in range(count):
        def_node = rng.randrange(count * 2)
        if values and rng.random() < 0.3:
            # Planted: reuse (or nudge) a live-looking value's words.
            donor = rng.choice(values)
            extents = tuple(
                Extent(extent.start + rng.choice((0, 0, 1, -1))
                       if extent.start > 0 else 0, extent.size)
                for extent in donor.extents
            ) or _random_extents(rng, capacity)
            fb_set = donor.fb_set
        else:
            extents = (
                _random_extents(rng, capacity)
                if rng.random() < 0.9 else ()
            )
            fb_set = rng.randrange(2)
        values.append(ValueLifetime(
            value_id=value_id,
            name=f"v{value_id % 7}",
            instance=value_id // 7,
            fb_set=fb_set,
            words=sum(extent.size for extent in extents),
            def_node=def_node,
            def_visit=def_node // 4,
            def_kind=DATA_LOAD,
            extents=extents,
            # Doubled positions, like the IR's; a few values end before
            # (or exactly at) their own definition.
            release_pos=2 * def_node + rng.randint(-1, 40),
        ))
    return SimpleNamespace(has_placement=True, values=values)


@pytest.mark.parametrize("seed", range(30))
def test_random_lifetimes_match_the_reference(seed):
    ir = _random_ir(seed)
    expected = _findings(reference_check_interference, ir)
    assert expected, "the planted overlaps should interfere"
    assert _findings(check_interference, ir) == expected


def test_no_placement_emits_nothing():
    ir = _random_ir(0)
    ir.has_placement = False
    assert _findings(check_interference, ir) == []


def test_program_with_injected_load_matches_the_reference(e1_cds_program):
    """The real-IR case of ``test_overlapping_placements_interfere``."""
    program = e1_cds_program
    keep = next(
        keep for keep in program.schedule.keeps
        if getattr(keep, "invariant", False)
    )
    for index, ops in enumerate(program.visits):
        visit = ops.visit
        if visit.fb_set == keep.fb_set and visit.cluster_index == max(
            keep.span
        ):
            extra = LoadData(keep.name, visit.iterations[0], 8, visit.fb_set)
            mutated_ops = dataclasses.replace(
                ops, data_loads=ops.data_loads + (extra,)
            )
            visits = (
                program.visits[:index] + (mutated_ops,)
                + program.visits[index + 1:]
            )
            break
    ir = build_ir(dataclasses.replace(program, visits=visits))
    expected = _findings(reference_check_interference, ir)
    assert expected
    assert _findings(check_interference, ir) == expected


@pytest.mark.parametrize("target", ["E1", "MPEG", "ATR-FI"])
@pytest.mark.parametrize("scheduler", ["basic", "ds", "cds"])
def test_bundled_programs_match_the_reference(target, scheduler):
    ir = build_ir(build_program(target, scheduler)[0])
    assert _findings(check_interference, ir) == _findings(
        reference_check_interference, ir
    )
