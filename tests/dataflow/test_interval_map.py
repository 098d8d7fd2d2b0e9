"""The HAZ001 interval map against a per-word brute-force model.

``_IntervalMap`` keeps last-writer / readers-since state as disjoint
segments and splices only the run an access overlaps.  The model here
keeps the same state one word at a time, so every step's predecessors
and the whole per-word state must agree exactly — including repeated
readers, which count once per read.
"""

import random

import pytest

from repro.dataflow.passes import _IntervalMap


class _WordModel:
    """Per-word ``(writer, readers)``: the obviously-correct version."""

    def __init__(self):
        self.words = {}

    def access(self, start, end, node, write):
        preds = {}
        for word in range(start, end):
            writer, readers = self.words.get(word, (None, ()))
            if writer is not None and writer != node:
                preds[writer] = preds.get(writer, 0) + 1
            if write:
                for reader in readers:
                    if reader != node:
                        preds[reader] = preds.get(reader, 0) + 1
                self.words[word] = (node, ())
            else:
                self.words[word] = (writer, readers + (node,))
        return preds


def _per_word(interval_map):
    """Expand the segments into per-word state, checking their shape."""
    starts = interval_map._starts
    ends = interval_map._ends
    assert len(starts) == len(ends) == len(interval_map._state)
    words = {}
    previous_end = None
    for start, end, state in zip(starts, ends, interval_map._state):
        assert start < end, "empty segment"
        assert previous_end is None or previous_end <= start, "unsorted"
        previous_end = end
        for word in range(start, end):
            words[word] = state
    return words


def _replay(accesses):
    interval_map = _IntervalMap()
    model = _WordModel()
    for step, (start, end, node, write) in enumerate(accesses):
        expected = model.access(start, end, node, write)
        assert interval_map.access(start, end, node, write) == expected, (
            f"preds differ at step {step}: {(start, end, node, write)}"
        )
        assert _per_word(interval_map) == model.words, (
            f"state differs after step {step}: {(start, end, node, write)}"
        )


@pytest.mark.parametrize("seed", range(40))
def test_random_sequences_match_the_word_model(seed):
    rng = random.Random(seed)
    space = rng.choice((8, 24, 64))
    accesses = []
    node = 0
    for _ in range(120):
        start = rng.randrange(space)
        end = rng.randrange(start + 1, space + 1)
        # Repeat the previous node now and then: repeated reads by one
        # node, and a write by the node that read last.
        if rng.random() < 0.6:
            node += 1
        accesses.append((start, end, node, rng.random() < 0.4))
    _replay(accesses)


@pytest.mark.parametrize("accesses", [
    # Nested: a read inside a write, then a write inside the read.
    [(0, 16, 1, True), (4, 8, 2, False), (5, 6, 3, True)],
    # Adjacent: touching ranges share no word.
    [(0, 4, 1, True), (4, 8, 2, True), (0, 4, 3, False), (4, 8, 3, False)],
    # Straddling several segments and the gaps between them.
    [(2, 4, 1, True), (6, 8, 2, False), (10, 12, 3, True),
     (0, 14, 4, False), (3, 11, 5, True)],
    # Repeated reads by one node, then a write by that last reader.
    [(0, 8, 1, True), (2, 6, 2, False), (2, 6, 2, False),
     (0, 8, 2, False), (1, 7, 2, True)],
    # A read over untouched words, then a write by another reader.
    [(3, 9, 1, False), (0, 12, 2, False), (5, 6, 1, True)],
])
def test_edge_cases_match_the_word_model(accesses):
    _replay(accesses)


def test_repeated_reader_counts_once_per_read():
    interval_map = _IntervalMap()
    interval_map.access(0, 4, 1, False)
    interval_map.access(0, 4, 1, False)
    assert interval_map.access(0, 4, 2, True) == {1: 8}
