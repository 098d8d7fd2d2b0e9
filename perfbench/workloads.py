"""Seeded inputs of the three workloads.

Everything the program sees is derived from the benchmark's ``--seed``
here; the same seed always yields the same inputs.  Each benchmark seed
owns a block of ``SEED_BLOCK`` generator seeds (:func:`seed_base`), so
the workloads of different benchmark seeds do not overlap unless the
seeds are equal modulo ``SEED_BLOCKS``.  Every ``corpus_cold`` run
starts with the same reference corpus from block 0 (generator seeds
0..59, of which 0..19 are the historical ``corpus`` set): the workload
mix varies a lot from seed to seed, and the shared part keeps the runs
comparable.
"""

from __future__ import annotations

from typing import List

SEED_BLOCK = 100_000

#: Blocks 1..SEED_BLOCKS all lie below 2**32, the limit of the
#: generator's ``numpy.random.RandomState`` seeds; block 0 is the
#: reference corpus.
SEED_BLOCKS = 2**32 // SEED_BLOCK - 1

#: Rows of the reference corpus every ``corpus_cold`` run starts with;
#: their statistics have a recorded digest.
REFERENCE_ROWS = 60

#: ``fb_sweep``: the 1K..32K frame-buffer grid, and how many seeded
#: random workloads follow the twelve Table-1 experiments in each pass.
FB_GRID = tuple(k * 1024 for k in range(1, 33))
SWEEP_RANDOM = 4

#: ``service_mix``: hot-set size, workload shape, the fixed open-loop
#: rate and the share of never-seen workloads among the requests.
HOT_SET = 64
SERVICE_FB_WORDS = 16 * 1024
SERVICE_ITERATIONS = 48
OPEN_LOOP_RPS = 250.0
FRESH_SHARE = 0.10
ZIPF_EXPONENT = 1.0


def seed_base(seed: int) -> int:
    """First generator seed of the block owned by benchmark seed *seed*
    (any integer, negative or beyond 2**32 included)."""
    return (1 + seed % SEED_BLOCKS) * SEED_BLOCK


def corpus_seed(seed: int, index: int) -> int:
    """Generator seed of the *index*-th ``corpus_cold`` workload: the
    reference corpus first, then the benchmark seed's own block."""
    if index < REFERENCE_ROWS:
        return index
    return seed_base(seed) + index - REFERENCE_ROWS


def sweep_inputs(seed: int, index: int, built: dict):
    """``(name, application, clustering, fb_sizes, spec)`` of the
    *index*-th ``sweep_fb_sizes`` call: each pass sweeps the twelve
    Table-1 experiments, then ``SWEEP_RANDOM`` fresh random workloads.
    *built* memoises the experiments (spec is ``None`` for random
    workloads)."""
    from repro.workloads.random_gen import random_application
    from repro.workloads.spec import paper_experiments

    specs = paper_experiments()
    per_pass = len(specs) + SWEEP_RANDOM
    sweep_pass, position = divmod(index, per_pass)
    if position < len(specs):
        spec = specs[position]
        if spec.id not in built:
            built[spec.id] = spec.build()
        application, clustering = built[spec.id]
        return spec.id, application, clustering, FB_GRID, spec
    generator_seed = (
        seed_base(seed) + sweep_pass * SWEEP_RANDOM
        + position - len(specs)
    )
    application, clustering = random_application(generator_seed, iterations=48)
    return application.name, application, clustering, FB_GRID, None


def service_body(generator_seed: int) -> dict:
    """One ``/v1/schedule`` request body over a generated workload."""
    from repro.fuzz.case import FuzzCase
    from repro.workloads.random_gen import random_application

    application, clustering = random_application(
        generator_seed, iterations=SERVICE_ITERATIONS
    )
    case = FuzzCase.from_workload(
        application, clustering, SERVICE_FB_WORDS,
        name=f"bench-{generator_seed}",
    )
    return {"workload": case.to_dict(), "scheduler": "cds", "trace": False}


def hot_seeds(seed: int) -> List[int]:
    return [seed_base(seed) + index for index in range(HOT_SET)]


def fresh_seed(seed: int, index: int) -> int:
    """Never-seen workloads: disjoint from the hot set of every seed."""
    return seed_base(seed) + HOT_SET + index
