"""Seeded random-number substreams.

All randomness in the package flows through one generator family
(numpy's default PCG64) seeded via ``SeedSequence`` from a user seed plus
an integer key path. Varying the key yields independent streams, so
replicated work gives identical results regardless of evaluation order
or worker count.
"""

import numpy as np

from .corr import check_count

# Purpose tags keep substreams of unrelated components disjoint even when
# they share a user seed.
STREAM_PA = 1
STREAM_BL = 2
STREAM_SCENARIO = 3
STREAM_SAMPLE = 4
STREAM_COLPERM = 5
STREAM_KMEANS = 6
STREAM_BENCH = 7


def _seed_sequence(seed, key):
    # a fractional or bool seed would otherwise be truncated to another seed's stream
    check_count("seed", seed, 0)
    return np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))


def substream(seed, *key):
    """Generator for stream ``key`` of the given seed."""
    return np.random.default_rng(_seed_sequence(seed, key))


def derive_seed(seed, *key):
    """Deterministic integer seed for stream ``key``, for APIs that take seeds."""
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])
