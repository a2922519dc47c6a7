"""Named RNG substreams derived from a single root seed.

Every source of randomness in the package flows through `substream`, so a
run is fully determined by its root seed.
"""

from __future__ import annotations

import numpy as np

# Stream tags.  New tags must never reuse an existing value, otherwise two
# unrelated consumers would share a stream.
TREE = 1
REP = 2
FOLD = 3
TEST_POINTS = 4
HONESTY_SPLIT = 5
SUBSAMPLE = 6
PANEL = 7

# Dedicated frozen seed for the fixed benchmark query points (independent of
# every experiment seed so the points stay constant across all experiments).
TEST_POINT_ROOT = 202406


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the (seed, *key) stream, independent across keys."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))
