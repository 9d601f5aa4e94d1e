"""Deterministic, splittable random sources.

All randomness in this package flows through numpy ``Generator`` objects that
the caller seeds explicitly.  Experiments derive one generator per trial from
a single 64-bit master seed using a counter-based split, so trial ``k`` of any
run can be reproduced in isolation::

    rng_k = derive_rng(master_seed, k)

Nested components split further by extending the key path, e.g.
``derive_rng(seed, trial, party_index)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_rng"]


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator seeded by ``seed`` refined by the counter path ``path``.

    Distinct paths yield statistically independent streams; the same
    (seed, path) always yields the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))
