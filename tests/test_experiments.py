"""The chunked randomized-response runs against the per-call loop they replace."""

import tracemalloc

import numpy as np
import pytest

from dpdist.core import as_bits
from dpdist.experiments import _BATCH, _half_ones, _rr_runs
from dpdist.local_model import randomized_response_sum
from dpdist.seeding import derive_rng


def _rows(k, n):
    rng = np.random.default_rng([k, n])
    return np.array([_half_ones(n)] + [rng.permutation(_half_ones(n)) for _ in range(k - 1)])


@pytest.mark.parametrize(
    "k, n, runs, eps",
    [
        (1, 16, 5000, 1.0),  # 4,096 runs a chunk: one full chunk and a remainder
        (2, 100, 700, 1.0),  # 327 runs a chunk: two full chunks and a remainder of 46
        (2, 8, 10, 0.5),  # all in one chunk
        (1, 70_000, 3, 2.0),  # a run larger than a chunk: one run a chunk
        (2, 40_000, 3, 1.0),  # two rows larger than a chunk together: one run a chunk
    ],
)
def test_matches_the_per_call_loop(k, n, runs, eps):
    rows = _rows(k, n)
    rng, twin = derive_rng(9, k, n), derive_rng(9, k, n)
    got = _rr_runs(rows, eps, runs, rng)
    want = np.array(
        [[randomized_response_sum(row, eps, twin)[0] for row in rows] for _ in range(runs)]
    )
    assert got.shape == (runs, k)
    assert np.array_equal(got, want)  # value for value, not just in distribution
    # the generator is left where the loop leaves it, so later draws are unchanged
    assert rng.bit_generator.state == twin.bit_generator.state


def test_memory_stays_at_one_chunk():
    k, n, runs = 2, 100_000, 10
    assert k * n > _BATCH  # one run a chunk
    rows = _rows(k, n)
    rng = derive_rng(10)
    tracemalloc.start()
    try:
        _rr_runs(rows, 1.0, runs, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one run's uniforms take 1.6 MB; all runs' at once would take 16 MB
    assert peak < 4 * 2**20


def test_half_ones_is_taken_uncopied():
    x = _half_ones(7)
    assert x.tolist() == [1, 1, 1, 0, 0, 0, 0]
    assert as_bits(x) is x
