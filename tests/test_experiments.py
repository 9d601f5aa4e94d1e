"""Experiment helpers against their references.

The chunked randomized-response runs against the per-call loop they
replace, the chi-squared rows against ``scipy.stats.chi2_contingency``, and
the knob checks against the values each knob must reject or accept.
"""

import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from dpdist.core import as_bits
from dpdist.experiments import _BATCH, ExperimentConfig, _chi2_rows, _half_ones, _resolve, _rr_runs
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


@pytest.mark.parametrize("k", range(1, 26))
def test_chi2_rows_equal_scipy_bit_for_bit(k):
    # k = 1 (or one non-empty column) has no degree of freedom; k = 2 takes
    # Yates' correction; all-zero columns are dropped before either test runs
    rng = np.random.default_rng([12, k])
    for top in (10, 1000, 10**6):
        for _ in range(30):
            table = rng.integers(0, top, size=(2, k), endpoint=True)
            table[:, rng.random(k) < 0.2] = 0
            table[:, 0] += 1  # no empty row
            chi2, pvalue, _, _ = scipy_stats.chi2_contingency(table[:, table.any(axis=0)])
            assert _chi2_rows(3, table) == [
                (3, "chi2_stat", float(chi2)),
                (3, "chi2_pvalue", float(pvalue)),
                (3, "reject_at_0.001", float(pvalue < 0.001)),
            ]


@pytest.mark.parametrize(
    "table, match",
    [
        ([[1, -1], [2, 3]], "non-negative"),
        ([[1, -3], [2, 1]], "non-negative"),  # a column summing to zero or less is not empty
        ([[0, 0, 0], [3, 4, 5]], "zero expected frequency"),
    ],
)
def test_chi2_rows_reject_what_scipy_rejects(table, match):
    table = np.array(table)
    with pytest.raises(ValueError):
        scipy_stats.chi2_contingency(table[:, table.any(axis=0)])
    with pytest.raises(ValueError, match=match):
        _chi2_rows(0, table)


@pytest.mark.parametrize(
    "knob, value, what",
    [
        ("n", True, "a positive integer"),  # ran with n=1
        ("n", 16.0, "a positive integer"),
        ("trials", True, "a positive integer"),
        ("trials", np.True_, "a positive integer"),
        ("t", False, "a non-negative integer"),  # ran with t=0
        ("t", "1", "a non-negative integer"),
        ("eps", True, "a finite positive number"),  # ran with eps=1.0
        ("eps", "abc", "a finite positive number"),  # raised float()'s own text
        ("eps", np.True_, "a finite positive number"),
        ("delta", "0.5", "a value in (0, 1)"),  # ran with delta=0.5
        ("delta", [0.5], "a value in (0, 1)"),
        ("eps", 10**400, "a finite positive number"),  # raised OverflowError from float()
        ("eps", -(10**400), "a finite positive number"),
        ("nu", 2**1024, "a finite positive number"),
        ("delta", -(10**400), "a value in (0, 1)"),
    ],
)
def test_knob_check_names_the_knob(knob, value, what):
    cfg = ExperimentConfig(experiment="dist-alpha", **{knob: value})
    message = f"{knob}: expected {what}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _resolve(cfg, **{knob: None})


@pytest.mark.parametrize(
    "knob, value, expected",
    [
        ("n", np.int64(16), 16),
        ("trials", 3, 3),
        ("t", np.uint8(0), 0),
        ("eps", 2, 2.0),
        ("eps", np.float32(0.5), 0.5),
        ("delta", np.float64(0.01), 0.01),
    ],
)
def test_knob_check_accepts_numbers(knob, value, expected):
    params = _resolve(ExperimentConfig(experiment="dist-alpha", **{knob: value}), **{knob: None})
    assert params[knob] == expected and type(params[knob]) is type(expected)
