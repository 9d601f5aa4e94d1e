"""Experiment helpers against their references.

The chunked randomized-response runs against the per-call loop they
replace, ``phase-transition``'s chunked pass against the whole-array draws
it replaces, ``dist-alpha``'s grid kernel against the exact window
weights, the chi-squared rows against ``scipy.stats.chi2_contingency``,
their cephes p-value port against ``scipy.special.chdtrc``, and the knob
checks against the values each knob must reject or accept.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from dpdist import audit
from dpdist.core import _window_sums, as_bits, min_window_weight, min_window_weight_gridded
from dpdist.experiments import (
    _BATCH,
    ExperimentConfig,
    _chdtrc,
    _chi2_rows,
    _chunks,
    _fair_bits,
    _half_ones,
    _phase_transition,
    _resolve,
    _rr_runs,
    _window_minima,
    run_rows,
)
from dpdist.local_model import randomized_response_sum, rr_debias, rr_estimate_batch, rr_report_counts
from dpdist.mechanisms import flip_bias_for
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


@pytest.mark.parametrize(
    "total, size, want",
    [
        (10, 4, [(0, 4), (4, 4), (8, 2)]),
        (8, 4, [(0, 4), (4, 4)]),
        (3, 4, [(0, 3)]),
        (0, 4, []),
    ],
)
def test_chunks_cover_the_range_in_order(total, size, want):
    assert _chunks(total, size) == want


def _phase_transition_whole_array(params):
    """``phase-transition``'s rows from whole-array draws: every trial's arrays held at once."""
    n, eps, d, trials = params["n"], params["eps"], params["d"], params["trials"]
    dist, flip = audit.SparseBernoulli(n=n, eps=eps, d=d), flip_bias_for(eps)
    rng = derive_rng(params["seed"], 0)
    s = audit.sample_sparse_sums(dist, trials, rng)
    est_planted = rr_debias(rr_report_counts(n, s, flip, rng), n, flip)
    est_zero = rr_estimate_batch(np.zeros(n, dtype=np.uint8), eps, trials, rng)
    rows = []
    for idx, tau in enumerate(params["taus"]):
        err_i = float(np.mean((s >= tau) & (est_planted <= tau / 2.0)))
        err_ii = float(np.mean(est_zero > tau / 2.0))
        rows.append((idx, "tau", tau))
        rows.append((idx, "error_case_i", err_i))
        rows.append((idx, "error_case_ii", err_ii))
        rows.append((idx, "max_error", max(err_i, err_ii)))
        rows.append((idx, "qualifying_rate", float(np.mean(s >= tau))))
    return rows


def _bits(rows):
    return [(trial, metric, float(value).hex()) for trial, metric, value in rows]


@pytest.mark.parametrize(
    "knobs",
    [
        dict(trials=1000),  # one partial chunk
        dict(trials=2 * _BATCH + 123),  # a ragged last chunk
        dict(n=255, trials=3000),  # uint8 sums, at the top of their range
        dict(n=100_000, trials=3000),  # uint32 sums
        dict(tau=50.0, trials=3000),
    ],
)
def test_phase_transition_equals_the_whole_array_draws(knobs):
    params, rows = _phase_transition(ExperimentConfig(experiment="phase-transition", seed=5, **knobs))
    assert _bits(rows) == _bits(_phase_transition_whole_array(params))  # float bits included
    assert any(value not in (0.0, 1.0) for _, metric, value in rows if metric.startswith("error"))


def test_phase_transition_memory_stays_at_one_chunk():
    cfg = ExperimentConfig(experiment="phase-transition", seed=1, trials=1 << 19)
    # a first call imports modules that stay loaded; they are not the run's memory
    _phase_transition(ExperimentConfig(experiment="phase-transition", trials=1))
    tracemalloc.start()
    try:
        _phase_transition(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each trial's sum and kept count, 2 bytes each, take 2.1 MB; the
    # whole-array draws held about five 8-byte arrays, 16.9 MB
    assert peak <= 6_000_000


def test_half_ones_is_taken_uncopied():
    x = _half_ones(7)
    assert x.tolist() == [1, 1, 1, 0, 0, 0, 0]
    assert as_bits(x) is x


def test_fair_bits_are_taken_uncopied():
    rng, twin = derive_rng(11), derive_rng(11)
    x = _fair_bits(rng, 64)
    np.testing.assert_array_equal(x, (twin.random(64) < 0.5).astype(np.uint8))
    assert as_bits(x) is x


def _input_bits(c, gn):
    return np.array([(c >> j) & 1 for j in range(gn)], dtype=np.uint8)


@pytest.mark.parametrize("gn, gw, gi", [(10, 4, 2), (12, 6, 3), (8, 8, 4)])
def test_window_minima_equal_the_exact_weights(gn, gw, gi):
    full, grid = _window_minima(gn, gw, gi)
    assert full.shape == grid.shape == (1 << gn,)
    for c in range(1 << gn):
        bits = _input_bits(c, gn)
        assert full[c] == min_window_weight(bits, gw)
        assert grid[c] == min_window_weight_gridded(bits, gw, gi)


def test_window_minima_equal_cumsum_windows_on_every_16_bit_input():
    gn, gw, gi = 16, 4, 2
    # row c holds c's bits, least significant first
    bits = np.unpackbits(
        np.arange(1 << gn, dtype="<u2").view(np.uint8).reshape(-1, 2), axis=1, bitorder="little"
    )
    wsums = _window_sums(bits, gw)
    full, grid = _window_minima(gn, gw, gi)
    np.testing.assert_array_equal(full, wsums.min(axis=1))
    np.testing.assert_array_equal(grid, wsums[:, ::gi].min(axis=1))


def test_window_minima_memory():
    tracemalloc.start()
    try:
        _window_minima(16, 4, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the uint16 codes, the window sum, both minima and one row's
    # temporaries take 0.6 MB; the blockwise int64 cumsums took 2.7 MB
    assert peak < 2**20


def _assert_chi2_rows_equal_scipy(table):
    chi2, pvalue, _, _ = scipy_stats.chi2_contingency(table[:, table.any(axis=0)])
    assert _chi2_rows(3, table) == [
        (3, "chi2_stat", float(chi2)),
        (3, "chi2_pvalue", float(pvalue)),
        (3, "reject_at_0.001", float(pvalue < 0.001)),
    ]
    return chi2


@pytest.mark.parametrize("k", [*range(1, 26), 41, 42, 60])
def test_chi2_rows_equal_scipy_bit_for_bit(k):
    # k = 1 (or one non-empty column) has no degree of freedom; k = 2 takes
    # Yates' correction; all-zero columns are dropped before either test runs.
    # The wide tables keep every column, so that their dof is k - 1: 40 at
    # k = 41, the last that _chdtrc computes, and past 40 at k = 42 and 60,
    # where the p-value is scipy's chdtrc
    rng = np.random.default_rng([12, k])
    for top in (10, 1000, 10**6):
        for _ in range(30):
            table = rng.integers(0, top, size=(2, k), endpoint=True)
            if k <= 25:
                table[:, rng.random(k) < 0.2] = 0
            table[:, 0] += 1  # no empty row
            _assert_chi2_rows_equal_scipy(table)


@pytest.mark.parametrize("k, size", [(2, 10), (3, 4), (41, 100), (42, 100)])
def test_chi2_rows_equal_scipy_bit_for_bit_at_the_route_edges(k, size):
    # _chi2_rows computes the p-value at dof <= 40 and chi2 > 2.2 and takes
    # scipy's chdtrc elsewhere.  Columns of 1 to `size` counts split
    # binomially give dof k - 1 and chi2 near it: on both sides of 2.2 at
    # k = 2 and 3, and at k = 41 and 42 dof 40, the last that _chdtrc
    # computes, and dof 41, where cephes' asymptotic series takes over
    # around x = a
    rng = np.random.default_rng([13, k])
    chi2 = []
    for _ in range(100):
        totals = rng.integers(1, size, k, endpoint=True)
        top = rng.binomial(totals, 0.5)
        table = np.array([top, totals - top])
        table[:, 0] += 1  # no empty row
        chi2.append(_assert_chi2_rows_equal_scipy(table))
    assert max(chi2) > 2.2
    if k <= 3:
        assert min(chi2) <= 2.2


def _float_neighbours(v, ulps=4):
    """v and the ``ulps`` floats on each side of it."""
    down, up = [v], [v]
    for _ in range(ulps):
        down.append(math.nextafter(down[-1], 0.0))
        up.append(math.nextafter(up[-1], math.inf))
    return down[:0:-1] + up


def test_chdtrc_port_equals_scipy_bit_for_bit():
    """``_chdtrc`` is ``scipy.special.chdtrc`` under == on its whole domain, dof <= 40 and chi2 > 2.2.

    Each dof gets a seeded log-uniform chi2 grid over (2.2, 5e6] and the
    float neighbours of cephes' branch points: x = chi2 / 2 = 1.1, x = a
    (series or continued fraction) and |a - x| = 0.4a (igam_fac's log or
    Lanczos form), with a = dof / 2.
    """
    from scipy.special import chdtrc

    rng = np.random.default_rng(33)
    mismatches = []
    for dof in range(1, 41):
        grid = np.exp(rng.uniform(math.log(2.2), math.log(5e6), 1000)).tolist() + [5e6]
        for point in (2.2, 0.6 * dof, dof, 1.4 * dof):
            grid += _float_neighbours(point)
        grid = [chi2 for chi2 in grid if chi2 > 2.2]
        expected = chdtrc(dof, grid).tolist()
        mismatches += [(dof, c, e) for c, e in zip(grid, expected) if _chdtrc(dof, c) != e]
    assert mismatches == []


def test_chdtrc_rescale_keeps_a_long_fraction_finite():
    """At dof 1 and chi2 = 2.2447370769435904 the continued fraction runs 179 iterations.

    Unrescaled, its terms would pass 2^1132 and the p-value would be NaN;
    the 2^-52 rescale keeps them finite and the port equal to scipy.
    """
    from scipy.special import chdtrc

    assert _chdtrc(1, 2.2447370769435904) == chdtrc(1, 2.2447370769435904) == 0.13406969490729473


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


@pytest.mark.parametrize("n, t_values", [(2, [1]), (4, [1, 3]), (7, [1, 3]), (8, [1, 3, 7])])
def test_lonely_parties_defaults_keep_the_t_values_below_n(n, t_values):
    params, rows = run_rows(ExperimentConfig(experiment="lonely-parties", n=n, trials=3))
    assert params["t_values"] == t_values
    assert [value for _, metric, value in rows if metric == "t"] == [t for t in t_values for _ in range(3)]


@pytest.mark.parametrize("seed", range(1, 7))
@pytest.mark.parametrize("n", [2, 4, 7])
def test_lonely_parties_rejects_t_of_n_before_any_draw(n, seed):
    # the check comes before random_topology draws, so no seed can hit its channel-count check first
    for t in (n, n + 1):
        message = f"t: expected a non-negative integer below n={n}, got {t}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_rows(ExperimentConfig(experiment="lonely-parties", n=n, t=t, seed=seed, trials=3))


def test_lonely_parties_needs_a_t_at_one_party():
    with pytest.raises(ValueError, match="^t: "):
        run_rows(ExperimentConfig(experiment="lonely-parties", n=1, trials=3))
    params, rows = run_rows(ExperimentConfig(experiment="lonely-parties", n=1, t=0, trials=3))
    assert params["t_values"] == [0] and len(rows) == 12
