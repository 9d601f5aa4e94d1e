"""Input bits, the gap problem's parameters, and the exact minimum window weight.

Inputs are length-``n`` bit vectors, one bit per party.  ``as_bits``
validates one into the read-only uint8 array every protocol passes around;
``GapParams`` fixes the threshold and gap width of the promise problem; and
``min_window_weight`` (with its interval-gridded variant) is the exact value
the windowed-minimum protocols approximate.

Everything here is pure and immutable; no randomness is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "Bits",
    "GapParams",
    "as_bits",
    "min_window_weight",
    "min_window_weight_gridded",
]


def _check_bits(arr: np.ndarray) -> None:
    # runs before any uint8 cast, which would truncate 1.7 to 1 and wrap 256 to 0
    if arr.size and arr.dtype != np.bool_:
        if arr.dtype == np.uint8:
            ok = arr.max() <= 1
        elif arr.dtype.kind in "iu":  # integers: a range check is exact and cheaper than isin
            ok = arr.min() >= 0 and arr.max() <= 1
        else:  # floats, objects, strings: only the exact values 0 and 1 pass
            ok = np.isin(arr, (0, 1)).all()
        if not ok:
            raise ValueError("every element must be 0 or 1")


Bits = Union[Sequence[int], np.ndarray]


def as_bits(x: Bits) -> np.ndarray:
    """Coerce to a validated read-only uint8 array; one that owns its memory is not copied."""
    if isinstance(x, np.ndarray) and x.dtype == np.uint8 and x.ndim == 1:
        if x.flags.owndata and not x.flags.writeable:
            _check_bits(x)
            return x
    arr = np.asarray(x if hasattr(x, "__len__") else list(x))
    if arr.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    _check_bits(arr)
    arr = np.array(arr, dtype=np.uint8, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GapParams:
    """Threshold ``kappa`` and gap width ``tau`` of the promise problem."""

    kappa: int
    tau: int

    def __post_init__(self):
        if not 0 <= self.kappa < math.inf:  # a NaN threshold would answer 1 on every input
            raise ValueError("kappa must be finite and non-negative")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be finite and positive")


def _window_sums(bits: np.ndarray, window: int) -> np.ndarray:
    """int64 weights of all length-``window`` substrings on the last axis, by sliding recurrence."""
    c = np.cumsum(bits, axis=-1, dtype=np.int64)
    out = c[..., window - 1 :].copy()
    out[..., 1:] -= c[..., : bits.shape[-1] - window]
    return out


def min_window_weight(x: Bits, window: int) -> int:
    """Minimum number of ones over all length-``window`` substrings.

    Window positions are the closed ranges [i, i+window-1] for every start
    i; equivalently, the minimum weight of any contiguous substring of the
    given length.
    """
    bits = as_bits(x)
    if window <= 0:
        raise ValueError("window must be positive")
    if window > bits.size:
        raise ValueError(f"window {window} exceeds input length {bits.size}")
    return int(_window_sums(bits, window).min())


def min_window_weight_gridded(x: Bits, window: int, interval: int) -> int:
    """Minimum window weight with starts restricted to interval boundaries.

    The input is viewed as consecutive disjoint intervals of length
    ``interval``; only windows starting at an interval boundary compete for
    the minimum.  Requires ``interval`` to divide both the input length and
    ``window``, so every admissible window is a whole number of intervals
    and the final boundary window fits exactly.
    """
    bits = as_bits(x)
    if window <= 0 or interval <= 0:
        raise ValueError("window and interval must be positive")
    if window > bits.size:
        raise ValueError(f"window {window} exceeds input length {bits.size}")
    if bits.size % interval != 0:
        raise ValueError(f"interval {interval} must divide input length {bits.size}")
    if window % interval != 0:
        raise ValueError(f"interval {interval} must divide window {window}")
    sums = _window_sums(bits, window)
    return int(sums[::interval].min())
