"""Domain types and reference (non-private) functions.

Inputs are length-``n`` bit vectors, one bit per party.  This module holds
the exact functions the private protocols approximate: the binary sum, the
gap (promise) threshold, and the minimum window weight, together with the
neighboring relations used by the privacy definitions.

Everything here is pure and immutable; no randomness is involved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "BitVector",
    "Bits",
    "NeighborSpec",
    "GapParams",
    "ApproxSpec",
    "GapValue",
    "as_bits",
    "sum_bits",
    "gap_threshold",
    "min_window_weight",
    "min_window_weight_gridded",
    "is_neighbor",
]


def _check_bits(arr: np.ndarray) -> None:
    # runs before any uint8 cast, which would truncate 1.7 to 1 and wrap 256 to 0
    if arr.size and arr.dtype != np.bool_:
        ok = arr.max() <= 1 if arr.dtype == np.uint8 else np.isin(arr, (0, 1)).all()
        if not ok:
            raise ValueError("every element must be 0 or 1")


class BitVector:
    """Immutable vector of bits, one per party.

    Wraps a read-only uint8 numpy array; every element is 0 or 1.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int]):
        arr = np.asarray(list(bits) if not hasattr(bits, "__len__") else bits)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        _check_bits(arr)
        arr = np.array(arr, dtype=np.uint8, copy=True)
        arr.setflags(write=False)
        self._bits = arr

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(np.ones(n, dtype=np.uint8))

    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 array of the bits."""
        return self._bits

    @property
    def n(self) -> int:
        return self._bits.size

    def replace(self, index: int, bit: int) -> "BitVector":
        """Copy with position ``index`` set to ``bit``."""
        arr = np.array(self._bits, copy=True)
        arr[index] = bit
        return BitVector(arr)

    def __len__(self) -> int:
        return self._bits.size

    def __iter__(self):
        return iter(int(b) for b in self._bits)

    def __getitem__(self, index: int) -> int:
        return int(self._bits[index])

    def __eq__(self, other) -> bool:
        if isinstance(other, BitVector):
            return np.array_equal(self._bits, other._bits)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bits.tobytes())

    def __repr__(self) -> str:
        body = "".join(str(int(b)) for b in self._bits[:64])
        if self.n > 64:
            body += f"...({self.n} bits)"
        return f"BitVector({body})"


Bits = Union[BitVector, Sequence[int], np.ndarray]


def as_bits(x: Bits) -> np.ndarray:
    """Coerce to a validated read-only uint8 array; one that owns its memory is not copied."""
    if isinstance(x, BitVector):
        return x.bits
    if isinstance(x, np.ndarray) and x.dtype == np.uint8 and x.ndim == 1:
        if x.flags.owndata and not x.flags.writeable:
            _check_bits(x)
            return x
    return BitVector(x).bits


@dataclass(frozen=True)
class NeighborSpec:
    """Constrains where two neighboring vectors may differ.

    ``index`` pins the differing coordinate; ``excluded`` forbids a set of
    coordinates (the coalition, whose own inputs are fixed).  The pinned
    index, when given, must not be excluded.
    """

    index: Optional[int] = None
    excluded: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "excluded", frozenset(self.excluded))
        if self.index is not None and self.index in self.excluded:
            raise ValueError("index must not be in the excluded set")


@dataclass(frozen=True)
class GapParams:
    """Threshold ``kappa`` and gap width ``tau`` of the promise problem."""

    kappa: int
    tau: int

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        if self.tau <= 0:
            raise ValueError("tau must be a positive integer")


@dataclass(frozen=True)
class ApproxSpec:
    """Additive approximation quality: error > tau with probability <= gamma."""

    gamma: float
    tau: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.tau < 0:
            raise ValueError("tau must be non-negative")

    def satisfied_by(self, errors: np.ndarray) -> bool:
        """Check the guarantee against a sample of absolute errors."""
        errors = np.asarray(errors, dtype=float)
        return float(np.mean(np.abs(errors) > self.tau)) <= self.gamma


class GapValue(enum.Enum):
    """Output of the gap threshold; UNDEFINED marks promise violations."""

    ZERO = 0
    ONE = 1
    UNDEFINED = 2

    @property
    def bit(self) -> int:
        if self is GapValue.UNDEFINED:
            raise ValueError("gap value is undefined on this input")
        return self.value


def sum_bits(x: Bits) -> int:
    """Number of ones in ``x``."""
    return int(as_bits(x).sum())


def gap_threshold(x: Bits, p: GapParams) -> GapValue:
    """Gap threshold: 0 if sum <= kappa, 1 if sum >= kappa + tau.

    Inputs with kappa < sum < kappa + tau violate the promise and map to
    ``GapValue.UNDEFINED`` (a value, never an error, so experiments can
    count promise violations separately).
    """
    s = sum_bits(x)
    if s <= p.kappa:
        return GapValue.ZERO
    if s >= p.kappa + p.tau:
        return GapValue.ONE
    return GapValue.UNDEFINED


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


def is_neighbor(x: Bits, y: Bits, spec: Optional[NeighborSpec] = None) -> bool:
    """True iff ``x`` and ``y`` differ in exactly one position.

    With a ``spec``, the differing position must additionally match
    ``spec.index`` (when set) and avoid ``spec.excluded``.
    """
    xb, yb = as_bits(x), as_bits(y)
    if xb.size != yb.size:
        raise ValueError("vectors must have equal length")
    diff = np.nonzero(xb != yb)[0]
    if diff.size != 1:
        return False
    pos = int(diff[0])
    if spec is not None:
        if spec.index is not None and pos != spec.index:
            return False
        if pos in spec.excluded:
            return False
    return True
