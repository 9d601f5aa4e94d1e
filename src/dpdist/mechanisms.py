"""Noise primitives and single-party sanitizing maps.

Laplace and Gaussian samplers, the randomized-response bit flip with its
exact output-probability oracle, and the global-sensitivity Laplace
mechanism.  Every sampler takes an explicit ``numpy.random.Generator``; there
is no ambient global randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import _check_bits

__all__ = [
    "PrivacyParams",
    "LaplaceParams",
    "FlipParams",
    "SensitivitySpec",
    "sample_laplace",
    "sample_gaussian",
    "flip_bias_for",
    "flip",
    "flip_output_prob",
    "laplace_mechanism",
]


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy loss ``epsilon`` and relaxation ``delta`` (0 for pure DP)."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")


@dataclass(frozen=True)
class LaplaceParams:
    """Scale parameter of the Laplace distribution."""

    lam: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("scale must be finite and positive")


@dataclass(frozen=True)
class FlipParams:
    """Bias of the randomized-response flip: keep the bit w.p. 0.5 + flip_bias.

    Named ``flip_bias`` to keep it distinct from the density of the planted
    input distribution used by the audit module.
    """

    flip_bias: float

    def __post_init__(self):
        if not 0.0 < self.flip_bias < 0.5:
            raise ValueError("flip_bias must lie strictly between 0 and 0.5")

    @property
    def keep_prob(self) -> float:
        return 0.5 + self.flip_bias

    @property
    def exact_epsilon(self) -> float:
        """Worst-case log output ratio, ln((0.5+b)/(0.5-b))."""
        return math.log((0.5 + self.flip_bias) / (0.5 - self.flip_bias))


@dataclass(frozen=True)
class SensitivitySpec:
    """Global sensitivity: max |f(x) - f(x')| over neighboring inputs."""

    gs: float

    def __post_init__(self):
        if self.gs < 0:
            raise ValueError("global sensitivity must be non-negative")


def sample_laplace(
    p: LaplaceParams,
    rng: np.random.Generator,
    size: Optional[Union[int, tuple]] = None,
) -> Union[float, np.ndarray]:
    """Sample from the Laplace distribution with scale ``p.lam``.

    Uses inverse-CDF on a single uniform draw per sample: for u uniform on
    [-0.5, 0.5), the sample is -lam * sign(u) * ln(1 - 2|u|).  Mean 0,
    variance 2*lam^2, and P[|Y| > k*lam] = e^-k.
    """
    u = rng.random(size) - 0.5
    # 1 - 2|u| = 0 only when the uniform draw is exactly 0; clamp to the
    # smallest positive double instead of returning inf.
    q = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(float).tiny)
    out = -p.lam * np.sign(u) * np.log(q)
    if size is None:
        return float(out)
    return out


def sample_gaussian(
    mu: float,
    sigma2: float,
    rng: np.random.Generator,
    size: Optional[Union[int, tuple]] = None,
) -> Union[float, np.ndarray]:
    """Sample from N(mu, sigma2); sigma2 = 0 returns mu exactly."""
    if not 0 <= sigma2 < math.inf:
        raise ValueError("variance must be finite and non-negative")
    if sigma2 == 0:
        if size is None:
            return float(mu)
        return np.full(size, float(mu))
    out = rng.normal(mu, math.sqrt(sigma2), size)
    if size is None:
        return float(out)
    return out


def flip_bias_for(eps: float) -> FlipParams:
    """Flip bias eps / (4 + 2*eps), giving exact output ratio 1 + eps."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return FlipParams(eps / (4.0 + 2.0 * eps))


def flip(
    x: Union[int, np.ndarray], p: FlipParams, rng: np.random.Generator
) -> Union[int, np.ndarray]:
    """Randomized response: return x w.p. 0.5 + flip_bias, else 1 - x.

    Accepts a scalar bit or a bit array (flipped elementwise with
    independent randomness, returned as uint8).  A scalar outside {0, 1},
    or an array with such an element, raises ``ValueError`` before any draw.
    """
    arr = np.asarray(x)
    if arr.ndim:
        _check_bits(arr)  # the XOR below would map 2 to 2 or 3, not to 1 - x
    elif arr not in (0, 1):  # 1 - x would map 2 to -1 and 0.5 to 0
        raise ValueError("every element must be 0 or 1")
    keep = rng.random(arr.shape) < p.keep_prob
    if arr.ndim == 0:
        return int(np.where(keep, arr, 1 - arr))
    return arr.astype(np.uint8, copy=False) ^ ~keep


def flip_output_prob(x: int, out: int, p: FlipParams) -> float:
    """Exact probability that flip(x) = out."""
    if x not in (0, 1) or out not in (0, 1):
        raise ValueError("bits must be 0 or 1")
    return p.keep_prob if x == out else 1.0 - p.keep_prob


def laplace_mechanism(
    f_value: float,
    s: SensitivitySpec,
    eps: float,
    rng: np.random.Generator,
    size: Optional[Union[int, tuple]] = None,
) -> Union[float, np.ndarray]:
    """Add Laplace noise with scale gs/eps to a function value.

    Zero sensitivity yields the degenerate (noise-free) mechanism, the
    scale -> 0 limit; useful as a test fixture.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if s.gs == 0:
        if size is None:
            return float(f_value)
        return np.full(size, float(f_value))
    return f_value + sample_laplace(LaplaceParams(s.gs / eps), rng, size)
