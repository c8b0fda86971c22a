"""Summary statistics the benchmark owns: medians, tail percentiles and chain ESS.

The ESS estimator is the benchmark's own, so that a change to the sampler
cannot also change how its output is judged.  ``check.py`` validates it on
AR(1) chains whose ESS is known in closed form.
"""

from __future__ import annotations

import statistics

import numpy as np

# a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns (value, percentile, sample count).  With too few samples for
    any such percentile the value is 0 and the percentile is 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 0.0, 0.0, n
    return float(ordered[n - TAIL_BEYOND - 1]), tail_percentile(n), n


def tail_percentile(n: int) -> float:
    """The percentile ``tail`` reports for n samples (0 when n is too small)."""
    return 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 0.0


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median, as the acceptance rule takes it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def _integrated_autocorrelation_time(x: np.ndarray) -> float:
    """Geyer's initial monotone sequence estimate of tau for one coordinate."""
    n = len(x)
    centred = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n] / n
    if acov[0] <= 0.0:
        return float(n)          # a chain that never moved holds one sample
    rho = acov / acov[0]
    n_pairs = n // 2
    pairs = rho[0:2 * n_pairs:2] + rho[1:2 * n_pairs:2]
    positive = np.nonzero(pairs <= 0.0)[0]
    m = int(positive[0]) if len(positive) else n_pairs
    pairs = np.minimum.accumulate(pairs[:m])
    tau = -1.0 + 2.0 * float(pairs.sum())
    return min(max(tau, 1.0 / n), float(n))


def effective_sample_size(states: np.ndarray) -> float:
    """Minimum over coordinates of n / tau for an (n, d) chain."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim == 1:
        states = states[:, None]
    n = states.shape[0]
    return min(n / _integrated_autocorrelation_time(states[:, j])
               for j in range(states.shape[1]))
