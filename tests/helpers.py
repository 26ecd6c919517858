"""Small builders shared by the tests, and the per-sample sensing oracles.

`gen_observations`, `llr_matched` and `llr_energy` build the local scores
from K raw samples per slot, the way the sensing model defines them; the
campaigns draw the same scores without keeping the samples, and the tests
pin the two against each other.
"""

import numpy as np

from mpfusion.graph import MrfParams, Topology


def uniform_params(top: Topology, j_value: float, convention: str = "merged") -> MrfParams:
    """Same coupling on every edge."""
    return MrfParams(top, {e: j_value for e in top.edges}, convention)


def gen_observations(amplitudes, noise_var: float, sample_count: int, gen: np.random.Generator):
    """Draw y = a + nu for constant-amplitude signals.

    `amplitudes` has one scalar per observation (any shape); the result
    appends a sample axis of length `sample_count`.
    """
    amp = np.asarray(amplitudes, dtype=float)
    noise = gen.standard_normal(amp.shape + (sample_count,)) * np.sqrt(noise_var)
    return amp[..., None] + noise


def llr_matched(y, template):
    """Coherent statistic t^T y - ||t||^2/2 along the last axis of y."""
    y = np.asarray(y, dtype=float)
    t = np.asarray(template, dtype=float)
    if t.ndim != 1 or y.shape[-1] != t.shape[0]:
        raise ValueError("template must be a vector matching y's sample axis")
    return y @ t - 0.5 * float(t @ t)


def llr_energy(y, tau0: float):
    """Energy statistic ||y||^2 / K - tau0 along the last axis of y."""
    return np.mean(np.square(np.asarray(y, dtype=float)), axis=-1) - tau0
