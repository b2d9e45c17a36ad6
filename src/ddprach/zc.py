"""Zadoff-Chu sequence generation and cyclic correlation.

Zadoff-Chu (ZC) sequences are the constant-amplitude zero-autocorrelation
(CAZAC) sequences used for random-access preambles: a root sequence of odd
prime length has a perfectly flat DFT magnitude and an ideal (impulse-like)
cyclic autocorrelation, which makes the cyclic power delay profile of a
received copy peak exactly at the propagation delay.
"""

import math
import warnings

import numpy as np

__all__ = [
    "generate_zc",
    "circular_correlation",
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_root(root: int, n_zc: int) -> None:
    """Raise ``ValueError`` unless ``1 <= root < n_zc`` and the two are coprime.

    The one statement of the root rule: :func:`generate_zc` runs it, and so
    does ``WaveformParams``, so that a config fails at parse time.
    """
    if not 1 <= root < n_zc:
        raise ValueError(f"need 1 <= root < n_zc, got root={root}, n_zc={n_zc}")
    if math.gcd(root, n_zc) != 1:
        raise ValueError(
            f"root and n_zc must be coprime, got gcd({root}, {n_zc}) = "
            f"{math.gcd(root, n_zc)}"
        )


def generate_zc(root: int, n_zc: int) -> np.ndarray:
    """Generate a Zadoff-Chu root sequence.

    The sequence is ``a_q(n) = exp(-j 2 pi q [n(n+1)/2] / n_zc)`` for
    ``n = 0..n_zc-1`` with root ``q``.

    Parameters
    ----------
    root : int
        Root index ``q``, ``1 <= root < n_zc`` and coprime with ``n_zc``.
    n_zc : int
        Sequence length, at least 3.  Non-prime lengths are accepted but
        lose the ideal autocorrelation property, so they raise a
        ``UserWarning``.

    Returns
    -------
    np.ndarray
        Read-only complex unit-magnitude samples, shape ``(n_zc,)``.
    """
    if n_zc < 3:
        raise ValueError(f"n_zc must be >= 3, got {n_zc}")
    check_root(root, n_zc)
    if not _is_prime(n_zc):
        warnings.warn(
            f"n_zc = {n_zc} is not prime; the cyclic autocorrelation of the "
            "sequence is no longer an ideal impulse",
            UserWarning,
            stacklevel=2,
        )
    n = np.arange(n_zc, dtype=float)
    # n(n+1)/2 is always an integer, so the phase is exact in double precision
    samples = np.exp(-2j * np.pi * root * (n * (n + 1) / 2.0) / n_zc)
    samples.setflags(write=False)
    return samples


def circular_correlation(received: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Cyclic cross-correlation power profile of two equal-length sequences.

    ``values[l] = | sum_n received[n] * conj(reference[(n - l) mod L]) |^2``

    The lag convention delays the reference, so a received copy that is a
    cyclic delay of the reference by ``d`` samples peaks at ``values[d]``
    and the time of arrival can be read off the peak directly.

    Parameters
    ----------
    received, reference : np.ndarray
        Complex sequences of identical length ``L >= 1``.

    Returns
    -------
    np.ndarray
        Non-negative correlation powers ``values``, shape ``(L,)``.
    """
    y = np.asarray(received, dtype=complex)
    x = np.asarray(reference, dtype=complex)
    if y.ndim != 1 or x.ndim != 1:
        raise ValueError("received and reference must be one-dimensional")
    if y.shape != x.shape:
        raise ValueError(
            f"length mismatch: received has {y.shape[0]} samples, "
            f"reference has {x.shape[0]}"
        )
    if y.size == 0:
        raise ValueError("sequences must contain at least one sample")
    corr = np.fft.ifft(np.fft.fft(y) * np.conj(np.fft.fft(x)))
    return np.abs(corr) ** 2
