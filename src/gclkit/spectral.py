"""Time-spectral differentiation and the discrete Fourier transform pair.

Signals are sampled at the 2N+1 equally spaced instants t_n = n T / (2N+1).
On such samples the Fourier route to d/dt (transform, multiply by
i 2 pi k / T, transform back) and the dense time-spectral matrix D are the
same linear operator, so the derivative is always taken through D; the
transforms are kept for reading Fourier coefficients.  Both are dense
O(Nts^2) matrix products; sample counts never exceed a few dozen here, so
there is nothing to gain from an FFT.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SpectralOperator", "ts_matrix"]


def _checked_sampling(n_harmonics, period) -> tuple[int, float]:
    """N as an int and T as a float, once N is a whole number >= 1 and T
    positive and finite; else ValueError naming the bad value."""
    if not 1 <= n_harmonics < math.inf or int(n_harmonics) != n_harmonics:
        raise ValueError(f"n_harmonics must be an integer >= 1, got {n_harmonics}")
    return int(n_harmonics), _checked_period(period)


def _checked_period(period) -> float:
    """T as a float, once it is positive and finite; else ValueError naming it."""
    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be positive and finite, got {period}")
    return float(period)


def ts_matrix(n_harmonics: int, period: float = 1.0) -> np.ndarray:
    """Dense time-spectral differentiation matrix for 2N+1 samples.

    Off-diagonal entries are (pi/T) (-1)^(n-K) csc(pi (n-K) / (2N+1)); the
    diagonal is zero.  The matrix is exactly skew-symmetric and annihilates
    constants, and multiplying sampled complex exponentials e^{i 2 pi k t/T}
    with |k| <= N reproduces their derivatives at the samples.
    """
    n_harmonics, period = _checked_sampling(n_harmonics, period)
    nts = 2 * n_harmonics + 1
    n = np.arange(nts)
    diff = n[:, None] - n[None, :]
    sign = np.where(diff % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore"):
        entries = (np.pi / period) * sign / np.sin(np.pi * diff / nts)
    np.fill_diagonal(entries, 0.0)
    return entries


class SpectralOperator:
    """Spectral time derivative and DFT / inverse DFT for one harmonic count.

    Parameters
    ----------
    n_harmonics : int
        Number of Fourier modes N; the operator works on 2N+1 samples.
    period : float
        Time period T of the sampled signals.
    """

    def __init__(self, n_harmonics: int, period: float = 1.0):
        self.n_harmonics, self.period = _checked_sampling(n_harmonics, period)
        self.nts = 2 * self.n_harmonics + 1
        self.wavenumbers = np.arange(-self.n_harmonics, self.n_harmonics + 1)
        self.times = np.arange(self.nts) * self.period / self.nts
        self.d_matrix = ts_matrix(self.n_harmonics, self.period)

    def _along_time(self, values: np.ndarray, what: str = "samples") -> np.ndarray:
        values = np.asarray(values)
        if values.shape[-1] != self.nts:
            raise ValueError(f"expected {self.nts} {what} on the last axis, got {values.shape[-1]}")
        return values

    def _phases(self) -> np.ndarray:
        """The transforms' phases 2 pi k t_n / T, (k, n), formed per call."""
        return np.outer(self.wavenumbers, self.times) * (2.0 * np.pi / self.period)

    def dft(self, samples: np.ndarray) -> np.ndarray:
        """Fourier coefficients c_k = (1/Nts) sum_n s_n exp(-i 2 pi k t_n / T),
        k = -N..N, of samples along the last axis."""
        return self._along_time(samples) @ (np.exp(-1j * self._phases()) / self.nts).T

    def idft(self, coefficients: np.ndarray) -> np.ndarray:
        """Samples at t_n reconstructed from coefficients along the last axis."""
        return self._along_time(coefficients, "coefficients") @ np.exp(1j * self._phases())

    def differentiate(self, samples: np.ndarray) -> np.ndarray:
        """Spectral time derivative at the samples along the last axis, D s.

        Exact for bandwidth <= N; real input yields real output.
        """
        return self._along_time(samples) @ self.d_matrix.T
