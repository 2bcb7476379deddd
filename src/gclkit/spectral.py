"""Discrete Fourier transform pair and time-spectral differentiation.

Signals are sampled at the 2N+1 equally spaced instants t_n = n T / (2N+1).
Transforms are dense O(Nts^2) matrix products; sample counts never exceed a
few dozen here, so there is nothing to gain from an FFT.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SpectralOperator", "ts_matrix"]


def ts_matrix(n_harmonics: int, period: float = 1.0) -> np.ndarray:
    """Dense time-spectral differentiation matrix for 2N+1 samples.

    Off-diagonal entries are (pi/T) (-1)^(n-K) csc(pi (n-K) / (2N+1)); the
    diagonal is zero.  The matrix is exactly skew-symmetric and annihilates
    constants, and multiplying sampled complex exponentials e^{i 2 pi k t/T}
    with |k| <= N reproduces their derivatives at the samples.
    """
    if n_harmonics < 1:
        raise ValueError(f"n_harmonics must be >= 1, got {n_harmonics}")
    nts = 2 * n_harmonics + 1
    n = np.arange(nts)
    diff = n[:, None] - n[None, :]
    sign = np.where(diff % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore"):
        entries = (np.pi / period) * sign / np.sin(np.pi * diff / nts)
    np.fill_diagonal(entries, 0.0)
    return entries


class SpectralOperator:
    """DFT / inverse DFT / spectral time derivative for one harmonic count.

    Parameters
    ----------
    n_harmonics : int
        Number of Fourier modes N; the operator works on 2N+1 samples.
    period : float
        Time period T of the sampled signals.
    """

    def __init__(self, n_harmonics: int, period: float = 1.0):
        if n_harmonics < 1:
            raise ValueError(f"n_harmonics must be >= 1, got {n_harmonics}")
        if not period > 0.0:
            raise ValueError(f"period must be positive, got {period}")
        self.n_harmonics = int(n_harmonics)
        self.period = float(period)
        self.nts = 2 * self.n_harmonics + 1
        self.wavenumbers = np.arange(-self.n_harmonics, self.n_harmonics + 1)
        self.times = np.arange(self.nts) * self.period / self.nts
        # forward: c_k = (1/Nts) sum_n s_n exp(-i 2 pi k t_n / T)
        phase = np.outer(self.wavenumbers, self.times) * (2.0 * np.pi / self.period)
        self._forward = np.exp(-1j * phase) / self.nts
        self._inverse = np.exp(1j * phase).T
        self._d_matrix = ts_matrix(self.n_harmonics, self.period)

    @property
    def d_matrix(self) -> np.ndarray:
        return self._d_matrix

    def _check_samples(self, samples: np.ndarray) -> np.ndarray:
        samples = np.asarray(samples)
        if samples.shape[-1] != self.nts:
            raise ValueError(
                f"expected {self.nts} samples on the last axis, got {samples.shape[-1]}"
            )
        return samples

    def dft(self, samples: np.ndarray) -> np.ndarray:
        """Fourier coefficients c_k, k = -N..N, of samples along the last axis."""
        return self._check_samples(samples) @ self._forward.T

    def idft(self, coefficients: np.ndarray) -> np.ndarray:
        """Samples at t_n reconstructed from coefficients along the last axis."""
        coefficients = np.asarray(coefficients)
        if coefficients.shape[-1] != self.nts:
            raise ValueError(
                f"expected {self.nts} coefficients on the last axis, got {coefficients.shape[-1]}"
            )
        return coefficients @ self._inverse.T

    def differentiate(self, samples: np.ndarray) -> np.ndarray:
        """Spectral time derivative at the samples (exact for bandwidth <= N).

        Real input yields real output; the imaginary residue of the inverse
        transform is discarded (it is at rounding level by conjugate symmetry).
        """
        samples = self._check_samples(samples)
        factors = 1j * (2.0 * np.pi / self.period) * self.wavenumbers
        out = self.idft(self.dft(samples) * factors)
        if np.isrealobj(samples):
            return out.real
        return out
