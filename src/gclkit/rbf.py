"""Radial basis function interpolation of mesh displacements and velocities.

Control values prescribed at a set of points (here: the boundary vertices of
the box) are propagated to all grid points through a compactly supported
Wendland C0 kernel.  One dense symmetric system is factorised per
configuration and reused for every direction, every instant, and for both
displacements and velocities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

__all__ = ["wendland_c0", "RbfSystem", "build_system", "interpolate"]


def wendland_c0(distance: np.ndarray, support_radius: float) -> np.ndarray:
    """Wendland C0 kernel (1 - d/R)^2, truncated to zero for d >= R."""
    if not support_radius > 0.0:
        raise ValueError(f"support radius must be positive, got {support_radius}")
    # one fresh array, updated in place: the kernel matrices are large
    distance = np.asarray(distance, dtype=float)
    kernel = np.divide(distance, support_radius, out=np.empty_like(distance))
    np.minimum(kernel, 1.0, out=kernel)
    np.subtract(1.0, kernel, out=kernel)
    return np.square(kernel, out=kernel)


@dataclass
class RbfSystem:
    """Assembled interpolation system.

    ``system_matrix`` is the kernel Gram matrix M over the control points;
    ``eval_matrix`` maps control coefficients to grid points.  The Cholesky
    factorisation of M is stored for reuse.
    """

    points: np.ndarray  # (n_rbf, 3)
    support_radius: float
    system_matrix: np.ndarray  # (n_rbf, n_rbf)
    eval_matrix: np.ndarray  # (n_grid, n_rbf)
    _factor: tuple = field(repr=False, default=None)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def solve(self, values: np.ndarray) -> np.ndarray:
        """M^-1 values with one step of iterative refinement."""
        values = np.asarray(values, dtype=float)
        coeff = cho_solve(self._factor, values)
        residual = values - self.system_matrix @ coeff
        return coeff + cho_solve(self._factor, residual)


def build_system(
    rbf_points: np.ndarray, grid_points: np.ndarray, support_radius: float
) -> RbfSystem:
    """Assemble and factorise the interpolation system.

    Raises
    ------
    ValueError
        If the kernel matrix cannot be factorised; duplicated control points
        are reported with their indices.
    """
    rbf_points = np.atleast_2d(np.asarray(rbf_points, dtype=float))
    grid_points = np.atleast_2d(np.asarray(grid_points, dtype=float))
    pairwise = cdist(rbf_points, rbf_points)
    dup = np.argwhere(
        (pairwise < 1e-14 * max(support_radius, 1.0))
        & ~np.eye(len(rbf_points), dtype=bool)
    )
    if len(dup):
        pairs = sorted({tuple(sorted(map(int, p))) for p in dup})
        raise ValueError(
            f"singular RBF system: duplicated control points at index pairs {pairs}"
        )
    system_matrix = wendland_c0(pairwise, support_radius)
    eval_matrix = wendland_c0(cdist(grid_points, rbf_points), support_radius)
    try:
        factor = cho_factor(system_matrix)
    except np.linalg.LinAlgError as err:
        raise ValueError("singular RBF system") from err
    return RbfSystem(rbf_points, float(support_radius), system_matrix, eval_matrix, factor)


def interpolate(system: RbfSystem, values: np.ndarray) -> np.ndarray:
    """Interpolate control-point values to all grid points.

    ``values`` has shape (n_rbf,) or (n_rbf, k); columns are treated
    independently (e.g. one column per Cartesian direction).
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != system.n_points:
        raise ValueError(
            f"expected {system.n_points} control values, got {values.shape[0]}"
        )
    return system.eval_matrix @ system.solve(values)
