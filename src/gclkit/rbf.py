"""Radial basis function interpolation of mesh displacements and velocities.

Control values prescribed at a set of points (here: the boundary vertices of
the box) are propagated to all grid points through a compactly supported
Wendland C0 kernel.  The Gram matrix over the control points is dense and
factorised by Cholesky; the evaluation matrix from control points to grid
points is sparse (CSR), holding only the pairs within the support radius
(about 6% of them on the benchmark meshes).  The system depends only on the
points and the radius, so a harmonic sweep builds it once and reuses it for
every N, direction and instant, and for both displacements and velocities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import csr_array
from scipy.spatial import cKDTree
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

    ``system_matrix`` is the dense kernel Gram matrix M over the control
    points; ``eval_matrix`` is the sparse matrix that maps control
    coefficients to grid points.  The Cholesky factorisation of M is stored
    for reuse.  Nothing is written after construction, so threads may share
    one system.
    """

    points: np.ndarray  # (n_rbf, 3)
    support_radius: float
    system_matrix: np.ndarray  # (n_rbf, n_rbf)
    eval_matrix: csr_array  # (n_grid, n_rbf)
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


def _gram_matrix(points: np.ndarray, support_radius: float) -> np.ndarray:
    """Dense kernel matrix over the control points; rejects duplicated points."""
    pairwise = cdist(points, points)
    dup = np.argwhere(
        (pairwise < 1e-14 * max(support_radius, 1.0))
        & ~np.eye(len(points), dtype=bool)
    )
    if len(dup):
        pairs = sorted({tuple(sorted(map(int, p))) for p in dup})
        raise ValueError(
            f"singular RBF system: duplicated control points at index pairs {pairs}"
        )
    return wendland_c0(pairwise, support_radius)


def _eval_matrix(
    rbf_points: np.ndarray, grid_points: np.ndarray, support_radius: float
) -> csr_array:
    """Sparse kernel matrix from the control points to the grid points."""
    # every (grid, control) pair within the support, coincident points (where
    # the kernel is 1) included: the ndarray output keeps zero distances
    near = cKDTree(grid_points).sparse_distance_matrix(
        cKDTree(rbf_points), support_radius, output_type="ndarray"
    )
    return csr_array(
        (wendland_c0(near["v"], support_radius), (near["i"], near["j"])),
        shape=(len(grid_points), len(rbf_points)),
    )


def build_system(
    rbf_points: np.ndarray, grid_points: np.ndarray, support_radius: float
) -> RbfSystem:
    """Assemble and factorise the interpolation system.

    Each matrix is built in a function of its own, so that its temporaries
    (the dense distances, the list of near pairs) are freed before the next
    large array is allocated.

    Raises
    ------
    ValueError
        If the kernel matrix cannot be factorised; duplicated control points
        are reported with their indices.
    """
    rbf_points = np.atleast_2d(np.asarray(rbf_points, dtype=float))
    grid_points = np.atleast_2d(np.asarray(grid_points, dtype=float))
    system_matrix = _gram_matrix(rbf_points, support_radius)
    eval_matrix = _eval_matrix(rbf_points, grid_points, support_radius)
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
