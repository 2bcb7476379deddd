"""Radial basis function interpolation of mesh displacements and velocities.

Control values prescribed at a set of points (here: the boundary vertices of
the box) are propagated to all grid points through a compactly supported
Wendland C0 kernel.  Both kernel matrices hold only the pairs within the
support radius, found by ``cKDTree.sparse_distance_matrix``: the Gram matrix
over the control points (about 7% nonzero on the benchmark meshes) and the
evaluation matrix from control points to grid points (about 6%) are sparse.
The Gram matrix is densified once, into the array that the Cholesky
factorisation overwrites; the sparse copy serves the refinement step of the
solve.  A system is transient: the motion cases spread their few boundary
modes through it once and keep only the grid fields (see
``motion.build_rbf_system``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # scipy is imported where used: only the RBF cases need it
    from scipy.sparse import csr_array
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

    ``system_matrix`` is the sparse kernel Gram matrix M over the control
    points and ``eval_matrix`` the sparse matrix that maps control
    coefficients to grid points.  The Cholesky factor of M is computed in
    place of its one dense copy and stored for the solve.  A system is meant
    to be transient: build it, interpolate every field it is needed for in
    one call, and drop it.  Nothing is written after construction.
    """

    points: np.ndarray  # (n_rbf, 3)
    support_radius: float
    system_matrix: csr_array  # (n_rbf, n_rbf)
    eval_matrix: csr_array  # (n_grid, n_rbf)
    _factor: tuple = field(repr=False, default=None)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def solve(self, values: np.ndarray) -> np.ndarray:
        """M^-1 values with one step of iterative refinement."""
        from scipy.linalg import cho_solve
        values = np.asarray(values, dtype=float)
        coeff = cho_solve(self._factor, values)
        residual = values - self.system_matrix @ coeff
        return coeff + cho_solve(self._factor, residual)


def _near_pairs(rows: np.ndarray, cols: np.ndarray, support_radius: float) -> np.ndarray:
    """Records (i, j, v) of every (row, column) point pair within the support.

    The ndarray output keeps zero distances, so coincident points (where the
    kernel is 1) are included.
    """
    from scipy.spatial import cKDTree
    return cKDTree(rows).sparse_distance_matrix(
        cKDTree(cols), support_radius, output_type="ndarray"
    )


def _kernel_matrix(near: np.ndarray, shape: tuple, support_radius: float) -> csr_array:
    from scipy.sparse import csr_array
    return csr_array(
        (wendland_c0(near["v"], support_radius), (near["i"], near["j"])), shape=shape
    )


def _gram_matrix(points: np.ndarray, support_radius: float) -> csr_array:
    """Sparse kernel matrix over the control points; rejects duplicated points."""
    near = _near_pairs(points, points, support_radius)
    dup = (near["i"] != near["j"]) & (near["v"] < 1e-14 * max(support_radius, 1.0))
    if dup.any():
        pairs = sorted(
            {tuple(sorted(map(int, p))) for p in zip(near["i"][dup], near["j"][dup])}
        )
        raise ValueError(
            f"singular RBF system: duplicated control points at index pairs {pairs}"
        )
    return _kernel_matrix(near, (len(points), len(points)), support_radius)


def _eval_matrix(
    rbf_points: np.ndarray, grid_points: np.ndarray, support_radius: float
) -> csr_array:
    """Sparse kernel matrix from the control points to the grid points."""
    near = _near_pairs(grid_points, rbf_points, support_radius)
    return _kernel_matrix(near, (len(grid_points), len(rbf_points)), support_radius)


def build_system(
    rbf_points: np.ndarray, grid_points: np.ndarray, support_radius: float
) -> RbfSystem:
    """Assemble and factorise the interpolation system.

    Each matrix is built in a function of its own, so that its temporaries
    (the list of near pairs) are freed before the next large array is
    allocated.  The evaluation matrix, whose temporaries are the largest, is
    built first; the Gram matrix is then densified into a Fortran-ordered
    array that the Cholesky factorisation overwrites.

    Raises
    ------
    ValueError
        If the kernel matrix cannot be factorised; duplicated control points
        are reported with their indices.
    """
    from scipy.linalg import cho_factor
    rbf_points = np.atleast_2d(np.asarray(rbf_points, dtype=float))
    grid_points = np.atleast_2d(np.asarray(grid_points, dtype=float))
    eval_matrix = _eval_matrix(rbf_points, grid_points, support_radius)
    system_matrix = _gram_matrix(rbf_points, support_radius)
    try:
        factor = cho_factor(system_matrix.toarray(order="F"), overwrite_a=True)
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
