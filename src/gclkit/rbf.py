"""Radial basis function interpolation of mesh displacements and velocities.

Control values prescribed at a set of points (here: the boundary vertices of
the box) are propagated to all grid points through a compactly supported
Wendland C0 kernel, so only pairs within the support radius are formed.  The
sparse Gram matrix over the control points is factorised by SuperLU, and the
interpolant is evaluated over blocks of ``BLOCK_POINTS`` grid points against
one k-d tree of the control points: no dense and no (n_grid, n_rbf) matrix is
built, and the result has the same bytes whatever the BLAS thread count.  A
system is transient (see ``motion.build_rbf_system``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # scipy is imported where used: only the RBF cases need it
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import SuperLU
    from scipy.spatial import cKDTree
__all__ = ["BLOCK_POINTS", "wendland_c0", "RbfSystem", "build_system", "interpolate"]

# Grid points evaluated together; a block's near pairs take a few MB.
BLOCK_POINTS = 1024


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
    points, kept with its sparse LU factor for the solve and with a k-d tree
    of the control points for the evaluation at ``grid_points``.  Nothing is
    written after construction.
    """

    points: np.ndarray  # (n_rbf, 3)
    grid_points: np.ndarray  # (n_grid, 3)
    support_radius: float
    system_matrix: csr_array  # (n_rbf, n_rbf)
    _factor: SuperLU = field(repr=False)
    _tree: cKDTree = field(repr=False)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def solve(self, values: np.ndarray) -> np.ndarray:
        """M^-1 values with one step of iterative refinement."""
        values = np.asarray(values, dtype=float)
        coeff = self._factor.solve(values)
        residual = values - self.system_matrix @ coeff
        return coeff + self._factor.solve(residual)

    def near_weights(self) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
        """Per grid block, (rows, i, j, w): block point i, control point j and
        w = phi(|x_i - p_j|) for each pair within the support, zero distances
        (coincident points, w = 1) included."""
        from scipy.spatial import cKDTree
        for start in range(0, len(self.grid_points), BLOCK_POINTS):
            rows = slice(start, start + BLOCK_POINTS)
            near = cKDTree(self.grid_points[rows]).sparse_distance_matrix(
                self._tree, self.support_radius, output_type="ndarray"
            )
            yield rows, near["i"], near["j"], wendland_c0(near["v"], self.support_radius)


def _gram_matrix(tree: cKDTree, support_radius: float) -> csr_array:
    """Sparse kernel matrix over the control points; rejects duplicated points."""
    from scipy.sparse import csr_array
    near = tree.sparse_distance_matrix(tree, support_radius, output_type="ndarray")
    dup = (near["i"] != near["j"]) & (near["v"] < 1e-14 * max(support_radius, 1.0))
    if dup.any():
        pairs = sorted(
            {tuple(sorted(map(int, p))) for p in zip(near["i"][dup], near["j"][dup])}
        )
        raise ValueError(
            f"singular RBF system: duplicated control points at index pairs {pairs}"
        )
    return csr_array(
        (wendland_c0(near["v"], support_radius), (near["i"], near["j"])),
        shape=(tree.n, tree.n),
    )


def build_system(
    rbf_points: np.ndarray, grid_points: np.ndarray, support_radius: float
) -> RbfSystem:
    """Assemble and factorise the interpolation system.

    M is symmetric positive definite, so SuperLU factors it with diagonal
    pivots after a minimum-degree ordering of M + M^T.

    Raises
    ------
    ValueError
        If the kernel matrix cannot be factorised; duplicated control points
        are reported with their indices.
    """
    from scipy.sparse.linalg import splu
    from scipy.spatial import cKDTree
    rbf_points = np.atleast_2d(np.asarray(rbf_points, dtype=float))
    grid_points = np.atleast_2d(np.asarray(grid_points, dtype=float))
    tree = cKDTree(rbf_points)
    gram = _gram_matrix(tree, support_radius)
    try:
        factor = splu(
            gram.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise ValueError("singular RBF system") from err
    return RbfSystem(rbf_points, grid_points, float(support_radius), gram, factor, tree)


def interpolate(system: RbfSystem, values: np.ndarray) -> np.ndarray:
    """Interpolate control-point values to all grid points.

    ``values`` has shape (n_rbf,) or (n_rbf, k); columns are treated
    independently (e.g. one column per Cartesian direction).  Each grid
    point sums its near pairs in the k-d tree's order, by one ``np.bincount``
    per block and column.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != system.n_points:
        raise ValueError(
            f"expected {system.n_points} control values, got {values.shape[0]}"
        )
    coeff = system.solve(values).reshape(system.n_points, -1)
    out = np.empty((len(system.grid_points), coeff.shape[1]))
    for rows, i, j, w in system.near_weights():
        block = out[rows]
        for col in range(coeff.shape[1]):
            block[:, col] = np.bincount(i, w * coeff[j, col], minlength=len(block))
    return out.reshape((len(out),) + values.shape[1:])
