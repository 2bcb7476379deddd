"""Radial basis function interpolation of mesh displacements and velocities.

Control values prescribed at a set of points (here: the boundary vertices of
the box) are propagated to all grid points through a compactly supported
Wendland C0 kernel, so only pairs within the support radius are formed.

The kernel is radial, so the Gram matrix M over the control points commutes
with every mirror that maps the points onto themselves.  ``build_system``
finds which of the three mid-plane mirrors of their bounding box do, and in
the symmetry-adapted basis Q of the group G they generate (one column per
character of G and orbit of points) M splits into one independent block per
character: eight for a box's boundary, one for points with no mirror
symmetry (Fassler & Stiefel, *Group Theoretical Methods and Their
Applications*, 1992).  Only the Gram rows of the orbit representatives are
formed, no full Gram matrix, and SuperLU factors the blocks' block-diagonal
matrix, so its L and U stay inside the blocks.  On the paper's box (lengths
3.2, 2.8, 2.4, support radius 0.3 * 3.2), build + solve of the case-5 modes
with BLAS on 1 thread, best of 3, against one factor of the full Gram matrix
(``rbf_solve`` in ``tests/oracles.py``):

=====  =====  ===============================  ==========  =============
cells  n_rbf  block sizes                      full solve  block solve
=====  =====  ===============================  ==========  =============
10^3     602  91 80 80 70 80 70 70 61          8.7 ms      8.9 ms
20^3   2,402  331 310 310 290 310 290 290 271  0.26 s      0.062 s
30^3   5,402  721 690 690 660 690 660 660 631  2.5 s       0.50 s
=====  =====  ===============================  ==========  =============

From the repository root, with ``n = 20`` for the 20^3 row::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m timeit -n 1 -r 3 -s "import scipy.sparse.linalg, scipy.spatial; from gclkit import motion, rbf; from gclkit.hexmesh import build_box_mesh; n = 20; m = build_box_mesh(n, n, n, 3.2, 2.8, 2.4); c = motion.MotionCase.for_case('case5'); p = m.vertices[m.boundary_vertex_ids()]; v = motion._case5_modes(m, c, p)" "rbf.build_system(p, m.vertices, c.resolved_support_radius(m)).solve(v)"

The interpolant is evaluated over blocks of ``BLOCK_POINTS`` grid points
against one k-d tree of the control points: no dense and no (n_grid, n_rbf)
matrix is built, and the result has the same bytes whatever the BLAS thread
count.  A system is transient (see ``motion.build_rbf_system``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # scipy is imported where used: only the RBF cases need it
    from scipy.sparse import csc_array
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

    The kernel Gram matrix M over the control points is held in the
    symmetry-adapted basis Q of the points' mirror group (see
    :func:`build_system`): ``_basis`` is Q, ``_blocks`` the block-diagonal
    Q^T M Q, kept with its sparse LU factor, whose L and U are block diagonal
    too.  A k-d tree of the control points serves the evaluation at
    ``grid_points``.  Nothing is written after construction.
    """

    points: np.ndarray  # (n_rbf, 3)
    grid_points: np.ndarray  # (n_grid, 3)
    support_radius: float
    _basis: csc_array = field(repr=False)  # Q, (n_rbf, n_rbf), orthonormal
    _blocks: csc_array = field(repr=False)  # Q^T M Q, (n_rbf, n_rbf)
    _factor: SuperLU = field(repr=False)
    _tree: cKDTree = field(repr=False)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def solve(self, values: np.ndarray) -> np.ndarray:
        """M^-1 values = Q B^-1 Q^T values, with one step of iterative
        refinement on the blocks B."""
        rhs = self._basis.T @ np.asarray(values, dtype=float)
        coeff = self._factor.solve(rhs)
        return self._basis @ (coeff + self._factor.solve(rhs - self._blocks @ coeff))

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


def _reject_duplicates(tree: cKDTree, support_radius: float) -> None:
    """Raise on control points closer than 1e-14 max(R, 1): M would be singular."""
    pairs = sorted(tree.query_pairs(1e-14 * max(support_radius, 1.0)))
    if pairs:
        raise ValueError(
            f"singular RBF system: duplicated control points at index pairs {pairs}"
        )


def _mirror_group(tree: cKDTree) -> np.ndarray:
    """(|G|, n) permutations of the control points by the group G that the
    mid-plane mirrors of their bounding box generate, where a mirror counts
    if it maps the points onto themselves.  Element g applies the mirrors of
    its set bits, so row 0 is the identity."""
    points = tree.data
    low, high = points.min(axis=0), points.max(axis=0)
    tol = 1e-12 * float(np.max(high - low))
    group = [np.arange(tree.n)]
    for axis in range(points.shape[1]):
        image = points.copy()
        image[:, axis] = (low[axis] + high[axis]) - image[:, axis]
        distance, perm = tree.query(image)
        if distance.max() <= tol and np.array_equal(perm[perm], group[0]):
            group += [perm[g] for g in group]
    return np.stack(group)


def _symmetry_basis(group: np.ndarray):
    """The orthonormal basis Q that block-diagonalises a G-invariant matrix.

    One column per character s of G and orbit O whose stabiliser s is
    trivial on: sum_g chi_s(g) e_{g r_O} / sqrt(|G| |Stab O|), with r_O the
    orbit's smallest index.  Returns Q (columns ordered by character, then
    orbit), the column slice of each character, the representatives r_O,
    sqrt(|G| / |Stab O|) per orbit and each column's orbit.
    """
    from scipy.sparse import csc_array
    order, n = group.shape
    reps = np.flatnonzero(group.min(axis=0) == group[0])
    orbit = group[:, reps]  # orbit[g, O] = g r_O
    stab = (orbit == reps).sum(axis=0)
    # chi[g, s] = (-1)^(number of mirrors that g and s share)
    chi = np.array([[(-1.0) ** bin(g & s).count("1") for s in range(order)] for g in range(order)])
    allowed = ~((chi[:, :, None] < 0.0) & (orbit == reps)[:, None, :]).any(axis=0)
    col_char, col_orbit = np.nonzero(allowed)
    # each orbit point once, from the first group element that reaches it
    first = np.array([(orbit[:g] != orbit[g]).all(axis=0) for g in range(order)])[:, col_orbit]
    values = chi[:, col_char] * np.sqrt(stab[col_orbit] / order)
    cols = np.broadcast_to(np.arange(n), first.shape)
    basis = csc_array(
        (values[first], (orbit[:, col_orbit][first], cols[first])), shape=(n, n)
    )
    bounds = np.searchsorted(col_char, np.arange(order + 1)).tolist()
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    return basis, slices, reps, np.sqrt(order / stab), col_orbit


def build_system(
    rbf_points: np.ndarray, grid_points: np.ndarray, support_radius: float
) -> RbfSystem:
    """Assemble and factorise the interpolation system by mirror symmetry.

    The kernel is radial, so M commutes with every mirror that maps the
    control points onto themselves, and in the basis Q of that mirror group
    it splits into one block per character (eight for a box's boundary, one
    for points with no mirror symmetry).  Block s's entry (O, O') is
    sqrt(|G| / |Stab O|) (M[r_O, :] Q)[:, (s, O')]: only the Gram rows of the
    orbit representatives are formed, and no full Gram matrix.  The blocks
    are symmetric positive definite up to rounding, and SuperLU factors
    their block-diagonal matrix B with diagonal pivots after a minimum-degree
    ordering of B + B^T, which keeps every block's elimination inside it.

    Raises
    ------
    ValueError
        If the blocks cannot be factorised; duplicated control points are
        reported with their indices.
    """
    from scipy.sparse import block_diag, csr_array
    from scipy.sparse.linalg import splu
    from scipy.spatial import cKDTree
    rbf_points = np.atleast_2d(np.asarray(rbf_points, dtype=float))
    grid_points = np.atleast_2d(np.asarray(grid_points, dtype=float))
    tree = cKDTree(rbf_points)
    _reject_duplicates(tree, support_radius)
    basis, slices, reps, scale, col_orbit = _symmetry_basis(_mirror_group(tree))
    near = cKDTree(rbf_points[reps]).sparse_distance_matrix(
        tree, support_radius, output_type="ndarray"
    )
    rep_rows = csr_array(
        (wendland_c0(near["v"], support_radius) * scale[near["i"]], (near["i"], near["j"])),
        shape=(len(reps), tree.n),
    )
    blocks = block_diag(
        [rep_rows[col_orbit[cols]] @ basis[:, cols] for cols in slices], format="csc"
    )
    try:
        factor = splu(
            blocks, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise ValueError("singular RBF system") from err
    return RbfSystem(
        rbf_points, grid_points, float(support_radius), basis, blocks, factor, tree
    )


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
