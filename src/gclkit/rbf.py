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
formed, no full Gram matrix.  The blocks are held dense, side by side and
padded with the identity to the largest one's size, and one blocked
square-root-free Cholesky factor L D L^T takes them all at once
(:func:`_factor`).  The README's measurements section times build + solve
against one factor of the full Gram matrix (``rbf_solve`` in
``tests/oracles.py``).

The grid is evaluated by the same symmetry: the value at g x is
sum_p phi(|x - p|) c[g p], so only the grid's orbit representatives, its
points on the low side of every mirror, form near pairs.  ``build_system``
folds every other grid point onto the low side and finds the representative
it lands on, then forms all the representatives' pairs against the control
points with one search and weighs them, and holds the weights as
(representative, control point, weight) triplets;
``interpolate`` writes all |G| images of every representative with one
segment sum of those triplets per image and column.  A grid that the whole
group does not map onto itself is evaluated point by point, under the
identity alone.  The README's measurements section counts the near pairs and
times them against every grid point's own pairs (``rbf_interpolate`` in
``tests/oracles.py``).

Every near pair, those of the Gram rows and of the grid's representatives
and the matches of the mirror images, the folds and the duplicate check,
comes from one search (:func:`_near_pairs`): points sorted into bins by
numpy, no k-d tree.  The module needs numpy alone.

A build has two halves that share only the control points and their mirror
group: the Gram half (basis, blocks, factor) and the grid half
(:func:`_grid_weights`: orbits, pairs, weights).  ``build_system`` submits
the grid half as one task to an executor and runs the Gram half on the
calling thread; :data:`INLINE`, the default, runs the task as it is
submitted.  Each half computes the same values on any thread, so the system
does not depend on where they ran, and the first error is the grid half's
either way.  A radius far past the points' extent makes every Gram entry
nearly 1, and a build refuses one that costs the spread half its digits.

Every product and sum over the blocks, the basis and the weights is an
``np.einsum`` without ``optimize``, a gather, an ``np.bincount`` or an
``np.add.reduceat``, never BLAS or LAPACK, so the result has the same bytes
whatever their thread count.  No full Gram matrix and no (n_grid, n_rbf)
matrix is built.  A system is transient (see ``motion.case_fields``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import Executor
__all__ = ["wendland_c0", "RbfSystem", "build_system", "interpolate"]

# The largest miss at the control points of control values of unit size
# that a build accepts, half a double's digits: a spread that misses them by
# more no longer moves the boundary as its case prescribes.
MAX_CONTROL_MISS = 1e-8
# Candidate pairs whose distances :func:`_near_pairs` forms together, whole
# queries at a time: each temporary is about half a megabyte.
_CANDIDATES = 1 << 16
# Columns of the Gram blocks that :func:`_factor` factors together, and
# rows that the triangular solves take together.
_PANEL = 48


class _Inline:
    """The executor of one worker: a task runs on the calling thread when submitted."""

    def submit(self, fn, /, *args):
        from concurrent.futures import Future  # no executor machinery until a task
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as err:
            future.set_exception(err)
        return future


INLINE = _Inline()


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
    :func:`build_system`): ``_basis`` is Q as index and scale arrays (see
    :func:`_symmetry_basis`), ``_blocks`` the blocks of Q^T M Q, side by side
    and padded with the identity, and ``_factor`` their factors L D L^T (see
    :func:`_factor`).  Grid point x is g r_k, for the grid's orbit
    representative r_k and the flat index ``_grid_source[x]`` = |G| k + g,
    with the control points' images under g in row g of ``_group``, and
    ``_weights`` holds the triplets (k, p, phi(|r_k - p|)) of every near pair
    of the ``_representatives`` representatives, in (k, p) order: 24 bytes a
    pair, 4.7 MB on 20^3.  Nothing is written after construction.
    """

    _basis: tuple = field(repr=False)  # Q: index and scale, (|G|, blocks, width)
    _blocks: np.ndarray = field(repr=False)  # Q^T M Q, (blocks, width, width)
    _factor: tuple = field(repr=False)  # L, D and inverses: see _factor
    _group: np.ndarray = field(repr=False)  # (|G|, n_rbf): index of g p
    _grid_source: np.ndarray = field(repr=False)  # (n_grid,) |G| k + g
    _representatives: int
    _weights: tuple = field(repr=False)  # (k, p, weight) of each near pair

    @property
    def n_points(self) -> int:
        return self._group.shape[1]

    def solve(self, values: np.ndarray) -> np.ndarray:
        """M^-1 values = Q B^-1 Q^T values, with one step of iterative
        refinement on the blocks B."""
        values = np.asarray(values, dtype=float)
        rhs = _project(self._basis, values.reshape(self.n_points, -1))
        coeff = _solve(self._factor, rhs)
        coeff += _solve(self._factor, rhs - _product(self._blocks, coeff))
        return _expand(self._basis, coeff, self.n_points).reshape(values.shape)


def _project(basis, values: np.ndarray) -> np.ndarray:
    """Q^T values, (blocks, k, width), for values (n, k): each entry sums
    its |G| terms in group order.  The result is C-ordered, so the solves'
    sums run along contiguous rows (a k-major layout made them 7x slower)."""
    index, scale = basis
    return np.einsum("gbc,kgbc->bkc", scale, values.T[:, index], order="C")


def _expand(basis, coeff: np.ndarray, n: int) -> np.ndarray:
    """Q coeff, (n, k), for coeff (blocks, k, width): each point sums its
    terms in (group element, column) order, one ``np.bincount`` per column
    k."""
    index, scale = basis
    return np.stack(
        [np.bincount(index.ravel(), (scale * coeff[:, col]).ravel(), n)
         for col in range(coeff.shape[1])],
        axis=-1,
    )


def _product(blocks: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Each block times its coefficients, (blocks, k, width), without BLAS."""
    return np.einsum("bij,bkj->bki", blocks, coeff, order="C")


def _near_pairs(a: np.ndarray, b: np.ndarray, radius: float):
    """Every pair (i, j) of rows of the (n, 3) arrays ``a`` and ``b`` with
    |a_i - b_j| <= radius, in (i, j) order, and its distance: the squares of
    the differences summed over x, y then z, and their root.

    The points of ``b`` are sorted into the cubic bins of their bounding box,
    of side radius/2 or more, and few enough that a table of every bin's
    first point is no longer than about ``b`` itself.  A bin's key orders it
    by x, then y, then z, so the bins that meet the cube of side 2 radius
    about a query are at most 5 x 5 runs of consecutive keys, each read off
    the table.  Their points are the query's candidates, measured whole
    queries at a time, about ``_CANDIDATES`` at once.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    none = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    if not (len(a) and len(b) and radius >= 0.0):
        return none
    low = np.array([b[:, axis].min() for axis in range(3)])
    span = max(float(b[:, axis].max() - low[axis]) for axis in range(3))
    # past the radius by more than the rounding of a query's cube and bins
    reach = radius * (1.0 + 2.0**-20) + span * 2.0**-40
    side = max(0.5 * reach * (1.0 + 2.0**-20), span / (round(len(b) ** (1 / 3)) + 1))
    if not 0.0 < side <= span:  # one bin holds every point
        side = 2.0 * span or 1.0
    cells = int(span / side) + 2  # bins per axis
    width = int(min(cells, np.ceil(2.0 * reach / side) + 1))  # runs per axis
    binned = np.floor((b - low) / side).astype(np.intp)
    keys = (binned[:, 0] * cells + binned[:, 1]) * cells + binned[:, 2]
    order = np.argsort(keys, kind="stable")  # each bin's points in index order
    bins = np.searchsorted(keys[order], np.arange(cells**3 + 1))  # each bin's first
    bx, by, bz = b[order].T.copy()
    first = np.clip(np.floor((a - low - reach) / side), 0, cells - 1).astype(np.intp)
    last = np.clip(np.floor((a - low + reach) / side), 0, cells - 1).astype(np.intp)
    x, y = first[:, :1] + np.arange(width), first[:, 1:2] + np.arange(width)
    column = (np.minimum(x, cells - 1)[:, :, None] * cells
              + np.minimum(y, cells - 1)[:, None, :]) * cells
    start = bins[column + first[:, 2, None, None]]
    count = bins[column + last[:, 2, None, None] + 1] - start
    count *= (x <= last[:, :1])[:, :, None] & (y <= last[:, 1:2])[:, None, :]
    runs = np.flatnonzero(count)
    if not runs.size:
        return none
    start, count, query = start.ravel()[runs], count.ravel()[runs], runs // width**2
    # whole queries at a time: each cut moves back to its query's first run
    total = np.cumsum(count)
    cuts = np.searchsorted(query, query[np.searchsorted(total, np.arange(
        _CANDIDATES, total[-1], _CANDIDATES))]).tolist()
    found = []
    for lo, hi in zip([0, *cuts], [*cuts, len(runs)]):
        if lo == hi:
            continue
        n, q = count[lo:hi], a[query[lo:hi]]
        ends = np.cumsum(n)
        at = np.repeat(start[lo:hi] - (ends - n), n) + np.arange(ends[-1])
        distance = np.square(np.repeat(q[:, 0], n) - bx[at])
        distance += np.square(np.repeat(q[:, 1], n) - by[at])
        distance += np.square(np.repeat(q[:, 2], n) - bz[at])
        near = np.flatnonzero(np.sqrt(distance, out=distance) <= radius)
        i, j = np.repeat(query[lo:hi], n)[near], order[at[near]]
        # i is sorted already; one sort of the distinct (i, j) keys orders j
        # within each i
        place = np.argsort((i - query[lo]) * len(b) + j)
        found.append((i, j[place], distance[near[place]]))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _matches(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """The index of the point of ``b`` nearest each point of ``a``, of those
    nearer than ``tol`` (the lowest index of equally near ones), or -1."""
    i, j, distance = _near_pairs(a, b, tol)
    within = distance < tol
    i, j, distance = i[within], j[within], distance[within]
    match = np.full(len(a), -1)
    if i.size:
        heads = np.flatnonzero(np.diff(i, prepend=-1))  # each point's first pair
        least = np.repeat(np.minimum.reduceat(distance, heads), np.diff(heads, append=i.size))
        nearest = np.flatnonzero(distance == least)
        nearest = nearest[np.diff(i[nearest], prepend=-1) > 0]
        match[i[nearest]] = j[nearest]
    return match


def _reject_duplicates(points: np.ndarray, tol: float) -> None:
    """Raise on control points within ``tol`` of each other: M would be singular."""
    i, j, _ = _near_pairs(points, points, tol)
    pairs = list(zip(i[i < j].tolist(), j[i < j].tolist()))
    if pairs:
        shown = ", ".join(map(str, pairs[:10])) + (", ..." if len(pairs) > 10 else "")
        raise ValueError(
            f"singular RBF system: duplicated control points at index pairs [{shown}] "
            f"({len(pairs)} in all)"
        )


def _mirror_group(points: np.ndarray):
    """The group G that the mid-plane mirrors of the points' bounding box
    generate, where a mirror counts if it maps the points onto themselves.

    Element g applies the mirror of ``axes[b]``, x_a -> sums[a] - x_a, for
    each set bit b of g.  Returns the (|G|, n) permutations, whose row g
    holds the index of g p at column p (row 0 is the identity), the
    mirrored axes, the sums low + high of the box's sides and the distance
    within which an image matches a point.
    """
    low, high = points.min(axis=0), points.max(axis=0)
    sums, tol = low + high, 1e-12 * float(np.max(high - low))
    n, dims = points.shape
    images = np.repeat(points[None], dims, axis=0)
    for axis in range(dims):
        images[axis, :, axis] = sums[axis] - points[:, axis]
    perms = _matches(images.reshape(-1, dims), points, tol).reshape(dims, n)
    group, axes = [np.arange(n)], []
    for axis, perm in enumerate(perms):
        if perm.min() >= 0 and np.array_equal(perm[perm], group[0]):
            group += [perm[g] for g in group]
            axes.append(axis)
    return np.stack(group), axes, sums, tol


def _symmetry_basis(group: np.ndarray):
    """The orthonormal basis Q that block-diagonalises a G-invariant matrix.

    One column per character s of G and orbit O whose stabiliser s is
    trivial on: sum_g chi_s(g) e_{g r_O} / sqrt(|G| |Stab O|), with r_O the
    orbit's smallest index.  Each character's columns, ordered by orbit, are
    one block, and the blocks are padded to the largest one's width.  Q is
    held as two (|G|, blocks, width) arrays: index[g, b, c] = g r_O and
    scale[g, b, c] = chi_s(g) sqrt(|Stab O| / |G|) where g is the first
    group element to reach that point of the orbit, 0 at a later one and in
    the padding.  Returns Q, each block's character chi_s (|G|, blocks), the
    representatives r_O, sqrt(|G| / |Stab O|) per orbit, and the orbit of
    every point and the first element that reaches it from its
    representative.
    """
    order, n = group.shape
    reps = np.flatnonzero(group.min(axis=0) == group[0])
    orbit = group[:, reps]  # orbit[g, O] = g r_O
    stab = (orbit == reps).sum(axis=0)
    # chi[g, s] = (-1)^(number of mirrors that g and s share)
    chi = np.array([[(-1.0) ** bin(g & s).count("1") for s in range(order)] for g in range(order)])
    allowed = ~((chi[:, :, None] < 0.0) & (orbit == reps)[:, None, :]).any(axis=0)
    col_char, col_orbit = np.nonzero(allowed)
    sizes = np.bincount(col_char, minlength=order)
    used, width = np.flatnonzero(sizes), sizes.max()
    # each column's place: its block's width columns, then its rank in them
    rank = np.arange(len(col_char)) - np.searchsorted(col_char, col_char)
    cols = np.searchsorted(used, col_char) * width + rank
    # each orbit point once, from the first group element that reaches it
    first = np.array([(orbit[:g] != orbit[g]).all(axis=0) for g in range(order)])
    index = np.zeros((order, len(used) * width), dtype=np.intp)
    scale = np.zeros(index.shape)
    index[:, cols] = orbit[:, col_orbit]
    scale[:, cols] = np.where(
        first[:, col_orbit], chi[:, col_char] * np.sqrt(stab[col_orbit] / order), 0.0
    )
    element, orbit_index = np.nonzero(first)
    orbit_of, element_of = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    orbit_of[orbit[element, orbit_index]] = orbit_index
    element_of[orbit[element, orbit_index]] = element
    basis = index.reshape(order, -1, width), scale.reshape(order, -1, width)
    return basis, chi[:, used], reps, np.sqrt(order / stab), orbit_of, element_of


def _grid_orbits(
    grid: np.ndarray, group: np.ndarray, axes: list, sums: np.ndarray, tol: float
):
    """The grid's orbit representatives under the control points' mirror
    group (see :func:`_mirror_group`): the group rows used, the
    representatives' grid indices and each grid point's source |G| k + g,
    where grid point x = g r_k.

    A point on the high side of some mirrors is folded onto the low side by
    them, and one search finds the low-side point it lands on.  If a fold
    lands no nearer than ``tol`` to any low-side point, the grid is not
    symmetric, and every grid point is its own representative under the
    identity.
    """
    high = grid[:, axes] > 0.5 * sums[axes] + tol
    element = high @ (1 << np.arange(len(axes)))
    reps, moved = np.flatnonzero(element == 0), np.flatnonzero(element)
    source = np.empty(len(grid), dtype=int)
    source[reps] = np.arange(len(reps))
    if moved.size:
        image = grid[moved]
        image[:, axes] = np.where(high[moved], sums[axes] - image[:, axes], image[:, axes])
        source[moved] = _matches(image, grid[reps], tol)
        if source[moved].min() < 0:
            return group[:1], np.arange(len(grid)), np.arange(len(grid))
    return group, reps, source * len(group) + element


def _grid_weights(
    grid: np.ndarray, points: np.ndarray, group: np.ndarray, axes: list, sums: np.ndarray,
    tol: float, support_radius: float,
):
    """The grid half of a build: the grid's orbits (:func:`_grid_orbits`)
    and, from one search, every representative's weights against the control
    points.  Returns the group rows used, each grid point's source, the
    number of representatives and the triplets (representative, control
    point, weight) in that order."""
    group, reps, source = _grid_orbits(grid, group, axes, sums, tol)
    # representative i, control point j and w = phi(|r_i - p_j|) for each pair
    # within the support, coincident points (w = 1) included
    i, j, distance = _near_pairs(grid[reps], points, support_radius)
    return group, source, len(reps), (i, j, wendland_c0(distance, support_radius))


def _unit_lower_inverse(lower: np.ndarray) -> np.ndarray:
    """The inverse of each unit lower triangular (m, m) block of ``lower``,
    row by row; only the strict lower triangles are read."""
    inverse = np.zeros_like(lower)
    for r in range(lower.shape[-1]):
        inverse[:, r] = -np.einsum("bk,bkj->bj", lower[:, r, :r], inverse[:, :r])
        inverse[:, r, r] = 1.0
    return inverse


def _factor(blocks: np.ndarray):
    """The square-root-free Cholesky factors L D L^T of every symmetric
    block of ``blocks`` (b, n, n), of which only the lower triangles are
    read: the unit lower triangular L, the pivots D (b, n) and the inverses
    of L's diagonal (``_PANEL``, ``_PANEL``) blocks.  L is the lower
    triangles of a (b, n, n) array whose strict upper triangles are left as
    they fell and never read.

    Blocked and left-looking: each panel of ``_PANEL`` columns takes the
    update from every column left of it as one ``np.einsum``, then forms its
    own columns L D one by one, each updated from the panel's columns before
    it by one more, and is divided by its pivots once.  A block is factored
    only if it is positive definite, all its pivots positive: the Gram
    blocks are, up to rounding.  No BLAS or LAPACK routine runs, so the
    bytes do not depend on their thread count.

    Raises
    ------
    ValueError
        "singular RBF system" if a pivot is not positive: zero, negative or
        NaN.
    """
    lower = np.array(blocks, dtype=float)
    n = lower.shape[-1]
    pivots = np.empty(lower.shape[:2])
    inverses = []
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        lower[:, k0:, k0:k1] -= np.einsum(
            "bik,bjk->bij", lower[:, k0:, :k0], lower[:, k0:k1, :k0] * pivots[:, None, :k0]
        )
        # the panel's pivots so far, read as its columns are formed
        formed = np.diagonal(lower[:, k0:k1, k0:k1], axis1=1, axis2=2)
        with np.errstate(divide="ignore", invalid="ignore"):  # such a pivot raises below
            for j in range(k0 + 1, k1):
                row = lower[:, j, k0:j] / formed[:, :j - k0]  # row j of L
                lower[:, j:, j] -= np.einsum("bik,bk->bi", lower[:, j:, k0:j], row)
            pivots[:, k0:k1] = formed
            if not (pivots[:, k0:k1] > 0.0).all():
                raise ValueError("singular RBF system")
        lower[:, k0:, k0:k1] /= pivots[:, None, k0:k1]
        inverses.append(_unit_lower_inverse(lower[:, k0:k1, k0:k1]))
    return lower, pivots, inverses


def _solve(factor, rhs: np.ndarray) -> np.ndarray:
    """blocks^-1 rhs for rhs (b, k, n), from the factors that :func:`_factor`
    returns: L y = rhs, D z = y, then L^T x = z, ``_PANEL`` rows at a time,
    each one ``np.einsum`` for the rows solved before and one product with
    its diagonal block's inverse."""
    lower, pivots, inverses = factor
    bounds = [
        (k0, k0 + inverse.shape[-1])
        for k0, inverse in zip(range(0, lower.shape[-1], _PANEL), inverses)
    ]
    y = np.empty_like(rhs)
    for (k0, k1), inverse in zip(bounds, inverses):
        rest = rhs[..., k0:k1] - np.einsum("bik,bck->bci", lower[:, k0:k1, :k0], y[..., :k0])
        y[..., k0:k1] = np.einsum("bij,bcj->bci", inverse, rest)
    y /= pivots[:, None, :]
    x = np.empty_like(rhs)
    for (k0, k1), inverse in reversed(list(zip(bounds, inverses))):
        rest = y[..., k0:k1] - np.einsum("bki,bck->bci", lower[:, k1:, k0:k1], x[..., k1:])
        x[..., k0:k1] = np.einsum("bji,bcj->bci", inverse, rest)
    return x


def _gram_blocks(points: np.ndarray, group: np.ndarray, support_radius: float):
    """The Gram half of a build: Q, the blocks of Q^T M Q and their factor.

    Block s's entry (O, O') is sqrt(|Stab O'| / |Stab O|) times the sum of
    chi_s(g) M[r_O, g r_O'] over the first elements g to reach each point of
    O'.  Each near pair (r_O, g r_O') sets its term in ``orbits`` (|G|,
    orbits, orbits), one ``np.einsum`` sums those by every block's
    character, and each block gathers its orbits' rows and columns from the
    sums.  The padding is the identity.  A factor that meets a pivot that
    is not positive at a radius past the diagonal of the points' bounding
    box misses the control values by inf, and the radius is refused."""
    basis, characters, reps, row_scale, orbit_of, element_of = _symmetry_basis(group)
    i, j, distance = _near_pairs(points[reps], points, support_radius)
    orbits = np.zeros((len(group), len(reps), len(reps)))
    orbits[element_of[j], i, orbit_of[j]] = (
        wendland_c0(distance, support_radius) * row_scale[i] / row_scale[orbit_of[j]]
    )
    sums = np.einsum("gs,gab->sab", characters, orbits)
    del orbits
    index, scale = basis
    real = scale[0] != 0.0  # (blocks, width): False in the padding
    at = orbit_of[index[0]]  # each column's orbit
    blocks = sums[np.arange(len(at))[:, None, None], at[:, :, None], at[:, None, :]]
    blocks *= real[:, :, None] & real[:, None, :]
    diagonal = np.arange(at.shape[1])
    blocks[:, diagonal, diagonal] += ~real
    try:
        return basis, blocks, _factor(blocks)
    except ValueError as err:
        # past the points' extent every entry is positive and, far past it,
        # nearly 1: a pivot that is not positive there is the radius's, and
        # the system misses any control values
        if support_radius > np.sqrt(np.sum(np.square(np.ptp(points, axis=0)))):
            raise _too_large(support_radius, np.inf) from err
        raise


def _too_large(support_radius: float, miss: float) -> ValueError:
    return ValueError(
        f"support radius {support_radius:g} is too large: the RBF system misses "
        f"control values of unit size by {miss:.1e}, more than {MAX_CONTROL_MISS:g}"
    )


def build_system(
    rbf_points: np.ndarray,
    grid_points: np.ndarray,
    support_radius: float,
    pool: Executor = INLINE,
) -> RbfSystem:
    """Assemble and factorise the interpolation system by mirror symmetry.

    The kernel is radial, so M commutes with every mirror that maps the
    control points onto themselves, and in the basis Q of that mirror group
    it splits into one block per character (eight for a box's boundary, one
    for points with no mirror symmetry).  Block s's entry (O, O') is
    sqrt(|G| / |Stab O|) (M[r_O, :] Q)[:, (s, O')]: only the Gram rows of the
    orbit representatives are formed, and no full Gram matrix.  The blocks
    are symmetric positive definite up to rounding; they are held dense,
    padded with the identity to one width, and factored together as
    L D L^T, blocked and without BLAS (:func:`_factor`).  The grid's orbit
    representatives under the same group, and their near pairs' weights,
    are the grid half (:func:`_grid_weights`): one task on ``pool`` while
    this thread factors the blocks.

    Raises
    ------
    ValueError
        If a block's factor meets a pivot that is not positive; if the system,
        solved and multiplied back (one product of the held blocks), misses
        control values of unit size by more than ``MAX_CONTROL_MISS``, or
        meets such a pivot at a radius past the diagonal of the points'
        bounding box, naming the support radius; or if control points
        lie within 1e-12 of their extent of each other, naming them.  If both
        halves fail, the grid half's error is raised, as on one thread.
    """
    rbf_points = np.atleast_2d(np.asarray(rbf_points, dtype=float))
    grid_points = np.atleast_2d(np.asarray(grid_points, dtype=float))
    group, axes, sums, tol = _mirror_group(rbf_points)
    _reject_duplicates(rbf_points, tol)
    task = pool.submit(
        _grid_weights, grid_points, rbf_points, group, axes, sums, tol, support_radius
    )
    try:
        basis, blocks, factor = _gram_blocks(rbf_points, group, support_radius)
    finally:
        grid = task.result()  # its error comes first, as on one thread
    system = RbfSystem(basis, blocks, factor, *grid)
    probe = np.cos(np.arange(len(rbf_points)))[:, None]  # control values of unit size
    back = _expand(basis, _product(blocks, _project(basis, system.solve(probe))), len(probe))
    miss = np.abs(back - probe).max()
    if not miss <= MAX_CONTROL_MISS:
        raise _too_large(support_radius, miss)
    return system


def interpolate(system: RbfSystem, values: np.ndarray) -> np.ndarray:
    """Interpolate control-point values to all grid points.

    ``values`` has shape (n_rbf,) or (n_rbf, k); columns are treated
    independently (e.g. one column per Cartesian direction).  The kernel is
    radial, so the value at g r is sum_p phi(|r - p|) c[g p]: for every group
    element g and column, one ``np.add.reduceat`` over the held triplets
    (formed by :func:`build_system`), weighted by the coefficients permuted
    by g, gives the images g r of all representatives r at once.  Each image
    sums its pairs in control-point order, and no (pairs, columns) array is
    formed.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != system.n_points:
        raise ValueError(
            f"expected {system.n_points} control values, got {values.shape[0]}"
        )
    coeff = system.solve(values).reshape(system.n_points, -1)
    # permuted[g, col, p] = c[g p, col]
    permuted = coeff.T[:, system._group].transpose(1, 0, 2).reshape(-1, system.n_points)
    i, j, weight = system._weights
    heads = np.flatnonzero(np.diff(i, prepend=-1))  # each representative's first pair
    images = np.zeros((system._representatives, len(permuted)))
    for col, column in enumerate(permuted):
        images[i[heads], col] = np.add.reduceat(weight * column[j], heads)
    out = images.reshape(-1, coeff.shape[1])[system._grid_source]
    return out.reshape((len(out),) + values.shape[1:])
