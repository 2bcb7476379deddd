"""Structured hexahedral box meshes and trilinear-mapping cell geometry.

Every cell is described by eight corner positions following a fixed
numbering: corners 1-2-3-4 run counterclockwise around the bottom of the
reference cube (zeta = 0) and corners 5-6-7-8 sit directly above them
(zeta = 1).  All closed-form geometry in this package (volumes, face area
vectors, face flux integrals) is written against that numbering, so it is
centralised here.

Each face of the mesh is stored once, as an interface whose loop is
oriented +axis along the grid axis it is normal to
(:meth:`HexMesh.axis_interfaces`), so a cell adds its +axis faces and
subtracts its -axis faces (:meth:`HexMesh.sum_over_faces`).

The closed-form kernels are written out component by component over corner
planes, a (k, 3, ...) layout in which ``r[j][c]`` is component c of corner j
over any number of elements and instants.  :meth:`HexMesh.blockwise` slices
vertex fields into that layout directly: on the structured grid every corner
of a cell or interface is a fixed flat offset from the element's grid point,
so for a block of consecutive elements each corner is one slice of a field's
component planes (3, n_instants, n_vertices), and each corner component is
one (n_instants, block) view, with no gather.  The public functions take
component-last (..., k, 3) arrays and pass the kernel strided views of them
(:func:`corner_planes`).  Each formula therefore has one implementation, with
no ``np.cross``, ``einsum`` or per-face fancy-index copy.

Case 5 at N = 20 on 10^3 (42 position instants), BLAS on 1 thread, best of
5, the range of three runs on a 2-core host, against the gather of every
block's element corners that the slices replaced (``gathered_blockwise`` in
``tests/oracles.py``):

=============  =============  =============
kernel         gathered       sliced
=============  =============  =============
LVI            13.8-16.1 ms   9.7-11.1 ms
TRI-MAP        15.1-20.7 ms   12.0-15.6 ms
cell volumes   4.1-4.7 ms     3.4-3.9 ms
=============  =============  =============

From the repository root, with the statement ``"gcl.trimap_field(m, t)"``
for TRI-MAP, and without the set-up's last statement,
``HexMesh.blockwise = gathered_blockwise``, for the sliced column::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:tests python -m timeit -r 5 -s "from gclkit import gcl, motion; from gclkit.hexmesh import HexMesh, build_box_mesh; from oracles import gathered_blockwise; m = build_box_mesh(10, 10, 10, 3.2, 2.8, 2.4); t = motion.sample_motion(m, motion.MotionCase.for_case('case5'), 20); HexMesh.blockwise = gathered_blockwise" "gcl.lvi_increments(m, t)"

The kernels give bitwise the values of the same formulas written
component-last with ``np.cross`` and ``einsum``, which
``tests/test_blocks.py`` keeps as the reference.  That pins the summation
order: three-term dot products are summed ``(x x + z z) + y y``, the order
numpy's ``einsum`` uses for a contiguous 3-long contraction on x86-64
(``(x + y) + z`` is not bitwise equal), and sums over faces or corners run
left to right from +0 like ``add.reduce``.

The cell volume (three triple products of edge and diagonal vectors; Davies
& Salmond 1985, Grandy 1997) and the face flux in :mod:`gclkit.gcl` are
built from corner differences, so their rounding scales with an element's
size, not with its distance from the origin.  ``tests/oracles.py`` keeps the
absolute-position forms they replaced (six face terms, six cross products).
A motion's cell volumes are computed once, as it is sampled
(:attr:`gclkit.motion.MotionTrajectory.volumes`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "REF_CORNERS",
    "FACE_LOOPS",
    "FACE_FAMILY",
    "BLOCK_ELEMENT_INSTANTS",
    "HexMesh",
    "corner_planes",
    "build_box_mesh",
    "hex_volume",
    "quad_area_vectors",
    "face_area_vectors",
    "detect_degenerate",
]

# Reference-cube corner coordinates (xi, eta, zeta) in corner-number order.
REF_CORNERS = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 1.0],
        [0.0, 1.0, 1.0],
    ]
)

# The six cell faces as ordered corner loops (0-based).  Each loop is oriented
# so its right-hand normal points out of the cell.
FACE_LOOPS = np.array(
    [
        [3, 2, 1, 0],  # bottom  (-z)
        [4, 5, 6, 7],  # top     (+z)
        [2, 3, 7, 6],  # north   (+y)
        [0, 1, 5, 4],  # south   (-y)
        [3, 0, 4, 7],  # west    (-x)
        [1, 2, 6, 5],  # east    (+x)
    ]
)

# Face slots grouped by the Cartesian axis of their reference normal, as
# (low, high): the slot facing -axis, then the one facing +axis.
FACE_FAMILY = {"x": (4, 5), "y": (3, 2), "z": (0, 1)}
# face slot -> (axis of its reference normal, whether it faces +axis)
_SLOT_FACES = {
    slot: (axis, high) for axis, pair in FACE_FAMILY.items() for high, slot in enumerate(pair)
}
# Corner offsets (i, j, k), in grid steps from the element's grid point, of
# the cells and of each axis's interfaces.  An interface's loop is a cell's
# +axis face loop counted from the interface's own grid point, one step
# further along the axis than the cell's corner 0.
_CORNER_STEPS = {"cells": REF_CORNERS.astype(int)} | {
    axis: REF_CORNERS[FACE_LOOPS[high]].astype(int) - np.eye(3, dtype=int)["xyz".index(axis)]
    for axis, (_, high) in FACE_FAMILY.items()
}

# Anchor-instants per block of :meth:`HexMesh.blockwise`: the kernels'
# temporaries stay cache-sized, so a thread's working set does not grow with
# the mesh or the number of instants.
BLOCK_ELEMENT_INSTANTS = 8192

# Per corner and reference axis (xi, eta, zeta), the low and high corner of
# the cell edge through it: the trilinear map's derivative along that axis,
# at that corner, is the edge vector x[high] - x[low].
_EDGE_LOW = np.array(
    [[0, 0, 0], [0, 1, 1], [3, 1, 2], [3, 0, 3], [4, 4, 0], [4, 5, 1], [7, 5, 2], [7, 4, 3]]
)
_EDGE_HIGH = np.array(
    [[1, 3, 4], [1, 2, 5], [2, 2, 6], [2, 3, 7], [5, 7, 4], [5, 6, 5], [6, 6, 6], [6, 7, 7]]
)
# the twelve cell edges (low, high); each serves the two corners it joins
_EDGES = sorted(set(zip(_EDGE_LOW.ravel().tolist(), _EDGE_HIGH.ravel().tolist())))


def corner_planes(array: np.ndarray) -> np.ndarray:
    """Corner-major component planes of an (..., k, 3) array, a (k, 3, ...) view.

    ``planes[j]`` is corner j as three component planes (3, ...), the layout
    every closed-form kernel below reads.
    """
    return np.moveaxis(np.asarray(array, dtype=float), (-2, -1), (0, 1))


def _dot(a, b):
    """a . b in numpy einsum's order for a contiguous 3-long contraction."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _cross(a, b):
    """a x b component by component, as ``np.cross`` forms it."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _sum(terms):
    """t0 + t1 + ... in the order and zero sign of numpy's ``add.reduce``.

    The reduction starts from +0, so its result is never -0; the trailing
    ``+ 0.0`` maps the -0 a plain chain gives when every term is -0 to +0.
    """
    total = terms[0] + terms[1]
    for term in terms[2:]:
        total = total + term
    return total + 0.0


def _hex_edges(r):
    """The edge and diagonal vectors a..f of corners r[0..7] that :func:`_hex_volume` takes."""
    return r[6] - r[3], r[2] - r[0], r[5] - r[0], r[6] - r[4], r[7] - r[0], r[6] - r[1]


def _hex_volume(r):
    """Closed-form volume of hexahedra with corners r[0..7] (0-based), each (3, ...)."""
    a, b, c, d, e, f = _hex_edges(r)
    terms = [_dot(f + e, _cross(a, b)), _dot(e, _cross(a + c, d)), _dot(f, _cross(c, d + b))]
    return _sum(terms) / 12.0


def _corner_jacobians(r):
    """The eight corner Jacobian determinants of corners r[0..7], each (3, ...)."""
    edges = {edge: r[edge[1]] - r[edge[0]] for edge in _EDGES}
    jacobians = []
    for lows, highs in zip(_EDGE_LOW.tolist(), _EDGE_HIGH.tolist()):
        a, b, c = (edges[edge] for edge in zip(lows, highs))
        jacobians.append(
            a[0] * (b[1] * c[2] - b[2] * c[1])
            + a[1] * (b[2] * c[0] - b[0] * c[2])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
    return jacobians


def _quad_area(q):
    """Area vector components of bilinear quads with corners q[0..3]."""
    return tuple(0.5 * s for s in _cross(q[2] - q[0], q[3] - q[1]))


def hex_volume(corners: np.ndarray) -> np.ndarray:
    """Signed volume of hexahedra from their eight corner positions.

    Parameters
    ----------
    corners : ndarray, shape (..., 8, 3)
        Corner positions in the canonical numbering.

    Returns
    -------
    ndarray, shape (...)
        The exact integral of the trilinear-mapping Jacobian determinant, in
        closed form from edge and diagonal vectors, so its rounding scales
        with the cell's size, not its distance from the origin.
        Negative values signal an inverted cell; degenerate (zero-thickness)
        hexahedra return 0.
    """
    return _hex_volume(corner_planes(corners))


def quad_area_vectors(quads: np.ndarray) -> np.ndarray:
    """Area vectors of bilinear quads (..., 4, 3) along their loops' normals.

    Each vector is the exact surface integral of the unit normal, which for
    a bilinear quad is half the cross product of its diagonals.
    """
    return np.stack(_quad_area(corner_planes(quads)), axis=-1)


def face_area_vectors(corners: np.ndarray) -> np.ndarray:
    """Outward area vectors of the six bilinear faces of each cell.

    The six vectors of a closed cell sum to zero.
    """
    return quad_area_vectors(np.asarray(corners, dtype=float)[..., FACE_LOOPS, :])


def _inverted_corner(r) -> np.ndarray:
    return ~(functools.reduce(np.minimum, _corner_jacobians(r)) > 0.0)


def detect_degenerate(
    mesh: HexMesh, positions: np.ndarray, volumes: np.ndarray | None = None
) -> np.ndarray:
    """Indices of cells whose volume or smallest corner Jacobian is NaN or nonpositive.

    Only cells are gated.  The per-step sweep hexahedra of AEVI are not: their
    volumes are signed increments, and a negative sweep is a face moving
    against its normal, not an inverted cell.

    Parameters
    ----------
    mesh : HexMesh
        The mesh whose cells are checked.
    positions : ndarray, shape (..., n_vertices, 3)
        Deformed vertex positions at one instant, or at a stack of instants.
    volumes : ndarray, shape (n_cells, n_instants), optional
        The cell volumes at those instants, as
        :attr:`gclkit.motion.MotionTrajectory.volumes` holds them (n_cells,
        one column per flattened leading index), so a caller that has them
        pays only the corner-Jacobian pass.  Computed here when not given.

    Returns
    -------
    ndarray of int
        Sorted flat indices of offending cells into the leading
        (..., n_cells) shape: the cell ids for one instant, and
        ``n * n_cells + cell`` for instant n of a stack.  Empty when every
        configuration is admissible.
    """
    positions = np.asarray(positions, dtype=float)
    stack = positions.reshape((-1,) + positions.shape[-2:])
    if volumes is None:
        volumes = mesh.blockwise(_hex_volume, "cells", stack)
    inverted = mesh.blockwise(_inverted_corner, "cells", stack, dtype=bool)
    bad = ~(np.reshape(volumes, inverted.shape) > 0.0) | inverted
    return np.flatnonzero(bad.T)


@dataclass(frozen=True)
class HexMesh:
    """Uniform structured hexahedral mesh of a box [0,Lx]x[0,Ly]x[0,Lz].

    Vertices are ordered x-fastest; cell ``(ci, cj, ck)`` has id
    ``ci + nx*(cj + ny*ck)`` and lists its eight vertices in the canonical
    corner numbering.
    """

    nx: int
    ny: int
    nz: int
    lx: float
    ly: float
    lz: float
    vertices: np.ndarray = field(repr=False)  # (n_vertices, 3)
    cell_vertex_ids: np.ndarray = field(repr=False)  # (n_cells, 8)
    # Each face appears once as an interface, numbered as in axis_interfaces
    # and stored as a loop whose normal points +axis; the cell below it on
    # the axis sees it as is, the cell above it reversed (sum_over_faces).
    interface_vertex_ids: np.ndarray = field(repr=False)  # (n_interfaces, 4)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cell_vertex_ids.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        return np.array([self.lx, self.ly, self.lz])

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    def cell_corners(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Corner positions of all cells, shape (..., n_cells, 8, 3).

        ``positions`` defaults to the undeformed vertices; any array of shape
        (..., n_vertices, 3) (e.g. one entry per time instance) is accepted.
        """
        if positions is None:
            positions = self.vertices
        return np.asarray(positions)[..., self.cell_vertex_ids, :]

    def blockwise(self, kernel, kind, *fields, out=None, dtype=float):
        """Evaluate a per-element geometry kernel over blocks of elements.

        ``kind`` is "cells" or "interfaces", the elements of
        ``cell_vertex_ids`` or ``interface_vertex_ids``.  Each field is a
        vertex array (n_instants, n_vertices, 3) such as positions or
        velocities, read without a copy as its component planes
        (3, n_instants, n_vertices); :func:`gclkit.motion.sample_motion`
        stores a trajectory's that way.  Corner m of each element of a family
        (the cells, or one axis's interfaces) is vertex p + o_m, with p the
        element's grid point (its anchor), so for a block of consecutive
        anchors s..e ``kernel`` receives each field as k corner views
        ``planes[:, :, o_m + s : o_m + e]`` (3, n_instants, block).  It
        returns (n_out, block); the anchors at the ends of grid rows and
        planes, which are no elements, are dropped, and the rest written to
        their elements' rows of ``out`` (n_elements, n_out), by default an
        instant-major array with n_out = n_instants.  A block holds about
        ``BLOCK_ELEMENT_INSTANTS`` anchor-instants; an elementwise kernel
        gives bitwise the values of one call over all elements.
        """
        planes = [np.moveaxis(np.asarray(f, dtype=float), -1, 0) for f in fields]
        n_instants = planes[0].shape[1]
        families = _element_families(self.counts, kind)
        if out is None:
            out = np.empty((n_instants, families[-1][0].stop), dtype=dtype).T
        step = max(1, BLOCK_ELEMENT_INSTANTS // n_instants)
        for rows, offsets, anchors in families:
            row = rows.start
            for start in range(0, len(anchors), step):
                stop = min(start + step, len(anchors))
                corners = [[p[:, :, o + start : o + stop] for o in offsets] for p in planes]
                values = kernel(*corners).T[anchors[start:stop]]
                out[row : row + len(values)] = values
                row += len(values)
        return out

    def sum_over_faces(self, values: np.ndarray) -> np.ndarray:
        """Per-cell sums of per-interface values (n_interfaces, ...), (n_cells, ...).

        Each cell adds its six face slots to +0 in slot order 0..5, as
        ``add.reduce`` does: a +axis slot adds its interface's value, a -axis
        slot subtracts it.  This is the only place face values meet cell
        slots.  The slots are read straight from each axis's interface grid
        (:meth:`axis_interfaces`): a cell layer's -axis faces are the
        interface layer of the same index, its +axis faces the next one.
        """
        values = np.asarray(values)
        tail = values.shape[1:]
        total = np.zeros(self.counts[::-1] + tail, dtype=np.result_type(values, 1.0))
        for slot in range(6):
            axis, high = _SLOT_FACES[slot]
            block, shape = self.axis_interfaces(axis)
            grid = values[block].reshape(shape + tail)
            layers = (slice(None),) * "zyx".index(axis) + (slice(1, None) if high else slice(-1),)
            (np.add if high else np.subtract)(total, grid[layers], out=total)
        return total.reshape((self.n_cells,) + tail)

    def axis_interfaces(self, axis: str) -> tuple[slice, tuple[int, int, int]]:
        """The block of interfaces normal to ``axis`` and the shape of its grid.

        Interfaces are numbered axis by axis, x, y, then z, each block in the
        C order of its grid: (nz, ny, nx+1) for "x", (nz, ny+1, nx) for "y",
        (nz+1, ny, nx) for "z".  Layer l of the grid lies at l spacings along
        the axis, and every interface is stored oriented +axis, so
        ``values[block].reshape(shape)`` reads one value per interface.
        """
        return _interface_blocks(self.counts)[axis]

    def boundary_vertex_mask(self) -> np.ndarray:
        """Boolean mask of vertices lying on the box surface."""
        v = self.vertices
        eps = 1e-12 * max(self.lx, self.ly, self.lz)
        on = np.zeros(self.n_vertices, dtype=bool)
        for axis, length in enumerate((self.lx, self.ly, self.lz)):
            on |= np.abs(v[:, axis]) <= eps
            on |= np.abs(v[:, axis] - length) <= eps
        return on

    def boundary_vertex_ids(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_vertex_mask())

    def interior_vertex_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.boundary_vertex_mask())


def build_box_mesh(
    nx: int, ny: int, nz: int, lx: float, ly: float, lz: float
) -> HexMesh:
    """Build the uniform Cartesian box mesh.

    Raises
    ------
    ValueError
        If any cell count is < 1 or any edge length is <= 0.
    """
    counts = (nx, ny, nz)
    lengths = (lx, ly, lz)
    if any(int(n) != n or n < 1 for n in counts):
        raise ValueError(f"cell counts must be positive integers, got {counts}")
    if any(not (length > 0.0) for length in lengths):
        raise ValueError(f"edge lengths must be positive, got {lengths}")
    nx, ny, nz = counts = int(nx), int(ny), int(nz)

    gz, gy, gx = np.meshgrid(
        np.linspace(0.0, lz, nz + 1),
        np.linspace(0.0, ly, ny + 1),
        np.linspace(0.0, lx, nx + 1),
        indexing="ij",
    )
    # vertex id = i + (nx+1)*(j + (ny+1)*k)  -> x-fastest flattening
    vertices = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=-1)
    return HexMesh(
        nx, ny, nz, float(lx), float(ly), float(lz), vertices,
        _element_vertex_ids(counts, "cells"),
        interface_vertex_ids=_element_vertex_ids(counts, "interfaces"),
    )


@functools.lru_cache(maxsize=8)
def _element_families(counts, kind: str):
    """The element families of ``kind`` ("cells" or "interfaces") on the
    vertex grid of ``counts``.

    Per family (the cells, or the x, y and z interfaces in turn), its rows
    among the elements of ``kind``, the flat vertex offsets o_m of its k
    corners and its anchor mask.  An element's anchor is the flat id p of
    its grid point, and its corner m is vertex p + o_m.  The mask runs over
    the anchors from 0 to the family's last and marks the family's grid
    points, in the C order of its grid; the corners of an unmarked anchor,
    at the end of a grid row or plane, are still vertices.
    """
    nx, ny, nz = counts
    strides = np.array([1, nx + 1, (nx + 1) * (ny + 1)])
    cells = {"cells": (slice(0, nx * ny * nz), (nz, ny, nx))}
    families = {"cells": cells, "interfaces": _interface_blocks(counts)}[kind]
    result = []
    for name, (rows, (sz, sy, sx)) in families.items():
        grid = np.zeros((nz + 1, ny + 1, nx + 1), dtype=bool)
        grid[:sz, :sy, :sx] = True
        anchors = grid.ravel()[: np.flatnonzero(grid)[-1] + 1]
        anchors.flags.writeable = False
        result.append((rows, tuple((_CORNER_STEPS[name] @ strides).tolist()), anchors))
    return tuple(result)


def _element_vertex_ids(counts, kind: str) -> np.ndarray:
    """Vertex ids (n_elements, k) of the elements of ``kind``, in row order."""
    return np.concatenate(
        [np.flatnonzero(anchors)[:, None] + offsets
         for _, offsets, anchors in _element_families(counts, kind)]
    )


def _interface_blocks(counts) -> dict[str, tuple[slice, tuple[int, int, int]]]:
    """Per axis, its interface block and the (z, y, x) shape of the axis's grid."""
    blocks, start = {}, 0
    for axis in "xyz":
        shape = list(counts[::-1])
        shape["zyx".index(axis)] += 1
        stop = start + int(np.prod(shape))
        blocks[axis] = slice(start, stop), tuple(shape)
        start = stop
    return blocks
