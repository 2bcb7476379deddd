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
one (n_instants, block) view, with no gather.  A block holds
``BLOCK_ELEMENT_INSTANTS`` anchor-instants on a pool thread and a quarter of
that on the main thread.  A caller holding
component-last (..., k, 3) arrays passes the kernels strided views of them
(:func:`corner_planes`).  Each formula therefore has one implementation, with
no ``np.cross``, ``einsum`` or per-face fancy-index copy.

The README's measurements section times the slices against the gather of
every block's element corners that they replaced (``gathered_blockwise`` in
``tests/oracles.py``).

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
import math
import threading
import types
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "REF_CORNERS",
    "FACE_LOOPS",
    "FACE_FAMILY",
    "BLOCK_ELEMENT_INSTANTS",
    "HexMesh",
    "corner_planes",
    "checked_box",
    "build_box_mesh",
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

# Anchor-instants per block of :meth:`HexMesh.blockwise` on a pool thread:
# the kernels' temporaries stay cache-sized, so a thread's working set does
# not grow with the mesh or the number of instants, and each numpy call lasts
# long enough that workers do not hand the interpreter lock back and forth.
# The main thread, which runs a one-worker sweep alone, takes a quarter of
# it: glibc then keeps its temporaries on the heap instead of returning them
# and faulting them in again every block (README, "Block size").
BLOCK_ELEMENT_INSTANTS = 16384


def _edge_ends(end: float) -> np.ndarray:
    """Per corner and reference axis, the corner with that coordinate set to ``end``, (8, 3)."""
    moved = np.where(np.eye(3, dtype=bool), end, REF_CORNERS[:, None])  # (corner, axis, 3)
    return (moved[:, :, None] == REF_CORNERS).all(axis=-1).argmax(axis=-1)


# Per corner and reference axis (xi, eta, zeta), the low and high corner of
# the cell edge through it: the trilinear map's derivative along that axis,
# at that corner, is the edge vector x[high] - x[low].
_EDGE_LOW, _EDGE_HIGH = _edge_ends(0.0), _edge_ends(1.0)
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


def _inverted_corner(r) -> np.ndarray:
    """Whether the smallest corner Jacobian of corners r[0..7] is nonpositive or NaN."""
    return ~(functools.reduce(np.minimum, _corner_jacobians(r)) > 0.0)


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
    def n_cells(self) -> int:
        return self.cell_vertex_ids.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        return np.array([self.lx, self.ly, self.lz])

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    def blockwise(self, kernel, kind, *fields, out=None):
        """Evaluate a per-element geometry kernel over blocks of elements.

        ``kind`` is "cells" or "interfaces", the elements of
        ``cell_vertex_ids`` or ``interface_vertex_ids``.  Each field is a
        vertex array (n_instants, n_vertices, 3) such as positions or
        velocities, read without a copy as its component planes
        (3, n_instants, n_vertices), as :func:`gclkit.motion.evaluate_motion`
        forms a trajectory's instants and the LVI/AEVI increments their copy
        closed at t = T.  Corner m of each element of a family
        (the cells, or one axis's interfaces) is vertex p + o_m, with p the
        element's grid point (its anchor), so for a block of consecutive
        anchors s..e ``kernel`` receives each field as k corner views
        ``planes[:, :, o_m + s : o_m + e]`` (3, n_instants, block).  It
        returns (n_out, block); the anchors at the ends of grid rows and
        planes, which are no elements, are dropped, and the rest written to
        their elements' rows of ``out`` (n_elements, n_out), by default an
        instant-major array of the kernel's dtype, allocated on the first
        block.  A block holds about ``BLOCK_ELEMENT_INSTANTS`` anchor-instants
        on a pool thread and a quarter of that on the main thread; an
        elementwise kernel gives bitwise the values of one call over all
        elements, whatever the block.
        """
        planes = [np.moveaxis(np.asarray(f, dtype=float), -1, 0) for f in fields]
        n_instants = planes[0].shape[1]
        families = _element_families(self.counts, kind)
        block = BLOCK_ELEMENT_INSTANTS
        if threading.current_thread() is threading.main_thread():
            block //= 4
        step = max(1, block // n_instants)
        for rows, offsets, anchors in families:
            row = rows.start
            for start in range(0, len(anchors), step):
                stop = min(start + step, len(anchors))
                corners = [[p[:, :, o + start : o + stop] for o in offsets] for p in planes]
                values = kernel(*corners).T[anchors[start:stop]]
                if out is None:
                    out = np.empty((values.shape[1], families[-1][0].stop), values.dtype).T
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
        """Mask of the vertices on the outer layer of the vertex grid, wherever they sit."""
        inner = np.zeros((self.nz + 1, self.ny + 1, self.nx + 1), dtype=bool)
        inner[1:-1, 1:-1, 1:-1] = True
        return ~inner.ravel()

    def boundary_vertex_ids(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_vertex_mask())


# The box's range.  The highest power of a length a run forms is a face's
# squared area norm in the flow, three cell edges^4: on one cell, whose edge
# is a box length, it overflows past (1.8e308 / 3)^(1/4) = 8.8e76, and it
# underflows under an edge of the smallest normal double^(1/4), 1.2e-77.
MAX_LENGTH = 1e76
MIN_CELL_EDGE = np.finfo(float).tiny ** 0.25


def checked_box(counts, lengths) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The cell counts as ints and the box lengths as floats, once each count
    is a whole number >= 1 whose vertex array numpy can size (24 bytes a
    vertex) and each length at most ``MAX_LENGTH`` and at least
    ``MIN_CELL_EDGE`` per cell; else ValueError naming them."""
    if any(not 1 <= n < math.inf or int(n) != n for n in counts):
        raise ValueError(f"cell counts must be positive integers, got {counts}")
    vertices = math.prod(int(n) + 1 for n in counts)
    if 24 * vertices > np.iinfo(np.intp).max:
        raise ValueError(f"cell counts {counts} give {vertices:.2e} vertices, too many for numpy")
    if not all(MIN_CELL_EDGE * n <= length <= MAX_LENGTH for n, length in zip(counts, lengths)):
        raise ValueError(
            f"lengths must lie between {MIN_CELL_EDGE:.2g} per cell and {MAX_LENGTH:g}, where a "
            f"cell edge^4 neither underflows nor overflows, got {lengths} on {counts} cells"
        )
    return tuple(map(int, counts)), tuple(map(float, lengths))


def build_box_mesh(nx: int, ny: int, nz: int, lx: float, ly: float, lz: float) -> HexMesh:
    """Build the uniform Cartesian box mesh; ValueError unless :func:`checked_box` passes."""
    counts, (lx, ly, lz) = checked_box((nx, ny, nz), (lx, ly, lz))
    nx, ny, nz = counts

    gz, gy, gx = np.meshgrid(
        np.linspace(0.0, lz, nz + 1),
        np.linspace(0.0, ly, ny + 1),
        np.linspace(0.0, lx, nx + 1),
        indexing="ij",
    )
    # vertex id = i + (nx+1)*(j + (ny+1)*k)  -> x-fastest flattening
    vertices = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=-1)
    return HexMesh(
        nx, ny, nz, lx, ly, lz, vertices,
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


@functools.lru_cache(maxsize=8)
def _interface_blocks(counts) -> types.MappingProxyType:
    """Per axis, its interface block and the (z, y, x) shape of the axis's
    grid, read-only: one computation per cell counts."""
    blocks, start = {}, 0
    for axis in "xyz":
        shape = list(counts[::-1])
        shape["zyx".index(axis)] += 1
        stop = start + int(np.prod(shape))
        blocks[axis] = slice(start, stop), tuple(shape)
        start = stop
    return types.MappingProxyType(blocks)
