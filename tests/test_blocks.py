"""Blocked component-first geometry kernels against the component-last formulas.

The per-element kernels (LVI and AEVI sweeps, AVG and TRI-MAP face fluxes,
cell volumes, exact volume rates, the degeneracy gate) run over blocks of
``BLOCK_ELEMENT_INSTANTS`` anchor-instants on component planes, with every
dot and cross product written out.  The references below are the same
formulas on ``(..., k, 3)`` arrays, through ``np.cross`` and ``einsum``: the
edge-vector volume, its product-rule rate and the edge-vector flux.  Every
value must be bitwise what they give, zero signs included.  The "one-shot"
tests evaluate the references without blocks, over all elements of one
instant at a time.  The six-face volume and rate and the six-cross flux the
edge-vector forms replaced are oracles in ``tests/oracles.py``, and so is the
gather of each block's element corners that slicing the vertex grid
replaced: on small meshes every kernel family must give bitwise its values.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gclkit import flow, gcl, hexmesh, motion
from gclkit.hexmesh import (
    BLOCK_ELEMENT_INSTANTS,
    FACE_LOOPS,
    REF_CORNERS,
    HexMesh,
    build_box_mesh,
    detect_degenerate,
    face_area_vectors,
    hex_volume,
    quad_area_vectors,
)
from gclkit.motion import MotionCase, MotionTrajectory, evaluate_motion, sample_motion
from gclkit.spectral import SpectralOperator
from oracles import corner_jacobians, gathered_blockwise

N = 20  # 2N+2 = 42 instants: several blocks per kernel, the last one ragged

_EDGE_LOW = np.array(
    [[0, 0, 0], [0, 1, 1], [3, 1, 2], [3, 0, 3], [4, 4, 0], [4, 5, 1], [7, 5, 2], [7, 4, 3]]
)
_EDGE_HIGH = np.array(
    [[1, 3, 4], [1, 2, 5], [2, 2, 6], [2, 3, 7], [5, 7, 4], [5, 6, 5], [6, 6, 6], [6, 7, 7]]
)


# -- reference formulas, component-last ----------------------------------------


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


_VOLUME_EDGES = ((6, 3), (2, 0), (5, 0), (6, 4), (7, 0), (6, 1))


def _reference_hex_edges(corners):
    r = np.asarray(corners, dtype=float)
    return tuple(r[..., i, :] - r[..., j, :] for i, j in _VOLUME_EDGES)


def _reference_hex_volume(corners):
    a, b, c, d, e, f = _reference_hex_edges(corners)
    terms = np.stack(
        [_dot(f + e, np.cross(a, b)), _dot(e, np.cross(a + c, d)), _dot(f, np.cross(c, d + b))],
        axis=-1,
    )
    return terms.sum(axis=-1) / 12.0


def _reference_corner_jacobians(corners):
    corners = np.asarray(corners, dtype=float)
    edges = corners[..., _EDGE_HIGH, :] - corners[..., _EDGE_LOW, :]
    a, b, c = (edges[..., axis, :] for axis in range(3))
    return (
        a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
        + a[..., 1] * (b[..., 2] * c[..., 0] - b[..., 0] * c[..., 2])
        + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0])
    )


def _reference_quad_area_vectors(quads):
    quads = np.asarray(quads, dtype=float)
    return 0.5 * np.cross(quads[..., 2, :] - quads[..., 0, :], quads[..., 3, :] - quads[..., 1, :])


def _reference_quad_flux_by_direction(quad, velocities):
    quad = np.asarray(quad, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    q0, q1, q2, q3 = (quad[..., i, :] for i in range(4))
    v1, v2, v3 = (velocities[..., i, :] for i in (1, 2, 3))
    a, b, c = q1 - q0, q3 - q0, (q0 - q1) + (q2 - q3)
    vt = velocities.sum(axis=-2)
    return (
        3.0 * vt * np.cross(a, b)
        + ((vt + v1) + v2) * np.cross(a, c)
        + ((vt + v2) + v3) * np.cross(c, b)
    ) / 12.0


def _reference_quad_flux(quad, velocities):
    return _reference_quad_flux_by_direction(quad, velocities).sum(axis=-1)


def _reference_dvoldt(corners, velocities):
    a, b, c, d, e, f = _reference_hex_edges(corners)
    da, db, dc, dd, de, df = _reference_hex_edges(velocities)
    terms = np.stack(
        [
            _dot(df + de, np.cross(a, b))
            + _dot(f + e, np.cross(da, b))
            + _dot(f + e, np.cross(a, db)),
            _dot(de, np.cross(a + c, d))
            + _dot(e, np.cross(da + dc, d))
            + _dot(e, np.cross(a + c, dd)),
            _dot(df, np.cross(c, d + b))
            + _dot(f, np.cross(dc, d + b))
            + _dot(f, np.cross(c, dd + db)),
        ],
        axis=-1,
    )
    return terms.sum(axis=-1) / 12.0


def _reference_sweep(quad_start, quad_end):
    quad_start, quad_end = np.broadcast_arrays(quad_start, quad_end)
    return _reference_hex_volume(np.concatenate([quad_start, quad_end], axis=-2))


def _reference_avg_flux(quads, velocities):
    return (velocities.mean(axis=-2) * _reference_quad_area_vectors(quads)).sum(axis=-1)


# -- the same formulas over a trajectory, one instant at a time ----------------


def _per_instant(formula, *stacks):
    """formula over each instant of (n_instants, n_elements, ...) stacks, as
    (n_elements, n_instants); one instant at a time keeps the memory small."""
    return np.stack([formula(*arrays) for arrays in zip(*stacks)], axis=-1)


def _reference_increments(mesh, trajectory, kind):
    quads = trajectory.positions[:, mesh.interface_vertex_ids]
    totals = np.zeros((quads.shape[1], quads.shape[0]))
    if kind == "lvi":
        totals[:, 1:] = _per_instant(lambda q: _reference_sweep(quads[0], q), quads[1:])
    else:
        steps = _per_instant(_reference_sweep, quads[:-1], quads[1:])
        np.cumsum(steps, axis=-1, out=totals[:, 1:])
    return totals


def _face_stacks(mesh, trajectory):
    ids = mesh.interface_vertex_ids
    return trajectory.positions[:-1][:, ids], trajectory.velocities[:, ids]


def _cell_stacks(mesh, trajectory):
    return (
        mesh.cell_corners(trajectory.positions)[:-1],
        mesh.cell_corners(trajectory.velocities),
    )


def _reference_gate(mesh, positions):
    corners = mesh.cell_corners(positions)
    bad = (_reference_hex_volume(corners) <= 0.0) | (
        _reference_corner_jacobians(corners).min(axis=-1) <= 0.0
    )
    return np.flatnonzero(bad)


def _bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


@pytest.fixture(scope="module")
def case5_trajectory(paper_mesh):
    return sample_motion(paper_mesh, MotionCase.for_case("case5"), N)


def test_paper_mesh_spans_ragged_blocks(paper_mesh):
    # the cells and each axis's interfaces run over blocks of anchors
    for kind in ("cells", "interfaces"):
        for _, _, anchors in hexmesh._element_families(paper_mesh.counts, kind):
            for n_instants in (2 * N + 1, 2 * N + 2):
                step = BLOCK_ELEMENT_INSTANTS // n_instants
                assert len(anchors) > 2 * step and len(anchors) % step != 0


@pytest.mark.parametrize("kind", ["lvi", "aevi"])
def test_increments_bitwise_equal_one_shot(paper_mesh, case5_trajectory, kind):
    maker = gcl.lvi_increments if kind == "lvi" else gcl.aevi_increments
    series = maker(paper_mesh, case5_trajectory)
    assert _bitwise_equal(
        series.totals, _reference_increments(paper_mesh, case5_trajectory, kind)
    )


def test_face_fields_bitwise_equal_one_shot(paper_mesh, case5_trajectory):
    stacks = _face_stacks(paper_mesh, case5_trajectory)
    avg = gcl.ifmv_avg(paper_mesh, case5_trajectory).total
    expected = _per_instant(_reference_avg_flux, *stacks)
    assert _bitwise_equal(avg, expected)
    trimap = gcl.trimap_field(paper_mesh, case5_trajectory).total
    expected = _per_instant(_reference_quad_flux, *stacks)
    assert _bitwise_equal(trimap, expected)


def test_cell_kernels_bitwise_equal_one_shot(paper_mesh, case5_trajectory):
    corners, velocities = _cell_stacks(paper_mesh, case5_trajectory)
    volumes = case5_trajectory.volumes
    assert _bitwise_equal(volumes, _per_instant(_reference_hex_volume, corners))
    rates = gcl.exact_volume_rates(paper_mesh, case5_trajectory)
    assert _bitwise_equal(rates, _per_instant(_reference_dvoldt, corners, velocities))


def test_gate_indices_equal_one_shot(paper_mesh):
    # a case-4 amplitude that inverts cells at about half the instants
    case = MotionCase.for_case("case4", rbf_amplitude=0.2)
    positions, _ = evaluate_motion(paper_mesh, case, np.arange(2 * N + 1) / (2 * N + 1))
    bad = detect_degenerate(paper_mesh, positions)
    expected = _reference_gate(paper_mesh, positions)
    assert len(expected) > 0
    assert bad.tolist() == expected.tolist()
    # one instant: plain cell ids
    n = int(expected[0]) // paper_mesh.n_cells
    single = detect_degenerate(paper_mesh, positions[n])
    assert single.tolist() == _reference_gate(paper_mesh, positions[n]).tolist()


@pytest.fixture(scope="module")
def awkward_hexahedra():
    """Random cells, some flat or still, with exact zeros and negative zeros.

    A zero coordinate or velocity component makes products of either zero
    sign, and a still face sums them; the kernels must give the zero signs
    the reference reductions give.
    """
    rng = np.random.default_rng(2024)
    corners = REF_CORNERS + rng.uniform(-0.3, 0.3, (400, 8, 3))
    corners[:40, :, 2] = 0.0  # flat cells
    corners[40:60] = np.where(rng.random((20, 8, 3)) < 0.5, 0.0, -0.0)
    velocities = rng.normal(size=(400, 8, 3))
    velocities[:60] = -0.0  # still
    velocities[60:90, :, 1] = 0.0
    velocities[90:120, :, ::2] = -0.0
    return corners, velocities


def test_public_kernels_bitwise_equal_reference(awkward_hexahedra):
    corners, velocities = awkward_hexahedra
    quads, face_velocities = corners[:, FACE_LOOPS], velocities[:, FACE_LOOPS]
    pairs = [
        (hex_volume(corners), _reference_hex_volume(corners)),
        (corner_jacobians(corners), _reference_corner_jacobians(corners)),
        (face_area_vectors(corners), _reference_quad_area_vectors(quads)),
        (quad_area_vectors(quads), _reference_quad_area_vectors(quads)),
        (
            gcl.quad_flux_by_direction(quads, face_velocities),
            _reference_quad_flux_by_direction(quads, face_velocities),
        ),
        (gcl.quad_flux(quads, face_velocities), _reference_quad_flux(quads, face_velocities)),
        (gcl.dvoldt_trimap(corners, velocities), _reference_dvoldt(corners, velocities)),
        (
            gcl.sweep_volume(corners[:, :4], corners[:, 4:]),
            _reference_sweep(corners[:, :4], corners[:, 4:]),
        ),
        (gcl.sweep_volume(quads, quads), _reference_sweep(quads, quads)),
        # broadcasting: one start quad against many ends, one cell at a time
        (
            gcl.sweep_volume(quads[0, 2], quads[:, 1]),
            _reference_sweep(quads[0, 2], quads[:, 1]),
        ),
        (hex_volume(corners[7]), _reference_hex_volume(corners[7])),
        (
            gcl.quad_flux(quads[0, 1], face_velocities[:, 1]),
            _reference_quad_flux(quads[0, 1], face_velocities[:, 1]),
        ),
    ]
    for i, (got, expected) in enumerate(pairs):
        assert _bitwise_equal(got, expected), f"pair {i}"


def test_avg_flux_bitwise_equal_reference(awkward_hexahedra):
    corners, velocities = awkward_hexahedra
    quads, face_velocities = corners[:, FACE_LOOPS], velocities[:, FACE_LOOPS]
    planes = [np.moveaxis(a, (-2, -1), (0, 1)) for a in (quads, face_velocities)]
    assert _bitwise_equal(
        gcl._avg_flux(*planes), _reference_avg_flux(quads, face_velocities)
    )


@pytest.mark.parametrize(
    "kernel",
    [
        gcl.lvi_increments,
        gcl.aevi_increments,
        gcl.ifmv_avg,
        gcl.trimap_field,
        # the cell volumes are measured as the motion is sampled
        lambda mesh, trajectory: sample_motion(mesh, trajectory.case, N),
        gcl.exact_volume_rates,
        lambda mesh, trajectory: detect_degenerate(mesh, trajectory.positions[:-1]),
    ],
    ids=["lvi", "aevi", "avg", "trimap", "volumes", "rates", "gate"],
)
def test_kernel_allocation_peak_is_bounded(paper_mesh, case5_trajectory, kernel):
    # one-shot evaluation over all 41-42 instants allocated 34-242 MB here
    tracemalloc.start()
    try:
        kernel(paper_mesh, case5_trajectory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48e6, f"allocation peak {peak / 1e6:.1f} MB"


# -- sliced blocks against the gathered ones -----------------------------------


@st.composite
def moving_grids(draw):
    """A mesh of 1-5 cells a side, one-cell-thick axes included, and a
    trajectory of 1-6 instants of randomly moved vertices.

    The vertices stay still, move within a fifth of a spacing or move far
    enough to invert cells; a third of the velocity components are zeros of
    either sign.  The trajectory is stored component-last or, as sampled
    motions are, component-first.
    """
    mesh = build_box_mesh(*(draw(st.integers(1, 5)) for _ in range(3)), 3.2, 2.8, 2.4)
    n_instants = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reach = draw(st.sampled_from([0.0, 0.2, 0.7])) * mesh.lengths / mesh.counts
    shape = (n_instants, mesh.n_vertices, 3)
    moved = mesh.vertices + reach * rng.uniform(-1.0, 1.0, shape)
    velocities = rng.normal(size=shape)
    zeros = rng.random(shape)
    velocities[zeros < 0.2] = 0.0
    velocities[zeros > 0.9] = -0.0
    positions = np.concatenate([moved, moved[:1]])
    if draw(st.booleans()):
        positions, velocities = motion._by_component(positions), motion._by_component(velocities)
    times = np.arange(n_instants + 1) / n_instants
    volumes = mesh.blockwise(hexmesh._hex_volume, "cells", positions[:-1])
    trajectory = MotionTrajectory(
        MotionCase.for_case("case1"), n_instants // 2, 1.0, times, positions, velocities,
        volumes, {},
    )
    return mesh, trajectory


def _kernel_families(mesh, trajectory):
    """Every blockwise kernel family's values on a trajectory."""
    values = {
        "volumes": mesh.blockwise(hexmesh._hex_volume, "cells", trajectory.positions[:-1]),
        "gate": detect_degenerate(mesh, trajectory.positions[:-1]),
        "lvi": gcl.lvi_increments(mesh, trajectory).totals,
        "aevi": gcl.aevi_increments(mesh, trajectory).totals,
        "trimap": gcl.trimap_field(mesh, trajectory).total,
        "avg": gcl.ifmv_avg(mesh, trajectory).total,
        "rates": gcl.exact_volume_rates(mesh, trajectory),
    }
    if trajectory.nts == len(trajectory.velocities) > 1:
        spectral = SpectralOperator(trajectory.n_harmonics)
        problem = flow.FreestreamProblem(mesh, trajectory, spectral, None)
        for name, axis in zip("xyz", problem._axes):
            values[f"areas {name}"] = axis.vectors
    return values


@settings(max_examples=60, deadline=None)
@given(moving_grids(), st.integers(1, 64))
def test_sliced_blocks_bitwise_equal_gathered(grid, block_element_instants):
    mesh, trajectory = grid
    with pytest.MonkeyPatch.context() as patch:
        # blocks of a few anchors, most of them ragged
        patch.setattr(hexmesh, "BLOCK_ELEMENT_INSTANTS", block_element_instants)
        sliced = _kernel_families(mesh, trajectory)
        patch.setattr(HexMesh, "blockwise", gathered_blockwise)
        gathered = _kernel_families(mesh, trajectory)
    assert sliced.keys() == gathered.keys()
    for name, expected in gathered.items():
        assert _bitwise_equal(sliced[name], expected), name
