"""Property tests of the closed-form hexahedron kernels over random admissible cells.

Cells are the reference cube with every corner moved by at most a quarter of
an edge (never degenerate), then stretched per axis and translated.  The
identities hold exactly in real arithmetic, so each bound is a fixed number
of double-precision ulps of the size of the terms involved.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gclkit import gcl, metrics
from gclkit.gcl import dvoldt_trimap, quad_flux, quad_flux_by_direction, sweep_volume
from gclkit.hexmesh import (
    FACE_LOOPS,
    REF_CORNERS,
    face_area_vectors,
    hex_volume,
    quad_area_vectors,
)
from gclkit.motion import MotionCase, sample_motion
from gclkit.spectral import SpectralOperator
from oracles import six_cross_quad_flux_by_direction, six_face_dvoldt, six_face_hex_volume

PROPERTY = settings(max_examples=60, deadline=None)

# each identity sums a few dozen rounded products; on random cells the
# defect stays below 3 ulps of the size of those terms
ROUNDING = 32 * np.finfo(float).eps


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def _values(draw, shape, lo, hi):
    return draw(arrays(np.float64, shape, elements=_floats(lo, hi)))


def _cells(draw, count):
    perturbation = _values(draw, (count, 8, 3), -0.25, 0.25)
    stretch = _values(draw, (3,), 0.2, 5.0)
    offset = _values(draw, (3,), -2.0, 2.0)
    return (REF_CORNERS + perturbation) * stretch + offset


@st.composite
def moving_cells(draw):
    """1-5 admissible cells and corner velocities (n, 8, 3)."""
    count = draw(st.integers(1, 5))
    return _cells(draw, count), _values(draw, (count, 8, 3), -3.0, 3.0)


@st.composite
def cell_pairs(draw):
    """The same 1-5 cells in two admissible configurations."""
    count = draw(st.integers(1, 5))
    return _cells(draw, count), _cells(draw, count)


def _size(*positions):
    return max(np.abs(p).max() for p in positions)


@PROPERTY
@given(moving_cells())
def test_face_fluxes_sum_to_volume_rate(data):
    corners, velocities = data
    flux = quad_flux(corners[:, FACE_LOOPS], velocities[:, FACE_LOOPS])
    rate = dvoldt_trimap(corners, velocities)
    bound = ROUNDING * np.abs(velocities).max() * _size(corners) ** 2
    assert np.abs(flux.sum(axis=-1) - rate).max() <= bound


@PROPERTY
@given(cell_pairs())
def test_face_sweeps_sum_to_volume_change(data):
    start, end = data
    swept = sum(sweep_volume(start[:, loop], end[:, loop]) for loop in FACE_LOOPS)
    change = hex_volume(end) - hex_volume(start)
    bound = ROUNDING * _size(start, end) ** 3
    assert np.abs(swept - change).max() <= bound


@PROPERTY
@given(moving_cells())
def test_reversed_loop_negates_area_and_flux(data):
    corners, velocities = data
    quads, face_velocities = corners[:, FACE_LOOPS], velocities[:, FACE_LOOPS]
    reversed_quads = quads[..., ::-1, :]
    assert np.array_equal(quad_area_vectors(reversed_quads), -quad_area_vectors(quads))
    forward = quad_flux(quads, face_velocities)
    backward = quad_flux(reversed_quads, face_velocities[..., ::-1, :])
    bound = ROUNDING * np.abs(velocities).max() * _size(corners) ** 2
    assert np.abs(backward + forward).max() <= bound


# Corners and velocities of at most 2^10 in size: every product and sum in
# both the edge-vector and the absolute-position forms is an integer below
# 2^40, so both are exact up to the final division by 12.
SMALL_INTEGERS = st.integers(-(2**10), 2**10)


@st.composite
def integer_cells(draw):
    """1-5 arbitrary (not necessarily admissible) integer cells and velocities."""
    count = draw(st.integers(1, 5))
    corners = draw(arrays(np.int64, (count, 8, 3), elements=SMALL_INTEGERS))
    velocities = draw(arrays(np.int64, (count, 8, 3), elements=SMALL_INTEGERS))
    return corners.astype(float), velocities.astype(float)


def _same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@PROPERTY
@given(integer_cells())
def test_edge_vector_forms_equal_absolute_forms_on_integers(data):
    # exact arithmetic leaves only the polynomial identity to check
    corners, velocities = data
    quads, face_velocities = corners[:, FACE_LOOPS], velocities[:, FACE_LOOPS]
    assert _same_bits(hex_volume(corners), six_face_hex_volume(corners))
    # both rates sum to exactly the same value, whose zero may carry either sign
    assert np.array_equal(
        dvoldt_trimap(corners, velocities), six_face_dvoldt(corners, velocities)
    )
    oracle = six_cross_quad_flux_by_direction(quads, face_velocities)
    assert _same_bits(quad_flux(quads, face_velocities), oracle.sum(axis=-1))
    # the components sum different products, so a zero may differ in sign
    assert np.array_equal(quad_flux_by_direction(quads, face_velocities), oracle)


_TRAJECTORIES = {}


def _paper_trajectory(mesh, case_id, n):
    if (case_id, n) not in _TRAJECTORIES:
        _TRAJECTORIES[case_id, n] = sample_motion(mesh, MotionCase.for_case(case_id), n)
    return _TRAJECTORIES[case_id, n]


@settings(max_examples=12, deadline=None)
@given(
    case_id=st.sampled_from(["case1", "case2", "case3", "case5"]),
    n=st.integers(1, 3),
    shift=arrays(np.float64, 3, elements=_floats(-300.0, 300.0)),
)
@example(case_id="case5", n=3, shift=np.array([300.0, -300.0, 300.0]))
def test_results_do_not_depend_on_where_the_mesh_sits(paper_mesh, case_id, n, shift):
    trajectory = _paper_trajectory(paper_mesh, case_id, n)
    moved = dataclasses.replace(trajectory, positions=trajectory.positions + shift)
    # Rounding the shifted positions moves each corner by at most delta per
    # component.  The exact volume then moves by at most about
    # 8 sqrt(3) delta times the largest face area, and the exact flux by
    # about 4 sqrt(3) delta |v| times the longest edge; a form built from
    # absolute positions rounds at eps |r|^3 and eps |v| |r|^2 instead.
    delta = 0.5 * np.spacing(np.abs(moved.positions).max())
    reach = np.abs(moved.positions).max() * np.sqrt(3.0)
    eps = np.finfo(float).eps
    corners = paper_mesh.cell_corners(trajectory.positions)
    area = np.linalg.norm(face_area_vectors(corners), axis=-1).max()
    edge = np.sqrt(2.0 * area)
    speed = np.abs(trajectory.velocities).max()
    floors = (
        f"delta {delta:.1e}; edge-vector floors: volume 8 sqrt(3) delta area"
        f" {8 * np.sqrt(3) * delta * area:.1e}, flux 4 sqrt(3) delta |v| edge"
        f" {4 * np.sqrt(3) * delta * speed * edge:.1e}; absolute-position floors:"
        f" eps |r|^3 {eps * reach**3:.1e}, eps |v| |r|^2 {eps * speed * reach**2:.1e}"
    )

    volume_move = np.abs(hex_volume(paper_mesh.cell_corners(moved.positions)) - hex_volume(corners))
    assert volume_move.max() <= 1e-12, f"hex_volume moved {volume_move.max():.1e}; {floors}"
    ids = paper_mesh.interface_vertex_ids
    face_velocities = trajectory.velocities[:, ids]
    flux_move = np.abs(
        quad_flux(moved.positions[:, ids], face_velocities)
        - quad_flux(trajectory.positions[:, ids], face_velocities)
    )
    assert flux_move.max() <= 1e-12, f"quad_flux moved {flux_move.max():.1e}; {floors}"
    cell_velocities = paper_mesh.cell_corners(trajectory.velocities)
    rate_move = np.abs(
        dvoldt_trimap(paper_mesh.cell_corners(moved.positions), cell_velocities)
        - dvoldt_trimap(corners, cell_velocities)
    )
    assert rate_move.max() <= 1e-12, f"dvoldt_trimap moved {rate_move.max():.1e}; {floors}"

    # The increments close each cell's volume change exactly in real
    # arithmetic; the defect is the rounding of that closure, taken through
    # the spectral derivative D.
    spectral = SpectralOperator(n, trajectory.period)
    dvoldt = spectral.differentiate(gcl.cell_volumes(paper_mesh, moved))
    norm = np.abs(spectral.d_matrix).sum(axis=1).max()
    for maker in (gcl.lvi_increments, gcl.aevi_increments):
        field = gcl.ifmv_ts(maker(paper_mesh, moved), spectral)
        defect = metrics.abs_err_sum_vs_dvoldt(paper_mesh, field, dvoldt)
        assert defect <= 1e-12, (
            f"{maker.__name__} conservation defect {defect:.1e} at shift {shift}; the"
            f" closure rounds at about eps edge^3 = {eps * edge**3:.1e} per increment,"
            f" times |D|_inf = {norm:.1f}, against {eps * reach**3 * norm:.1e} for a form"
            f" of absolute positions; {floors}"
        )
