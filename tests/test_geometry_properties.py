"""Property tests of the closed-form hexahedron kernels over random admissible cells.

Cells are the reference cube with every corner moved by at most a quarter of
an edge (never degenerate), then stretched per axis and translated.  The
identities hold exactly in real arithmetic, so each bound is a fixed number
of double-precision ulps of the size of the terms involved.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gclkit.gcl import dvoldt_trimap, quad_flux, sweep_volume
from gclkit.hexmesh import FACE_LOOPS, REF_CORNERS, hex_volume, quad_area_vectors

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
