import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gclkit import hexmesh
from gclkit.hexmesh import (
    FACE_FAMILY,
    REF_CORNERS,
    build_box_mesh,
)
from gclkit.motion import DegenerateMeshError, MotionCase, detect_degenerate, sample_motion
from oracles import (
    cell_corners,
    cell_face_slots,
    corner_jacobians,
    face_area_vectors,
    gauss_volume_oracle,
    hex_volume,
    interior_vertex_ids,
    quad_area_vectors,
    random_hexahedra,
)


def test_paper_mesh_counts_and_volumes(paper_mesh):
    assert paper_mesh.n_cells == 1000
    assert len(paper_mesh.vertices) == 1331
    vols = hex_volume(cell_corners(paper_mesh))
    assert np.allclose(vols, 0.32 * 0.28 * 0.24, rtol=1e-12)


def test_unit_cube_mesh():
    mesh = build_box_mesh(1, 1, 1, 1.0, 1.0, 1.0)
    assert mesh.n_cells == 1
    assert hex_volume(cell_corners(mesh))[0] == pytest.approx(1.0, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("counts", [(4, 3, 2), (1, 1, 1), (1, 5, 2)])
def test_boundary_is_the_outer_layer_of_the_vertex_grid(rng, counts):
    # on the box that is the vertices on its faces; a warped mesh keeps them
    mesh = build_box_mesh(*counts, 3.2, 2.8, 2.4)
    on_faces = ((mesh.vertices == 0.0) | (mesh.vertices == mesh.lengths)).any(axis=1)
    assert np.array_equal(mesh.boundary_vertex_mask(), on_faces)
    shaken = mesh.vertices + rng.uniform(-0.05, 0.05, mesh.vertices.shape)
    warped = dataclasses.replace(mesh, vertices=shaken)
    assert np.array_equal(warped.boundary_vertex_mask(), on_faces)


def test_two_cell_partition_of_box():
    mesh = build_box_mesh(2, 1, 1, 2.0, 1.0, 1.0)
    vols = hex_volume(cell_corners(mesh))
    assert vols.shape == (2,)
    assert np.allclose(vols, 1.0, rtol=1e-14)
    assert vols.sum() == pytest.approx(2.0, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "args",
    [
        (0, 1, 1, 1.0, 1.0, 1.0),
        (1, -2, 1, 1.0, 1.0, 1.0),
        (1, 1, 1, 0.0, 1.0, 1.0),
        (1, 1, 1, 1.0, -3.0, 1.0),
        (2, 2, 2, float("inf"), 1.0, 1.0),
        (2, 2, 2, 1.0, float("nan"), 1.0),
        (float("inf"), 2, 2, 1.0, 1.0, 1.0),
        (2, float("nan"), 2, 1.0, 1.0, 1.0),
        (2, 2, 2.5, 1.0, 1.0, 1.0),
        # a cell edge^4, a face's squared area norm, underflows or overflows
        (3, 3, 3, 1e-100, 1e-100, 1e-100),
        (1, 1, 1, 1e150, 1.0, 1.0),
    ],
)
def test_build_rejects_bad_arguments(args):
    with pytest.raises(ValueError) as excinfo:
        build_box_mesh(*args)
    message = str(excinfo.value)  # names the bad counts, else the lengths
    counts_ok = all(isinstance(n, int) and n >= 1 for n in args[:3])
    assert str(args[3:] if counts_ok else args[:3]) in message, message


def test_hex_volume_unit_cube_and_scaling():
    assert hex_volume(REF_CORNERS) == pytest.approx(1.0, abs=1e-15)
    assert hex_volume(2.0 * REF_CORNERS) == pytest.approx(8.0, rel=1e-14, abs=0.0)


def test_hex_volume_matches_gauss_quadrature(rng):
    for scale in (0.2, 0.25):
        hexes = random_hexahedra(1000, rng, scale=scale)
        exact = gauss_volume_oracle(hexes)
        rel = np.abs(hex_volume(hexes) - exact) / np.abs(exact)
        assert rel.max() <= 1e-13, scale


def test_hex_volume_translation_invariant(rng):
    corners = random_hexahedra(1, rng)[0]
    shifted = corners + np.array([11.0, -7.0, 3.0])
    assert hex_volume(shifted) == pytest.approx(hex_volume(corners), rel=1e-12, abs=0.0)


def test_face_area_vectors_unit_cube():
    vectors = face_area_vectors(REF_CORNERS)
    expected = np.array(
        [[0, 0, -1], [0, 0, 1], [0, 1, 0], [0, -1, 0], [-1, 0, 0], [1, 0, 0]],
        dtype=float,
    )
    np.testing.assert_allclose(vectors, expected, atol=1e-15)


def test_face_area_closure_random(rng):
    hexes = random_hexahedra(1000, rng)
    vectors = face_area_vectors(hexes)
    defect = np.linalg.norm(vectors.sum(axis=1), axis=-1)
    max_area = np.linalg.norm(vectors, axis=-1).max(axis=-1)
    assert (defect <= 1e-13 * max_area).all()


def test_face_area_planar_quad(rng):
    # planar quad with a known area and normal: the bottom face of a prism
    normal = np.array([1.0, 2.0, -0.5])
    normal /= np.linalg.norm(normal)
    u = np.cross(normal, [0.0, 0.0, 1.0])
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    # convex planar loop in the (u, v) plane; shoelace gives its area
    pts2d = np.array([[0.0, 0.0], [1.3, 0.1], [1.5, 1.2], [-0.2, 0.9]])
    area = 0.5 * abs(
        np.sum(
            pts2d[:, 0] * np.roll(pts2d[:, 1], -1)
            - np.roll(pts2d[:, 0], -1) * pts2d[:, 1]
        )
    )
    quad = pts2d[:, :1] * u + pts2d[:, 1:] * v
    bottom = quad
    top = quad + normal  # prism; bottom face loop (3,2,1,0) has outward -normal
    corners = np.vstack([bottom, top])
    vectors = face_area_vectors(corners)
    np.testing.assert_allclose(vectors[0], -area * normal, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(vectors[1], area * normal, rtol=1e-13, atol=1e-15)


def test_corner_jacobians_positive_on_valid_cells(rng):
    hexes = random_hexahedra(200, rng, scale=0.2)
    assert corner_jacobians(hexes).min() > 0.0


def _gated_cells(mesh, positions):
    """The cells the gate names for one instant of still vertices, [] if it passes."""
    positions = np.asarray(positions)[None]
    volumes = mesh.blockwise(hexmesh._hex_volume, "cells", positions)
    try:
        detect_degenerate(mesh, np.zeros(1), positions, np.zeros_like(positions), volumes)
    except DegenerateMeshError as err:
        return err.cell_ids.tolist()
    return []


def test_detect_degenerate_undeformed(paper_mesh):
    assert _gated_cells(paper_mesh, paper_mesh.vertices) == []


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_detect_degenerate_flags_non_finite_cells(value):
    # a NaN volume or Jacobian is not positive, so it must not pass
    mesh = build_box_mesh(3, 3, 3, 1.0, 1.0, 1.0)
    victim = interior_vertex_ids(mesh)[0]
    positions = mesh.vertices.copy()
    positions[victim, 0] = value
    incident = np.flatnonzero((mesh.cell_vertex_ids == victim).any(axis=1))
    with np.errstate(invalid="ignore"):
        assert _gated_cells(mesh, positions) == incident.tolist()


def test_detect_degenerate_reports_incident_cells():
    mesh = build_box_mesh(3, 3, 3, 1.0, 1.0, 1.0)
    victim = interior_vertex_ids(mesh)[0]
    positions = mesh.vertices.copy()
    positions[victim] += np.array([0.8, 0.0, 0.0])  # push past the next plane
    flagged = set(_gated_cells(mesh, positions))
    incident = {
        c for c in range(mesh.n_cells) if victim in mesh.cell_vertex_ids[c]
    }
    assert flagged
    assert flagged <= incident


def test_case2_alpha_0p1_is_admissible(paper_mesh):
    case = MotionCase.for_case("case2", alpha0=0.1)
    trajectory = sample_motion(paper_mesh, case, 3)  # raises on degeneracy
    corners = cell_corners(paper_mesh, trajectory.positions)
    assert hex_volume(corners).min() > 0.0
    assert corner_jacobians(corners).min() > 0.0


def test_volume_partition_of_deformed_box(rng):
    mesh = build_box_mesh(6, 5, 4, 1.3, 1.1, 0.9)
    positions = mesh.vertices.copy()
    interior = interior_vertex_ids(mesh)
    spacing = min(1.3 / 6, 1.1 / 5, 0.9 / 4)
    positions[interior] += rng.uniform(-0.3, 0.3, (len(interior), 3)) * spacing
    total = hex_volume(cell_corners(mesh, positions)).sum()
    assert total == pytest.approx(1.3 * 1.1 * 0.9, rel=1e-12, abs=0.0)


def test_volume_of_collapsed_hexahedron_is_zero(rng):
    # degenerate sweep hexahedra (coincident top and bottom) cancel among the
    # three edge-vector triple products down to rounding level
    quad = rng.normal(size=(4, 3))
    scale = np.abs(quad).max() ** 3
    assert abs(hex_volume(np.vstack([quad, quad]))) <= 1e-15 * scale


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_axis_interfaces_read_owned_loops_along_axis(axis):
    mesh = build_box_mesh(4, 5, 6, 3.2, 2.8, 2.4)
    a = "xyz".index(axis)
    block, shape = mesh.axis_interfaces(axis)
    grid = [mesh.nz, mesh.ny, mesh.nx]
    grid[2 - a] += 1
    assert shape == tuple(grid)
    ids = np.arange(len(mesh.interface_vertex_ids))[block].reshape(grid)
    # a cell layer's +axis faces are the next interface layer, held with +1,
    # and its -axis faces the same layer, held with -1
    low, high = FACE_FAMILY[axis]
    interfaces, signs = cell_face_slots(mesh)
    along = (slice(None),) * (2 - a)
    for slot, layers, sign in ((high, slice(1, None), 1.0), (low, slice(-1), -1.0)):
        assert np.array_equal(interfaces[:, slot], ids[along + (layers,)].ravel())
        assert np.all(signs[:, slot] == sign)
    # interface layer l lies at l * spacing along the axis
    quads = mesh.vertices[mesh.interface_vertex_ids[ids]]
    layer = np.indices(grid)[2 - a]
    spacing = mesh.lengths[a] / mesh.counts[a]
    np.testing.assert_allclose(quads[..., a].mean(axis=-1), layer * spacing, atol=1e-12)
    # on the undeformed box, every stored area vector points along +axis
    vectors = quad_area_vectors(quads)
    assert np.all(vectors[..., a] > 0.0)
    assert np.all(np.delete(vectors, a, axis=-1) == 0.0)


@st.composite
def boxes(draw):
    """Box meshes of 1-5 cells per axis with random edge lengths."""
    counts = [draw(st.integers(1, 5)) for _ in range(3)]
    lengths = [draw(st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)) for _ in range(3)]
    return build_box_mesh(*counts, *lengths)


@settings(max_examples=40, deadline=None)
@given(boxes())
def test_interface_map_properties(mesh):
    n_interfaces = len(mesh.interface_vertex_ids)
    # the axis blocks tile the interfaces in order x, y, z; each reshapes to
    # its grid, whose layer l lies at l * spacing
    start = 0
    for a, axis in enumerate("xyz"):
        block, shape = mesh.axis_interfaces(axis)
        assert block.start == start
        start = block.stop
        quads = mesh.vertices[mesh.interface_vertex_ids[block]]
        centres = quads[..., a].mean(axis=-1).reshape(shape)
        layer = np.indices(shape)[2 - a]
        spacing = mesh.lengths[a] / mesh.counts[a]
        np.testing.assert_allclose(centres, layer * spacing, rtol=0, atol=1e-12 * mesh.lengths[a])
        # every stored area vector points along +axis, on every layer
        vectors = quad_area_vectors(quads)
        assert np.all(vectors[:, a] > 0.0)
        assert np.all(np.delete(vectors, a, axis=-1) == 0.0)
    assert start == n_interfaces
    # interior interfaces sit in two cell slots with signs +1 and -1; a
    # boundary interface in one slot, +1 on the high and -1 on the low boundary
    ids, signs = (a.ravel() for a in cell_face_slots(mesh))
    plus = np.bincount(ids[signs == 1.0], minlength=n_interfaces)
    minus = np.bincount(ids[signs == -1.0], minlength=n_interfaces)
    assert np.all(np.isin(signs, (1.0, -1.0)))
    centres = mesh.vertices[mesh.interface_vertex_ids].mean(axis=1)
    low = np.any(np.isclose(centres, 0.0, atol=1e-9), axis=1)
    high = np.any(np.isclose(centres, mesh.lengths, atol=1e-9), axis=1)
    assert np.array_equal(plus, np.where(low, 0, 1))
    assert np.array_equal(minus, np.where(high, 0, 1))
    # the undeformed cells are closed: their signed face area vectors cancel exactly
    vectors = quad_area_vectors(mesh.vertices[mesh.interface_vertex_ids])
    assert np.all(mesh.sum_over_faces(vectors) == 0.0)


@st.composite
def boxes_with_face_values(draw):
    """A random box and per-interface values (n_interfaces, ...) rich in signed zeros."""
    mesh = draw(boxes())
    tail = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    elements = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
    values = draw(arrays(np.float64, (len(mesh.interface_vertex_ids),) + tail, elements=elements))
    return mesh, values


@settings(max_examples=60, deadline=None)
@given(boxes_with_face_values())
def test_sum_over_faces_equals_gathered_slots(data):
    mesh, values = data
    # the cell-slot form: gather each cell's six signed slots, then add.reduce
    interfaces, signs = cell_face_slots(mesh)
    signs = signs.reshape((mesh.n_cells, 6) + (1,) * (values.ndim - 1))
    expected = (values[interfaces] * signs).sum(axis=1)
    total = mesh.sum_over_faces(values)
    assert total.shape == expected.shape
    assert np.array_equal(total, expected)
    assert np.array_equal(np.signbit(total), np.signbit(expected))


def test_interface_blocks_computed_once_per_cell_counts_across_a_sweep():
    from gclkit import experiments, hexmesh
    from gclkit.motion import MotionCase

    hexmesh._interface_blocks.cache_clear()
    experiments.run_sweep(experiments.MeshConfig(3, 4, 5), MotionCase.for_case("case1"),
                          [1, 2, 3], ["nlfd-lvi", "nlfd-aevi", "avg", "trimap"])
    info = hexmesh._interface_blocks.cache_info()
    assert info.misses == 1 and info.hits > 0
    with pytest.raises(TypeError):
        hexmesh._interface_blocks((3, 4, 5))["x"] = None
