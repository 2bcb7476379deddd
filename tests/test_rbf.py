import sys

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st
from oracles import rbf_gram, rbf_solve
from scipy.sparse import issparse
from scipy.spatial.distance import cdist

from gclkit import experiments, motion, rbf
from gclkit.hexmesh import build_box_mesh
from gclkit.motion import MotionCase, evaluate_motion
from gclkit.rbf import build_system, interpolate, wendland_c0


def test_wendland_values():
    assert wendland_c0(0.0, 1.0) == 1.0
    assert wendland_c0(1.0, 1.0) == 0.0
    assert wendland_c0(3.7, 1.0) == 0.0
    assert wendland_c0(0.5, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert wendland_c0(1.0, 2.0) == pytest.approx(0.25, abs=1e-15)


def test_wendland_leaves_input_and_matches_truncated_form(rng):
    distance = rng.uniform(0.0, 3.0, size=(40, 30))
    before = distance.copy()
    kernel = wendland_c0(distance, 1.7)
    assert np.array_equal(distance, before)
    xi = before / 1.7
    expected = np.where(xi < 1.0, (1.0 - np.minimum(xi, 1.0)) ** 2, 0.0)
    assert np.array_equal(kernel, expected) and not np.signbit(kernel).any()


def test_wendland_rejects_bad_support():
    with pytest.raises(ValueError):
        wendland_c0(0.5, 0.0)
    with pytest.raises(ValueError):
        wendland_c0(0.5, -1.0)


def test_single_point_system(rng):
    grid = rng.uniform(size=(10, 3))
    point = np.array([[0.2, 0.3, 0.4]])
    system = build_system(point, grid, 1.0)
    np.testing.assert_array_equal(wendland_c0(cdist(point, point), 1.0), [[1.0]])
    np.testing.assert_array_equal(system.solve(np.array([2.5])), [2.5])


def test_distant_points_give_identity():
    pts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    system = build_system(pts, pts, 1.0)
    np.testing.assert_array_equal(wendland_c0(cdist(pts, pts), 1.0), np.eye(2))
    np.testing.assert_array_equal(system.solve(np.array([1.0, 2.0])), [1.0, 2.0])


def test_paper_setup_factorises(paper_mesh):
    boundary = paper_mesh.boundary_vertex_ids()
    points = paper_mesh.vertices[boundary]
    assert len(points) == 602
    system = build_system(points, paper_mesh.vertices, 2.0 * 3.2)
    m = wendland_c0(cdist(points, points), 2.0 * 3.2)
    assert np.array_equal(m, m.T)
    assert np.allclose(np.diag(m), 1.0)
    # factorisation succeeded at build time; interpolation reproduces the
    # prescribed boundary data at the boundary grid rows
    values = np.sin(points[:, 0]) + points[:, 1] ** 2
    recovered = interpolate(system, values)[boundary]
    assert np.abs(recovered - values).max() <= 1e-10 * np.abs(values).max()


@pytest.mark.parametrize("block", [None, 7])
def test_blocked_weights_equal_dense_kernel(rng, monkeypatch, block):
    # dyadic coordinates and radius, so some grid points sit exactly at d == R
    if block is not None:
        monkeypatch.setattr(rbf, "BLOCK_POINTS", block)
    radius = 0.5
    pts = rng.integers(0, 8, size=(40, 3)) / 8.0
    pts = np.unique(pts, axis=0)
    on_support = pts[:5] + np.array([radius, 0.0, 0.0])
    grid = np.vstack([pts, on_support, rng.uniform(0.0, 1.0, (60, 3))])
    system = build_system(pts, grid, radius)
    distance = cdist(grid, pts)
    dense = wendland_c0(distance, radius)
    assert (dense == 1.0).sum() >= len(pts)  # coincident grid and control points
    assert (distance == radius).any()
    blocked = np.zeros_like(dense)
    seen = np.zeros(dense.shape, dtype=int)
    blocks = 0
    for rows, i, j, w in system.near_weights():
        assert len(i) <= (distance[rows] <= radius).sum()
        blocked[rows][i, j] = w
        np.add.at(seen[rows], (i, j), 1)
        blocks += 1
    assert blocks == -(-len(grid) // rbf.BLOCK_POINTS)
    assert seen.max() == 1  # each near pair once
    assert np.array_equal(blocked, dense)


def test_sparse_gram_equals_dense_kernel(rng):
    # dyadic coordinates and radius, so some control pairs sit exactly at d == R
    radius = 0.5
    pts = np.unique(rng.integers(0, 8, size=(60, 3)) / 8.0, axis=0)
    distance = cdist(pts, pts)
    assert (distance == radius).any()
    gram = rbf_gram(pts, radius)
    assert issparse(gram) and gram.format == "csr"
    assert gram.nnz <= (distance <= radius).sum()
    assert np.array_equal(gram.toarray(), wendland_c0(distance, radius))


def _counting_blocks(monkeypatch):
    """Record the order of every symmetry block that ``build_system`` sets on
    the diagonal, and of every matrix that it factors."""
    blocks, factored = [], []
    block_diag, splu = scipy.sparse.block_diag, scipy.sparse.linalg.splu

    def counting_block_diag(mats, *args, **kwargs):
        blocks.extend(m.shape[0] for m in mats)
        return block_diag(mats, *args, **kwargs)

    def counting_splu(matrix, *args, **kwargs):
        factored.append(matrix.shape[0])
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse, "block_diag", counting_block_diag)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return blocks, factored


def _relative_change(coeff, reference):
    return np.abs(coeff - reference).max() / np.abs(reference).max()


@st.composite
def box_boundaries(draw):
    """A box mesh's boundary vertices, odd and even cell counts, and a radius."""
    counts = [draw(st.integers(1, 6)) for _ in range(3)]
    lengths = [draw(st.floats(0.5, 3.0)) for _ in range(3)]
    mesh = build_box_mesh(*counts, *lengths)
    radius = draw(st.floats(0.3, 1.5)) * max(lengths)
    return mesh.vertices[mesh.boundary_vertex_ids()], radius, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(box_boundaries())
def test_box_boundary_splits_into_eight_blocks(case):
    # points on the mid-planes (even counts) have non-trivial stabilisers
    points, radius, seed = case
    values = np.random.default_rng(seed).normal(size=(len(points), 2))
    with pytest.MonkeyPatch.context() as monkeypatch:
        blocks, factored = _counting_blocks(monkeypatch)
        system = build_system(points, points, radius)
    assert len(blocks) == 8 and sum(blocks) == len(points)
    assert factored == [len(points)]  # one factor of the block-diagonal matrix
    assert _relative_change(system.solve(values), rbf_solve(points, radius, values)) <= 1e-12


@pytest.mark.parametrize("cells, case_id", [(10, "case4"), (10, "case5"), (20, "case5")])
def test_case_modes_match_the_full_solve(cells, case_id):
    mesh = build_box_mesh(cells, cells, cells, 3.2, 2.8, 2.4)
    case = MotionCase.for_case(case_id)
    points = mesh.vertices[mesh.boundary_vertex_ids()]
    radius = case.resolved_support_radius(mesh)
    modes = motion._RBF_CASES[case_id][0](mesh, case, points)
    coeff = build_system(points, mesh.vertices, radius).solve(modes)
    assert _relative_change(coeff, rbf_solve(points, radius, modes)) <= 1e-13


def test_one_mirror_plane_gives_two_blocks(rng, monkeypatch):
    half = rng.uniform(size=(80, 3)) * [1.0, 1.0, 0.45]
    points = np.vstack([half, half * [1.0, 1.0, -1.0] + [0.0, 0.0, 1.0]])
    values = rng.normal(size=(160, 3))
    blocks, factored = _counting_blocks(monkeypatch)
    system = build_system(points, points, 0.6)
    assert blocks == [80, 80] and factored == [160]
    assert _relative_change(system.solve(values), rbf_solve(points, 0.6, values)) <= 1e-13
    # one point moved by 1e-9 of the box: no mirror matches any more
    points[0, 0] += 1e-9
    blocks.clear()
    system = build_system(points, points, 0.6)
    assert blocks == [160]
    assert _relative_change(system.solve(values), rbf_solve(points, 0.6, values)) <= 1e-13


def test_random_points_give_one_block(rng, monkeypatch):
    points = rng.uniform(size=(150, 3))
    values = rng.normal(size=150)
    blocks, factored = _counting_blocks(monkeypatch)
    system = build_system(points, points, 0.6)
    assert blocks == [150] and factored == [150]
    assert _relative_change(system.solve(values), rbf_solve(points, 0.6, values)) <= 1e-13


def test_sweep_builds_one_rbf_system(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_system(*args, **kwargs)

    monkeypatch.setattr(rbf, "build_system", counting)
    mesh = experiments.MeshConfig(4, 4, 4)
    rows = experiments.run_sweep(mesh, MotionCase.for_case("case5"), [1, 2, 3], ["avg"])
    assert len(rows) == 3 and len(calls) == 1


def test_shared_system_gives_same_rows_under_many_threads(monkeypatch):
    # the pool threads share one RbfSystem; more workers than cores and a
    # short switch interval make any write to it show up in the rows
    mesh, case = experiments.MeshConfig(4, 4, 4), MotionCase.for_case("case5")
    methods, n_range = ["avg", "trimap"], list(range(1, 9))
    monkeypatch.setenv("GCLKIT_THREADS", "1")
    expected = experiments.run_sweep(mesh, case, n_range, methods)
    monkeypatch.setenv("GCLKIT_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = experiments.run_sweep(mesh, case, n_range, methods)
    finally:
        sys.setswitchinterval(interval)
    assert rows == expected


def test_zero_values_interpolate_to_zero(rng):
    pts = rng.uniform(size=(20, 3))
    grid = rng.uniform(size=(50, 3))
    system = build_system(pts, grid, 0.9)
    out = interpolate(system, np.zeros(20))
    assert np.abs(out).max() == 0.0


def test_exactness_at_control_points(rng):
    pts = rng.uniform(size=(120, 3))
    grid = np.vstack([pts, rng.uniform(size=(80, 3))])
    system = build_system(pts, grid, 0.8)
    values = rng.normal(size=(120, 3))
    out = interpolate(system, values)
    err = np.abs(out[:120] - values).max()
    assert err <= 1e-10 * np.abs(values).max()


def test_constant_field_matches_dense_solve(rng):
    pts = rng.uniform(size=(40, 3))
    grid = rng.uniform(size=(25, 3))
    system = build_system(pts, grid, 2.0)
    c = 3.7
    out = interpolate(system, np.full(40, c))
    gram = wendland_c0(cdist(pts, pts), 2.0)
    kernel = wendland_c0(cdist(grid, pts), 2.0)
    dense = kernel @ np.linalg.solve(gram, np.full(40, c))
    np.testing.assert_allclose(out, dense, rtol=1e-10, atol=1e-12)
    row_sums = kernel @ np.linalg.solve(gram, np.ones(40))
    np.testing.assert_allclose(out, c * row_sums, rtol=1e-10)


def test_blocked_evaluation_matches_one_block(rng, monkeypatch):
    # only the summation order of each grid point's near pairs may change
    pts = rng.uniform(size=(60, 3))
    grid = rng.uniform(size=(50, 3))
    values = rng.normal(size=(60, 3))
    one_block = interpolate(build_system(pts, grid, 0.7), values)
    monkeypatch.setattr(rbf, "BLOCK_POINTS", 7)
    system = build_system(pts, grid, 0.7)
    assert len(list(system.near_weights())) == 8
    blocked = interpolate(system, values)
    assert blocked.shape == one_block.shape == (50, 3)
    assert np.abs(blocked - one_block).max() <= 1e-14 * np.abs(one_block).max()


def test_linearity(rng):
    pts = rng.uniform(size=(30, 3))
    grid = rng.uniform(size=(60, 3))
    system = build_system(pts, grid, 1.5)
    u, v = rng.normal(size=30), rng.normal(size=30)
    a, b = 1.7, -0.4
    combined = interpolate(system, a * u + b * v)
    separate = a * interpolate(system, u) + b * interpolate(system, v)
    scale = np.abs(separate).max()
    assert np.abs(combined - separate).max() <= 1e-13 * scale


def test_dimension_mismatch_rejected(rng):
    pts = rng.uniform(size=(10, 3))
    system = build_system(pts, pts, 1.0)
    with pytest.raises(ValueError):
        interpolate(system, np.zeros(11))


def test_duplicate_points_reported():
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"(1, 2)"):
        build_system(pts, pts, 1.0)


def test_singular_factor_is_value_error(monkeypatch):
    import scipy.sparse.linalg

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    with pytest.raises(ValueError, match="^singular RBF system$"):
        build_system(pts, pts, 1.0)


def test_case5_velocity_is_derivative_of_displacement(paper_mesh):
    # the interpolant is one linear operator, so interpolated velocities must
    # equal the time derivative of interpolated displacements; a fourth-order
    # stencil keeps the finite-difference floor below the 1e-10 target
    case = MotionCase.for_case("case5")
    t = np.array([0.31])
    h = 1e-4
    samples = {
        k: evaluate_motion(paper_mesh, case, t + k * h)[0] for k in (-2, -1, 1, 2)
    }
    fd = (-samples[2] + 8 * samples[1] - 8 * samples[-1] + samples[-2]) / (12 * h)
    _, vel = evaluate_motion(paper_mesh, case, t)
    scale = np.abs(vel).max()
    assert np.abs(fd - vel).max() <= 1e-10 * scale
