import sys

import numpy as np
import pytest
from scipy.sparse import issparse
from scipy.spatial.distance import cdist

from gclkit import experiments, rbf
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
    system = build_system(np.array([[0.2, 0.3, 0.4]]), grid, 1.0)
    np.testing.assert_array_equal(system.system_matrix.toarray(), [[1.0]])


def test_distant_points_give_identity():
    pts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    system = build_system(pts, pts, 1.0)
    np.testing.assert_array_equal(system.system_matrix.toarray(), np.eye(2))


def test_paper_setup_factorises(paper_mesh):
    boundary = paper_mesh.boundary_vertex_ids()
    points = paper_mesh.vertices[boundary]
    assert len(points) == 602
    system = build_system(points, paper_mesh.vertices, 2.0 * 3.2)
    m = system.system_matrix.toarray()
    assert np.array_equal(m, m.T)
    assert np.allclose(np.diag(m), 1.0)
    # factorisation succeeded at build time; interpolation reproduces the
    # prescribed boundary data at the boundary grid rows
    values = np.sin(points[:, 0]) + points[:, 1] ** 2
    recovered = interpolate(system, values)[boundary]
    assert np.abs(recovered - values).max() <= 1e-10 * np.abs(values).max()


def test_sparse_eval_matrix_equals_dense_kernel(rng):
    # dyadic coordinates and radius, so some grid points sit exactly at d == R
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
    assert issparse(system.eval_matrix) and system.eval_matrix.format == "csr"
    assert system.eval_matrix.nnz <= (distance <= radius).sum()
    assert np.array_equal(system.eval_matrix.toarray(), dense)


def test_sparse_gram_equals_dense_kernel(rng):
    # dyadic coordinates and radius, so some control pairs sit exactly at d == R
    radius = 0.5
    pts = np.unique(rng.integers(0, 8, size=(60, 3)) / 8.0, axis=0)
    system = build_system(pts, pts, radius)
    distance = cdist(pts, pts)
    assert (distance == radius).any()
    gram = system.system_matrix
    assert issparse(gram) and gram.format == "csr"
    assert gram.nnz <= (distance <= radius).sum()
    assert np.array_equal(gram.toarray(), wendland_c0(distance, radius))


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
    gram = system.system_matrix.toarray()
    dense = system.eval_matrix @ np.linalg.solve(gram, np.full(40, c))
    np.testing.assert_allclose(out, dense, rtol=1e-10, atol=1e-12)
    row_sums = system.eval_matrix @ np.linalg.solve(gram, np.ones(40))
    np.testing.assert_allclose(out, c * row_sums, rtol=1e-10)


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
