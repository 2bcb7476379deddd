import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st
from oracles import rbf_gram, rbf_interpolate, rbf_solve
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
    values = np.array([1.0, 2.0])
    # solve is Q B^-1 Q^T with Q = q [[1, 1], [1, -1]], q = fl(sqrt 0.5), and
    # B = fl(fl(sqrt 2) q) I: the identity, up to roundings of u = 2^-53
    bound = 10 * 2.0**-53 * np.abs(values).sum()  # 7.5 ulp(2)
    gap = np.abs(system.solve(values) - values).max()
    assert gap <= bound, (
        f"solve is {gap:.2e} from the identity, over {bound:.2e} = 10 u |v|_1: to first "
        "order, 9 roundings (the two square roots, B's product, Q^T v (2), the refined "
        "solve (2) and Q c (2)), each relative to |Q| |B^-1| |Q^T| |v| = |v|_1, and one "
        "more u for the higher orders"
    )


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
    with ThreadPoolExecutor(1) as pool:  # the grid half is the pool's one task
        blocks = _count_calls(monkeypatch, rbf, "wendland_c0", pooled=True)  # once per block
        system = build_system(pts, grid, radius, pool)
    distance = cdist(grid, pts)
    dense = wendland_c0(distance, radius)
    assert (dense == 1.0).sum() >= len(pts)  # coincident grid and control points
    assert (distance == radius).any()
    # with unit coefficients, column j of the interpolant is the sum of the
    # near-pair weights of control point j: a missed or repeated pair shows
    monkeypatch.setattr(system, "solve", lambda values: np.eye(len(pts)))
    assert np.array_equal(interpolate(system, np.zeros((len(pts), len(pts)))), dense)
    assert len(blocks) == -(-len(grid) // rbf.BLOCK_POINTS)


def _count_calls(monkeypatch, owner, name, pooled=False) -> list:
    """Patch ``owner.name`` to record the arguments of each call, on any
    thread, or with ``pooled`` of each call on a ``ThreadPoolExecutor``
    thread only; returns the record."""
    calls, wrapped = [], getattr(owner, name)

    def counted(*args, **kwargs):
        if not pooled or threading.current_thread().name.startswith("ThreadPoolExecutor-"):
            calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


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
    symmetry_basis, splu = rbf._symmetry_basis, scipy.sparse.linalg.splu

    def counting_symmetry_basis(group):
        basis, slices, *rest = symmetry_basis(group)
        blocks.extend(cols.stop - cols.start for cols in slices)
        return (basis, slices, *rest)

    def counting_splu(matrix, *args, **kwargs):
        factored.append(matrix.shape[0])
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(rbf, "_symmetry_basis", counting_symmetry_basis)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return blocks, factored


def _relative_change(coeff, reference):
    return np.abs(coeff - reference).max() / np.abs(reference).max()


@st.composite
def box_meshes(draw):
    """A box mesh, odd and even cell counts, a support radius and a seed."""
    counts = [draw(st.integers(1, 6)) for _ in range(3)]
    lengths = [draw(st.floats(0.5, 3.0)) for _ in range(3)]
    mesh = build_box_mesh(*counts, *lengths)
    radius = draw(st.floats(0.3, 1.5)) * max(lengths)
    return mesh, radius, draw(st.integers(0, 2**32 - 1))


@st.composite
def box_boundaries(draw):
    """A box mesh's boundary vertices, a support radius and a seed."""
    mesh, radius, seed = draw(box_meshes())
    return mesh.vertices[mesh.boundary_vertex_ids()], radius, seed


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
    modes = motion.CASES[case_id].spread(mesh, case, points)
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


def _evaluation_matches_oracle(points, grid, radius, values):
    """Interpolate, hold the result to the per-grid-point oracle with the
    same coefficients, and return the system."""
    system = build_system(points, grid, radius)
    expected = rbf_interpolate(points, grid, radius, system.solve(values))
    out = interpolate(system, values)
    assert out.shape == expected.shape
    assert _relative_change(out, expected) <= 1e-13
    return system


def _representatives(system):
    """The grid's orbit representatives: one row each in the held weights."""
    return sum(w.shape[0] for w in system._weights)


@settings(max_examples=40, deadline=None)
@given(box_meshes())
def test_box_grid_evaluated_at_orbit_representatives(case):
    # the box's vertices are symmetric under all eight mirrors of its boundary
    mesh, radius, seed = case
    points = mesh.vertices[mesh.boundary_vertex_ids()]
    values = np.random.default_rng(seed).normal(size=(len(points), 2))
    system = _evaluation_matches_oracle(points, mesh.vertices, radius, values)
    assert len(system._group) == 8
    assert _representatives(system) == np.prod([(n + 2) // 2 for n in (mesh.nx, mesh.ny, mesh.nz)])


def _box(cells=(5, 4, 3), lengths=(1.6, 1.4, 1.2)):
    mesh = build_box_mesh(*cells, *lengths)
    return mesh.vertices[mesh.boundary_vertex_ids()], mesh.vertices


def test_random_grid_falls_back_to_the_identity(rng):
    points, _ = _box()
    grid = rng.uniform(size=(300, 3)) * [1.6, 1.4, 1.2]
    system = _evaluation_matches_oracle(points, grid, 0.7, rng.normal(size=(len(points), 3)))
    assert len(system._group) == 1 and _representatives(system) == len(grid)


def test_grid_symmetric_under_some_mirrors_falls_back_to_the_identity(rng):
    # mirrored in z only: the grid takes the whole group or none of it
    points, _ = _box()
    half = rng.uniform(size=(150, 3)) * [1.6, 1.4, 0.6]
    grid = np.vstack([half, half * [1.0, 1.0, -1.0] + [0.0, 0.0, 1.2]])
    system = _evaluation_matches_oracle(points, grid, 0.7, rng.normal(size=len(points)))
    assert len(system._group) == 1 and _representatives(system) == len(grid)


@pytest.mark.parametrize("index", [0, -1])
def test_grid_point_moved_by_1e_9_falls_back_to_the_identity(rng, index):
    # a low-side and a high-side corner: either way a fold misses
    points, grid = _box()
    values = rng.normal(size=(len(points), 2))
    assert len(_evaluation_matches_oracle(points, grid, 0.7, values)._group) == 8
    grid = grid.copy()
    grid[index, 0] += 1e-9
    system = _evaluation_matches_oracle(points, grid, 0.7, values)
    assert len(system._group) == 1 and _representatives(system) == len(grid)


def test_control_points_without_mirrors_use_the_identity(rng):
    _, grid = _box()
    points = rng.uniform(size=(80, 3)) * [1.6, 1.4, 1.2]
    system = _evaluation_matches_oracle(points, grid, 0.7, rng.normal(size=80))
    assert len(system._group) == 1 and _representatives(system) == len(grid)


def test_paper_case5_box_forms_each_representatives_pairs_once():
    # 20^3: 1,331 of 9,261 grid points are representatives, and their pairs
    # are 197,509 of the 1,416,782 that every grid point's own would be
    mesh = build_box_mesh(20, 20, 20, 3.2, 2.8, 2.4)
    case = MotionCase.for_case("case5")
    points = mesh.vertices[mesh.boundary_vertex_ids()]
    modes = motion.CASES["case5"].spread(mesh, case, points)
    with pytest.MonkeyPatch.context() as patch, ThreadPoolExecutor(1) as pool:
        weighed = _count_calls(patch, rbf, "wendland_c0", pooled=True)
        system = build_system(points, mesh.vertices, case.resolved_support_radius(mesh), pool)
    assert _representatives(system) == 1331
    assert sum(len(args[0]) for args in weighed) == 197_509
    # the images are formed from the held weights, on every call
    with pytest.MonkeyPatch.context() as patch:
        weighed = _count_calls(patch, rbf, "wendland_c0")
        for _ in range(2):
            interpolate(system, modes)
    assert not weighed


@pytest.mark.parametrize("cells", [10, 20])
@pytest.mark.parametrize("case_id", ["case4", "case5"])
def test_fields_built_on_a_pool_equal_the_inline_ones(monkeypatch, cells, case_id):
    # 216 representatives on 10^3 are one grid block, 1,331 on 20^3 are two
    mesh = build_box_mesh(cells, cells, cells, 3.2, 2.8, 2.4)
    case = MotionCase.for_case(case_id)
    inline = motion.case_fields(mesh, case)
    with ThreadPoolExecutor(2) as pool:
        blocks = _count_calls(monkeypatch, rbf, "wendland_c0", pooled=True)
        pooled = motion.case_fields(mesh, case, pool)
    assert len(blocks) == {10: 1, 20: 2}[cells]
    assert np.array_equal(pooled, inline)


def test_sweep_builds_one_rbf_system(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_system(*args, **kwargs)

    monkeypatch.setattr(rbf, "build_system", counting)
    mesh = experiments.MeshConfig(4, 4, 4)
    rows = experiments.run_sweep(mesh, MotionCase.for_case("case5"), [1, 2, 3], ["avg"])
    assert len(rows) == 3 and len(calls) == 1
    # a closed-form case's fields are its vertices' own: no RBF system at all
    for case_id in ("case1", "case2", "case3", "rigid-translation", "rigid-rotation"):
        experiments.run_sweep(mesh, MotionCase.for_case(case_id), [1, 2], ["avg"])
    assert len(calls) == 1


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
    # random points form one symmetry block; a box's boundary, eight
    pts = rng.uniform(size=(120, 3))
    box = build_box_mesh(5, 4, 3, 3.2, 2.8, 2.4)
    boundary = box.boundary_vertex_ids()
    inputs = [  # (control points, grid, their rows in the grid, support radius)
        (pts, np.vstack([pts, rng.uniform(size=(80, 3))]), np.arange(120), 0.8),
        (box.vertices[boundary], box.vertices, boundary, 0.3 * 3.2),
    ]
    for points, grid, rows, support_radius in inputs:
        values = rng.normal(size=(len(points), 3))
        out = interpolate(build_system(points, grid, support_radius), values)
        err = np.abs(out[rows] - values).max()
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
    with ThreadPoolExecutor(1) as pool:  # the grid half is the pool's one task
        blocks = _count_calls(monkeypatch, rbf, "wendland_c0", pooled=True)  # once per block
        system = build_system(pts, grid, 0.7, pool)
    blocked = interpolate(system, values)
    assert len(blocks) == 8
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


def test_held_weights_own_their_arrays(monkeypatch):
    # each block's indices are copies, not views that keep the near-pair
    # search's (i, j, distance) arrays and their dead distances alive
    mesh = build_box_mesh(6, 6, 6, 3.2, 2.8, 2.4)
    monkeypatch.setattr(rbf, "BLOCK_POINTS", 7)
    system = build_system(mesh.vertices[mesh.boundary_vertex_ids()], mesh.vertices, 0.96)
    held = [a for weights in system._weights for a in (weights.data, *weights.coords)]
    assert len(system._weights) > 1 and all(a.base is None for a in held)
    assert sum(a.nbytes for a in held) == 24 * sum(w.nnz for w in system._weights)


@pytest.mark.parametrize("radius", [1e3, 1e6, 1e9, 1e12, 1e15])
def test_support_radius_is_refused_once_the_system_misses_its_values(radius):
    # 3^3's boundary points lie 0.8 apart or more, so none is a duplicate at
    # any radius; the miss grows about as R: 5.6e-16 at R = 0.96, 4.1e-10 at
    # 1e6, 8.9e-7 at 1e9, 4.0e-4 at 1e12 and 1.9 at 1e15
    mesh = build_box_mesh(3, 3, 3, 3.2, 2.8, 2.4)
    points = mesh.vertices[mesh.boundary_vertex_ids()]
    if radius <= 1e6:
        build_system(points, mesh.vertices, radius)
        return
    with pytest.raises(ValueError, match=re.escape(f"support radius {radius:g} is too large: ")):
        build_system(points, mesh.vertices, radius)


def test_duplicate_points_reported():
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"(1, 2)"):
        build_system(pts, pts, 1.0)


def test_many_duplicate_points_reported_by_count_and_first_ten():
    pts = np.repeat(np.arange(4.0)[:, None] * [1.0, 0.0, 0.0], 3, axis=0)  # 4 x 3 pairs
    with pytest.raises(ValueError) as info:
        build_system(pts, pts, 1.0)
    first_ten = "(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (6, 8), (7, 8), (9, 10)"
    assert str(info.value) == (
        f"singular RBF system: duplicated control points at index pairs [{first_ten}, ...] "
        "(12 in all)"
    )


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


@st.composite
def near_pair_inputs(draw):
    """Point sets with duplicates and dyadic coordinates (so some pairs sit at
    exactly d = r), empty and one-point sets, and radii from 1e-12 of the
    extent to past it."""
    sizes = [draw(st.integers(0, 40)) for _ in range(2)]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a, b = (rng.integers(0, 8, size=(n, 3)) / 8.0 for n in sizes)
    if len(a) and len(b) and draw(st.booleans()):
        a[: len(a) // 2] = b[rng.integers(0, len(b), len(a) // 2)]  # duplicates
    radius = draw(st.sampled_from([0.0, 1e-12, 0.125, 0.25, 0.5, 1.0, 2.0, 10.0]))
    return a, b, radius


@settings(max_examples=200, deadline=None)
@given(near_pair_inputs(), st.sampled_from([rbf._CANDIDATES, 1, 8]))
def test_near_pairs_match_every_pair_of_the_dense_distances(case, candidates):
    # a few candidates per chunk put the chunk cuts inside and between queries
    a, b, radius = case
    held, rbf._CANDIDATES = rbf._CANDIDATES, candidates
    try:
        i, j, distance = rbf._near_pairs(a, b, radius)
    finally:
        rbf._CANDIDATES = held
    dense = cdist(a, b) if len(a) and len(b) else np.zeros((len(a), len(b)))
    want_i, want_j = np.nonzero(dense <= radius)  # row-major: (i, j) order
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    assert np.array_equal(distance, dense[want_i, want_j])


@pytest.mark.parametrize("case_id", ["case4", "case5"])
def test_rbf_case_loads_no_scipy_spatial(tmp_path, case_id):
    import subprocess
    from pathlib import Path

    code = (
        "import sys; from gclkit.cli import main; "
        f"main(['run', '--case', '{case_id[-1]}', '--mesh', '3,3,3', '--n', '1..1', "
        f"'--out', {str(tmp_path / 'r.csv')!r}]); "
        "print('scipy.sparse' in sys.modules, 'scipy.spatial' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert done.stdout.split() == ["True", "False"], done.stderr
