import pickle
import tracemalloc

import numpy as np
import pytest

from gclkit import rbf
from gclkit.gcl import cell_volumes
from gclkit.hexmesh import build_box_mesh, detect_degenerate, hex_volume
from gclkit.motion import (
    CASE_IDS,
    DegenerateMeshError,
    MotionCase,
    build_rbf_system,
    evaluate_motion,
    raise_if_degenerate,
    sample_motion,
)
from oracles import analytic_increment_case3, analytic_increment_rate_case3

ALL_CASES = list(CASE_IDS)


def test_case3_quarter_period(paper_mesh):
    case = MotionCase.for_case("case3")
    pos, vel = evaluate_motion(paper_mesh, case, np.array([0.25]))
    interior = paper_mesh.interior_vertex_ids()
    v = interior[0]
    x0 = paper_mesh.vertices[v]
    np.testing.assert_allclose(
        pos[0, v], x0 + [case.radius, case.radius, 0.0], rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(
        vel[0, v], [2 * np.pi * case.radius, 0.0, 0.0], rtol=0, atol=1e-12
    )
    # boundary points do not move
    boundary = paper_mesh.boundary_vertex_ids()
    np.testing.assert_array_equal(pos[0, boundary], paper_mesh.vertices[boundary])
    assert np.abs(vel[0, boundary]).max() == 0.0


def test_rigid_translation_uniform_velocity_constant_volumes(small_mesh):
    case = MotionCase.for_case("rigid-translation")
    traj = sample_motion(small_mesh, case, 2)
    spread = traj.velocities.max(axis=1) - traj.velocities.min(axis=1)
    assert np.abs(spread).max() == 0.0
    vols = cell_volumes(small_mesh, traj)
    ref = hex_volume(small_mesh.cell_corners())
    assert np.abs(vols - ref[:, None]).max() <= 1e-14


def test_case1_initial_velocity(paper_mesh):
    case = MotionCase.for_case("case1")
    pos, vel = evaluate_motion(paper_mesh, case, np.array([0.0]))
    np.testing.assert_array_equal(pos[0], paper_mesh.vertices)
    x0, y0, z0 = paper_mesh.vertices.T
    shape = (
        np.sin(np.pi * x0 / paper_mesh.lx)
        * np.sin(np.pi * y0 / paper_mesh.ly)
        * np.sin(np.pi * z0 / paper_mesh.lz)
    )
    expected = 2 * np.pi * case.amplitude[0] * shape
    np.testing.assert_allclose(vel[0, :, 0], expected, atol=1e-13)


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_periodic_closure_exact(small_mesh, case_id):
    traj = sample_motion(small_mesh, MotionCase.for_case(case_id), 2)
    assert np.array_equal(traj.positions[-1], traj.positions[0])
    assert np.array_equal(traj.velocities[-1], traj.velocities[0])


@pytest.mark.parametrize("case_id", ["case1", "case2", "case3", "case4"])
def test_starts_from_undeformed_mesh(small_mesh, case_id):
    traj = sample_motion(small_mesh, MotionCase.for_case(case_id), 1)
    np.testing.assert_array_equal(traj.positions[0], small_mesh.vertices)


def test_case5_starts_rotated(small_mesh):
    # the pitching angle is alpha0*cos(2*pi*t), so t = 0 is a deflected state;
    # increments are measured relative to it and all pipelines only need
    # periodicity, not an undeformed start
    traj = sample_motion(small_mesh, MotionCase.for_case("case5"), 1)
    assert np.abs(traj.positions[0] - small_mesh.vertices).max() > 1e-4


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_velocity_consistent_with_positions(small_mesh, case_id):
    case = MotionCase.for_case(case_id)
    h = 1e-6 * case.period
    t = np.array([0.37 * case.period])
    plus, _ = evaluate_motion(small_mesh, case, t + h)
    minus, _ = evaluate_motion(small_mesh, case, t - h)
    _, vel = evaluate_motion(small_mesh, case, t)
    fd = (plus - minus) / (2 * h)
    scale = max(np.abs(vel).max(), 1.0)
    assert np.abs(fd - vel).max() <= 1e-6 * scale


def test_sampling_grid(small_mesh):
    traj = sample_motion(small_mesh, MotionCase.for_case("case1"), 3)
    assert traj.nts == 7
    np.testing.assert_allclose(traj.times[:-1], np.arange(7) / 7.0, atol=1e-15)
    assert traj.times[-1] == 1.0
    assert traj.positions.shape == (8, small_mesh.n_vertices, 3)


def test_unknown_case_rejected(small_mesh):
    with pytest.raises(ValueError):
        MotionCase.for_case("case9")
    bad = MotionCase(case_id="case9")
    with pytest.raises(ValueError):
        evaluate_motion(small_mesh, bad, np.array([0.0]))


def test_degenerate_amplitude_aborts(paper_mesh):
    case = MotionCase.for_case("case3", radius=0.9)
    with pytest.raises(DegenerateMeshError) as excinfo:
        sample_motion(paper_mesh, case, 2)
    assert len(excinfo.value.cell_ids) > 0


def test_case4_seed_reproducibility(small_mesh):
    a = sample_motion(small_mesh, MotionCase.for_case("case4", seed=42), 2)
    b = sample_motion(small_mesh, MotionCase.for_case("case4", seed=42), 2)
    c = sample_motion(small_mesh, MotionCase.for_case("case4", seed=43), 2)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)
    assert a.metadata["seed"] == 42


def test_analytic_increment_case3_values():
    r, y30, depth = 0.05, 0.28, 0.24
    assert analytic_increment_case3(r, y30, depth, 0.0) == 0.0
    assert analytic_increment_case3(r, y30, depth, 1.0) == pytest.approx(
        depth * np.pi * r * r, rel=1e-13
    )
    assert analytic_increment_case3(r, 0.0, depth, 0.5) == pytest.approx(
        depth * 0.5 * r * r * np.pi, rel=1e-13
    )


def test_analytic_increment_rate_identity():
    r, y30, depth = 0.05, 0.13, 0.24
    h = 1e-6
    for t in (0.1, 0.37, 0.8):
        fd = (
            analytic_increment_case3(r, y30, depth, t + h)
            - analytic_increment_case3(r, y30, depth, t - h)
        ) / (2 * h)
        rate = analytic_increment_rate_case3(r, y30, depth, t)
        assert abs(fd - rate) <= 1e-12


def _first_degenerate_instant(mesh, trajectory):
    """Reference gate: one detect_degenerate call per sampled instant."""
    for t, positions in zip(trajectory.times, trajectory.positions):
        bad = detect_degenerate(mesh, positions)
        if len(bad):
            return t, bad
    return None


def test_batched_gate_names_first_bad_instant():
    # case 4 inverts a cell of the 20^3 mesh at several instants
    mesh = build_box_mesh(20, 20, 20, 3.2, 2.8, 2.4)
    case = MotionCase.for_case("case4")
    unchecked = sample_motion(mesh, case, 10, check_degeneracy=False)
    expected = _first_degenerate_instant(mesh, unchecked)
    assert expected is not None
    with pytest.raises(DegenerateMeshError) as info:
        sample_motion(mesh, case, 10)
    assert info.value.instant == expected[0]
    assert info.value.cell_ids.tolist() == expected[1].tolist()


@pytest.mark.parametrize("case_id", ["case1", "case2", "case3", "case4", "case5"])
def test_batched_gate_passes_clean_cases(paper_mesh, case_id):
    trajectory = sample_motion(paper_mesh, MotionCase.for_case(case_id), 10)
    assert _first_degenerate_instant(paper_mesh, trajectory) is None


# -- reference: the per-instant RBF path that the spread modes replaced -------
#
# Cases 4 and 5 used to prescribe the boundary displacement and velocity at
# every instant and interpolate each into the volume.  The formulas below are
# that path, kept verbatim, as the reference for the modes spread once.


def _reference_case4_boundary(points, case, t):
    rng = np.random.default_rng(case.seed)
    amp = rng.uniform(-case.rbf_amplitude, case.rbf_amplitude, (len(points), 3))
    x0, y0, z0 = points.T
    spatial = np.stack(
        [
            amp[:, 0] * np.sin(2.0 * np.pi * y0) * np.sin(2.0 * np.pi * z0),
            amp[:, 1] * np.sin(2.0 * np.pi * x0) * np.sin(2.0 * np.pi * z0),
            amp[:, 2] * np.sin(2.0 * np.pi * y0) * np.sin(2.0 * np.pi * z0),
        ],
        axis=-1,
    )
    theta = 2.0 * np.pi * t / case.period
    disp = np.sin(theta)[:, None, None] * spatial
    vel = (2.0 * np.pi / case.period) * np.cos(theta)[:, None, None] * spatial
    return disp, vel


def _reference_case5_boundary(points, case, t, lx):
    theta = 2.0 * np.pi * t / case.period
    alpha = case.alpha0 * np.cos(theta)[:, None]
    alpha_dot = -case.alpha0 * (2.0 * np.pi / case.period) * np.sin(theta)[:, None]
    xp = case.pivot_fraction * lx
    dx = points[:, 0] - xp
    y0 = points[:, 1]
    ca, sa = np.cos(alpha), np.sin(alpha)
    sx = dx * (ca - 1.0) + y0 * sa
    sy = -dx * sa + y0 * (ca - 1.0)
    vx = alpha_dot * (-dx * sa + y0 * ca)
    vy = alpha_dot * (-dx * ca - y0 * sa)
    zeros = np.zeros_like(sx)
    return np.stack([sx, sy, zeros], axis=-1), np.stack([vx, vy, zeros], axis=-1)


def _reference_boundary(mesh, case, t):
    points = mesh.vertices[mesh.boundary_vertex_ids()]
    if case.case_id == "case4":
        return _reference_case4_boundary(points, case, t)
    return _reference_case5_boundary(points, case, t, mesh.lx)


def _reference_rbf_motion(mesh, case, t):
    """Positions and velocities from one interpolation per instant and axis."""
    points = mesh.vertices[mesh.boundary_vertex_ids()]
    system = rbf.build_system(points, mesh.vertices, case.resolved_support_radius(mesh))
    disp_r, vel_r = _reference_boundary(mesh, case, t)
    nt = len(t)

    def spread(values_r):
        stacked = values_r.transpose(1, 0, 2).reshape(len(points), nt * 3)
        out = rbf.interpolate(system, stacked)
        return out.reshape(mesh.n_vertices, nt, 3).transpose(1, 0, 2)

    return mesh.vertices + spread(disp_r), spread(vel_r)


@pytest.mark.parametrize("n", [2, 10])
@pytest.mark.parametrize("case_id", ["case4", "case5"])
def test_spread_modes_match_per_instant_interpolation(paper_mesh, case_id, n):
    case = MotionCase.for_case(case_id)
    traj = sample_motion(paper_mesh, case, n)
    pos, vel = _reference_rbf_motion(paper_mesh, case, traj.times[:-1])
    scale = np.abs(pos - paper_mesh.vertices).max()
    assert np.abs(traj.positions[:-1] - pos).max() <= 1e-13 * scale
    assert np.abs(traj.velocities[:-1] - vel).max() <= 1e-13 * scale


@pytest.mark.parametrize("case_id", ["case4", "case5"])
def test_boundary_vertices_follow_prescribed_law(paper_mesh, case_id):
    case = MotionCase.for_case(case_id)
    traj = sample_motion(paper_mesh, case, 10)
    disp_r, vel_r = _reference_boundary(paper_mesh, case, traj.times[:-1])
    boundary = paper_mesh.boundary_vertex_ids()
    moved = traj.positions[:-1, boundary] - paper_mesh.vertices[boundary]
    assert np.abs(moved - disp_r).max() <= 1e-12
    assert np.abs(traj.velocities[:-1, boundary] - vel_r).max() <= 1e-12


def test_rbf_spread_keeps_only_the_grid_fields():
    # a 20^3 RBF system holds its eight symmetry blocks, their one SuperLU factor
    # (outside numpy, unseen here) and one grid block's near pairs at a time; only
    # the (n_vertices, 2) case-5 fields outlive it.  A first spread on a tiny
    # mesh imports scipy, whose modules would otherwise count as kept.
    mesh = build_box_mesh(20, 20, 20, 3.2, 2.8, 2.4)
    case = MotionCase.for_case("case5")
    build_rbf_system(build_box_mesh(2, 2, 2, 3.2, 2.8, 2.4), case)
    tracemalloc.start()
    try:
        fields = build_rbf_system(mesh, case)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fields.shape == (mesh.n_vertices, 2)
    assert kept <= 1e6, f"{kept / 1e6:.2f} MB kept after the spread"
    assert peak <= 90e6, f"allocation peak {peak / 1e6:.1f} MB"


def test_degenerate_mesh_error_pickles():
    for err in (
        DegenerateMeshError(0.25, np.array([3, 17])),
        DegenerateMeshError(0.25, np.array([3, 17]), "non-finite velocities in"),
    ):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is DegenerateMeshError and str(back) == str(err)
        assert back.instant == 0.25 and back.cell_ids.tolist() == [3, 17]
    # the message shows ten ids; the attribute and the pickle keep them all
    err = DegenerateMeshError(0.5, np.arange(1000))
    assert str(err) == (
        "degenerate cells [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...] (1000 in all) at t = 0.5"
    )
    back = pickle.loads(pickle.dumps(err))
    assert str(back) == str(err) and back.cell_ids.tolist() == list(range(1000))


def test_gate_rejects_non_finite_velocities():
    # the positions stay valid while the velocities overflow
    mesh = build_box_mesh(2, 2, 2, 3.2, 2.8, 2.4)
    case = MotionCase.for_case("rigid-rotation", alpha0=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        trajectory = sample_motion(mesh, case, 1, check_degeneracy=False)
    assert np.isfinite(trajectory.positions).all()
    assert not np.isfinite(trajectory.velocities).all()
    with pytest.raises(DegenerateMeshError) as info:
        raise_if_degenerate(mesh, trajectory)
    assert info.value.instant == 0.0 and info.value.cell_ids.tolist() == list(range(8))
    assert str(info.value).startswith("non-finite velocities in cells")
