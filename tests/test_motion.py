import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from gclkit import rbf
from gclkit.hexmesh import build_box_mesh, detect_degenerate
from gclkit.motion import (
    CASE_IDS,
    CASES,
    DegenerateMeshError,
    MotionCase,
    case_fields,
    evaluate_motion,
    sample_motion,
)
from oracles import (
    analytic_increment_case3,
    analytic_increment_rate_case3,
    cell_corners,
    hex_volume,
    interior_vertex_ids,
    law_motion,
    warped_box_mesh,
)

ALL_CASES = list(CASE_IDS)


def test_case3_quarter_period(paper_mesh):
    case = MotionCase.for_case("case3")
    pos, vel = evaluate_motion(paper_mesh, case, np.array([0.25]))
    interior = interior_vertex_ids(paper_mesh)
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
    vols = traj.volumes
    ref = hex_volume(cell_corners(small_mesh))
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


@pytest.mark.parametrize("case_id", [c for c in ALL_CASES if c != "case5"])
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


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_shared_fields_give_the_same_trajectory(small_mesh, case_id):
    # a sweep builds the fields once and hands them to every N's sample
    case = MotionCase.for_case(case_id)
    fields = case_fields(small_mesh, case)
    assert len(fields) == len(small_mesh.vertices)
    with pytest.raises(ValueError, match="read-only"):
        fields[0] = 0.0
    for n in (1, 3):
        shared = sample_motion(small_mesh, case, n, fields)
        built = sample_motion(small_mesh, case, n)
        for name in ("positions", "velocities", "volumes"):
            a, b = getattr(shared, name), getattr(built, name)
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), name


def test_sampling_grid(small_mesh):
    traj = sample_motion(small_mesh, MotionCase.for_case("case1"), 3)
    np.testing.assert_allclose(traj.times, np.arange(7) / 7.0, atol=1e-15)
    assert traj.times.shape == (7,)
    assert traj.positions.shape == (7, len(small_mesh.vertices), 3)


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_case_row_holds_every_parameter_its_law_reads(case_id):
    # the row's defaults are the only ones: every parameter outside it stays
    # None, and a law that read one would fail on None
    case = MotionCase.for_case(case_id)
    params = CASES[case_id].params
    for f in dataclasses.fields(case):
        if f.name not in ("case_id", "period"):
            assert getattr(case, f.name) == params.get(f.name), f.name
    # an RBF case reads the support radius, None until resolved against the mesh
    assert ("support_radius" in params) == (CASES[case_id].spread is not None)
    sample_motion(build_box_mesh(2, 2, 2, 3.2, 2.8, 2.4), case, 1)


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_case_rejects_parameters_outside_its_row(case_id):
    params = CASES[case_id].params
    outside = [f.name for f in dataclasses.fields(MotionCase) if f.name not in params]
    assert outside[:2] == ["case_id", "period"]
    for name in outside[2:]:
        with pytest.raises(ValueError) as excinfo:
            MotionCase.for_case(case_id, **{name: 0.3})
        message = str(excinfo.value)
        assert case_id in message and name in message
        assert message.endswith(f"it takes period, {', '.join(params)}"), message
        # a None override is no override: callers pass every setting they hold
        assert MotionCase.for_case(case_id, **{name: None}) == MotionCase.for_case(case_id)


@pytest.mark.parametrize(
    "case_id, name, value",
    [
        ("case4", "seed", -1),
        ("case4", "seed", 1.5),
        ("case1", "amplitude", (0.1, 0.1)),
        ("case4", "rbf_amplitude", (0.01, 0.02, 0.03)),
        ("case2", "alpha0", [0.05]),
        # a boolean is not a number here, as in a config file
        ("case4", "seed", True),
        ("case2", "alpha0", True),
        ("case1", "period", "x"),
    ],
)
def test_for_case_refuses_a_parameter_not_in_the_form_of_its_default(case_id, name, value):
    with pytest.raises(ValueError) as excinfo:
        MotionCase.for_case(case_id, **{name: value})
    assert str(excinfo.value).startswith(f"{name} must be "), excinfo.value


def test_a_vector_parameter_takes_one_number_or_three():
    one = MotionCase.for_case("case1", amplitude=0.2)
    assert one.amplitude == (0.2, 0.2, 0.2)
    assert MotionCase.for_case("case1", amplitude=[0.2]) == one
    assert MotionCase.for_case("case1", amplitude=np.full(3, 0.2)) == one


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_every_case_takes_a_period(small_mesh, case_id):
    case = MotionCase.for_case(case_id, period=2.0)
    assert case == dataclasses.replace(MotionCase.for_case(case_id), period=2.0)
    assert case.metadata(small_mesh)["period"] == 2.0
    # twice the period: the same path at twice the times, at half the speed;
    # every scaling by 2 is exact, so the bits are too
    slow = sample_motion(small_mesh, case, 2)
    fast = sample_motion(small_mesh, MotionCase.for_case(case_id), 2)
    assert np.array_equal(slow.times, 2.0 * fast.times)
    assert np.array_equal(slow.positions, fast.positions)
    assert np.array_equal(slow.velocities, 0.5 * fast.velocities)
    assert np.array_equal(slow.volumes, fast.volumes)


@pytest.mark.parametrize(
    "n_harmonics, period, bad",
    [
        (2, 0.0, "period must be positive and finite, got 0.0"),
        (2, -1.0, "period must be positive and finite, got -1.0"),
        (2, float("inf"), "period must be positive and finite, got inf"),
        (2, float("nan"), "period must be positive and finite, got nan"),
        (2.5, 1.0, "n_harmonics must be an integer >= 1, got 2.5"),
        (0, 1.0, "n_harmonics must be an integer >= 1, got 0"),
    ],
)
def test_sample_motion_rejects_impossible_sampling(small_mesh, n_harmonics, period, bad):
    # a hand-built case skips for_case; sample_motion checks what it samples
    case = dataclasses.replace(MotionCase.for_case("case1"), period=period)
    with pytest.raises(ValueError) as excinfo:
        sample_motion(small_mesh, case, n_harmonics)
    assert str(excinfo.value) == bad


IMPOSSIBLE_PERIODS = [0.0, -1.0, float("inf"), float("nan")]


@pytest.mark.parametrize("period", IMPOSSIBLE_PERIODS)
def test_for_case_rejects_an_impossible_period(period):
    with pytest.raises(ValueError) as excinfo:
        MotionCase.for_case("case1", period=period)
    assert str(excinfo.value) == f"period must be positive and finite, got {period}"


@pytest.mark.parametrize("period", IMPOSSIBLE_PERIODS)
def test_evaluate_motion_rejects_an_impossible_period(small_mesh, period):
    # a hand-built case skips for_case: the error comes before any law's 2 pi / T,
    # with no numpy warning ahead of it
    case = dataclasses.replace(MotionCase.for_case("case1"), period=period)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            evaluate_motion(small_mesh, case, np.array([0.1]))
    assert str(excinfo.value) == f"period must be positive and finite, got {period}"


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
    assert a.case.metadata(small_mesh)["seed"] == 42


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


# -- reference: the four hand-written laws that the one law replaced ----------

STRAIGHT_LINES = ("case1", "case4", "rigid-translation")
LAW_MESHES = {
    "box": build_box_mesh(6, 6, 6, 3.2, 2.8, 2.4),
    "warped": warped_box_mesh((6, 6, 6), 0.25, seed=3),
}


@pytest.mark.parametrize("mesh_name", LAW_MESHES)
@pytest.mark.parametrize("case_id", ALL_CASES)
def test_one_law_matches_the_hand_written_laws(case_id, mesh_name):
    mesh, case = LAW_MESHES[mesh_name], MotionCase.for_case(case_id)
    fields = case_fields(mesh, case)
    f1_max, f2_max = np.abs(fields).max(axis=(0, 2))
    eps = np.finfo(float).eps
    for n in range(1, 5):
        times = _spectral_instants(case, n)
        pos, vel = evaluate_motion(mesh, case, times, fields)
        ref_pos, ref_vel = law_motion(mesh, case, times)
        if case_id in STRAIGHT_LINES:
            # f1 = 0 and a = 2 pi t / T: x + (cos a - 1) 0 + sin a f2 and
            # (a' cos a) f2 - (a' sin a) 0 round as the shift's x + sin a f2
            # and (a' cos a) f2 did.  Only a zero velocity's sign may differ:
            # -0 - (-0) is +0 where cos a and sin a are both negative
            assert np.array_equal(pos, ref_pos)
            assert np.array_equal(np.signbit(pos), np.signbit(ref_pos))
            assert np.array_equal(vel, ref_vel)
            continue
        # both routes form the same polynomial in cos a and sin a, which
        # they share, with at most four roundings each, each at most half an
        # ulp of a term below the scale: x + 2 |f1| + |f2| for the positions
        # (|cos a - 1| <= 2), |a'| (|f1| + |f2|) for the velocities
        _, rate = CASES[case_id].angle(case, 2.0 * np.pi * times / case.period)
        pos_scale = np.abs(mesh.vertices).max() + 2.0 * f1_max + f2_max
        vel_scale = np.abs(rate).max() * (f1_max + f2_max)
        assert np.abs(pos - ref_pos).max() <= 4.0 * eps * pos_scale, n
        assert np.abs(vel - ref_vel).max() <= 4.0 * eps * vel_scale, n


def _first_degenerate_instant(mesh, times, positions):
    """Reference gate: one detect_degenerate call per sampled instant."""
    for t, instant in zip(times, positions):
        bad = detect_degenerate(mesh, instant)
        if len(bad):
            return t, bad
    return None


def _spectral_instants(case, n_harmonics):
    """The 2N+1 instants that sample_motion samples and gates."""
    nts = 2 * n_harmonics + 1
    return np.arange(nts) * case.period / nts


def test_batched_gate_names_first_bad_instant():
    # case 4 inverts a cell of the 20^3 mesh at several instants
    mesh = build_box_mesh(20, 20, 20, 3.2, 2.8, 2.4)
    case = MotionCase.for_case("case4")
    fields = case_fields(mesh, case)
    times = _spectral_instants(case, 10)
    positions, _ = evaluate_motion(mesh, case, times, fields)
    expected = _first_degenerate_instant(mesh, times, positions)
    assert expected is not None
    with pytest.raises(DegenerateMeshError) as info:
        sample_motion(mesh, case, 10, fields)
    assert info.value.instant == expected[0]
    assert info.value.cell_ids.tolist() == expected[1].tolist()


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_batched_gate_passes_clean_cases(paper_mesh, case_id):
    trajectory = sample_motion(paper_mesh, MotionCase.for_case(case_id), 10)
    assert _first_degenerate_instant(paper_mesh, trajectory.times, trajectory.positions) is None


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
        return out.reshape(len(mesh.vertices), nt, 3).transpose(1, 0, 2)

    return mesh.vertices + spread(disp_r), spread(vel_r)


@pytest.mark.parametrize("n", [2, 10])
@pytest.mark.parametrize("case_id", ["case4", "case5"])
def test_spread_modes_match_per_instant_interpolation(paper_mesh, case_id, n):
    case = MotionCase.for_case(case_id)
    traj = sample_motion(paper_mesh, case, n)
    pos, vel = _reference_rbf_motion(paper_mesh, case, traj.times)
    scale = np.abs(pos - paper_mesh.vertices).max()
    assert np.abs(traj.positions - pos).max() <= 1e-13 * scale
    assert np.abs(traj.velocities - vel).max() <= 1e-13 * scale


@pytest.mark.parametrize("case_id", ["case4", "case5"])
def test_boundary_vertices_follow_prescribed_law(paper_mesh, case_id):
    case = MotionCase.for_case(case_id)
    traj = sample_motion(paper_mesh, case, 10)
    disp_r, vel_r = _reference_boundary(paper_mesh, case, traj.times)
    boundary = paper_mesh.boundary_vertex_ids()
    moved = traj.positions[:, boundary] - paper_mesh.vertices[boundary]
    assert np.abs(moved - disp_r).max() <= 1e-12
    assert np.abs(traj.velocities[:, boundary] - vel_r).max() <= 1e-12


def test_rbf_spread_keeps_only_the_grid_fields():
    # a 20^3 RBF system holds its eight symmetry blocks, their one SuperLU factor
    # (outside numpy, unseen here) and one block of grid representatives' near
    # pairs at a time; only the (n_vertices, 2, 3) case-5 fields outlive it.  A
    # first spread on a tiny mesh imports scipy, whose modules would otherwise
    # count as kept.
    mesh = build_box_mesh(20, 20, 20, 3.2, 2.8, 2.4)
    case = MotionCase.for_case("case5")
    case_fields(build_box_mesh(2, 2, 2, 3.2, 2.8, 2.4), case)
    tracemalloc.start()
    try:
        fields = case_fields(mesh, case)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fields.shape == (len(mesh.vertices), 2, 3)
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
        positions, velocities = evaluate_motion(mesh, case, _spectral_instants(case, 1))
    assert np.isfinite(positions).all()
    assert not np.isfinite(velocities).all()
    # the gate reports the overflow; numpy does not warn about it on the way
    with warnings.catch_warnings(), pytest.raises(DegenerateMeshError) as info:
        warnings.simplefilter("error")
        sample_motion(mesh, case, 1)
    assert info.value.instant == 0.0 and info.value.cell_ids.tolist() == list(range(8))
    assert str(info.value).startswith("non-finite velocities in cells")
