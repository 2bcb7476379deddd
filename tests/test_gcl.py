import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gclkit import gcl, metrics
from gclkit.experiments import evaluate_point, prepare_point
from gclkit.gcl import (
    aevi_increments,
    extract_linear_and_periodic,
    ifmv_avg,
    ifmv_nlfd,
    ifmv_ts,
    lvi_increments,
    sweep_volume,
    sweep_volume_by_direction,
    trimap_field,
)
from gclkit.hexmesh import FACE_LOOPS, REF_CORNERS, build_box_mesh
from gclkit.motion import CASE_IDS, MotionCase, sample_motion
from gclkit.spectral import SpectralOperator
from oracles import (
    analytic_increment_case3,
    cell_face_slots,
    dft_ifmv,
    dvoldt_trimap,
    fourier_defect,
    hex_volume,
    quad_flux,
    quad_flux_by_direction,
    quad_flux_oracle,
    random_hexahedra,
    six_face_dvoldt,
    warped_box_mesh,
)


def case3_face_trajectory(times, radius=0.05, y30=0.28, depth=0.24):
    """The benchmark quad: fixed bottom edge, top edge circling (case 3)."""
    t = np.atleast_1d(times)
    dx = radius * (1 - np.cos(2 * np.pi * t))
    dy = radius * np.sin(2 * np.pi * t)
    zeros = np.zeros_like(t)
    a = np.stack([zeros, zeros, zeros], -1)
    b = np.stack([dx, y30 + dy, zeros], -1)
    c = np.stack([dx, y30 + dy, np.full_like(t, depth)], -1)
    d = np.stack([zeros, zeros, np.full_like(t, depth)], -1)
    return np.stack([a, b, c, d], axis=-2)


# -- face flux primitives -------------------------------------------------


def test_quad_flux_matches_quadrature(rng):
    quads = rng.normal(size=(500, 4, 3))
    vels = rng.normal(size=(500, 4, 3))
    exact = quad_flux_oracle(quads, vels)
    scale = np.abs(exact) + 1.0
    assert (np.abs(quad_flux(quads, vels) - exact) / scale).max() <= 1e-13


def test_quad_flux_directions_sum_to_total(rng):
    quads = rng.normal(size=(200, 4, 3))
    vels = rng.normal(size=(200, 4, 3))
    by_dir = quad_flux_by_direction(quads, vels)
    total = quad_flux(quads, vels)
    assert np.abs(by_dir.sum(-1) - total).max() <= 1e-13 * (np.abs(total).max() + 1)


def test_unit_face_at_unit_normal_velocity():
    top = REF_CORNERS[FACE_LOOPS[1]]  # +z face of the unit cube
    vel = np.tile([0.0, 0.0, 1.0], (4, 1))
    assert quad_flux(top, vel) == pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_zero_velocity_zero_flux(rng):
    quads = rng.normal(size=(10, 4, 3))
    assert np.abs(quad_flux(quads, np.zeros((10, 4, 3)))).max() == 0.0


# -- trilinear volume rate and IFMV ---------------------------------------


@pytest.mark.parametrize("flux_scale", [1.0, 1.0 + 1e-6])
def test_trimap_faces_sum_to_volume_rate(rng, flux_scale):
    # face fluxes scaled by 1 + 1e-6 must trip the closure bound: it can fail
    hexes = random_hexahedra(1000, rng)
    vels = rng.normal(size=(1000, 8, 3))
    quads, face_vels = hexes[:, FACE_LOOPS], vels[:, FACE_LOOPS]
    total = quad_flux(quads, face_vels)
    by_dir = quad_flux_by_direction(quads, face_vels)
    rate = dvoldt_trimap(hexes, vels)
    scale = np.abs(rate) + np.abs(total).sum(-1)
    defect = (np.abs(flux_scale * total.sum(-1) - rate) / scale).max()
    assert (defect <= 1e-13) == (flux_scale == 1.0), defect
    assert np.abs(by_dir.sum(-1) - total).max() <= 1e-13 * np.abs(total).max()


def test_dvoldt_zero_for_rigid_motions(rng):
    corners = random_hexahedra(1, rng)[0]
    translation = np.tile([0.4, -1.0, 0.2], (8, 1))
    assert abs(dvoldt_trimap(corners, translation)) <= 1e-13
    omega = np.array([0.3, -0.5, 1.1])
    rotation = np.cross(omega, corners)
    assert abs(dvoldt_trimap(corners, rotation)) <= 1e-13 * np.abs(rotation).max()


def test_dvoldt_uniform_scaling():
    s, s_dot = 1.3, 0.7
    corners = s * REF_CORNERS
    vels = s_dot * REF_CORNERS
    expected = 3 * s**2 * s_dot * 1.0
    assert dvoldt_trimap(corners, vels) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_dvoldt_matches_finite_difference(rng):
    corners = random_hexahedra(20, rng)
    vels = rng.normal(size=(20, 8, 3))
    h = 1e-6
    fd = (hex_volume(corners + h * vels) - hex_volume(corners - h * vels)) / (2 * h)
    rate = dvoldt_trimap(corners, vels)
    assert (np.abs(rate - fd) / np.abs(fd)).max() <= 1e-6


def test_dvoldt_matches_absolute_position_form(rng):
    # the same polynomial as the six-face product rule it replaced
    corners = random_hexahedra(1000, rng)
    vels = rng.normal(size=(1000, 8, 3))
    gap = np.abs(dvoldt_trimap(corners, vels) - six_face_dvoldt(corners, vels))
    assert gap.max() <= 1e-13


# -- sweep volumes ----------------------------------------------------------


def test_sweep_closure_identity(rng):
    # sum of the six face sweeps equals the volume difference, any deformation
    start = random_hexahedra(100, rng)
    end = random_hexahedra(100, rng)
    total = np.zeros(100)
    for loop in FACE_LOOPS:
        total += sweep_volume(start[:, loop], end[:, loop])
    dv = hex_volume(end) - hex_volume(start)
    assert np.abs(total - dv).max() <= 1e-13


def test_directional_sweep_sums_to_hex_volume(rng):
    q0 = rng.normal(size=(200, 4, 3))
    q1 = q0 + 0.3 * rng.normal(size=(200, 4, 3))
    split = sweep_volume_by_direction(q0, q1).sum(-1)
    whole = sweep_volume(q0, q1)
    assert np.abs(split - whole).max() <= 1e-12 * (np.abs(whole).max() + 1)


def test_rigid_normal_translation_sweep():
    quad = REF_CORNERS[FACE_LOOPS[1]]  # planar unit face, +z loop
    d = 0.37
    assert sweep_volume(quad, quad + [0, 0, d]) == pytest.approx(d, rel=1e-13, abs=0.0)


# -- increment series -------------------------------------------------------


@pytest.fixture(scope="module")
def case1_setup(small_mesh_module):
    mesh = small_mesh_module
    traj = sample_motion(mesh, MotionCase.for_case("case1"), 3)
    return mesh, traj, SpectralOperator(3)


@pytest.fixture(scope="module")
def small_mesh_module():
    from gclkit.hexmesh import build_box_mesh

    return build_box_mesh(5, 5, 5, 3.2, 2.8, 2.4)


def test_increments_start_at_zero(case1_setup, by_direction_increments):
    mesh, traj, _ = case1_setup
    for kind, maker in (("lvi", lvi_increments), ("aevi", aevi_increments)):
        series = maker(mesh, traj)
        assert np.abs(series.totals[..., 0]).max() == 0.0
        by_direction = by_direction_increments(mesh, traj, kind)
        assert np.abs(by_direction.totals[..., 0]).max() == 0.0


def test_lvi_equals_aevi_on_linear_motion(case1_setup):
    mesh, traj, _ = case1_setup
    lvi = lvi_increments(mesh, traj)
    aevi = aevi_increments(mesh, traj)
    assert np.abs(lvi.totals - aevi.totals).max() <= 1e-13


def test_extraction_of_synthetic_series():
    op = SpectralOperator(4)
    times = np.append(op.times, op.period)
    slope = 0.7
    series = gcl.IncrementSeries(
        period=op.period,
        totals=(slope * times + np.sin(2 * np.pi * times))[None, None, :],
    )
    series = extract_linear_and_periodic(series)
    assert series.linear_slope[0, 0] == pytest.approx(slope, abs=1e-12)
    np.testing.assert_allclose(
        series.periodic_part[0, 0], np.sin(2 * np.pi * op.times), atol=1e-12
    )


def test_extraction_closed_sweep_zero_slope(case1_setup):
    # the closing configuration equals the initial one, so the per-step
    # sweeps cancel down to accumulated rounding; the noise floor scales with
    # the cubed coordinate magnitude inside the volume expressions
    mesh, traj, _ = case1_setup
    series = extract_linear_and_periodic(aevi_increments(mesh, traj))
    floor = 1e-13 * np.abs(traj.positions).max() ** 3
    assert np.abs(series.linear_slope).max() <= floor
    np.testing.assert_allclose(
        series.periodic_part, series.totals[..., :-1], atol=floor
    )


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_periodic_closure_exact(small_mesh_module, case_id):
    # a trajectory holds the 2N+1 instants only; the increments close the
    # period on t_0 itself, so their last sweeps end on t_0's bits
    mesh = small_mesh_module
    for n in (1, 2, 3):
        traj = sample_motion(mesh, MotionCase.for_case(case_id), n)
        nts = 2 * n + 1
        assert traj.times.shape == (nts,)
        assert traj.positions.shape[0] == traj.velocities.shape[0] == nts
        assert traj.volumes.shape[1] == nts
        quads = traj.positions[:, mesh.interface_vertex_ids]
        closing = sweep_volume(quads[0], quads[0])
        steps = sweep_volume(quads, np.concatenate([quads[1:], quads[:1]]))
        lvi = lvi_increments(mesh, traj).totals
        aevi = aevi_increments(mesh, traj).totals
        assert lvi.shape == aevi.shape == (len(quads[0]), nts + 1)
        assert np.array_equal(lvi[:, -1], closing), (case_id, n)
        assert np.array_equal(aevi[:, -1], np.cumsum(steps, axis=0)[-1]), (case_id, n)


def test_lvi_failure_mode_case3_face():
    radius, y30, depth = 0.05, 0.28, 0.24
    quads = case3_face_trajectory(np.array([0.0, 1.0]), radius, y30, depth)
    lvi_at_period = sweep_volume(quads[0], quads[1])
    exact = analytic_increment_case3(radius, y30, depth, 1.0)
    assert abs(lvi_at_period) <= 1e-15  # degenerate hexahedron
    assert exact == pytest.approx(depth * np.pi * radius**2, rel=1e-13, abs=0.0)


def test_aevi_converges_on_case3_face():
    radius, y30, depth = 0.05, 0.28, 0.24
    target = analytic_increment_case3(radius, y30, depth, 1.0)
    errors = []
    nts_values = np.array([11, 21, 41, 81])
    for nts in nts_values:
        times = np.append(np.arange(nts) / nts, 1.0)
        quads = case3_face_trajectory(times, radius, y30, depth)
        total = sweep_volume(quads[:-1], quads[1:]).sum()
        errors.append(abs(total - target))
    errors = np.array(errors)
    assert (errors[1:] < errors[:-1]).all()
    assert errors[2] / abs(target) <= 1.0 / 41.0  # at least first order in tau


# -- IFMV pipelines ---------------------------------------------------------


def test_nlfd_pipeline_on_synthetic_sine():
    op = SpectralOperator(5)
    times = np.append(op.times, op.period)
    totals = np.sin(2 * np.pi * times)[None, None, :] * np.ones((1, 6, 1))
    series = gcl.IncrementSeries(op.period, totals)
    field = ifmv_nlfd(extract_linear_and_periodic(series), op)
    expected = 2 * np.pi * np.cos(2 * np.pi * op.times)
    np.testing.assert_allclose(field.total[0, 0], expected, atol=1e-12)


def test_nlfd_zero_increments_zero_ifmv():
    op = SpectralOperator(3)
    times = np.append(op.times, op.period)
    series = gcl.IncrementSeries(op.period, np.zeros((2, 6, len(times))))
    field = ifmv_nlfd(extract_linear_and_periodic(series), op)
    assert np.abs(field.total).max() == 0.0


def test_ts_constant_slope_series():
    op = SpectralOperator(4)
    times = np.append(op.times, op.period)
    slope = 1.9
    totals = slope * times[None, None, :] * np.ones((1, 6, 1))
    series = gcl.IncrementSeries(op.period, totals)
    field = ifmv_ts(extract_linear_and_periodic(series), op)
    np.testing.assert_allclose(field.total, slope, atol=1e-12)


def test_ts_zero_increments_zero_ifmv():
    op = SpectralOperator(3)
    times = np.append(op.times, op.period)
    series = gcl.IncrementSeries(op.period, np.zeros((2, 6, len(times))))
    field = ifmv_ts(extract_linear_and_periodic(series), op)
    assert np.abs(field.total).max() == 0.0
    # the per-direction layout, time still last
    series = gcl.IncrementSeries(op.period, np.zeros((2, 6, 3, len(times))))
    field = ifmv_ts(extract_linear_and_periodic(series), op)
    assert np.abs(field.total).max() == 0.0


def test_nlfd_refuses_an_operator_of_another_sampling():
    # an operator at T = 1 on increments over T = 2 differentiates them as
    # if they were twice as fast; N is checked by the sample count
    times = np.append(SpectralOperator(2, 2.0).times, 2.0)
    series = gcl.IncrementSeries(2.0, np.sin(np.pi * times)[None] * np.ones((6, 1)))
    series = extract_linear_and_periodic(series)
    with pytest.raises(ValueError, match=r"period 1\.0 differs from the increments' 2\.0"):
        ifmv_nlfd(series, SpectralOperator(2))
    with pytest.raises(ValueError, match="expected 7 samples"):
        ifmv_nlfd(series, SpectralOperator(3, 2.0))


def test_gcl_identity_case1(case1_setup):
    mesh, traj, op = case1_setup
    series = extract_linear_and_periodic(aevi_increments(mesh, traj))
    field = ifmv_nlfd(series, op)
    dvdt = op.differentiate(traj.volumes)
    assert np.abs(mesh.sum_over_faces(field.total) - dvdt).max() <= 1e-12


def test_ts_equals_nlfd(case1_setup, by_direction_increments):
    mesh, traj, op = case1_setup
    traj3 = sample_motion(mesh, MotionCase.for_case("case3"), 3)
    series = extract_linear_and_periodic(aevi_increments(mesh, traj3))
    a = ifmv_nlfd(series, op)
    b = ifmv_ts(series, op)
    assert np.abs(a.total - b.total).max() <= 1e-12
    # against the DFT route mode by mode: the gap summed over modes bounds
    # the sample gap from above
    periodic = a.total - series.linear_slope[:, None]
    assert fourier_defect(op, periodic, series.periodic_part) <= 1e-12
    split = extract_linear_and_periodic(by_direction_increments(mesh, traj3, "aevi"))
    a = ifmv_nlfd(split, op)
    b = ifmv_ts(split, op)
    assert np.abs(a.total - b.total).max() <= 1e-12


@st.composite
def periodic_plus_linear(draw):
    """An operator and increments slope * t + p(t), p periodic with p(0) = 0,
    sampled at t_0..t_2N and at the closing t = T."""
    op = SpectralOperator(draw(st.integers(1, 20)), draw(st.floats(0.1, 10.0)))
    faces = draw(st.integers(1, 4))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    periodic = draw(arrays(np.float64, (faces, op.nts), elements=values))
    slope = draw(arrays(np.float64, (faces, 1), elements=values))
    periodic = periodic - periodic[:, :1]
    times = np.append(op.times, op.period)
    totals = np.concatenate([periodic, periodic[:, :1]], axis=1) + slope * times
    return op, gcl.IncrementSeries(op.period, totals)


def _subnormal_draw(period):
    """Subnormal totals that Hypothesis drew; the gap is 2e-323 at T = 1."""
    op = SpectralOperator(1, period)
    totals = np.array([[0.0, -5e-324, -5e-324, 0.0]])
    return op, gcl.IncrementSeries(period, totals)


@settings(max_examples=60, deadline=None)
@given(periodic_plus_linear())
@example(_subnormal_draw(1.0))
@example(_subnormal_draw(0.1))
def test_nlfd_matches_dft_route(data):
    # ifmv_ts is ifmv_nlfd, so this property and criterion 12 are what hold
    # the ts-* rows, copies of the nlfd-* rows, to the time-spectral route
    op, series = data
    series = extract_linear_and_periodic(series)
    gap = np.abs(ifmv_nlfd(series, op).total - dft_ifmv(series, op)).max()
    # the series' size in derivative units: its largest sample at harmonic N
    scale = 2.0 * np.pi * op.n_harmonics / op.period
    size = np.abs(series.totals).max() * scale
    # Below 2^-1022 doubles are spaced 2^-1074 apart, so a product there is
    # off by up to 2^-1075 whatever its size (a sum there is exact).  D p
    # takes nts - 1 products per sample.  The DFT route takes nts per
    # component of a coefficient, which the factor i 2 pi k / T scales by up
    # to the derivative scale before one more product; each term of the
    # inverse sum reads both components (|cos| + |sin| <= sqrt 2) and adds 2
    # products.  In all, (nts - 1) + nts (sqrt 2 (scale nts + 1) + 2) halves
    # of 2^-1074, at most nts (scale nts + 3) 2^-1074.  On totals above about
    # 1e-308 the relative bound is the larger, as before.
    floor = op.nts * (scale * op.nts + 3) * 2.0**-1074
    assert gap <= max(1e-12 * size, floor), (
        f"gap {gap:.3g} > max(1e-12 * size {size:.3g}, subnormal floor {floor:.3g} = "
        f"nts {op.nts} * (scale {scale:.3g} * nts + 3) * 2^-1074)"
    )


def test_avg_on_stationary_mesh(small_mesh_module):
    mesh = small_mesh_module
    traj = sample_motion(mesh, MotionCase.for_case("rigid-translation", amplitude=(0, 0, 0)), 1)
    field = ifmv_avg(mesh, traj)
    assert np.abs(field.total).max() == 0.0


def test_avg_exact_for_rigid_translation(small_mesh_module):
    mesh = small_mesh_module
    traj = sample_motion(mesh, MotionCase.for_case("rigid-translation"), 2)
    field = ifmv_avg(mesh, traj)
    reference = trimap_field(mesh, traj)
    assert np.abs(field.total - reference.total).max() <= 1e-13


def test_trimap_field_zero_velocity(small_mesh_module):
    mesh = small_mesh_module
    traj = sample_motion(mesh, MotionCase.for_case("rigid-translation", amplitude=(0, 0, 0)), 1)
    field = trimap_field(mesh, traj)
    assert np.abs(field.total).max() == 0.0


def test_mesh_slope_matches_standalone_face(paper_mesh):
    # cell (0,0,5): its +x face has the two y=0 corners fixed and the two
    # interior corners circling, i.e. exactly the standalone benchmark quad
    traj = sample_motion(paper_mesh, MotionCase.for_case("case3"), 10)
    series = extract_linear_and_periodic(aevi_increments(paper_mesh, traj))
    cell = 0 + 10 * (0 + 10 * 5)
    interface = cell_face_slots(paper_mesh)[0][cell, 5]  # the +x face, which the cell owns
    nts = 21
    times = np.append(np.arange(nts) / nts, 1.0)
    quads = case3_face_trajectory(times, 0.05, 0.28, 0.24)
    standalone = sweep_volume(quads[:-1], quads[1:]).sum()
    assert series.linear_slope[interface] == pytest.approx(standalone, rel=1e-12, abs=0.0)


@pytest.fixture(scope="module")
def case5_fields(paper_mesh):
    traj = sample_motion(paper_mesh, MotionCase.for_case("case5"), 3)
    op = SpectralOperator(3)
    return {
        "nlfd-lvi": ifmv_nlfd(lvi_increments(paper_mesh, traj), op),
        "nlfd-aevi": ifmv_nlfd(aevi_increments(paper_mesh, traj), op),
        "avg": ifmv_avg(paper_mesh, traj),
        "trimap": trimap_field(paper_mesh, traj),
    }


@pytest.mark.parametrize("method", ["nlfd-lvi", "nlfd-aevi", "avg", "trimap"])
def test_interior_faces_exactly_antisymmetric(paper_mesh, case5_fields, method):
    # the two cells of an interior face see the same face with opposite
    # orientation, so their values must be exact negatives of each other
    total = case5_fields[method].total
    assert np.abs(total).max() > 0.0
    interfaces, signs = cell_face_slots(paper_mesh)
    total = total[interfaces] * signs[..., None]  # (n_cells, 6, Nts) face slots
    nx, ny, nz = paper_mesh.counts
    cells = np.arange(paper_mesh.n_cells).reshape(nz, ny, nx)
    neighbours = (
        (cells[:, :, :-1], 5, cells[:, :, 1:], 4),  # +x face of the left cell
        (cells[:, :-1, :], 2, cells[:, 1:, :], 3),  # +y face
        (cells[:-1], 1, cells[1:], 0),  # +z face
    )
    for low, low_slot, high, high_slot in neighbours:
        a = total[low.ravel(), low_slot]
        b = total[high.ravel(), high_slot]
        assert np.array_equal(a, -b)


# -- a cyclic time shift ------------------------------------------------------

_SHIFT_MESH = build_box_mesh(6, 6, 6, 3.2, 2.8, 2.4)
_SHIFT_TRAJECTORIES = {}


def _shift_trajectory(case_id, n):
    if (case_id, n) not in _SHIFT_TRAJECTORIES:
        case = MotionCase.for_case(case_id)
        _SHIFT_TRAJECTORIES[case_id, n] = sample_motion(_SHIFT_MESH, case, n)
    return _SHIFT_TRAJECTORIES[case_id, n]


def _rolled(trajectory, k):
    """The trajectory started at t_k: every array's instants rolled by k."""
    return dataclasses.replace(
        trajectory,
        times=np.roll(trajectory.times, -k),
        positions=np.roll(trajectory.positions, -k, axis=0),
        velocities=np.roll(trajectory.velocities, -k, axis=0),
        volumes=np.roll(trajectory.volumes, -k, axis=1),
    )


@settings(max_examples=40, deadline=None)
@given(
    case_id=st.sampled_from(["case1", "case2", "case3", "case4", "case5"]),
    n=st.integers(1, 4),
    data=st.data(),
)
def test_cyclic_time_shift_rolls_the_fields(case_id, n, data):
    mesh, trajectory = _SHIFT_MESH, _shift_trajectory(case_id, n)
    k = data.draw(st.integers(0, 2 * n), label="k")
    shifted = _rolled(trajectory, k)
    # the instantaneous fields are elementwise in the instants
    for method in (trimap_field, ifmv_avg):
        rolled = np.roll(method(mesh, trajectory).total, -k, axis=1)
        assert np.array_equal(method(mesh, shifted).total, rolled), method.__name__

    # AEVI sums the same per-step sweeps s_j from another start.  In exact
    # arithmetic the totals move by a constant, the slope is the same and D
    # annihilates the constant, so G is rolled exactly.  In rounding (unit u,
    # S the sum of |s_j| of an interface, |T_n| <= S and |p_n| <= 2 S): each
    # series' totals, slope, ramp and subtraction round by at most
    # 3 (2N+1) u S; D p rounds by at most (2N+1) u |D| 2 S per series; the
    # constant meets D's rounded row sums, 2 S |D 1|; the two slopes differ by
    # 2 (2N+1) u S / T.
    spectral = SpectralOperator(n, trajectory.case.period)
    d_norm = np.abs(spectral.d_matrix).sum(axis=1).max()
    row_sums = np.abs(spectral.d_matrix.sum(axis=1)).max()
    u, nts, period = np.finfo(float).eps / 2, 2 * n + 1, spectral.period
    quads = trajectory.positions[:, mesh.interface_vertex_ids]
    steps = sweep_volume(quads, np.concatenate([quads[1:], quads[:1]]))
    sweep = np.abs(steps).sum(axis=0)
    bound = sweep * (nts * u * (10.0 * d_norm + 2.0 / period) + 2.0 * row_sums)
    aevi = ifmv_nlfd(aevi_increments(mesh, trajectory), spectral)
    moved = ifmv_nlfd(aevi_increments(mesh, shifted), spectral)
    gap = np.abs(moved.total - np.roll(aevi.total, -k, axis=1))
    worst = int(np.argmax(gap.max(axis=1) - bound))
    assert (gap <= bound[:, None]).all(), (
        f"AEVI moved {gap[worst].max():.2e} at interface {worst}, bound {bound[worst]:.2e}"
    )
    # its conservation defect stays at rounding: the cell sums of six faces
    # move by at most 6 bound plus their own rounding, 2 * 5 u sum |G|, and
    # D of the rolled volumes by 2 (2N+1) u |D| |V|
    err1 = metrics.abs_err_sum_vs_dvoldt(
        mesh, aevi, spectral.differentiate(trajectory.volumes)
    )
    shifted_err1 = metrics.abs_err_sum_vs_dvoldt(
        mesh, moved, spectral.differentiate(shifted.volumes)
    )
    slack = (
        6.0 * bound.max()
        + 10.0 * u * 6.0 * np.abs(aevi.total).max()
        + 2.0 * nts * u * d_norm * np.abs(trajectory.volumes).max()
    )
    assert shifted_err1 <= err1 + slack, (shifted_err1, err1, slack)


@pytest.mark.parametrize("warp", [0.0, 0.25])
def test_the_claims_hold_on_a_mesh_whose_faces_are_not_rectangles(warp):
    # the interior vertices of the 6^3 box moved by up to a quarter of a cell
    mesh = warped_box_mesh((6, 6, 6), warp, seed=3)
    eps = np.finfo(float).eps
    for case_id in CASE_IDS:
        case = MotionCase.for_case(case_id)
        for n in (1, 2, 3):
            point = prepare_point(mesh, case, n)
            rows = evaluate_point(point, ["nlfd-lvi", "nlfd-aevi", "avg"])
            lvi, aevi, avg = (row.abs_err1 for row in rows)
            label = (case_id, n)
            # LVI/AEVI: both sides of a cell's defect are rows of D dotted
            # with its volumes, or with its increments, which sum to them;
            # each rounds to a few ulps of sum_k |D_nk| V_k
            d_norm = np.abs(point.spectral.d_matrix).sum(axis=1).max()
            volume_floor = 4.0 * eps * d_norm * point.trajectory.volumes.max()
            assert lvi <= volume_floor and aevi <= volume_floor, label
            # TRI-MAP: a cell's six face fluxes and the product-rule rate
            # round to a few ulps of the largest face flux each, even where
            # the rate itself is rounding, as under a rigid rotation
            flux_floor = 12.0 * eps * np.abs(point.reference.total).max()
            rates = gcl.exact_volume_rates(mesh, point.trajectory)
            exact_rates = mesh.sum_over_faces(point.reference.total)
            assert np.abs(exact_rates - rates).max() <= flux_floor, label
            if case_id == "rigid-rotation":
                # AVG, the mean vertex velocity dotted with the area vector,
                # is exact on the box's rectangles and not on these faces
                if warp:
                    assert avg > 1e-3, label
                else:
                    assert avg <= volume_floor + flux_floor, label
