import numpy as np
import pytest

from gclkit import gcl
from gclkit.flow import (
    FreestreamProblem,
    FreestreamState,
    ale_face_flux,
    jst_dissipation,
    nlfd_unsteady_residual,
    pressure,
    run_freestream,
)
from gclkit.motion import MotionCase, sample_motion
from gclkit.spectral import SpectralOperator

GAMMA = 1.4


def aevi_field(mesh, traj, op):
    series = gcl.extract_linear_and_periodic(gcl.aevi_increments(mesh, traj))
    return gcl.ifmv_nlfd(series, op)


def test_pressure_examples():
    w = np.array([1.0, 0.0, 0.0, 0.0, 1.0 / (GAMMA - 1.0)])
    assert pressure(w) == pytest.approx(1.0, rel=1e-14)
    w = np.array([1.0, 1.0, 0.0, 0.0, 0.5 + 1.0 / (GAMMA - 1.0)])
    assert pressure(w) == pytest.approx(1.0, rel=1e-14)
    w = np.array([1.2, 0.3, 0.0, 0.0, 2.5])
    assert pressure(w) == pytest.approx(0.4 * (2.5 - 0.0375), rel=1e-14)


def test_pressure_flags_unphysical_state():
    w = np.array([1.0, 3.0, 0.0, 0.0, 1.0])  # kinetic energy exceeds total
    with pytest.raises(ValueError):
        pressure(w)


def test_face_flux_single_state():
    state = FreestreamState()
    w = state.conservative()
    s = np.array([0.3, -0.2, 0.5])
    flux = ale_face_flux(w, w, s, 0.0)
    u = np.array(state.velocity)
    contra = u @ s
    h_total = (w[4] + state.pressure) / state.rho
    expected = np.array(
        [
            state.rho * contra,
            *(w[1:4] * contra + state.pressure * s),
            state.rho * h_total * contra,
        ]
    )
    np.testing.assert_allclose(flux, expected, rtol=1e-14)


def test_face_flux_ifmv_linearity():
    w = FreestreamState().conservative()
    s = np.array([0.1, 0.0, 0.2])
    g = 0.37
    base = ale_face_flux(w, w, s, 0.0)
    moved = ale_face_flux(w, w, s, g)
    np.testing.assert_allclose(moved, base - g * w, rtol=1e-14)


def test_closed_cell_flux_cancellation(rng):
    # on a closed cell with a uniform state, pressure and convective terms
    # cancel by surface closure; only the mesh-velocity term survives
    from gclkit.hexmesh import face_area_vectors
    from gclkit.verify import random_hexahedra

    w = FreestreamState().conservative()
    corners = random_hexahedra(1, rng)[0]
    vectors = face_area_vectors(corners)
    g = rng.normal(size=6)
    total = sum(ale_face_flux(w, w, vectors[m], g[m]) for m in range(6))
    np.testing.assert_allclose(total, -g.sum() * w, atol=1e-12)


def test_jst_vanishes_on_uniform_field():
    w0 = FreestreamState().conservative()
    line = np.tile(w0, (9, 1))
    p = np.full(9, FreestreamState().pressure)
    radii = np.ones(6)
    d = jst_dissipation(line, p, radii, 1.0, 1.0 / 32.0)
    assert np.abs(d).max() == 0.0


def test_jst_damps_density_spike():
    w0 = FreestreamState().conservative()
    line = np.tile(w0, (9, 1))
    spike = 4  # interior cell (2 halo + index 2)
    line[spike, 0] *= 1.01
    p = np.array([pressure(w) for w in line])
    radii = np.ones(8 - 2)
    d = jst_dissipation(line, p, radii, 1.0, 1.0 / 32.0)
    # residual contribution at the spike cell: d(right) - d(left); applying
    # the update w <- w - dt*(conv - diss) must pull the spike down
    cell = spike - 2  # interior index; its interfaces are cell and cell + 1
    diss_residual = d[cell + 1, 0] - d[cell, 0]
    assert diss_residual < 0.0


def test_jst_fourth_difference_scaling(rng):
    # smooth data, quiet sensor: dissipation reduces to -radius*kappa4*delta3
    w0 = FreestreamState().conservative()
    n = 16
    line = np.tile(w0, (n + 4, 1))
    x = np.arange(n + 4, dtype=float)
    bump = 1e-4 * np.sin(2 * np.pi * x / (n + 4))
    line[:, 0] += bump
    p = np.array([pressure(w) for w in line])
    radii = np.ones(n + 1)
    kappa4 = 1.0 / 32.0
    d = jst_dissipation(line, p, radii, 1.0, kappa4)
    # independent stencil evaluation
    for f in (3, 7):
        i = f + 1  # padded index of the left cell
        delta3 = line[i + 2, 0] - 3 * line[i + 1, 0] + 3 * line[i, 0] - line[i - 1, 0]
        delta1 = line[i + 1, 0] - line[i, 0]
        nu = np.abs(p[2:] - 2 * p[1:-1] + p[:-2]) / (p[2:] + 2 * p[1:-1] + p[:-2])
        eps2 = 1.0 * max(nu[f], nu[f + 1])
        eps4 = max(0.0, kappa4 - eps2)
        expected = eps2 * delta1 - eps4 * delta3
        assert d[f, 0] == pytest.approx(expected, rel=1e-12)


@pytest.fixture(scope="module")
def case2_small():
    from gclkit.hexmesh import build_box_mesh

    mesh = build_box_mesh(5, 5, 5, 3.2, 2.8, 2.4)
    traj = sample_motion(mesh, MotionCase.for_case("case2"), 3)
    return mesh, traj, SpectralOperator(3)


def _structured_face_reference(mesh, traj, ifmv):
    """+axis interface area vectors and IFMV from the structured vertex grid.

    Every face loop is built from the (k, j, i) vertex grid and the cell
    slots are decoded by number, independently of the mesh's interfaces.
    """
    nx, ny, nz = mesh.nx, mesh.ny, mesh.nz
    nts = traj.positions.shape[0] - 1
    v = traj.positions[:-1].reshape(nts, nz + 1, ny + 1, nx + 1, 3)

    def area(a, b, c, d):
        return 0.5 * np.cross(c - a, d - b)

    vectors = {
        "x": area(v[:, :-1, :-1], v[:, :-1, 1:], v[:, 1:, 1:], v[:, 1:, :-1]),
        "y": area(v[:, :-1, :, :-1], v[:, 1:, :, :-1], v[:, 1:, :, 1:], v[:, :-1, :, 1:]),
        "z": area(v[:, :, :-1, :-1], v[:, :, :-1, 1:], v[:, :, 1:, 1:], v[:, :, 1:, :-1]),
    }
    g = {
        "x": np.zeros((nts, nz, ny, nx + 1)),
        "y": np.zeros((nts, nz, ny + 1, nx)),
        "z": np.zeros((nts, nz + 1, ny, nx)),
    }
    if ifmv is not None:
        # slots: 0 -z, 1 +z, 2 +y, 3 -y, 4 -x, 5 +x
        f = np.moveaxis(ifmv.total.reshape(nz, ny, nx, 6, nts), -1, 0)
        g["x"][..., 1:] = f[..., 5]
        g["x"][..., 0] = -f[:, :, :, 0, 4]
        g["y"][:, :, 1:, :] = f[..., 2]
        g["y"][:, :, 0, :] = -f[:, :, 0, :, 3]
        g["z"][:, 1:, :, :] = f[..., 1]
        g["z"][:, 0, :, :] = -f[:, 0, :, :, 0]
    return vectors, g


@pytest.mark.parametrize("with_ifmv", [True, False], ids=["trimap", "none"])
@pytest.mark.parametrize("case_id", ["case1", "case5"])
def test_face_data_matches_structured_reference(case_id, with_ifmv):
    from gclkit.hexmesh import build_box_mesh

    mesh = build_box_mesh(4, 5, 6, 3.2, 2.8, 2.4)
    traj = sample_motion(mesh, MotionCase.for_case(case_id), 2)
    ifmv = gcl.trimap_field(mesh, traj) if with_ifmv else None
    problem = FreestreamProblem(mesh, traj, SpectralOperator(2), ifmv)
    vectors, g = _structured_face_reference(mesh, traj, ifmv)
    for axis in "xyz":
        assert np.array_equal(problem.face_vectors[axis], vectors[axis])
        assert np.array_equal(problem.face_ifmv[axis], g[axis])


def test_unsteady_residual_with_conserving_ifmv(case2_small):
    mesh, traj, op = case2_small
    problem = FreestreamProblem(mesh, traj, op, aevi_field(mesh, traj, op))
    rhat = nlfd_unsteady_residual(problem, problem.initial_state())
    assert np.abs(rhat).max() <= 1e-10 * problem.flux_scale()


def test_unsteady_residual_with_zero_ifmv(case2_small):
    mesh, traj, op = case2_small
    problem = FreestreamProblem(mesh, traj, op, None)
    rhat = nlfd_unsteady_residual(problem, problem.initial_state())
    rates = gcl.exact_volume_rates(mesh, traj)
    w0 = problem.w0
    scale = np.abs(rates).max() * np.abs(w0).max()
    assert 0.1 * scale <= np.abs(rhat).max() <= 10.0 * scale


def test_unsteady_residual_static_mesh(case2_small):
    mesh, _, op = case2_small
    static = sample_motion(mesh, MotionCase.for_case("rigid-translation", amplitude=(0, 0, 0)), 3)
    problem = FreestreamProblem(mesh, static, op, None)
    rhat = nlfd_unsteady_residual(problem, problem.initial_state())
    assert np.abs(rhat).max() <= 1e-13 * problem.flux_scale()


def test_freestream_static_mesh(case2_small):
    mesh, _, op = case2_small
    static = sample_motion(mesh, MotionCase.for_case("rigid-translation", amplitude=(0, 0, 0)), 3)
    result = run_freestream(mesh, static, op, None, max_iterations=10)
    assert result.converged
    assert result.rel_err <= 1e-14


def test_freestream_case1_aevi(paper_mesh):
    traj = sample_motion(paper_mesh, MotionCase.for_case("case1"), 3)
    op = SpectralOperator(3)
    result = run_freestream(
        paper_mesh, traj, op, aevi_field(paper_mesh, traj, op), max_iterations=200
    )
    assert result.rel_err <= 1e-8
    assert result.converged


def test_avg_preserves_worse_than_spectral_methods(case2_small):
    mesh, _, op = case2_small
    traj = sample_motion(mesh, MotionCase.for_case("case5"), 3)
    good = run_freestream(mesh, traj, op, aevi_field(mesh, traj, op), max_iterations=150)
    avg = run_freestream(
        mesh, traj, op, gcl.ifmv_avg(mesh, traj), max_iterations=150,
        rel_err_stop=1e-5,
    )
    assert avg.rel_err > 100 * max(good.rel_err, 1e-14)


def test_divergence_is_reported_not_raised(case2_small):
    mesh, traj, op = case2_small
    result = run_freestream(mesh, traj, op, None, cfl=1e6, max_iterations=30)
    assert result.diverged
    assert not result.converged


def test_uniform_state_is_stationary_under_rk5(case2_small):
    # with a conservation-respecting IFMV the uniform state is a fixed point:
    # one full pseudo-time iteration moves it by rounding noise only
    mesh, traj, op = case2_small
    problem = FreestreamProblem(mesh, traj, op, aevi_field(mesh, traj, op))
    before = problem.initial_state()
    result = problem.march(max_iterations=1)
    after = result.states * problem.volumes[..., None]
    assert np.abs(after - before).max() <= 1e-12 * np.abs(before).max()
