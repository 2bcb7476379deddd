"""Property tests of the flow kernels over random states and faces."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gclkit import flow, gcl
from gclkit.flow import FreestreamProblem, ale_face_flux, jst_dissipation, pressure
from gclkit.hexmesh import build_box_mesh
from gclkit.motion import MotionCase, sample_motion
from gclkit.spectral import SpectralOperator
from oracles import dense_preconditioner
from test_flow import _reference_local_timestep, _reference_residual_parts

GAMMA = 1.4

PROPERTY = settings(max_examples=60, deadline=None)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def _values(draw, shape, lo, hi):
    return draw(arrays(np.float64, shape, elements=_floats(lo, hi)))


def _conservative(draw, shape):
    """Conservative states (5, *shape) of positive density and pressure."""
    rho = _values(draw, shape, 0.1, 10.0)
    vel = _values(draw, (3,) + shape, -5.0, 5.0)
    p = _values(draw, shape, 0.1, 10.0)
    kinetic = 0.5 * rho * ((vel[0] * vel[0] + vel[1] * vel[1]) + vel[2] * vel[2])
    return np.concatenate([rho[None], rho * vel, (p / (GAMMA - 1.0) + kinetic)[None]])


@st.composite
def faces(draw):
    """Left and right states, area vectors and IFMV on 1-6 faces."""
    shape = (draw(st.integers(1, 6)),)
    left = _conservative(draw, shape)
    right = _conservative(draw, shape)
    vectors = _values(draw, (3,) + shape, -3.0, 3.0)
    ifmv = _values(draw, shape, -3.0, 3.0)
    return left, right, vectors, ifmv


def _scalar_flux(left, right, s, g):
    """One face's flux from Python floats, every operation in the kernel's order."""

    def fixed_grid(w):
        rho, mx, my, mz, e = w
        vx, vy, vz = mx / rho, my / rho, mz / rho
        p = (GAMMA - 1.0) * (e - 0.5 * ((mx * mx + my * my) + mz * mz) / rho)
        c = (vx * s[0] + vy * s[1]) + vz * s[2]
        return [rho * c, mx * c + p * s[0], my * c + p * s[1], mz * c + p * s[2], (e + p) * c]

    return [
        0.5 * (fl + fr) - g * 0.5 * (wl + wr)
        for fl, fr, wl, wr in zip(fixed_grid(left), fixed_grid(right), left, right)
    ]


@PROPERTY
@given(faces())
def test_flux_is_antisymmetric(data):
    left, right, vectors, ifmv = data
    forward = ale_face_flux(left, right, vectors, ifmv)
    backward = ale_face_flux(right, left, -vectors, -ifmv)
    assert np.array_equal(backward, -forward)


@PROPERTY
@given(faces())
def test_flux_equals_scalar_formula(data):
    left, right, vectors, ifmv = data
    flux = ale_face_flux(left, right, vectors, ifmv)
    expected = np.array(
        [
            _scalar_flux(left[:, j].tolist(), right[:, j].tolist(), vectors[:, j].tolist(), g)
            for j, g in enumerate(ifmv.tolist())
        ]
    ).T
    assert np.array_equal(flux, expected)


@st.composite
def uniform_lines(draw):
    """A uniform state on a 3-D block, its grid axis and per-interface radii."""
    axis = draw(st.sampled_from([-1, -2, -3]))
    m = draw(st.integers(1, 5))
    shape = [draw(st.integers(1, 3)) for _ in range(3)]
    shape[axis] = m + 4
    state = _conservative(draw, (1,)).reshape(5, 1, 1, 1)
    faces_shape = list(shape)
    faces_shape[axis] = m + 1
    radii = _values(draw, tuple(faces_shape), 0.0, 10.0)
    kappa2 = draw(_floats(0.0, 2.0))
    kappa4 = draw(_floats(0.0, 0.1))
    return np.broadcast_to(state, (5, *shape)).copy(), radii, kappa2, kappa4, axis


@PROPERTY
@given(uniform_lines())
def test_jst_is_zero_on_uniform_lines(data):
    states, radii, kappa2, kappa4, axis = data
    d = jst_dissipation(states, pressure(states), radii, kappa2, kappa4, axis)
    assert d.shape == (5,) + radii.shape
    assert np.all(d == 0.0)


@st.composite
def box_problems(draw):
    """A case-2 problem on a random box, with a perturbed spectral state."""
    nx, ny, nz = (draw(st.integers(2, 6)) for _ in range(3))
    n_harmonics = draw(st.integers(1, 3))
    mesh = build_box_mesh(nx, ny, nz, 3.2, 2.8, 2.4)
    trajectory = sample_motion(mesh, MotionCase.for_case("case2"), n_harmonics)
    ifmv = gcl.ifmv_avg(mesh, trajectory) if draw(st.booleans()) else None
    problem = FreestreamProblem(mesh, trajectory, SpectralOperator(n_harmonics), ifmv)
    wbar = problem.initial_state()
    noise = _values(draw, wbar.shape, -1e-3, 1e-3)
    return problem, wbar * (1.0 + noise)


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=25, deadline=None)
@given(box_problems())
def test_axis_major_residual_is_bitwise_the_reference(data):
    problem, wbar = data
    ref_conv, ref_diss = _reference_residual_parts(problem, wbar)
    conv, diss = problem.residual_parts(wbar)
    assert _bitwise_equal(conv, ref_conv) and _bitwise_equal(diss, ref_diss)
    assert _bitwise_equal(
        problem.local_timestep(wbar, 1.5), _reference_local_timestep(problem, wbar, 1.5)
    )


@st.composite
def preconditioned_problems(draw):
    """A problem on a box of 1-4 cells an axis, so a line may have no
    couplings, with two random vectors in the spectral state's layout."""
    nx, ny, nz = (draw(st.integers(1, 4)) for _ in range(3))
    n_harmonics = draw(st.integers(1, 3))
    case = MotionCase.for_case(draw(st.sampled_from(["case2", "case4", "case5"])))
    mesh = build_box_mesh(nx, ny, nz, 3.2, 2.8, 2.4)
    trajectory = sample_motion(mesh, case, n_harmonics)
    ifmv = gcl.ifmv_avg(mesh, trajectory) if draw(st.booleans()) else None
    problem = FreestreamProblem(mesh, trajectory, SpectralOperator(n_harmonics, case.period), ifmv)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = rng.standard_normal((2, problem.initial_state().size))
    return problem, u, v, draw(_floats(-2.0, 2.0))


@PROPERTY
@given(preconditioned_problems())
def test_preconditioner_is_the_linear_dense_factorisation(data):
    problem, u, v, scale = data
    precondition = problem._preconditioner()
    dense = dense_preconditioner(problem, flow._flux_jacobians(), flow.PRECONDITIONER_DISSIPATION)
    expected, got = dense(u), precondition(u)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())
    combined, parts = precondition(scale * u + v), scale * got + precondition(v)
    np.testing.assert_allclose(combined, parts, rtol=0.0, atol=1e-13 * np.abs(parts).max())
