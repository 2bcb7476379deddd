"""Minimal ALE Euler residual and Newton-Krylov solver for freestream tests.

The only flow this solver ever sees is a uniform state on a deforming box
mesh, which is exactly the point: with a conservation-law-respecting set of
face mesh velocities the uniform state is a fixed point of the scheme, and
any departure measures the geometric defect.  Spatial discretisation is a
cell-centred finite-volume scheme with central fluxes plus scalar JST
dissipation; the time axis is spectral, and Jacobian-free Newton-Krylov,
preconditioned line by line in each Fourier harmonic, solves the coupled system.
The residual, which fixes the solution and the floor the solve stops on, is
float64; the preconditioner only steers GMRES, and its line solves run in
complex64.

Boundary handling is deliberately plain: two layers of halo cells frozen at
the freestream state, so geometric effects are never mixed with boundary
condition effects.

Arrays are stored component-first.  The spectral state is
(5, Nts, nz, ny, nx); velocities are (3, ...); pressures, volumes, radii and
face mesh velocities have no component axis.  Face work along one grid axis
runs axis-major: padded states, velocities and pressures, face geometry and
face fluxes put that axis's cells or interfaces first, after any component
axis, e.g. (5, nx+4, Nts, nz, ny) for x, so every left, right and JST
stencil slice is a few long contiguous runs.  Three-term dot products are
summed in the fixed order ``(a_x b_x + a_y b_y) + a_z b_z``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .gcl import IfmvField
from .hexmesh import HexMesh, _quad_area
from .metrics import rel_err_freestream
from .motion import MotionTrajectory
from .spectral import SpectralOperator

__all__ = [
    "FreestreamResult",
    "FreestreamProblem",
    "FreestreamDivergence",
    "ale_face_flux",
    "jst_dissipation",
]


class FreestreamDivergence(RuntimeError):
    """The freestream solve left the physical regime for one method."""

    def __init__(self, case_id: str, method: str, n_harmonics: int):
        self.case_id = case_id
        self.method = method
        self.n_harmonics = n_harmonics
        super().__init__(
            f"freestream run diverged: case={case_id} method={method} N={n_harmonics}"
        )

    def __reduce__(self):  # pickle by the constructor's arguments, not by args
        return type(self), (self.case_id, self.method, self.n_harmonics)


# JST second- and fourth-difference coefficients.
KAPPA2 = 1.0
KAPPA4 = 1.0 / 32.0
# A solve has converged once its residual falls by this factor.
CONVERGENCE_DROP = 1e-12
# GMRES restart length and Krylov iterations allowed per Newton step;
# Eisenstat-Walker forcing (choice 2): gamma, alpha and the cap.
KRYLOV_RESTART, KRYLOV_MAX = 30, 20 * 30
FORCING_GAMMA, FORCING_ALPHA, FORCING_MAX = 0.9, 2.0, 0.5
# Newton step cap, and the preconditioner's Rusanov dissipation coefficient
# (it sets how fast the solve converges, not where it ends; 0 is singular).
NEWTON_MAX, PRECONDITIONER_DISSIPATION = 50, 0.125
# Ratio of specific heats, and the one uniform flow every run starts from and
# is judged against: density, velocity, pressure and conservative variables.
GAMMA = 1.4
RHO_INF, VELOCITY_INF, PRESSURE_INF = 1.0, (0.5, 0.0, 0.0), 1.0
_u = np.array(VELOCITY_INF)
W_INF = np.array([RHO_INF, *RHO_INF * _u, PRESSURE_INF / (GAMMA - 1.0) + 0.5 * RHO_INF * (_u @ _u)])
W_INF.flags.writeable = False


def _pressure(states: np.ndarray) -> np.ndarray:
    momentum = states[1:4]
    return (GAMMA - 1.0) * (states[4] - 0.5 * _dot(momentum, momentum) / states[0])


def _norm(v: np.ndarray) -> float:
    """2-norm of a flat vector by numpy's own reduction, not BLAS, scaled by a
    power of two as :func:`_rms` is, so a finite ``v`` neither overflows its
    squares nor underflows them to 0; a numpy scalar, so that a division by
    a zero norm gives inf."""
    shift = np.frexp(np.abs(v).max())[1]
    scaled = np.ldexp(v, -shift)
    return np.ldexp(np.sqrt(np.einsum("i,i", scaled, scaled)), shift)


def _rms(r: np.ndarray) -> float:
    """Root mean square of ``r``, taken on ``r 2^-e`` with ``max|r| 2^-e`` in
    [0.5, 1) and scaled back, so a finite ``r`` never overflows its squares.
    Scaling by a power of two is exact: where ``r**2`` neither overflows nor
    underflows the value is the plain formula's, to the bit."""
    shift = np.frexp(np.abs(r).max())[1]
    return float(np.ldexp(np.sqrt(np.mean(np.ldexp(r, -shift) ** 2)), shift))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the leading 3-component axis, in a fixed order."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def _along(lo, hi) -> tuple:
    """Index lo:hi along the leading grid axis of an axis-major array."""
    return (Ellipsis, slice(lo, hi), slice(None), slice(None), slice(None))


# padded cells left and right of each interface; low and high interfaces of
# each cell
_LEFT, _RIGHT = _along(1, -2), _along(2, -1)
_LOWER, _UPPER = _along(None, -1), _along(1, None)


def ale_face_flux(
    left: np.ndarray, right: np.ndarray, face_vector: np.ndarray, face_ifmv: np.ndarray,
    primitives: tuple, state_sum: np.ndarray,
) -> np.ndarray:
    """Central moving-grid convective flux through one face.

    Average of the fixed-grid fluxes of the two states dotted with the face
    area vector, minus the integrated face mesh velocity times the average
    state.  The states are (5, ...), ``face_vector`` is (3, ...) and points
    from the left to the right state, and ``face_ifmv`` (...) replaces the
    product of grid velocity and face area; the flux is (5, ...).
    ``primitives`` holds the states' ``((velocity_left, pressure_left),
    (velocity_right, pressure_right))`` and ``state_sum`` is ``left + right``.
    """

    def fixed_grid(states, vel, p):
        contravariant = _dot(vel, face_vector)
        out = np.empty(states.shape)
        np.multiply(states[:4], contravariant, out=out[:4])
        out[1:4] += p * face_vector
        out[4] = (states[4] + p) * contravariant
        return out

    (vel_l, p_l), (vel_r, p_r) = primitives
    # in place, in the order 0.5 * (F_l + F_r) - (g * 0.5) * (w_l + w_r)
    flux = fixed_grid(left, vel_l, p_l)
    flux += fixed_grid(right, vel_r, p_r)
    flux *= 0.5
    flux -= face_ifmv * 0.5 * state_sum
    return flux


def jst_dissipation(
    states_padded: np.ndarray, pressures_padded: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Scalar JST dissipative flux on all interfaces along one grid axis.

    The arrays are axis-major: ``states_padded`` is (5, m+4, ...), m cells
    with two halo cells on each side, ``pressures_padded`` the matching
    (m+4, ...) pressures and ``radii`` the (m+1, ...) per-interface spectral
    radii.  Returns the (5, m+1, ...) blend, by :data:`KAPPA2` and
    :data:`KAPPA4`, of second and fourth differences switched by the
    pressure sensor; it vanishes identically on a uniform field.
    """
    p = pressures_padded
    twice = 2.0 * p[_along(1, -1)]
    nu = np.abs(p[_along(2, None)] - twice + p[_along(None, -2)])
    nu /= p[_along(2, None)] + twice + p[_along(None, -2)]
    eps2 = KAPPA2 * np.maximum(nu[_LOWER], nu[_UPPER])
    eps4 = np.maximum(0.0, KAPPA4 - eps2)
    # third difference built from first differences so it is exactly zero on
    # uniform fields
    diff = np.diff(states_padded, axis=-4)
    delta1 = diff[_along(1, -1)]
    delta3 = diff[_along(2, None)] - 2.0 * delta1
    delta3 += diff[_along(None, -2)]
    # in place, in the order radii * (eps2 * delta1 - eps4 * delta3)
    delta3 *= eps4
    out = eps2 * delta1
    out -= delta3
    out *= radii
    return out


def _flux_jacobians() -> np.ndarray:
    """(3, 5, 5) closed-form Jacobians ``A_d = d(F . e_d)/dw`` at :data:`W_INF`."""
    u = W_INF[1:4] / W_INF[0]
    q2, h, g1 = u @ u, (W_INF[4] + PRESSURE_INF) / W_INF[0], GAMMA - 1.0
    out = np.zeros((3, 5, 5))
    for d, n in enumerate(np.eye(3)):
        out[d, 0, 1:4] = n
        out[d, 1:4, 0], out[d, 1:4, 4] = 0.5 * g1 * q2 * n - u * u[d], g1 * n
        out[d, 1:4, 1:4] = np.outer(u, n) - g1 * np.outer(n, u) + u[d] * np.eye(3)
        out[d, 4] = [(0.5 * g1 * q2 - h) * u[d], *(h * n - g1 * u[d] * u), GAMMA * u[d]]
    return out


def _mv(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """5x5 blocks (5, 5, ...) times vectors (5, ...), line by line."""
    return (blocks * v[None]).sum(axis=1)


def _times(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Block products ``a b`` (5, 5, ...) into complex ``out``, where one factor is
    the float view of complex blocks and the other is real, each entry twice."""
    return np.einsum("ij...,jk...->ik...", a, b, out=out.view(float)).view(complex)


def _solve_lines(factor: tuple, rhs: np.ndarray) -> np.ndarray:
    """Block Thomas on all lines of an axis, their m cells on axis 0 of ``rhs``
    (m, 5, ...): ``x_i = first_i rhs_i - lower_i x_{i-1}`` down the lines and
    ``x_i -= upper_i x_{i+1}`` back up.  With no ``first`` it solves ``(Dg + O) x
    = Dg rhs``, as ``P_i^-1 Dg_i = I + lower_i upper_{i-1}`` and ``P_0 = Dg_0``.
    It works in the precision of the factors: ``rhs`` is cast to their dtype."""
    first, lower, upper = factor
    x = np.array(rhs, lower.dtype, order="C")
    for i in range(len(x)):
        if first is not None:
            x[i] = _mv(first[i], x[i]) - (_mv(lower[i - 1], x[i - 1]) if i else 0.0)
        elif i:
            x[i] -= _mv(lower[i - 1], x[i - 1] - _mv(upper[i - 1], x[i]))
    for i in range(len(x) - 2, -1, -1):
        x[i] -= _mv(upper[i], x[i + 1])
    return x


@dataclass
class FreestreamResult:
    """Outcome of one freestream solve."""

    rel_err: float
    iterations: int  # Newton steps
    initial_residual: float
    final_residual: float
    # why the solve ended: "floor" or "drop" (converged), "max_iterations",
    # or "diverged" (a non-finite state or rel_err > 1)
    stop_reason: str
    krylov_iterations: int = 0
    states: np.ndarray = dataclass_field(repr=False, default=None)

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("floor", "drop")

    @property
    def diverged(self) -> bool:
        return self.stop_reason == "diverged"


@dataclass(frozen=True)
class _AxisFaces:
    """Frozen geometry of the interfaces normal to one axis, axis-major.

    Arrays put the axis's m+1 interfaces first on their grid, e.g.
    (nx+1, Nts, nz, ny) for x.  ``np.moveaxis(a, axis, -4)`` turns a
    (..., Nts, nz, ny, nx) array axis-major and ``np.moveaxis(a, -4, axis)``
    turns it back.
    """

    vectors: np.ndarray  # +axis area vectors, (3, ...)
    ifmv: np.ndarray  # integrated face mesh velocities
    area: np.ndarray  # |vectors|
    axis: int  # the axis's index in (..., nz, ny, nx): -1 for x, -2 for y, -3 for z


class FreestreamProblem:
    """Geometry, metrics and residual assembly for one (case, N, method).

    All per-instant geometry (cell volumes, interface area vectors, interface
    mesh-velocity integrals) is frozen at construction; the solve only
    updates the spectral state.  The cell volumes are the
    trajectory's own.  Area vectors are computed on the interfaces the IFMV
    belongs to, and each axis's block of interfaces, stored +axis, is read as
    its grid (:meth:`HexMesh.axis_interfaces`) and kept once, axis-major
    (:class:`_AxisFaces`).  The spectral operator must sample the
    trajectory's N and period, else ValueError naming both.
    """

    def __init__(
        self,
        mesh: HexMesh,
        trajectory: MotionTrajectory,
        spectral: SpectralOperator,
        ifmv: IfmvField,
    ):
        sampling = (spectral.n_harmonics, spectral.period)
        if sampling != (trajectory.n_harmonics, trajectory.case.period):
            raise ValueError(
                f"the spectral operator's (N, T) = {sampling} differs from the "
                f"trajectory's ({trajectory.n_harmonics}, {trajectory.case.period})"
            )
        self.spectral = spectral
        nts = spectral.nts

        self.volumes = trajectory.volumes.T.reshape(nts, mesh.nz, mesh.ny, mesh.nx)
        areas = mesh.blockwise(
            lambda q: np.concatenate(_quad_area(q)), "interfaces", trajectory.positions
        ).T.reshape(3, nts, -1)
        # the halo cells' state, velocity and pressure, computed as per cell
        w0 = W_INF.reshape(5, 1, 1, 1, 1)
        self._halo = (w0, w0[1:4] / w0[0], _pressure(w0))
        self._axes = []
        for name, axis in zip("xyz", (-1, -2, -3)):
            block, shape = mesh.axis_interfaces(name)
            grids = (v[..., block].reshape(v.shape[:-1] + shape) for v in (areas, ifmv.total.T))
            vectors, face_ifmv = (
                np.ascontiguousarray(np.moveaxis(grid, axis, -4)) for grid in grids
            )
            self._axes.append(
                _AxisFaces(vectors, face_ifmv, np.sqrt(_dot(vectors, vectors)), axis)
            )

    # -- state handling ----------------------------------------------------

    def initial_state(self) -> np.ndarray:
        """Spectral state Omega * w for the uniform flow, (5, Nts, nz, ny, nx)."""
        return self.volumes * W_INF.reshape(-1, 1, 1, 1, 1)

    def physical_states(self, wbar: np.ndarray) -> np.ndarray:
        return wbar / self.volumes

    def _axis_major(self, cells: tuple, axis: _AxisFaces) -> list:
        """Per-cell states, velocities and pressures (or the first of them),
        axis-major, with two frozen freestream halo cells at each end."""
        padded = []
        for values, halo in zip(cells, self._halo):
            moved = np.moveaxis(values, axis.axis, -4)
            out = np.empty(moved.shape[:-4] + (moved.shape[-4] + 4,) + moved.shape[-3:])
            out[_along(None, 2)] = out[_along(-2, None)] = halo
            out[_along(2, -2)] = moved
            padded.append(out)
        return padded

    # -- residual assembly -------------------------------------------------

    def _radii(self, axis: _AxisFaces, state_sum: np.ndarray) -> np.ndarray:
        """Spectral radii on one axis's interfaces from the summed face states."""
        mean = 0.5 * state_sum
        vel = mean[1:4] / mean[0]
        p_mean = _pressure(mean)
        sound = np.sqrt(GAMMA * p_mean / mean[0])
        contravariant = _dot(vel, axis.vectors) - axis.ifmv
        return np.abs(contravariant) + sound * axis.area

    def residual_parts(self, wbar: np.ndarray):
        """(spectral-derivative + convective, dissipative) residual parts."""
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            # per interior cell, shared by every face the cell touches
            states = self.physical_states(wbar)
            cells = (states, states[1:4] / states[0], _pressure(states))
            conv = np.einsum("nK,cK...->cn...", self.spectral.d_matrix, wbar)
            diss = np.zeros_like(conv)
            for axis in self._axes:
                wp, vel, pp = self._axis_major(cells, axis)
                wl, wr = wp[_LEFT], wp[_RIGHT]
                state_sum = wl + wr
                flux = ale_face_flux(
                    wl, wr, axis.vectors, axis.ifmv,
                    ((vel[_LEFT], pp[_LEFT]), (vel[_RIGHT], pp[_RIGHT])), state_sum,
                )
                conv += np.moveaxis(flux[_UPPER] - flux[_LOWER], -4, axis.axis)
                faces = jst_dissipation(wp, pp, self._radii(axis, state_sum))
                diss += np.moveaxis(faces[_UPPER] - faces[_LOWER], -4, axis.axis)
        return conv, diss

    def residual(self, wbar: np.ndarray) -> np.ndarray:
        conv, diss = self.residual_parts(wbar)
        return conv - diss

    def local_timestep(self, wbar: np.ndarray, cfl: float) -> np.ndarray:
        """Per-cell, per-instant pseudo-time step from the spectral radii."""
        states = self.physical_states(wbar)
        total = np.zeros_like(self.volumes)
        for axis in self._axes:
            (wp,) = self._axis_major((states,), axis)
            radii = self._radii(axis, wp[_LEFT] + wp[_RIGHT])
            total += np.moveaxis(0.5 * (radii[_LOWER] + radii[_UPPER]), -4, axis.axis)
        temporal = (
            2.0 * np.pi * self.spectral.n_harmonics / self.spectral.period
        ) * self.volumes
        return cfl * self.volumes / (total + temporal)

    def flux_scale(self) -> float:
        """Reference magnitude of one face's flux, for residual floors: the
        freestream's largest conservative value times its fastest signal
        speed times the largest face area over all faces and instants."""
        speed = np.linalg.norm(VELOCITY_INF) + np.sqrt(GAMMA * PRESSURE_INF / RHO_INF)
        area = max(a.area.max() for a in self._axes)
        return float(np.abs(W_INF).max() * speed * area)

    def residual_floor(self) -> float:
        """The residual RMS a solve stops on: ``1e-14 * flux_scale()``, or
        twice the float64 rounding of the time term ``D(V w)`` where that is
        larger.  Its time scale is the freestream's largest conservative
        value times the largest cell volume times ``2 pi N / T``: it grows
        as L^3 N against the flux scale's L^2, so a large box or a large N
        leaves a conserving field's residual above the flux term alone."""
        spectral = self.spectral
        rate = 2.0 * np.pi * spectral.n_harmonics / spectral.period
        time_scale = np.abs(W_INF).max() * self.volumes.max() * rate
        return max(1e-14 * self.flux_scale(), 2.0 * np.finfo(float).eps * float(time_scale))

    # -- Newton-Krylov solve -----------------------------------------------

    def _line_factors(self):
        """Per axis, ``(first, lower, upper)``: the pivots ``P_i`` of block Thomas on
        ``Dg + O_axis`` folded into its couplings, ``lower_i = P_i^-1 L_{i-1}`` and
        ``upper_i = P_i^-1 U_i`` (m-1, 5, 5, N+1, a, b), line-first on the axis's
        m cells with (a, b) in the order of :class:`_AxisFaces`, and ``first_i =
        P_i^-1`` on x, None on y and z.  ``Dg`` is the cell diagonal of ``J1``
        plus ``i omega k Vbar`` (k = 0..N).  ``J1`` is the Rusanov Jacobian at
        :data:`W_INF` on the time-averaged faces: an interface couples its left
        and right cells by ``1/2 (A . S - g) +- c lambda``, with its mean area
        vector, IFMV and start-state spectral radius, and ``c`` from
        :data:`PRECONDITIONER_DISSIPATION`."""
        spectral, eye = self.spectral, np.eye(5).reshape(5, 5, 1, 1, 1, 1)
        omega = (2.0 * np.pi / spectral.period) * np.arange(spectral.n_harmonics + 1)
        temporal = 1j * np.multiply.outer(omega, self.volumes.mean(axis=0))
        couplings, diagonal = [], 0.0
        for axis in self._axes:
            radii = self._radii(axis, 2.0 * W_INF.reshape(5, 1, 1, 1, 1))
            dissipation = PRECONDITIONER_DISSIPATION * radii.mean(axis=1, keepdims=True)
            g = 0.5 * axis.ifmv.mean(axis=1, keepdims=True)
            central = 0.5 * np.einsum("dij,d...->ij...", _flux_jacobians(),
                                      axis.vectors.mean(axis=2, keepdims=True))
            left, right = central + (dissipation - g) * eye, central - (dissipation + g) * eye
            couplings.append([np.repeat(np.moveaxis(c, 2, 0), 2, axis=-1)  # for _times
                              for c in (-left[:, :, 1:-1], right[:, :, 1:-1])])
            cells = left[:, :, 1:] - right[:, :, :-1]
            diagonal = diagonal + np.moveaxis(cells, -4, axis.axis)
        dg, factors = diagonal + temporal * eye, []
        for n, (axis, (lower, upper)) in enumerate(zip(self._axes, couplings)):
            pivots = np.moveaxis(dg, axis.axis, 0)
            inverses = np.empty(pivots.shape, complex)
            folds = np.empty((2, len(pivots) - 1) + pivots.shape[1:], complex)
            for i, pivot in enumerate(pivots):
                if i:  # minus L_{i-1} upper_{i-1}, with inverses[i] as scratch
                    pivot = pivot - _times(lower[i - 1], folds[1, i - 1].view(float), inverses[i])
                inverse = np.linalg.inv(np.moveaxis(pivot, (0, 1), (-2, -1)))
                inverses[i] = np.moveaxis(inverse, (-2, -1), (0, 1))
                if i:
                    _times(inverses[i].view(float), lower[i - 1], folds[0, i - 1])
                if i < len(folds[1]):
                    _times(inverses[i].view(float), upper[i], folds[1, i])
            factors.append((None if n else inverses, *folds))
        return factors

    def _preconditioner(self):
        """``P^-1 v`` for flat ``v``, ``P = D + J1 Vbar^-1`` with ``Vbar`` the mean
        cell volumes: harmonic k solves ``(i omega k Vbar + J1) y = v_k`` alone,
        factored by axis as ``(Dg + Ox) Dg^-1 (Dg + Oy) Dg^-1 (Dg + Oz)``, each
        factor a line solve.  The real FFT's N+1 harmonics k >= 0 fix a real signal;
        the 2N+1 of :meth:`SpectralOperator.dft` would nearly double the line
        work.  A singular pivot gives a NaN operator.

        The factors are built in float64 and cast to complex64 once, so the
        line solves run in single precision, between a float64 ``rfft`` and
        a complex128 ``irfft``: right-preconditioned GMRES needs ``P^-1``
        only as an approximate inverse, and ``residual(w) = 0`` fixes the
        solution.  Two power-of-two scalings, exact in both precisions, keep
        float32 in range on every admitted box: ``v`` is scaled by its
        largest entry, and ``first = P_i^-1``, the only factor with a
        dimension, by its largest entry per harmonic k.  Both are undone in
        complex128 before the inverse FFT."""
        nts, vbar = self.spectral.nts, self.volumes.mean(axis=0)
        try:
            factors = self._line_factors()
        except np.linalg.LinAlgError:
            return lambda v: np.full_like(v, np.nan)
        # first is (m, 5, 5, N+1, a, b): one exponent e_k per harmonic, so
        # that first 2^-e_k has its largest entry in [0.5, 1)
        first = factors[0][0]
        exponents = np.frexp(np.abs(first).max(axis=(0, 1, 2, 4, 5)))[1].reshape(-1, 1, 1, 1)
        np.ldexp(first.view(float), -exponents[..., 0], out=first.view(float))
        factors = [[f if f is None else f.astype(np.complex64) for f in factor]
                   for factor in factors]

        def precondition(v):
            shift = np.frexp(np.abs(v).max())[1]
            y = np.fft.rfft(np.ldexp(v, -shift).reshape((5,) + self.volumes.shape), axis=1)
            for axis, factor in zip(self._axes, factors):
                lines = _solve_lines(factor, np.moveaxis(y, axis.axis, 0))
                y = np.moveaxis(lines, 0, axis.axis)
            y = y.astype(complex, order="C")
            np.ldexp(y.view(float), exponents + shift, out=y.view(float))
            return (vbar * np.fft.irfft(y, nts, axis=1)).ravel()

        return precondition

    def _gmres(self, wbar: np.ndarray, r: np.ndarray, precondition, tol: float):
        """Inexact Newton step ``x`` with ``|r - J x| <= tol``, and its Krylov count,
        by right-preconditioned restarted GMRES, ``x = P^-1 V y``, storing only
        the basis ``V``; ``J`` is the forward-difference Jacobian at ``wbar``.
        Inner products are numpy's own, not BLAS, whose threads move the bits."""
        r = r.ravel()
        scale = 1e-7 * (1.0 + _norm(wbar.ravel()))

        def jacobian_times(z):
            eps = scale / _norm(z)
            return (self.residual(wbar + eps * z.reshape(wbar.shape)).ravel() - r) / eps

        x, rest, iterations = np.zeros_like(r), r, 0
        basis = np.empty((KRYLOV_RESTART + 1, r.size))
        while (beta := _norm(rest)) > tol and iterations < KRYLOV_MAX:
            hessenberg = np.zeros((KRYLOV_RESTART + 1, KRYLOV_RESTART))
            rhs = np.zeros(KRYLOV_RESTART + 1)
            rhs[0], basis[0] = beta, rest / beta
            for j in range(KRYLOV_RESTART):
                iterations += 1
                v = jacobian_times(precondition(basis[j]))
                after = _norm(v)
                for _ in range(2):  # a second pass when the first cancels
                    before = after
                    c = np.einsum("ij,j->i", basis[: j + 1], v)
                    v -= np.einsum("i,ij->j", c, basis[: j + 1])
                    hessenberg[: j + 1, j] += c
                    if (after := _norm(v)) > 0.5 * before:
                        break
                if not after < np.inf:  # a non-finite product: no step to take
                    return np.full(wbar.shape, np.nan), iterations
                hessenberg[j + 1, j] = after
                small = hessenberg[: j + 2, : j + 1]
                y = np.linalg.lstsq(small, rhs[: j + 2])[0]
                if done := after == 0.0 or _norm(rhs[: j + 2] - small @ y) <= tol:
                    break
                basis[j + 1] = v / after
            x += precondition(np.einsum("i,ij->j", y, basis[: j + 1]))
            if done:
                break
            rest = r - jacobian_times(x)
        return x.reshape(wbar.shape), iterations

    def march(self) -> FreestreamResult:
        """Drive the unsteady residual to zero by Jacobian-free Newton-Krylov.

        At most :data:`NEWTON_MAX` Newton steps, each solved by :meth:`_gmres`
        to the Eisenstat-Walker forcing tolerance and preconditioned by
        :meth:`_preconditioner`, built at the first Newton step, so a solve
        that starts on the floor never builds it.  Divergence is reported
        through the result, not raised.
        """
        wbar = self.initial_state()
        floor = self.residual_floor()
        stop_reason, krylov, forcing = "max_iterations", 0, FORCING_MAX
        # a diverging solve overflows on its way to a non-finite state
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = self.residual(wbar)
            initial = final = _rms(r)
            for newton in range(NEWTON_MAX + 1):
                if not (np.isfinite(final) and np.all(np.isfinite(wbar))):
                    stop_reason = "diverged"
                    break
                if final <= floor or final <= CONVERGENCE_DROP * initial:
                    stop_reason = "floor" if final <= floor else "drop"
                    break
                if newton == NEWTON_MAX:
                    break
                if newton:  # Eisenstat-Walker choice 2, safeguarded
                    safeguard = FORCING_GAMMA * forcing**FORCING_ALPHA
                    forcing = FORCING_GAMMA * (final / previous) ** FORCING_ALPHA
                    forcing = max(forcing, safeguard if safeguard > 0.1 else 0.0)
                # capped, and never solving past what the floor needs
                forcing = max(min(forcing, FORCING_MAX), 0.5 * floor / final)
                precondition = precondition if newton else self._preconditioner()
                step, iterations = self._gmres(wbar, r, precondition, forcing * _norm(r.ravel()))
                wbar = wbar - step
                krylov += iterations
                r = self.residual(wbar)
                previous, final = final, _rms(r)
            states = None if stop_reason == "diverged" else self.physical_states(wbar)
            rel_err = np.inf if states is None else rel_err_freestream(states, W_INF)
        if rel_err > 1.0:
            stop_reason, states = "diverged", None
        return FreestreamResult(
            rel_err=rel_err,
            iterations=newton,
            initial_residual=initial,
            final_residual=final,
            stop_reason=stop_reason,
            krylov_iterations=krylov,
            states=states,
        )
