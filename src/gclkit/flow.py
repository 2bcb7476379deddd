"""Minimal ALE Euler residual and pseudo-time driver for freestream tests.

The only flow this solver ever sees is a uniform state on a deforming box
mesh, which is exactly the point: with a conservation-law-respecting set of
face mesh velocities the uniform state is a fixed point of the scheme, and
any departure measures the geometric defect.  Spatial discretisation is a
cell-centred finite-volume scheme with central fluxes plus scalar JST
dissipation; the time axis is spectral, and a hybrid five-stage Runge-Kutta
scheme marches the coupled system in pseudo-time.

Boundary handling is deliberately plain: two layers of halo cells frozen at
the freestream state, so geometric effects are never mixed with boundary
condition effects.

Arrays are stored component-first.  The spectral state is
(5, Nts, nz, ny, nx); padded states and face fluxes are (5, Nts, ...) on
their own grids; velocities and face area vectors are (3, Nts, ...);
pressures, volumes, radii and face mesh velocities have no component axis.
Every broadcast then runs over contiguous grid blocks rather than over 3- or
5-wide component vectors.  Three-term dot products are summed in the fixed
order ``(a_x b_x + a_y b_y) + a_z b_z``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .gcl import IfmvField, cell_volumes
from .hexmesh import HexMesh, _quad_area
from .metrics import rel_err_freestream
from .motion import MotionTrajectory
from .spectral import SpectralOperator

__all__ = [
    "FreestreamState",
    "FreestreamResult",
    "FreestreamProblem",
    "FreestreamDivergence",
    "pressure",
    "ale_face_flux",
    "jst_dissipation",
    "nlfd_unsteady_residual",
    "run_freestream",
]


class FreestreamDivergence(RuntimeError):
    """Pseudo-time marching left the physical regime for one method."""

    def __init__(self, case_id: str, method: str, n_harmonics: int):
        self.case_id = case_id
        self.method = method
        self.n_harmonics = n_harmonics
        super().__init__(
            f"freestream run diverged: case={case_id} method={method} N={n_harmonics}"
        )

# Hybrid five-stage scheme: stage fractions, with dissipation re-evaluated
# and blended at stages 1, 3 and 5.
RK_STAGE_FRACTIONS = (0.25, 1.0 / 6.0, 0.375, 0.5, 1.0)
RK_DISSIPATION_BLEND = {0: 1.0, 2: 0.56, 4: 0.44}
# JST second- and fourth-difference coefficients.
KAPPA2 = 1.0
KAPPA4 = 1.0 / 32.0
# A march has converged once its residual falls by this factor.
CONVERGENCE_DROP = 1e-12


@dataclass(frozen=True)
class FreestreamState:
    """Uniform flow state used to initialise and judge the experiment."""

    rho: float = 1.0
    velocity: tuple[float, float, float] = (0.5, 0.0, 0.0)
    pressure: float = 1.0
    gamma: float = 1.4

    def conservative(self) -> np.ndarray:
        u = np.asarray(self.velocity, dtype=float)
        rho_e = self.pressure / (self.gamma - 1.0) + 0.5 * self.rho * (u @ u)
        return np.concatenate([[self.rho], self.rho * u, [rho_e]])


def pressure(states: np.ndarray, gamma: float = 1.4) -> np.ndarray:
    """Ideal-gas pressure from conservative variables (5, ...).

    Raises
    ------
    ValueError
        If any resulting pressure is nonpositive (unphysical state).
    """
    p = _pressure_unchecked(np.asarray(states, dtype=float), gamma)
    if np.any(p <= 0.0):
        raise ValueError("nonpositive pressure encountered")
    return p


def _pressure_unchecked(states: np.ndarray, gamma: float) -> np.ndarray:
    momentum = states[1:4]
    return (gamma - 1.0) * (states[4] - 0.5 * _dot(momentum, momentum) / states[0])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the leading 3-component axis, in a fixed order."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def ale_face_flux(
    left: np.ndarray,
    right: np.ndarray,
    face_vector: np.ndarray,
    face_ifmv: np.ndarray,
    gamma: float = 1.4,
    *,
    primitives: tuple | None = None,
    state_sum: np.ndarray | None = None,
) -> np.ndarray:
    """Central moving-grid convective flux through one face.

    Average of the fixed-grid fluxes of the two states dotted with the face
    area vector, minus the integrated face mesh velocity times the average
    state.  The states are (5, ...), ``face_vector`` is (3, ...) and points
    from the left to the right state, and ``face_ifmv`` (...) replaces the
    product of grid velocity and face area; the flux is (5, ...).

    A caller that already holds them may pass the states' ``primitives``,
    ``((velocity_left, pressure_left), (velocity_right, pressure_right))``,
    and ``state_sum = left + right``; the flux is the same to the bit.
    """
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    face_vector = np.asarray(face_vector, dtype=float)
    face_ifmv = np.asarray(face_ifmv, dtype=float)
    if primitives is None:
        primitives = [
            (states[1:4] / states[0], _pressure_unchecked(states, gamma))
            for states in (left, right)
        ]
    if state_sum is None:
        state_sum = left + right

    def fixed_grid(states, vel, p):
        contravariant = _dot(vel, face_vector)
        out = states * contravariant
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
    states_padded: np.ndarray,
    pressures_padded: np.ndarray,
    radii: np.ndarray,
    kappa2: float,
    kappa4: float,
    axis: int = -1,
) -> np.ndarray:
    """Scalar JST dissipative flux on all interfaces along one grid axis.

    ``states_padded`` is (5, ...) with m+4 cells along ``axis``, two halo
    cells on each side, ``pressures_padded`` the matching (...) pressures and
    ``radii`` the (...) per-interface spectral radii, m+1 along ``axis``.
    ``axis`` counts from the end, so it names the same grid axis in all
    three arrays.  Returns the (5, ...) blend of second and fourth
    differences switched by the pressure sensor, m+1 along ``axis``; it
    vanishes identically on a uniform field.
    """
    if axis >= 0:
        raise ValueError(f"axis must count from the end, got {axis}")
    w = np.asarray(states_padded, dtype=float)
    p = np.asarray(pressures_padded, dtype=float)

    def cut(lo, hi):
        return (Ellipsis, slice(lo, hi)) + (slice(None),) * (-1 - axis)

    twice = 2.0 * p[cut(1, -1)]
    nu = np.abs(p[cut(2, None)] - twice + p[cut(None, -2)])
    nu /= p[cut(2, None)] + twice + p[cut(None, -2)]
    eps2 = kappa2 * np.maximum(nu[cut(None, -1)], nu[cut(1, None)])
    eps4 = np.maximum(0.0, kappa4 - eps2)
    # third difference built from first differences so it is exactly zero on
    # uniform fields
    diff = np.diff(w, axis=axis)
    delta1 = diff[cut(1, -1)]
    delta3 = diff[cut(2, None)] - 2.0 * delta1
    delta3 += diff[cut(None, -2)]
    # in place, in the order radii * (eps2 * delta1 - eps4 * delta3)
    delta3 *= eps4
    out = eps2 * delta1
    out -= delta3
    out *= np.asarray(radii, dtype=float)
    return out


@dataclass
class FreestreamResult:
    """Outcome of one pseudo-time run."""

    rel_err: float
    iterations: int
    initial_residual: float
    final_residual: float
    converged: bool
    diverged: bool
    # why the march ended: "floor" or "drop" (converged), "rel_err_stop",
    # "max_iterations", or "diverged" (a non-finite state or rel_err > 1)
    stop_reason: str
    states: np.ndarray = dataclass_field(repr=False, default=None)

    @property
    def residual_drop(self) -> float:
        if self.initial_residual == 0.0:
            return 0.0
        return self.final_residual / self.initial_residual


@dataclass(frozen=True)
class _AxisFaces:
    """Frozen geometry of the interfaces normal to one axis.

    Arrays live on the axis's interface grid, e.g. (Nts, nz, ny, nx+1) for
    x.  The index tuples address the three trailing grid axes, so they apply
    with or without a leading component axis.  ``left`` and ``right`` index
    the padded cell values on either side of each interface, ``lower`` and
    ``upper`` the low and high interfaces of each cell, and ``line`` the
    padded cells JST reads: every cell along ``axis`` (counted from the
    end), the interior across it.
    """

    vectors: np.ndarray  # +axis area vectors, (3, ...)
    ifmv: np.ndarray  # integrated face mesh velocities
    area: np.ndarray  # |vectors|
    axis: int  # the grid axis, counted from the end
    line: tuple
    left: tuple
    right: tuple
    lower: tuple
    upper: tuple


class FreestreamProblem:
    """Geometry, metrics and residual assembly for one (case, N, method).

    All per-instant geometry (cell volumes, interface area vectors, interface
    mesh-velocity integrals) is frozen at construction; the pseudo-time
    iteration only updates the spectral state.  Area vectors are computed on
    the interfaces the IFMV belongs to, and each axis's block of interfaces
    is read as its grid, oriented +axis (:meth:`HexMesh.axis_interfaces`).
    """

    def __init__(
        self,
        mesh: HexMesh,
        trajectory: MotionTrajectory,
        spectral: SpectralOperator,
        ifmv: IfmvField | None,
        freestream: FreestreamState | None = None,
    ):
        self.mesh = mesh
        self.spectral = spectral
        self.freestream = freestream or FreestreamState()
        nts = spectral.nts

        self.volumes = (
            cell_volumes(mesh, trajectory).T.reshape(nts, mesh.nz, mesh.ny, mesh.nx)
        )
        n_interfaces = len(mesh.interface_vertex_ids)
        areas = mesh.blockwise(
            lambda q: np.concatenate(_quad_area(q)),
            mesh.interface_vertex_ids,
            trajectory.positions[:-1],
            out=np.empty((3 * nts, n_interfaces)).T,
        ).T.reshape(3, nts, n_interfaces)
        g = np.zeros((nts, n_interfaces)) if ifmv is None else ifmv.total.T
        self.face_vectors, self.face_ifmv = {}, {}
        for name in "xyz":
            block, orientation = mesh.axis_interfaces(name)
            self.face_vectors[name], self.face_ifmv[name] = (
                np.multiply(
                    values[..., block].reshape(values.shape[:-1] + orientation.shape),
                    orientation,
                    order="C",
                )
                for values in (areas, g)
            )
        self.w0 = self.freestream.conservative()
        self._axes = [
            self._axis_faces(name, axis) for name, axis in (("x", -1), ("y", -2), ("z", -3))
        ]

    def _axis_faces(self, name: str, axis: int) -> _AxisFaces:
        m = self.volumes.shape[axis]

        def along(lo, hi, passive):
            index = [Ellipsis] + [passive] * 3
            index[axis] = slice(lo, hi)
            return tuple(index)

        interior = slice(2, -2)
        vectors = self.face_vectors[name]
        return _AxisFaces(
            vectors=vectors,
            ifmv=self.face_ifmv[name],
            area=np.sqrt(_dot(vectors, vectors)),
            axis=axis,
            line=along(None, None, interior),
            left=along(1, m + 2, interior),
            right=along(2, m + 3, interior),
            lower=along(None, -1, slice(None)),
            upper=along(1, None, slice(None)),
        )

    # -- state handling ----------------------------------------------------

    def initial_state(self) -> np.ndarray:
        """Spectral state Omega * w for the uniform flow, (5, Nts, nz, ny, nx)."""
        return self.volumes * self.w0.reshape(-1, 1, 1, 1, 1)

    def physical_states(self, wbar: np.ndarray) -> np.ndarray:
        return wbar / self.volumes

    def _padded(self, wbar: np.ndarray) -> np.ndarray:
        """Physical states with two freestream halo layers on every side."""
        _, nts, nz, ny, nx = wbar.shape
        wp = np.empty((5, nts, nz + 4, ny + 4, nx + 4))
        wp[...] = self.w0.reshape(-1, 1, 1, 1, 1)
        wp[..., 2:-2, 2:-2, 2:-2] = self.physical_states(wbar)
        return wp

    # -- residual assembly -------------------------------------------------

    def _radii(self, axis: _AxisFaces, state_sum: np.ndarray) -> np.ndarray:
        """Spectral radii on one axis's interfaces from the summed face states."""
        gamma = self.freestream.gamma
        mean = 0.5 * state_sum
        vel = mean[1:4] / mean[0]
        p_mean = _pressure_unchecked(mean, gamma)
        sound = np.sqrt(gamma * p_mean / mean[0])
        contravariant = _dot(vel, axis.vectors) - axis.ifmv
        return np.abs(contravariant) + sound * axis.area

    def residual_parts(self, wbar: np.ndarray, dissipation: bool = True):
        """(spectral-derivative + convective, dissipative) residual parts.

        With ``dissipation=False`` the dissipative part is not computed and
        comes back as None.
        """
        gamma = self.freestream.gamma
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            wp = self._padded(wbar)
            # per padded cell, shared by every face the cell touches
            vel = wp[1:4] / wp[0]
            pp = _pressure_unchecked(wp, gamma)
            conv = np.einsum("nK,cK...->cn...", self.spectral.d_matrix, wbar)
            diss = np.zeros_like(conv) if dissipation else None
            for axis in self._axes:
                wl, wr = wp[axis.left], wp[axis.right]
                state_sum = wl + wr
                flux = ale_face_flux(
                    wl, wr, axis.vectors, axis.ifmv, gamma,
                    primitives=(
                        (vel[axis.left], pp[axis.left]),
                        (vel[axis.right], pp[axis.right]),
                    ),
                    state_sum=state_sum,
                )
                conv += flux[axis.upper] - flux[axis.lower]
                if dissipation:
                    faces = jst_dissipation(
                        wp[axis.line], pp[axis.line],
                        self._radii(axis, state_sum), KAPPA2, KAPPA4, axis.axis,
                    )
                    diss += faces[axis.upper] - faces[axis.lower]
        return conv, diss

    def residual(self, wbar: np.ndarray) -> np.ndarray:
        conv, diss = self.residual_parts(wbar)
        return conv - diss

    def local_timestep(self, wbar: np.ndarray, cfl: float) -> np.ndarray:
        """Per-cell, per-instant pseudo-time step from the spectral radii."""
        wp = self._padded(wbar)
        total = np.zeros_like(self.volumes)
        for axis in self._axes:
            radii = self._radii(axis, wp[axis.left] + wp[axis.right])
            total += 0.5 * (radii[axis.lower] + radii[axis.upper])
        temporal = (
            2.0 * np.pi * self.spectral.n_harmonics / self.spectral.period
        ) * self.volumes
        return cfl * self.volumes / (total + temporal)

    def flux_scale(self) -> float:
        """Reference magnitude of one-cell flux sums, for residual floors.

        The area factor is the Frobenius norm of each axis's whole
        face-vector array (all faces and instants), not the largest face
        area: on the 10^3 mesh it is about 62 times the largest face, so the
        floor ``1e-14 * flux_scale()`` that ends a march is looser than a
        per-face scale would make it.  Fixing it is deferred because the fix
        changes when marches stop.
        """
        w0 = self.w0
        speed = np.linalg.norm(self.freestream.velocity) + np.sqrt(
            self.freestream.gamma * self.freestream.pressure / self.freestream.rho
        )
        area = max(np.linalg.norm(s).max() for s in self.face_vectors.values())
        return float(np.abs(w0).max() * speed * area)

    # -- pseudo-time -------------------------------------------------------

    def march(
        self,
        cfl: float = 1.5,
        max_iterations: int = 20000,
        rel_err_stop: float | None = None,
    ) -> FreestreamResult:
        """Drive the unsteady residual to zero with the five-stage scheme.

        ``rel_err_stop`` optionally ends the run early once the departure
        from freestream exceeds that value (used when demonstrating failure
        modes, where full convergence is pointless).  Dissipation is
        evaluated only at the stages that blend it.
        """
        wbar = self.initial_state()
        dt = self.local_timestep(wbar, cfl)
        floor = 1e-14 * self.flux_scale()

        initial = final = 0.0
        converged = diverged = False
        stop_reason = "max_iterations"
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            w_stage = wbar
            diss_blend = None
            stage_residual = None
            for stage, alpha in enumerate(RK_STAGE_FRACTIONS):
                beta = RK_DISSIPATION_BLEND.get(stage)
                conv, diss = self.residual_parts(w_stage, dissipation=beta is not None)
                if beta is not None:
                    diss_blend = (
                        diss
                        if diss_blend is None
                        else beta * diss + (1.0 - beta) * diss_blend
                    )
                residual = conv - diss_blend
                if stage == 0:
                    stage_residual = residual
                w_stage = wbar - alpha * dt * residual
            if not np.all(np.isfinite(w_stage)):
                diverged = True
                break
            wbar = w_stage

            final = float(np.sqrt(np.mean(stage_residual**2)))
            if iteration == 1:
                initial = final
            if final <= floor or final <= CONVERGENCE_DROP * initial:
                converged = True
                stop_reason = "floor" if final <= floor else "drop"
                break
            if rel_err_stop is not None and iteration % 25 == 0:
                if self.current_rel_err(wbar) >= rel_err_stop:
                    stop_reason = "rel_err_stop"
                    break

        rel_err = np.inf if diverged else self.current_rel_err(wbar)
        if rel_err > 1.0:
            diverged = True
        return FreestreamResult(
            rel_err=rel_err,
            iterations=iteration,
            initial_residual=initial,
            final_residual=final,
            converged=converged,
            diverged=diverged,
            stop_reason="diverged" if diverged else stop_reason,
            states=None if diverged else self.physical_states(wbar),
        )

    def current_rel_err(self, wbar: np.ndarray) -> float:
        return rel_err_freestream(self.physical_states(wbar), self.w0)


def nlfd_unsteady_residual(problem: FreestreamProblem, wbar: np.ndarray) -> np.ndarray:
    """Per-harmonic unsteady residual: (i 2 pi k / T) w_k + R_k.

    ``wbar`` holds the spectral state Omega*w, (5, Nts, nz, ny, nx), with the
    sample instants on the second axis; the result carries the complex
    coefficients for k = -N..N on that axis.  At a converged periodic
    solution every coefficient vanishes.  The time-spectral matrix in
    ``problem.residual`` is the exact derivative on the samples, so its DFT
    carries (i 2 pi k / T) w_k.
    """
    residual = np.moveaxis(problem.residual(wbar), 1, -1)
    return np.moveaxis(problem.spectral.dft(residual), -1, 1)


def run_freestream(
    mesh: HexMesh,
    trajectory: MotionTrajectory,
    spectral: SpectralOperator,
    ifmv: IfmvField | None,
    freestream: FreestreamState | None = None,
    cfl: float = 1.5,
    max_iterations: int = 20000,
    rel_err_stop: float | None = None,
) -> FreestreamResult:
    """Initialise uniform flow, march to convergence, report the departure.

    ``ifmv=None`` deliberately zeroes all face mesh velocities, producing a
    controlled conservation defect.  Divergence is reported through the
    result, not raised.
    """
    problem = FreestreamProblem(mesh, trajectory, spectral, ifmv, freestream)
    return problem.march(cfl, max_iterations, rel_err_stop)
