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
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .gcl import IfmvField, cell_volumes
from .hexmesh import HexMesh, face_area_vectors
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
    """Ideal-gas pressure from conservative variables (..., 5).

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
    rho = states[..., 0]
    momentum_sq = np.einsum("...i,...i->...", states[..., 1:4], states[..., 1:4])
    return (gamma - 1.0) * (states[..., 4] - 0.5 * momentum_sq / rho)


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
    state.  ``face_vector`` points from the left to the right state and
    ``face_ifmv`` replaces the product of grid velocity and face area.

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
            (states[..., 1:4] / states[..., 0:1], _pressure_unchecked(states, gamma))
            for states in (left, right)
        ]
    if state_sum is None:
        state_sum = left + right

    def fixed_grid(states, vel, p):
        contravariant = np.einsum("...i,...i->...", vel, face_vector)
        out = states * contravariant[..., None]
        out[..., 1:4] += p[..., None] * face_vector
        out[..., 4] = (states[..., 4] + p) * contravariant
        return out

    (vel_l, p_l), (vel_r, p_r) = primitives
    central = 0.5 * (fixed_grid(left, vel_l, p_l) + fixed_grid(right, vel_r, p_r))
    return central - face_ifmv[..., None] * 0.5 * state_sum


def jst_dissipation(
    states_padded: np.ndarray,
    pressures_padded: np.ndarray,
    radii: np.ndarray,
    kappa2: float,
    kappa4: float,
) -> np.ndarray:
    """Scalar JST dissipative flux on all interfaces of one grid line.

    ``states_padded`` is (..., m+4, 5) along a grid line with two halo cells
    on each side, ``pressures_padded`` the matching (..., m+4) pressures and
    ``radii`` the (..., m+1) per-interface spectral radii.  Returns the
    (..., m+1, 5) blend of second and fourth differences switched by the
    pressure sensor; it vanishes identically on a uniform field.
    """
    w = np.asarray(states_padded, dtype=float)
    p = np.asarray(pressures_padded, dtype=float)
    nu = np.abs(p[..., 2:] - 2.0 * p[..., 1:-1] + p[..., :-2]) / (
        p[..., 2:] + 2.0 * p[..., 1:-1] + p[..., :-2]
    )
    eps2 = kappa2 * np.maximum(nu[..., :-1], nu[..., 1:])
    eps4 = np.maximum(0.0, kappa4 - eps2)
    # third difference built from first differences so it is exactly zero on
    # uniform fields
    diff = np.diff(w, axis=-2)
    delta1 = diff[..., 1:-1, :]
    delta3 = diff[..., 2:, :] - 2.0 * delta1 + diff[..., :-2, :]
    radii = np.asarray(radii, dtype=float)[..., None]
    return radii * (eps2[..., None] * delta1 - eps4[..., None] * delta3)


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
    x.  ``left`` and ``right`` index the padded cell states on either side
    of each interface, ``lower`` and ``upper`` the low and high interfaces
    of each cell.  ``line`` transposes (Nts, nz, ny, nx) so that the axis
    comes last, ``unline`` transposes back.
    """

    vectors: np.ndarray  # +axis area vectors, (..., 3)
    ifmv: np.ndarray  # integrated face mesh velocities
    area: np.ndarray  # |vectors|
    line: tuple
    unline: tuple
    left: tuple
    right: tuple
    lower: tuple
    upper: tuple


class FreestreamProblem:
    """Geometry, metrics and residual assembly for one (case, N, method).

    All per-instant geometry (cell volumes, interface area vectors, interface
    mesh-velocity integrals) is frozen at construction; the pseudo-time
    iteration only updates the spectral state.  Interface values are read
    from the mesh's cell-face slots, so each face's flux uses the same face
    as its integrated mesh velocity.
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
        corners = mesh.cell_corners(trajectory.positions[:-1])
        self.face_vectors = self._per_interface(face_area_vectors(corners))
        slot_ifmv = np.zeros((mesh.n_cells, 6, nts)) if ifmv is None else ifmv.total
        self.face_ifmv = self._per_interface(np.moveaxis(slot_ifmv, -1, 0))
        self.w0 = self.freestream.conservative()
        self._axes = [
            self._axis_faces(name, dim) for name, dim in (("x", 3), ("y", 2), ("z", 1))
        ]

    def _axis_faces(self, name: str, dim: int) -> _AxisFaces:
        m = self.volumes.shape[dim]

        def along(lo, hi, passive):
            index = [slice(None)] + [passive] * 3
            index[dim] = slice(lo, hi)
            return tuple(index)

        interior = slice(2, -2)
        vectors = self.face_vectors[name]
        line = tuple(d for d in range(4) if d != dim) + (dim,)
        return _AxisFaces(
            vectors=vectors,
            ifmv=self.face_ifmv[name],
            area=np.linalg.norm(vectors, axis=-1),
            line=line,
            unline=tuple(int(d) for d in np.argsort(line)),
            left=along(1, m + 2, interior),
            right=along(2, m + 3, interior),
            lower=along(None, -1, slice(None)),
            upper=along(1, None, slice(None)),
        )

    def _per_interface(self, values: np.ndarray) -> dict[str, np.ndarray]:
        """Cell-slot values (Nts, n_cells, 6, ...) on each axis's interface grid."""
        out = {}
        for axis in ("x", "y", "z"):
            cells, slots, signs = self.mesh.axis_faces(axis)
            signs = signs.reshape(signs.shape + (1,) * (values.ndim - 3))
            out[axis] = values[:, cells, slots] * signs
        return out

    # -- state handling ----------------------------------------------------

    def initial_state(self) -> np.ndarray:
        """Spectral state Omega * w for the uniform flow, (Nts, nz, ny, nx, 5)."""
        return self.volumes[..., None] * self.w0

    def physical_states(self, wbar: np.ndarray) -> np.ndarray:
        return wbar / self.volumes[..., None]

    def _padded(self, wbar: np.ndarray) -> np.ndarray:
        """Physical states with two freestream halo layers on every side."""
        nts, nz, ny, nx, _ = wbar.shape
        wp = np.empty((nts, nz + 4, ny + 4, nx + 4, 5))
        wp[...] = self.w0
        wp[:, 2:-2, 2:-2, 2:-2, :] = self.physical_states(wbar)
        return wp

    # -- residual assembly -------------------------------------------------

    def _radii(self, axis: _AxisFaces, state_sum: np.ndarray) -> np.ndarray:
        """Spectral radii on one axis's interfaces from the summed face states."""
        gamma = self.freestream.gamma
        mean = 0.5 * state_sum
        vel = mean[..., 1:4] / mean[..., 0:1]
        p_mean = _pressure_unchecked(mean, gamma)
        sound = np.sqrt(gamma * p_mean / mean[..., 0])
        contravariant = np.einsum("...i,...i->...", vel, axis.vectors) - axis.ifmv
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
            vel = wp[..., 1:4] / wp[..., 0:1]
            pp = _pressure_unchecked(wp, gamma)
            conv = np.einsum("nK,K...->n...", self.spectral.d_matrix, wbar)
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
                    # JST runs along the last grid axis; the two passive axes
                    # are cut to the interior
                    faces = jst_dissipation(
                        wp.transpose(*axis.line, 4)[:, 2:-2, 2:-2],
                        pp.transpose(axis.line)[:, 2:-2, 2:-2],
                        self._radii(axis, state_sum).transpose(axis.line),
                        KAPPA2, KAPPA4,
                    ).transpose(*axis.unline, 4)
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
        dt = self.local_timestep(wbar, cfl)[..., None]
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
                if stage == 0:
                    stage_residual = conv - diss_blend
                w_stage = wbar - alpha * dt * (conv - diss_blend)
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

    ``wbar`` holds the spectral state Omega*w at the sample instants (first
    axis); the result carries the complex coefficients for k = -N..N on the
    first axis.  At a converged periodic solution every coefficient vanishes.
    The time-spectral matrix in ``problem.residual`` is the exact derivative
    on the samples, so its DFT carries (i 2 pi k / T) w_k.
    """
    residual = np.moveaxis(problem.residual(wbar), 0, -1)
    return np.moveaxis(problem.spectral.dft(residual), -1, 0)


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
