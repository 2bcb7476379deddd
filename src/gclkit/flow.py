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
) -> np.ndarray:
    """Central moving-grid convective flux through one face.

    Average of the fixed-grid fluxes of the two states dotted with the face
    area vector, minus the integrated face mesh velocity times the average
    state.  ``face_vector`` points from the left to the right state and
    ``face_ifmv`` replaces the product of grid velocity and face area.
    """
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    face_vector = np.asarray(face_vector, dtype=float)
    face_ifmv = np.asarray(face_ifmv, dtype=float)

    def fixed_grid(states):
        rho = states[..., 0]
        vel = states[..., 1:4] / rho[..., None]
        p = _pressure_unchecked(states, gamma)
        contravariant = np.einsum("...i,...i->...", vel, face_vector)
        out = np.empty_like(states)
        out[..., 0] = rho * contravariant
        out[..., 1:4] = states[..., 1:4] * contravariant[..., None] + (
            p[..., None] * face_vector
        )
        out[..., 4] = (states[..., 4] + p) * contravariant
        return out

    central = 0.5 * (fixed_grid(left) + fixed_grid(right))
    return central - face_ifmv[..., None] * 0.5 * (left + right)


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
    states: np.ndarray = dataclass_field(repr=False, default=None)

    @property
    def residual_drop(self) -> float:
        if self.initial_residual == 0.0:
            return 0.0
        return self.final_residual / self.initial_residual


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

    def _padded(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nts, nz, ny, nx, _ = states.shape
        wp = np.empty((nts, nz + 4, ny + 4, nx + 4, 5))
        wp[...] = self.w0
        wp[:, 2:-2, 2:-2, 2:-2, :] = states
        return wp, _pressure_unchecked(wp, self.freestream.gamma)

    # -- residual assembly -------------------------------------------------

    def _direction_terms(self, wp, pp, axis_name):
        """Per-cell convective and dissipative contributions of one direction.

        Returns (convective, dissipative, interface_radii) where the first two
        are already differenced into cells and the radii are per interface.
        """
        axis = {"x": 3, "y": 2, "z": 1}[axis_name]
        m = {"x": self.mesh.nx, "y": self.mesh.ny, "z": self.mesh.nz}[axis_name]
        # move the active spatial axis next to the component axis; the two
        # passive spatial axes land at positions 1 and 2 and are cut to the
        # interior (halo values only matter along the active line)
        w_line = np.moveaxis(wp, axis, -2)[:, 2:-2, 2:-2]
        p_line = np.moveaxis(pp, axis, -1)[:, 2:-2, 2:-2]
        s_line = np.moveaxis(self.face_vectors[axis_name], axis, -2)
        g_line = np.moveaxis(self.face_ifmv[axis_name], axis, -1)

        wl = w_line[..., 1 : m + 2, :]
        wr = w_line[..., 2 : m + 3, :]
        flux = ale_face_flux(wl, wr, s_line, g_line, self.freestream.gamma)

        mean = 0.5 * (wl + wr)
        vel = mean[..., 1:4] / mean[..., 0:1]
        p_mean = _pressure_unchecked(mean, self.freestream.gamma)
        sound = np.sqrt(self.freestream.gamma * p_mean / mean[..., 0])
        area = np.linalg.norm(s_line, axis=-1)
        contravariant = np.einsum("...i,...i->...", vel, s_line) - g_line
        radii = np.abs(contravariant) + sound * area

        diss = jst_dissipation(w_line, p_line, radii, KAPPA2, KAPPA4)

        conv_cells = flux[..., 1:, :] - flux[..., :-1, :]
        diss_cells = diss[..., 1:, :] - diss[..., :-1, :]
        return (
            np.moveaxis(conv_cells, -2, axis),
            np.moveaxis(diss_cells, -2, axis),
            radii,
        )

    def residual_parts(self, wbar: np.ndarray):
        """(spectral-derivative + convective, dissipative) residual parts."""
        states = self.physical_states(wbar)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            wp, pp = self._padded(states)
            conv = np.einsum("nK,K...->n...", self.spectral.d_matrix, wbar)
            diss = np.zeros_like(conv)
            for axis_name in ("x", "y", "z"):
                c, d, _ = self._direction_terms(wp, pp, axis_name)
                conv += c
                diss += d
        return conv, diss

    def residual(self, wbar: np.ndarray) -> np.ndarray:
        conv, diss = self.residual_parts(wbar)
        return conv - diss

    def local_timestep(self, wbar: np.ndarray, cfl: float) -> np.ndarray:
        """Per-cell, per-instant pseudo-time step from the spectral radii."""
        states = self.physical_states(wbar)
        wp, pp = self._padded(states)
        total = np.zeros_like(self.volumes)
        for axis_name, axis in (("x", 3), ("y", 2), ("z", 1)):
            _, _, radii = self._direction_terms(wp, pp, axis_name)
            per_cell = 0.5 * (radii[..., :-1] + radii[..., 1:])
            total += np.moveaxis(per_cell, -1, axis)
        temporal = (
            2.0 * np.pi * self.spectral.n_harmonics / self.spectral.period
        ) * self.volumes
        return cfl * self.volumes / (total + temporal)

    def flux_scale(self) -> float:
        """Reference magnitude of one-cell flux sums, for residual floors."""
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
        modes, where full convergence is pointless).
        """
        wbar = self.initial_state()
        dt = self.local_timestep(wbar, cfl)[..., None]
        floor = 1e-14 * self.flux_scale()

        initial = final = 0.0
        converged = diverged = False
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            w_stage = wbar
            diss_blend = None
            stage_residual = None
            for stage, alpha in enumerate(RK_STAGE_FRACTIONS):
                conv, diss = self.residual_parts(w_stage)
                beta = RK_DISSIPATION_BLEND.get(stage)
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
                break
            if rel_err_stop is not None and iteration % 25 == 0:
                if self.current_rel_err(wbar) >= rel_err_stop:
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
