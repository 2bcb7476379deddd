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
    "pressure",
    "ale_face_flux",
    "jst_dissipation",
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

    def __reduce__(self):  # pickle by the constructor's arguments, not by args
        return type(self), (self.case_id, self.method, self.n_harmonics)


# Hybrid five-stage scheme: stage fractions, with dissipation re-evaluated
# and blended at stages 1, 3 and 5.
RK_STAGE_FRACTIONS = (0.25, 1.0 / 6.0, 0.375, 0.5, 1.0)
RK_DISSIPATION_BLEND = {0: 1.0, 2: 0.56, 4: 0.44}
# JST second- and fourth-difference coefficients.
KAPPA2 = 1.0
KAPPA4 = 1.0 / 32.0
# A march has converged once its residual falls by this factor.
CONVERGENCE_DROP = 1e-12
# Ratio of specific heats, and the one uniform flow every run starts from and
# is judged against: density, velocity, pressure and conservative variables.
GAMMA = 1.4
RHO_INF, VELOCITY_INF, PRESSURE_INF = 1.0, (0.5, 0.0, 0.0), 1.0
_u = np.array(VELOCITY_INF)
W_INF = np.array([RHO_INF, *RHO_INF * _u, PRESSURE_INF / (GAMMA - 1.0) + 0.5 * RHO_INF * (_u @ _u)])
W_INF.flags.writeable = False


def pressure(states: np.ndarray) -> np.ndarray:
    """Ideal-gas pressure from conservative variables (5, ...).

    Raises
    ------
    ValueError
        If any resulting pressure is nonpositive (unphysical state).
    """
    p = _pressure_unchecked(np.asarray(states, dtype=float))
    if np.any(p <= 0.0):
        raise ValueError("nonpositive pressure encountered")
    return p


def _pressure_unchecked(states: np.ndarray) -> np.ndarray:
    momentum = states[1:4]
    return (GAMMA - 1.0) * (states[4] - 0.5 * _dot(momentum, momentum) / states[0])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the leading 3-component axis, in a fixed order."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def ale_face_flux(
    left: np.ndarray,
    right: np.ndarray,
    face_vector: np.ndarray,
    face_ifmv: np.ndarray,
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
            (states[1:4] / states[0], _pressure_unchecked(states))
            for states in (left, right)
        ]
    if state_sum is None:
        state_sum = left + right

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
    # why the march ended: "floor" or "drop" (converged), "rel_err_stop",
    # "max_iterations", or "diverged" (a non-finite state or rel_err > 1)
    stop_reason: str
    states: np.ndarray = dataclass_field(repr=False, default=None)

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("floor", "drop")

    @property
    def diverged(self) -> bool:
        return self.stop_reason == "diverged"


def _along(lo, hi) -> tuple:
    """Index lo:hi along the leading grid axis of an axis-major array."""
    return (Ellipsis, slice(lo, hi), slice(None), slice(None), slice(None))


# padded cells left and right of each interface; low and high interfaces of
# each cell
_LEFT, _RIGHT = _along(1, -2), _along(2, -1)
_LOWER, _UPPER = _along(None, -1), _along(1, None)


@dataclass(frozen=True)
class _AxisFaces:
    """Frozen geometry of the interfaces normal to one axis, axis-major.

    Arrays put the axis's m+1 interfaces first on their grid, e.g.
    (nx+1, Nts, nz, ny) for x.  ``order`` transposes a (c, Nts, nz, ny, nx)
    array to axis-major and ``back`` undoes it; ``order[1:]`` and
    ``back[1:]`` do the same without the component axis.
    """

    vectors: np.ndarray  # +axis area vectors, (3, ...)
    ifmv: np.ndarray  # integrated face mesh velocities
    area: np.ndarray  # |vectors|
    order: tuple
    back: tuple


class FreestreamProblem:
    """Geometry, metrics and residual assembly for one (case, N, method).

    All per-instant geometry (cell volumes, interface area vectors, interface
    mesh-velocity integrals) is frozen at construction; the pseudo-time
    iteration only updates the spectral state.  The cell volumes are the
    trajectory's own.  Area vectors are computed on the interfaces the IFMV
    belongs to, and each axis's block of interfaces, stored +axis, is read as
    its grid (:meth:`HexMesh.axis_interfaces`) and kept once, axis-major
    (:class:`_AxisFaces`).  ``ifmv=None`` zeroes every face mesh velocity, a
    controlled conservation defect.
    """

    def __init__(
        self,
        mesh: HexMesh,
        trajectory: MotionTrajectory,
        spectral: SpectralOperator,
        ifmv: IfmvField | None,
    ):
        self.spectral = spectral
        nts = spectral.nts

        self.volumes = trajectory.volumes.T.reshape(nts, mesh.nz, mesh.ny, mesh.nx)
        n_interfaces = len(mesh.interface_vertex_ids)
        areas = mesh.blockwise(
            lambda q: np.concatenate(_quad_area(q)),
            mesh.interface_vertex_ids,
            trajectory.positions[:-1],
            out=np.empty((3 * nts, n_interfaces)).T,
        ).T.reshape(3, nts, n_interfaces)
        g = np.zeros((nts, n_interfaces)) if ifmv is None else ifmv.total.T
        # the halo cells' state, velocity and pressure, computed as per cell
        w0 = W_INF.reshape(5, 1, 1, 1, 1)
        self._halo = (w0, w0[1:4] / w0[0], _pressure_unchecked(w0))
        self._axes = []
        for name, axis in zip("xyz", (-1, -2, -3)):
            block, shape = mesh.axis_interfaces(name)
            order = (0, axis) + tuple(i for i in range(-4, 0) if i != axis)
            grids = (values[..., block].reshape(values.shape[:-1] + shape) for values in (areas, g))
            vectors, face_ifmv = (
                np.ascontiguousarray(grid.transpose(order[-grid.ndim:])) for grid in grids
            )
            self._axes.append(
                _AxisFaces(
                    vectors=vectors,
                    ifmv=face_ifmv,
                    area=np.sqrt(_dot(vectors, vectors)),
                    order=order,
                    back=(0,) + tuple(np.argsort(np.mod(order, 5))[1:] - 5),
                )
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
            moved = values.transpose(axis.order[-values.ndim:])
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
        p_mean = _pressure_unchecked(mean)
        sound = np.sqrt(GAMMA * p_mean / mean[0])
        contravariant = _dot(vel, axis.vectors) - axis.ifmv
        return np.abs(contravariant) + sound * axis.area

    def residual_parts(self, wbar: np.ndarray, dissipation: bool = True):
        """(spectral-derivative + convective, dissipative) residual parts.

        With ``dissipation=False`` the dissipative part is not computed and
        comes back as None.
        """
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            # per interior cell, shared by every face the cell touches
            states = self.physical_states(wbar)
            cells = (states, states[1:4] / states[0], _pressure_unchecked(states))
            conv = np.einsum("nK,cK...->cn...", self.spectral.d_matrix, wbar)
            diss = np.zeros_like(conv) if dissipation else None
            for axis in self._axes:
                wp, vel, pp = self._axis_major(cells, axis)
                wl, wr = wp[_LEFT], wp[_RIGHT]
                state_sum = wl + wr
                flux = ale_face_flux(
                    wl, wr, axis.vectors, axis.ifmv,
                    primitives=(
                        (vel[_LEFT], pp[_LEFT]),
                        (vel[_RIGHT], pp[_RIGHT]),
                    ),
                    state_sum=state_sum,
                )
                conv += (flux[_UPPER] - flux[_LOWER]).transpose(axis.back)
                if dissipation:
                    faces = jst_dissipation(
                        wp, pp, self._radii(axis, state_sum), KAPPA2, KAPPA4, -4
                    )
                    diss += (faces[_UPPER] - faces[_LOWER]).transpose(axis.back)
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
            total += (0.5 * (radii[_LOWER] + radii[_UPPER])).transpose(axis.back[1:])
        temporal = (
            2.0 * np.pi * self.spectral.n_harmonics / self.spectral.period
        ) * self.volumes
        return cfl * self.volumes / (total + temporal)

    def flux_scale(self) -> float:
        """Reference magnitude of one-cell flux sums, for residual floors.

        The area factor is the Frobenius norm of each axis's face vectors
        over all faces and instants, summed in grid (C) order, as the
        axis-major order rounds differently.  It is not the largest face
        area: on the 10^3 mesh it is about 62 times the largest face, so the
        floor ``1e-14 * flux_scale()`` that ends a march is looser than a
        per-face scale would make it.  Fixing it is deferred because the fix
        changes when marches stop.
        """
        speed = np.linalg.norm(VELOCITY_INF) + np.sqrt(GAMMA * PRESSURE_INF / RHO_INF)
        area = max(np.linalg.norm(a.vectors.transpose(a.back).ravel()) for a in self._axes)
        return float(np.abs(W_INF).max() * speed * area)

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
        evaluated only at the stages that blend it.  Divergence is reported
        through the result, not raised.
        """
        wbar = self.initial_state()
        floor = 1e-14 * self.flux_scale()

        initial = final = 0.0
        stop_reason = "max_iterations"
        iteration = 0
        # a diverging march overflows before its state turns non-finite,
        # which is how divergence is detected and reported
        with np.errstate(over="ignore", invalid="ignore"):
            dt = self.local_timestep(wbar, cfl)
            for iteration in range(1, max_iterations + 1):
                w_stage = wbar
                diss_blend = None
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
                    stop_reason = "diverged"
                    break
                wbar = w_stage

                final = float(np.sqrt(np.mean(stage_residual**2)))
                if iteration == 1:
                    initial = final
                if final <= floor or final <= CONVERGENCE_DROP * initial:
                    stop_reason = "floor" if final <= floor else "drop"
                    break
                if rel_err_stop is not None and iteration % 25 == 0:
                    if self.current_rel_err(wbar) >= rel_err_stop:
                        stop_reason = "rel_err_stop"
                        break

            rel_err = np.inf if stop_reason == "diverged" else self.current_rel_err(wbar)
        if rel_err > 1.0:
            stop_reason = "diverged"
        return FreestreamResult(
            rel_err=rel_err,
            iterations=iteration,
            initial_residual=initial,
            final_residual=final,
            stop_reason=stop_reason,
            states=None if stop_reason == "diverged" else self.physical_states(wbar),
        )

    def current_rel_err(self, wbar: np.ndarray) -> float:
        return rel_err_freestream(self.physical_states(wbar), W_INF)
