"""Prescribed analytic mesh motions sampled at the spectral time instants.

Five benchmark deformations of the box mesh plus two rigid calibration
motions, each one row of :data:`CASES`: the parameters it reads with their
defaults, its time law and, for an RBF case, its boundary modes.  Cases 1-3
impose closed-form vertex paths directly; cases 4 and 5 prescribe
boundary-point paths and let RBF interpolation carry them into the volume.
Their boundary laws are separable, a few spatial modes times functions of
time, so the modes are spread once per (mesh, case) and the time law is
applied to the spread fields at every instant.  Velocities are always the
exact analytic time derivatives of the positions, never finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from . import rbf
from .hexmesh import HexMesh, _hex_volume, detect_degenerate

__all__ = [
    "CASES",
    "CASE_IDS",
    "MotionCase",
    "MotionTrajectory",
    "DegenerateMeshError",
    "build_rbf_system",
    "case_parameters",
    "sample_motion",
]


class DegenerateMeshError(RuntimeError):
    """A sampled configuration has inverted, non-invertible or non-finitely moving cells."""

    def __init__(self, instant: float, cell_ids: np.ndarray, cause: str = "degenerate"):
        self.instant = float(instant)
        self.cell_ids = np.asarray(cell_ids)
        self.cause = cause
        ids = self.cell_ids.tolist()  # all kept; the message names the count and first 10
        shown = ", ".join(map(str, ids[:10])) + (", ..." if len(ids) > 10 else "")
        super().__init__(f"{cause} cells [{shown}] ({len(ids)} in all) at t = {self.instant:.6g}")

    def __reduce__(self):  # pickle by the constructor's arguments, not by args
        return type(self), (self.instant, self.cell_ids, self.cause)


@dataclass(frozen=True)
class MotionCase:
    """A motion case id together with its resolved parameters."""

    case_id: str
    period: float = 1.0
    # the case parameters: for_case sets those of the case's row of :data:`CASES`
    amplitude: tuple[float, float, float] | None = None
    alpha0: float | None = None
    radius: float | None = None
    rbf_amplitude: float | None = None
    seed: int | None = None
    pivot_fraction: float | None = None
    support_radius: float | None = None  # None -> 0.3 * max(Lx, Ly, Lz)

    @classmethod
    def for_case(cls, case_id: str, **overrides) -> "MotionCase":
        """The case's parameters at their defaults where an override is None.

        Raises
        ------
        ValueError
            If a non-None override is not a parameter of the case's row of
            :data:`CASES`, which no law of the case would read.
        """
        defaults = _row(case_id).params
        overrides = {k: v for k, v in overrides.items() if v is not None}
        unused = sorted(overrides.keys() - defaults.keys())
        if unused:
            raise ValueError(
                f"{case_id} does not read {', '.join(unused)}; it takes {', '.join(defaults)}"
            )
        params = defaults | overrides
        if "amplitude" in params:  # one value is the same amplitude along x, y and z
            params["amplitude"] = tuple(map(float, np.broadcast_to(params["amplitude"], 3)))
        return cls(case_id=case_id, **params)

    def metadata(self, mesh: HexMesh) -> dict[str, Any]:
        meta = {"case": self.case_id, "period": self.period}
        meta.update((p, getattr(self, p)) for p in case_parameters(self.case_id))
        if "support_radius" in meta:
            meta["support_radius"] = self.resolved_support_radius(mesh)
        return meta

    def resolved_support_radius(self, mesh: HexMesh) -> float:
        if self.support_radius is not None:
            return float(self.support_radius)
        return 0.3 * float(max(mesh.lx, mesh.ly, mesh.lz))


@dataclass(frozen=True)
class MotionTrajectory:
    """Vertex positions at t_0..t_2N plus the closing t = T, and the vertex
    velocities and cell volumes at t_0..t_2N."""

    case: MotionCase
    n_harmonics: int
    times: np.ndarray  # (2N+2,)
    positions: np.ndarray  # (2N+2, n_vertices, 3)
    velocities: np.ndarray  # (2N+1, n_vertices, 3)
    volumes: np.ndarray  # (n_cells, 2N+1)

    @property
    def nts(self) -> int:
        return 2 * self.n_harmonics + 1


def _phase(t: np.ndarray, period: float) -> np.ndarray:
    return 2.0 * np.pi * np.asarray(t, dtype=float) / period


def _case1(mesh, case, t):
    theta = _phase(t, case.period)[:, None]
    x0, y0, z0 = mesh.vertices.T
    shape = np.sin(np.pi * x0 / mesh.lx) * np.sin(np.pi * y0 / mesh.ly) * np.sin(np.pi * z0 / mesh.lz)
    direction = shape[:, None] * np.asarray(case.amplitude)  # (Nv, 3)
    pos = mesh.vertices + np.sin(theta)[..., None] * direction
    vel = (2.0 * np.pi / case.period) * np.cos(theta)[..., None] * direction
    return pos, vel


def _case2(mesh, case, t):
    theta = _phase(t, case.period)[:, None]
    alpha = case.alpha0 * np.sin(theta)
    alpha_dot = case.alpha0 * (2.0 * np.pi / case.period) * np.cos(theta)
    x0, y0, z0 = mesh.vertices.T
    # cos(pi/2 - a) and sin(pi/2 - a), written so t = 0 is bitwise undeformed
    x = x0 + y0 * np.sin(alpha)
    y = y0 * np.cos(alpha)
    vx = y0 * np.cos(alpha) * alpha_dot
    vy = -y0 * np.sin(alpha) * alpha_dot
    zeros = np.zeros_like(x)
    pos = np.stack([x, y, np.broadcast_to(z0, x.shape)], axis=-1)
    vel = np.stack([vx, vy, zeros], axis=-1)
    return pos, vel


def _case3(mesh, case, t):
    alpha = _phase(t, case.period)
    r = case.radius
    disp = np.stack(
        [r * (1.0 - np.cos(alpha)), r * np.sin(alpha), np.zeros_like(alpha)], axis=-1
    )  # (Nt, 3)
    vel1 = (2.0 * np.pi / case.period) * np.stack(
        [r * np.sin(alpha), r * np.cos(alpha), np.zeros_like(alpha)], axis=-1
    )
    interior = np.zeros(mesh.n_vertices)
    interior[mesh.interior_vertex_ids()] = 1.0
    pos = mesh.vertices + interior[:, None] * disp[:, None, :]
    vel = interior[:, None] * vel1[:, None, :] * np.ones((len(t), 1, 1))
    return pos, vel


def _rigid_translation(mesh, case, t):
    theta = _phase(t, case.period)
    amp = np.asarray(case.amplitude)
    pos = mesh.vertices + np.sin(theta)[:, None, None] * amp
    vel = (2.0 * np.pi / case.period) * np.cos(theta)[:, None, None] * amp * np.ones(
        (len(t), mesh.n_vertices, 1)
    )
    return pos, vel


def _rigid_rotation(mesh, case, t):
    theta = _phase(t, case.period)
    alpha = case.alpha0 * np.sin(theta)
    alpha_dot = case.alpha0 * (2.0 * np.pi / case.period) * np.cos(theta)
    center = 0.5 * mesh.lengths
    dx = mesh.vertices[:, 0] - center[0]
    dy = mesh.vertices[:, 1] - center[1]
    ca, sa = np.cos(alpha)[:, None], np.sin(alpha)[:, None]
    x = center[0] + ca * dx - sa * dy
    y = center[1] + sa * dx + ca * dy
    ad = alpha_dot[:, None]
    vx = ad * (-sa * dx - ca * dy)
    vy = ad * (ca * dx - sa * dy)
    pos = np.stack([x, y, np.broadcast_to(mesh.vertices[:, 2], x.shape)], axis=-1)
    vel = np.stack([vx, vy, np.zeros_like(x)], axis=-1)
    return pos, vel


def _case4_modes(mesh, case, points):
    """Each control point's random straight-line direction, (Nr, 3).

    The boundary displacement is sin(2 pi t / T) times these three fields.
    """
    rng = np.random.default_rng(case.seed)
    amp = rng.uniform(-case.rbf_amplitude, case.rbf_amplitude, (len(points), 3))
    x0, y0, z0 = points.T
    return np.stack(
        [
            amp[:, 0] * np.sin(2.0 * np.pi * y0) * np.sin(2.0 * np.pi * z0),
            amp[:, 1] * np.sin(2.0 * np.pi * x0) * np.sin(2.0 * np.pi * z0),
            amp[:, 2] * np.sin(2.0 * np.pi * y0) * np.sin(2.0 * np.pi * z0),
        ],
        axis=-1,
    )


def _case4(mesh, case, t, fields):
    """Straight-line paths: the spread directions scaled by sin(2 pi t / T)."""
    theta = _phase(t, case.period)[:, None, None]
    pos = mesh.vertices + np.sin(theta) * fields
    vel = (2.0 * np.pi / case.period) * np.cos(theta) * fields
    return pos, vel


def _case5_modes(mesh, case, points):
    """The control points' offsets x - x_p and y from the pitch axis, (Nr, 2)."""
    return np.stack([points[:, 0] - case.pivot_fraction * mesh.lx, points[:, 1]], axis=-1)


def _case5(mesh, case, t, fields):
    """Rigid pitching about x_p (angle alpha0 cos) of the spread offsets."""
    theta = _phase(t, case.period)
    alpha = case.alpha0 * np.cos(theta)[:, None]
    alpha_dot = -case.alpha0 * (2.0 * np.pi / case.period) * np.sin(theta)[:, None]
    dx, y0 = fields.T
    ca, sa = np.cos(alpha), np.sin(alpha)
    sx = dx * (ca - 1.0) + y0 * sa
    sy = -dx * sa + y0 * (ca - 1.0)
    vx = alpha_dot * (-dx * sa + y0 * ca)
    vy = alpha_dot * (-dx * ca - y0 * sa)
    zeros = np.zeros_like(sx)
    pos = mesh.vertices + np.stack([sx, sy, zeros], axis=-1)
    vel = np.stack([vx, vy, zeros], axis=-1)
    return pos, vel


class CaseRow(NamedTuple):
    """One motion case of :data:`CASES`."""

    params: dict[str, Any]  # every parameter the case reads -> its default
    law: Callable  # (mesh, case, t[, rbf fields]) -> positions, velocities
    modes: Callable | None = None  # boundary modes for RBF; None: a closed form


# The benchmark definitions leave amplitudes free as long as no cell
# degenerates; these defaults pass that gate on the 10x10x10 mesh and are
# overridable from the CLI.
CASES = {
    "case1": CaseRow({"amplitude": (0.15, 0.15, 0.15)}, _case1),
    "case2": CaseRow({"alpha0": 0.05}, _case2),
    "case3": CaseRow({"radius": 0.05}, _case3),
    "case4": CaseRow(
        {"rbf_amplitude": 0.05, "seed": 42, "support_radius": None}, _case4, _case4_modes
    ),
    "case5": CaseRow(
        {"alpha0": 0.08, "pivot_fraction": 0.621, "support_radius": None}, _case5, _case5_modes
    ),
    "rigid-translation": CaseRow({"amplitude": (0.1, 0.05, 0.02)}, _rigid_translation),
    "rigid-rotation": CaseRow({"alpha0": 0.1}, _rigid_rotation),
}
CASE_IDS = tuple(CASES)


def _row(case_id: str) -> CaseRow:
    if case_id not in CASES:
        raise ValueError(f"unknown case id {case_id!r}; expected one of {CASE_IDS}")
    return CASES[case_id]


def case_parameters(case_id: str) -> frozenset[str]:
    """The ``MotionCase`` parameters that the motion of ``case_id`` reads."""
    return frozenset(_row(case_id).params)


def build_rbf_system(mesh: HexMesh, case: MotionCase) -> np.ndarray | None:
    """Case 4 or 5's boundary modes spread into the mesh, (n_vertices, k).

    Both boundary laws are a few spatial fields times functions of time, and
    the RBF interpolant is linear, so the k modes (3 for case 4, 2 for
    case 5) are spread once and the time law is applied to the grid fields
    at every instant.  The fields depend on the mesh and the case only, not
    on N, so a harmonic sweep builds them once and shares them read-only;
    the RBF system itself is dropped on return.  None for the other cases,
    whose vertex paths are closed forms.
    """
    modes = _row(case.case_id).modes
    if modes is None:
        return None
    points = mesh.vertices[mesh.boundary_vertex_ids()]
    system = rbf.build_system(points, mesh.vertices, case.resolved_support_radius(mesh))
    fields = rbf.interpolate(system, modes(mesh, case, points))
    fields.flags.writeable = False
    return fields


def evaluate_motion(
    mesh: HexMesh,
    case: MotionCase,
    t: np.ndarray,
    rbf_fields: np.ndarray | None = None,
):
    """Vertex positions and velocities at arbitrary instants t (shape (Nt,)).

    Cases 4 and 5 apply their time law to ``rbf_fields`` from
    :func:`build_rbf_system`, built here when not given.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    row = _row(case.case_id)
    if row.modes is None:
        return row.law(mesh, case, t)
    if rbf_fields is None:
        rbf_fields = build_rbf_system(mesh, case)
    return row.law(mesh, case, t, rbf_fields)


def _by_component(*arrays: np.ndarray) -> np.ndarray:
    """Vertex arrays (n, n_vertices, 3) joined along n into one array stored
    as component planes (3, n, n_vertices), viewed as (n, n_vertices, 3)."""
    planes = np.empty((3, sum(len(a) for a in arrays), arrays[0].shape[1]))
    np.concatenate([np.moveaxis(a, -1, 0) for a in arrays], axis=1, out=planes)
    return np.moveaxis(planes, 0, -1)


def sample_motion(
    mesh: HexMesh,
    case: MotionCase,
    n_harmonics: int,
    rbf_fields: np.ndarray | None = None,
) -> MotionTrajectory:
    """Sample a motion case at the 2N+1 spectral instants, positions also at t = T.

    ``rbf_fields`` is passed on to :func:`evaluate_motion`.  The cell volumes
    are computed once, here, and gate the sample: the closing sample is t_0
    again and is neither measured nor checked twice.  Positions and
    velocities are stored component-first, as the planes (3, n_instants,
    n_vertices) that :meth:`HexMesh.blockwise` reads, and returned as
    (n_instants, n_vertices, 3) views of them: every geometry pass over the
    trajectory reads them in place, and they take no more memory than the
    vertex arrays would.

    Raises
    ------
    DegenerateMeshError
        Naming the first instant with a cell whose volume or corner Jacobian
        is not positive, or failing that with a non-finite vertex velocity,
        and every such cell at that instant.
    """
    if n_harmonics < 1:
        raise ValueError(f"n_harmonics must be >= 1, got {n_harmonics}")
    nts = 2 * n_harmonics + 1
    times = np.append(np.arange(nts) * case.period / nts, case.period)
    # an overflowing motion is reported by the gate, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        positions, velocities = evaluate_motion(mesh, case, times[:-1], rbf_fields)
        # the closing sample at t = T is the t = 0 configuration again;
        # reusing it makes the periodic closure exact instead of rounding-level
        positions = _by_component(positions, positions[:1])
        velocities = _by_component(velocities)
        volumes = mesh.blockwise(_hex_volume, "cells", positions[:-1])
        bad = detect_degenerate(mesh, positions[:-1], volumes)
    if len(bad):
        instants, cells = np.divmod(bad, mesh.n_cells)
        raise DegenerateMeshError(times[instants[0]], cells[instants == instants[0]])
    finite = np.isfinite(velocities).all(axis=-1)  # (2N+1, n_vertices)
    if not finite.all():
        n = np.flatnonzero(~finite.all(axis=-1))[0]
        cells = np.flatnonzero(~finite[n][mesh.cell_vertex_ids].all(axis=-1))
        raise DegenerateMeshError(times[n], cells, "non-finite velocities in")
    return MotionTrajectory(
        case=case,
        n_harmonics=int(n_harmonics),
        times=times,
        positions=positions,
        velocities=velocities,
        volumes=volumes,
    )
