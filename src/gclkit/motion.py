"""Prescribed analytic mesh motions sampled at the 2N+1 spectral instants only.

Five benchmark deformations of the box mesh plus two rigid calibration
motions, each one row of :data:`CASES`: the parameters it reads with their
defaults, its spatial fields and its time law.  Every case is a few spatial
fields times functions of time, so :func:`case_fields` builds the fields
once per (mesh, case) and the law applies to them at every instant.  Cases
1-3 and the rigid motions evaluate their fields at every vertex; cases 4
and 5 evaluate theirs on the boundary and let RBF interpolation spread them
into the volume.  Four laws serve the seven cases: a straight-line shift, a
rotation about a pivot, case 3's orbit and case 5's pitch.  Velocities are
always the exact analytic time derivatives of the positions, never finite
differences.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from . import rbf
from .hexmesh import HexMesh, _hex_volume, detect_degenerate
from .spectral import _checked_period, _checked_sampling

if TYPE_CHECKING:  # the package imports no executor machinery until a sweep runs
    from concurrent.futures import Executor

__all__ = [
    "CASES",
    "CASE_IDS",
    "MotionCase",
    "MotionTrajectory",
    "DegenerateMeshError",
    "case_fields",
    "case_parameters",
    "evaluate_motion",
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
            If a non-None override is neither ``period``, which every law
            reads, nor a parameter of the case's row of :data:`CASES`, or
            not in the form of its default (:func:`_checked_parameter`), or
            if the period is not positive and finite.
        """
        defaults = {"period": cls.period} | _row(case_id).params
        overrides = {k: v for k, v in overrides.items() if v is not None}
        unused = sorted(overrides.keys() - defaults.keys())
        if unused:
            raise ValueError(
                f"{case_id} does not read {', '.join(unused)}; it takes {', '.join(defaults)}"
            )
        params = defaults | {k: _checked_parameter(k, v, defaults[k]) for k, v in overrides.items()}
        _checked_period(params["period"])
        return cls(case_id, **params)

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


def _checked_parameter(name: str, value, default):
    """``value`` in the form of the parameter's ``default``, else ValueError
    naming it: a vector takes one number for x, y and z or three, ``seed`` a
    non-negative integer and any other parameter a number."""
    if isinstance(default, tuple):
        values = list(value) if isinstance(value, (tuple, list)) or np.ndim(value) == 1 else [value]
        real = [isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values]
        if len(values) not in (1, 3) or not all(real):
            raise ValueError(f"{name} must be one number or three, got {value!r}")
        return tuple(map(float, np.broadcast_to(values, 3)))
    if name == "seed":
        if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {value!r}")
    elif not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class MotionTrajectory:
    """Vertex positions, vertex velocities and cell volumes at the 2N+1
    spectral instants t_0..t_2N; the LVI/AEVI increments alone form t = T."""

    case: MotionCase
    n_harmonics: int
    times: np.ndarray  # (2N+1,)
    positions: np.ndarray  # (2N+1, n_vertices, 3)
    velocities: np.ndarray  # (2N+1, n_vertices, 3)
    volumes: np.ndarray  # (n_cells, 2N+1)


def _phase(t: np.ndarray, period: float) -> np.ndarray:
    return 2.0 * np.pi * np.asarray(t, dtype=float) / period


def _shift(mesh, case, t, fields):
    """Straight-line paths: the fields scaled by sin(2 pi t / T)."""
    theta = _phase(t, case.period)[:, None, None]
    pos = mesh.vertices + np.sin(theta) * fields
    vel = (2.0 * np.pi / case.period) * np.cos(theta) * fields
    return pos, vel


def _pivoted(pivot_x, pivot_y, offset_x, offset_y, sense):
    """Rotation fields, (n, 5): pivots, offsets from them, sense (+1 counter-clockwise)."""
    return np.stack(np.broadcast_arrays(pivot_x, pivot_y, offset_x, offset_y, sense), axis=-1)


def _rotation(mesh, case, t, fields):
    """Each offset turned about its pivot in the x-y plane by alpha0 sin(2 pi t / T)."""
    theta = _phase(t, case.period)
    alpha = case.alpha0 * np.sin(theta)[:, None]
    alpha_dot = case.alpha0 * (2.0 * np.pi / case.period) * np.cos(theta)[:, None]
    px, py, dx, dy, sense = fields.T
    # the sense flips sin and the rate; cos(-a) is cos(a)
    ca, sa, ad = np.cos(alpha), sense * np.sin(alpha), sense * alpha_dot
    x = px + ca * dx - sa * dy
    y = py + sa * dx + ca * dy
    vx = ad * (-sa * dx - ca * dy)
    vy = ad * (ca * dx - sa * dy)
    pos = np.stack([x, y, np.broadcast_to(mesh.vertices[:, 2], x.shape)], axis=-1)
    vel = np.stack([vx, vy, np.zeros_like(x)], axis=-1)
    return pos, vel


def _orbit(mesh, case, t, fields):
    """The points where the field is 1 circle at radius r through their rest place."""
    alpha = _phase(t, case.period)
    r = case.radius
    disp = np.stack(
        [r * (1.0 - np.cos(alpha)), r * np.sin(alpha), np.zeros_like(alpha)], axis=-1
    )  # (Nt, 3)
    vel1 = (2.0 * np.pi / case.period) * np.stack(
        [r * np.sin(alpha), r * np.cos(alpha), np.zeros_like(alpha)], axis=-1
    )
    pos = mesh.vertices + fields * disp[:, None, :]
    vel = fields * vel1[:, None, :] * np.ones((len(t), 1, 1))
    return pos, vel


def _pitch(mesh, case, t, fields):
    """Rigid pitching about x_p (angle alpha0 cos) of the offsets x - x_p and y."""
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


def _case4_fields(mesh, case, points):
    """Each control point's random straight-line direction, (Nr, 3)."""
    rng = np.random.default_rng(case.seed)
    amp = rng.uniform(-case.rbf_amplitude, case.rbf_amplitude, (len(points), 3))
    sx, sy, sz = np.sin(2.0 * np.pi * points).T
    return np.stack([amp[:, 0] * sy * sz, amp[:, 1] * sx * sz, amp[:, 2] * sy * sz], axis=-1)


class CaseRow(NamedTuple):
    """One motion case of :data:`CASES`."""

    params: dict[str, Any]  # every parameter the case reads -> its default
    fields: Callable  # (mesh, case, points) -> the spatial fields at the points
    law: Callable  # (mesh, case, t, fields at every vertex) -> positions, velocities
    spread: bool = False  # fields given on the boundary and spread by RBF


# The benchmark definitions leave amplitudes free as long as no cell
# degenerates; these defaults pass that gate on the 10x10x10 mesh and are
# overridable from the CLI.
CASES = {  # the fields are functions of (mesh m, case c, points p)
    # a sine bump times the amplitude
    "case1": CaseRow(
        {"amplitude": (0.15, 0.15, 0.15)},
        lambda m, c, p: np.sin(np.pi * p / m.lengths).prod(axis=1, keepdims=True)
        * np.asarray(c.amplitude),
        _shift,
    ),
    # (x, y) -> (x + y sin a, y cos a): the offset (0, y) turned clockwise about (x, 0)
    "case2": CaseRow(
        {"alpha0": 0.05}, lambda m, c, p: _pivoted(p[:, 0], 0.0, 0.0, p[:, 1], -1.0), _rotation
    ),
    # the interior vertices orbit, the boundary stays
    "case3": CaseRow(
        {"radius": 0.05}, lambda m, c, p: (~m.boundary_vertex_mask())[:, None] * 1.0, _orbit
    ),
    "case4": CaseRow(
        {"rbf_amplitude": 0.05, "seed": 42, "support_radius": None}, _case4_fields, _shift, True
    ),
    "case5": CaseRow(
        {"alpha0": 0.08, "pivot_fraction": 0.621, "support_radius": None},
        lambda m, c, p: np.stack([p[:, 0] - c.pivot_fraction * m.lx, p[:, 1]], axis=-1),
        _pitch,
        True,
    ),
    "rigid-translation": CaseRow(
        {"amplitude": (0.1, 0.05, 0.02)},
        lambda m, c, p: np.broadcast_to(c.amplitude, p.shape),
        _shift,
    ),
    # every vertex turned about the box's centre line
    "rigid-rotation": CaseRow(
        {"alpha0": 0.1},
        lambda m, c, p: _pivoted(*m.lengths[:2] / 2, *(p[:, :2] - m.lengths[:2] / 2).T, 1.0),
        _rotation,
    ),
}
CASE_IDS = tuple(CASES)


def _row(case_id: str) -> CaseRow:
    if case_id not in CASES:
        raise ValueError(f"unknown case id {case_id!r}; expected one of {CASE_IDS}")
    return CASES[case_id]


def case_parameters(case_id: str) -> frozenset[str]:
    """The ``MotionCase`` parameters that the motion of ``case_id`` reads."""
    return frozenset(_row(case_id).params)


def case_fields(mesh: HexMesh, case: MotionCase, pool: Executor = rbf.INLINE) -> np.ndarray:
    """The case's spatial fields at every vertex, read-only, (n_vertices, k).

    A closed-form case evaluates them at the vertices.  Cases 4 and 5
    evaluate theirs at the boundary vertices and spread them into the volume
    by RBF interpolation, which is linear, so the k fields are spread once
    and not each instant's displacement.  The RBF build's grid half runs as
    one task on ``pool`` while the calling thread factors the Gram blocks
    (:func:`rbf.build_system`); either half computes the same values on any
    thread, so the fields have the same bytes.  The fields depend on the
    mesh and the case only, not on N: a harmonic sweep builds them once and
    shares them read-only, and an RBF system is dropped on return.
    """
    row = _row(case.case_id)
    if row.spread:
        points = mesh.vertices[mesh.boundary_vertex_ids()]
        system = rbf.build_system(
            points, mesh.vertices, case.resolved_support_radius(mesh), pool
        )
        fields = rbf.interpolate(system, row.fields(mesh, case, points))
    else:
        fields = row.fields(mesh, case, mesh.vertices)
    fields.flags.writeable = False
    return fields


def evaluate_motion(
    mesh: HexMesh,
    case: MotionCase,
    t: np.ndarray,
    fields: np.ndarray | None = None,
):
    """Vertex positions and velocities at arbitrary instants t (shape (Nt,)).

    The case's time law applies to ``fields`` from :func:`case_fields`,
    built here when not given.  A period that is not positive and finite
    raises ValueError.
    """
    _checked_period(case.period)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if fields is None:
        fields = case_fields(mesh, case)
    return _row(case.case_id).law(mesh, case, t, fields)


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
    fields: np.ndarray | None = None,
) -> MotionTrajectory:
    """Sample a motion case at the 2N+1 spectral instants t_0..t_2N.

    ``fields`` is passed on to :func:`evaluate_motion`.  The cell volumes
    are computed once, here, and gate the sample.  Positions and velocities
    are stored component-first, as the planes (3, 2N+1, n_vertices) that
    :meth:`HexMesh.blockwise` reads, and returned as (2N+1, n_vertices, 3)
    views of them: every geometry pass over the trajectory reads them in
    place, and they take no more memory than the vertex arrays would.

    Raises
    ------
    DegenerateMeshError
        Naming the first instant with a cell whose volume or corner Jacobian
        is not positive, or failing that with a non-finite vertex velocity,
        and every such cell at that instant.
    """
    n_harmonics, period = _checked_sampling(n_harmonics, case.period)
    nts = 2 * n_harmonics + 1
    times = np.arange(nts) * period / nts
    # an overflowing motion is reported by the gate, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        positions, velocities = map(_by_component, evaluate_motion(mesh, case, times, fields))
        volumes = mesh.blockwise(_hex_volume, "cells", positions)
        bad = detect_degenerate(mesh, positions, volumes)
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
        n_harmonics=n_harmonics,
        times=times,
        positions=positions,
        velocities=velocities,
        volumes=volumes,
    )
