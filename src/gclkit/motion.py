"""Prescribed analytic mesh motions sampled at the 2N+1 spectral instants only.

Five benchmark deformations of the box mesh plus two rigid calibration
motions, each one row of :data:`CASES`: the parameters it reads with their
defaults, its two spatial fields f1 and f2 and its angle law a(t).  One law
moves every case: x goes to x + (cos a - 1) f1 + sin a f2, at the exact
velocity (a' cos a) f2 - (a' sin a) f1.  A straight line has f1 = 0 and
a = 2 pi t / T; a turn by a about a pivot has f1 the offset from the pivot
and f2 that offset turned a quarter turn.  The positions are affine in
(cos a - 1, sin a), so each corner Jacobian is a cubic in them.
:func:`case_fields` builds the fields once per (mesh, case); cases 4 and 5
give modes on the boundary, which RBF interpolation spreads into the volume.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from . import rbf
from .hexmesh import HexMesh, _hex_volume, _inverted_corner
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
    "detect_degenerate",
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

    @classmethod
    def raise_first(cls, times: np.ndarray, bad: np.ndarray, cause: str = "degenerate"):
        """Raise one at the first instant whose column of ``bad`` (n_cells,
        Nt) marks a cell, naming every cell it marks there; else return."""
        instants = np.flatnonzero(bad.any(axis=0))
        if len(instants):
            raise cls(times[instants[0]], np.flatnonzero(bad[:, instants[0]]), cause)


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
        """The case id, the period and the parameters of the case's row, in its order."""
        meta = {"case": self.case_id, "period": self.period}
        meta.update((p, getattr(self, p)) for p in _row(self.case_id).params)
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


def _steady(case, theta):
    """a = 2 pi t / T, turned at the steady rate 2 pi / T."""
    return theta, 2.0 * np.pi / case.period


def _sine(case, theta):
    """a = alpha0 sin(2 pi t / T)."""
    return case.alpha0 * np.sin(theta), case.alpha0 * (2.0 * np.pi / case.period) * np.cos(theta)


def _cosine(case, theta):
    """a = alpha0 cos(2 pi t / T)."""
    return case.alpha0 * np.cos(theta), -case.alpha0 * (2.0 * np.pi / case.period) * np.sin(theta)


def _pair(*components):
    """f1 and f2, (n, 2, 3), from f1's three components then f2's, each (n,)
    or a number; a view of their component planes (2, 3, n)."""
    return np.stack(np.broadcast_arrays(*components)).reshape(2, 3, -1).transpose(2, 0, 1)


def _case4_modes(mesh, case, points):
    """Each control point's random straight-line direction, (Nr, 3)."""
    rng = np.random.default_rng(case.seed)
    amp = rng.uniform(-case.rbf_amplitude, case.rbf_amplitude, (len(points), 3))
    sx, sy, sz = np.sin(2.0 * np.pi * points).T
    return np.stack([amp[:, 0] * sy * sz, amp[:, 1] * sx * sz, amp[:, 2] * sy * sz], axis=-1)


class CaseRow(NamedTuple):
    """One motion case of :data:`CASES`: a vertex x moves to
    x + (cos a - 1) f1 + sin a f2 under the angle a(t) of its law."""

    params: dict[str, Any]  # every parameter the case reads -> its default
    # (mesh, case, values) -> f1 and f2 at every vertex, (n_vertices, 2, 3);
    # the values are the vertices, or the spread modes of a spread case
    fields: Callable
    angle: Callable  # (case, 2 pi t / T) -> a and its rate a'
    # None, or (mesh, case, boundary points) -> the modes RBF spreads into the volume
    spread: Callable | None = None


# The benchmark definitions leave amplitudes free as long as no cell
# degenerates; these defaults pass that gate on the 10x10x10 mesh and are
# overridable from the CLI.
CASES = {  # the fields are functions of (mesh m, case c, values v)
    # straight lines: a sine bump times the amplitude
    "case1": CaseRow(
        {"amplitude": (0.15, 0.15, 0.15)},
        lambda m, c, v: _pair(
            0, 0, 0, *(np.sin(np.pi * v / m.lengths).prod(axis=1, keepdims=True) * c.amplitude).T
        ),
        _steady,
    ),
    # (x, y) -> (x + y sin a, y cos a): the offset (0, y) turned clockwise about (x, 0)
    "case2": CaseRow(
        {"alpha0": 0.05}, lambda m, c, v: _pair(0, v[:, 1], 0, v[:, 1], 0, 0), _sine
    ),
    # the interior vertices go round a circle of radius r through their rest place
    "case3": CaseRow(
        {"radius": 0.05},
        lambda m, c, v: _pair(-(r := c.radius * ~m.boundary_vertex_mask()), 0, 0, 0, r, 0),
        _steady,
    ),
    "case4": CaseRow(
        {"rbf_amplitude": 0.05, "seed": 42, "support_radius": None},
        lambda m, c, v: _pair(0, 0, 0, *v.T),
        _steady,
        _case4_modes,
    ),
    # pitching about x_p: the offsets x - x_p and y turned clockwise
    "case5": CaseRow(
        {"alpha0": 0.08, "pivot_fraction": 0.621, "support_radius": None},
        lambda m, c, v: _pair(v[:, 0], v[:, 1], 0, v[:, 1], -v[:, 0], 0),
        _cosine,
        lambda m, c, p: np.stack([p[:, 0] - c.pivot_fraction * m.lx, p[:, 1]], axis=-1),
    ),
    "rigid-translation": CaseRow(
        {"amplitude": (0.1, 0.05, 0.02)},
        lambda m, c, v: _pair(0, 0, 0, *np.broadcast_to(c.amplitude, v.shape).T),
        _steady,
    ),
    # every vertex turned counter-clockwise about the box's centre line
    "rigid-rotation": CaseRow(
        {"alpha0": 0.1},
        lambda m, c, v: _pair(*(d := v[:, :2] - m.lengths[:2] / 2).T, 0, -d[:, 1], d[:, 0], 0),
        _sine,
    ),
}
CASE_IDS = tuple(CASES)


def _row(case_id: str) -> CaseRow:
    if case_id not in CASES:
        raise ValueError(f"unknown case id {case_id!r}; expected one of {CASE_IDS}")
    return CASES[case_id]


def case_fields(mesh: HexMesh, case: MotionCase, pool: Executor = rbf.INLINE) -> np.ndarray:
    """The case's fields f1 and f2 at every vertex, read-only, (n_vertices, 2, 3).

    A closed-form case evaluates them at the vertices.  Cases 4 and 5
    evaluate their modes (three and two) at the boundary vertices, spread
    them into the volume by RBF interpolation, which is linear, and form f1
    and f2 from them: the modes are spread once, and not each instant's
    displacement nor the fields' zero and repeated components.  The RBF
    build's grid half runs as one task on ``pool`` while the calling thread
    factors the Gram blocks (:func:`rbf.build_system`); either half computes
    the same values on any thread, so the fields have the same bytes.  The fields depend on the
    mesh and the case only, not on N: a harmonic sweep builds them once and
    shares them read-only, and an RBF system is dropped on return.
    """
    row = _row(case.case_id)
    values = mesh.vertices
    if row.spread is not None:
        points = mesh.vertices[mesh.boundary_vertex_ids()]
        system = rbf.build_system(
            points, mesh.vertices, case.resolved_support_radius(mesh), pool
        )
        values = rbf.interpolate(system, row.spread(mesh, case, points))
    fields = row.fields(mesh, case, values)
    fields.flags.writeable = False
    return fields


def evaluate_motion(
    mesh: HexMesh,
    case: MotionCase,
    t: np.ndarray,
    fields: np.ndarray | None = None,
):
    """Vertex positions and velocities at arbitrary instants t (shape (Nt,)).

    The one law turns ``fields`` from :func:`case_fields`, built here when
    not given, by the angle of the case's angle law.  Both are formed as
    component planes (3, Nt, n_vertices), the layout
    :meth:`HexMesh.blockwise` reads, and returned as (Nt, n_vertices, 3)
    views of them.  A period that is not positive and finite raises
    ValueError.
    """
    _checked_period(case.period)
    theta = 2.0 * np.pi * np.atleast_1d(np.asarray(t, dtype=float))[:, None] / case.period
    angle, rate = _row(case.case_id).angle(case, theta)
    if fields is None:
        fields = case_fields(mesh, case)
    cos, sin, (f1, f2) = np.cos(angle), np.sin(angle), fields.transpose(1, 2, 0)[:, :, None]
    positions = mesh.vertices.T[:, None] + (cos - 1.0) * f1 + sin * f2
    velocities = (rate * cos) * f2 - (rate * sin) * f1
    return np.moveaxis(positions, 0, -1), np.moveaxis(velocities, 0, -1)


def detect_degenerate(mesh: HexMesh, times, positions, velocities, volumes) -> None:
    """Gate the arrays of a :class:`MotionTrajectory`: return only if every cell is admissible.

    A cell is degenerate at an instant where its volume or its smallest
    corner Jacobian is nonpositive or NaN; the volumes are read, the
    Jacobians formed here.  Only cells are gated.  The per-step sweep
    hexahedra of AEVI are not: their volumes are signed increments, and a
    negative sweep is a face moving against its normal, not an inverted cell.

    Raises
    ------
    DegenerateMeshError
        Naming the first instant with a degenerate cell, or failing that
        with a non-finite vertex velocity, and every such cell at that
        instant.
    """
    inverted = mesh.blockwise(_inverted_corner, "cells", positions)
    DegenerateMeshError.raise_first(times, ~(volumes > 0.0) | inverted)
    finite = np.isfinite(velocities).all(axis=-1)  # (Nt, n_vertices)
    if not finite.all():
        bad = ~finite.T[mesh.cell_vertex_ids].all(axis=1)  # (n_cells, Nt)
        DegenerateMeshError.raise_first(times, bad, "non-finite velocities in")


def sample_motion(
    mesh: HexMesh,
    case: MotionCase,
    n_harmonics: int,
    fields: np.ndarray | None = None,
) -> MotionTrajectory:
    """Sample a motion case at the 2N+1 spectral instants t_0..t_2N.

    ``fields`` is passed on to :func:`evaluate_motion`.  The cell volumes
    are computed once, here, and :func:`detect_degenerate` gates the
    sample, raising :class:`DegenerateMeshError`.  Positions and velocities
    are kept as :func:`evaluate_motion` forms them, (2N+1, n_vertices, 3)
    views of component planes (3, 2N+1, n_vertices): every geometry pass
    over the trajectory reads them in place, with no copy.
    """
    n_harmonics, period = _checked_sampling(n_harmonics, case.period)
    nts = 2 * n_harmonics + 1
    times = np.arange(nts) * period / nts
    # an overflowing motion is reported by the gate, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        positions, velocities = evaluate_motion(mesh, case, times, fields)
        volumes = mesh.blockwise(_hex_volume, "cells", positions)
        detect_degenerate(mesh, times, positions, velocities, volumes)
    return MotionTrajectory(
        case=case,
        n_harmonics=n_harmonics,
        times=times,
        positions=positions,
        velocities=velocities,
        volumes=volumes,
    )
