"""Integrated face mesh velocities (IFMV) on deforming hexahedral cells.

Four ways to obtain the surface integral of mesh velocity over each cell
face, G_m(t) = integral of (v . n) dS:

* ``nlfd-lvi``   -- straight-line volumetric increments from the initial
  configuration, differentiated in Fourier space;
* ``nlfd-aevi``  -- increments accumulated as per-step sweep hexahedra,
  differentiated in Fourier space;
* ``ts-lvi`` / ``ts-aevi`` -- the same increments pushed through the dense
  time-spectral derivative matrix instead of an explicit DFT/IDFT;
* ``avg``    -- mean vertex velocity dotted with the instantaneous face
  area vector (no conservation guarantee);
* ``trimap`` -- the exact closed-form face flux of the trilinear mapping,
  used as the reference.

Increments that grow linearly in time (faces sweeping a net volume per
period) are split into a linear slope plus a periodic part before any
spectral differentiation; only the periodic part is transformed and the
slope re-enters as the zeroth mode.

Every field holds one value per mesh interface, (n_interfaces, ...), and
:meth:`HexMesh.sum_over_faces` forms the cell sums.  The per-direction split
is opt-in, from :func:`sweep_volume_by_direction` or :func:`quad_flux_by_direction`;
a series built from it, time last, goes through the same transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hexmesh import (
    FACE_LOOPS,
    HexMesh,
    _cross,
    _dot,
    _hex_volume,
    _quad_area,
    _sum,
    corner_planes,
)
from .motion import MotionTrajectory
from .spectral import SpectralOperator

__all__ = [
    "METHODS",
    "IncrementSeries",
    "IfmvField",
    "quad_flux",
    "quad_flux_by_direction",
    "dvoldt_trimap",
    "sweep_volume",
    "sweep_volume_by_direction",
    "lvi_increments",
    "aevi_increments",
    "extract_linear_and_periodic",
    "ifmv_nlfd",
    "ifmv_ts",
    "ifmv_avg",
    "trimap_field",
    "cell_volumes",
    "exact_volume_rates",
]

METHODS = ("nlfd-lvi", "nlfd-aevi", "avg", "trimap", "ts-lvi", "ts-aevi")

def _quad_flux_by_direction(q, v):
    """Flux components of quads with corners q[0..3] and velocities v[0..3]."""
    c01, c12, c23, c30, c02, c13 = (
        _cross(q[a], q[b]) for a, b in ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3))
    )
    vt = _sum(v)
    flux = []
    for d in range(3):
        head = c01[d] + c12[d]
        full = (head + c23[d]) + c30[d]
        s012 = head - c02[d]
        s123 = (c12[d] + c23[d]) - c13[d]
        s230 = (c23[d] + c30[d]) + c02[d]
        s301 = (c30[d] + c01[d]) + c13[d]
        flux.append(
            (
                vt[d] * full
                + v[1][d] * s012
                + v[2][d] * s123
                + v[3][d] * s230
                + v[0][d] * s301
            )
            / 12.0
        )
    return flux


def _quad_flux(q, v):
    return _sum(_quad_flux_by_direction(q, v))


def _planes_of(*arrays):
    """Corner planes of arrays (..., k, 3) broadcast against each other."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))
    return [corner_planes(a) for a in arrays]


def quad_flux_by_direction(quad: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """Per-Cartesian-direction face flux integral of a bilinear quad.

    Component ``d`` is the exact integral of v_d n_d dS over the quad, with
    positions and velocities interpolated bilinearly from the four corners
    (..., 4, 3).  Summing the three components gives the total flux.
    """
    return np.stack(_quad_flux_by_direction(*_planes_of(quad, velocities)), axis=-1)


def quad_flux(quad: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """Total face flux integral (v . n) dS of a bilinear quad."""
    return _quad_flux(*_planes_of(quad, velocities))


def _dvoldt(r, v):
    """Volume rate of hexahedra with corners r[0..7] and velocities v[0..7]."""
    terms = []
    for i, j, k, l in FACE_LOOPS:
        il, ij, jk = r[i] + r[l], r[i] + r[j], r[j] + r[k]
        terms.append(
            _dot(v[j] + v[k], _cross(il, ij))
            + _dot(jk, _cross(v[i] + v[l], ij))
            + _dot(jk, _cross(il, v[i] + v[j]))
        )
    return _sum(terms) / 12.0


def dvoldt_trimap(corners: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """Exact rate of change of the hexahedron volume.

    Product rule applied to the closed-form volume, as a function of the
    eight corner positions and velocities (..., 8, 3).  The six face totals
    of :func:`quad_flux` over ``FACE_LOOPS`` sum to it to rounding.
    """
    return _dvoldt(*_planes_of(corners, velocities))


def _sweep_volume(start, end):
    return _hex_volume([*start, *end])


def sweep_volume(quad_start: np.ndarray, quad_end: np.ndarray) -> np.ndarray:
    """Signed volume swept by a face moving on straight corner paths.

    The sweep is the hexahedron whose bottom face is the quad at the start
    and whose top face is the quad at the end; degenerate (zero-motion)
    sweeps cancel to rounding level.  Positive values mean motion along the
    quad loop's right-hand normal.
    """
    return _sweep_volume(*_planes_of(quad_start, quad_end))


def sweep_volume_by_direction(
    quad_start: np.ndarray, quad_end: np.ndarray
) -> np.ndarray:
    """Per-direction split of :func:`sweep_volume`.

    Component d is the integral of u_d n_d dS over the linear sweep, with u
    the corner displacement.  The integrand is quadratic along the sweep, so
    a three-point Simpson rule in the sweep parameter is exact; the three
    components sum to the swept hexahedron volume.
    """
    quad_start = np.asarray(quad_start, dtype=float)
    quad_end = np.asarray(quad_end, dtype=float)
    u = quad_end - quad_start
    mid = 0.5 * (quad_start + quad_end)
    return (
        quad_flux_by_direction(quad_start, u)
        + 4.0 * quad_flux_by_direction(mid, u)
        + quad_flux_by_direction(quad_end, u)
    ) / 6.0


@dataclass
class IncrementSeries:
    """Per-interface volumetric increments relative to the initial configuration.

    ``totals[f, n]`` is the signed volume swept by interface f between t_0
    and t_n (n = 0..2N+1, the last entry being the closing sample at t = T).
    :func:`extract_linear_and_periodic` fills the linear slope and periodic
    part; the increment builders return the series split.
    """

    method: str  # "lvi" or "aevi"
    period: float
    times: np.ndarray  # (2N+2,)
    totals: np.ndarray  # (n_interfaces, 2N+2)
    linear_slope: np.ndarray | None = None  # (n_interfaces,)
    periodic_part: np.ndarray | None = None  # (n_interfaces, 2N+1)


@dataclass
class IfmvField:
    """IFMV of every interface at the 2N+1 spectral instants, tagged by method."""

    method: str
    total: np.ndarray  # (n_interfaces, 2N+1)


def lvi_increments(mesh: HexMesh, trajectory: MotionTrajectory) -> IncrementSeries:
    """Linear volumetric increments: one straight sweep from t_0 to each t_n.

    The t_0 entry is zero by definition (empty sweep), not the rounding noise
    of a collapsed hexahedron.
    """
    return _increments(
        "lvi", mesh, trajectory, lambda q: _sweep_volume(q[:, :, :1], q[:, :, 1:])
    )


def aevi_increments(mesh: HexMesh, trajectory: MotionTrajectory) -> IncrementSeries:
    """Increments accumulated as a sum of per-step sweep hexahedra."""
    return _increments(
        "aevi",
        mesh,
        trajectory,
        lambda q: np.cumsum(_sweep_volume(q[:, :, :-1], q[:, :, 1:]), axis=0),
    )


def _increments(method, mesh, trajectory, sweeps) -> IncrementSeries:
    """Interface increments t_1..t_2N+1 from ``sweeps`` of the gathered quads,
    split into their linear slope and periodic part.

    ``sweeps`` receives a block's quads as corner planes (4, 3, 2N+2, block)
    and returns (2N+1, block).
    """
    totals = np.zeros((len(mesh.interface_vertex_ids), len(trajectory.times)))
    mesh.blockwise(
        sweeps, mesh.interface_vertex_ids, trajectory.positions, out=totals[:, 1:]
    )
    return extract_linear_and_periodic(
        IncrementSeries(method, trajectory.period, trajectory.times, totals)
    )


def extract_linear_and_periodic(series: IncrementSeries) -> IncrementSeries:
    """Split increments into a linear slope and a periodic remainder.

    The slope is the closing increment over the period; subtracting its
    linear ramp from the samples at t_0..t_2N leaves the periodic part that
    spectral differentiation can act on.
    """
    slope = series.totals[..., -1] / series.period
    periodic = series.totals[..., :-1] - slope[..., None] * series.times[:-1]
    return replace(series, linear_slope=slope, periodic_part=periodic)


def ifmv_nlfd(series: IncrementSeries, spectral: SpectralOperator) -> IfmvField:
    """IFMV from split increments via DFT: G_k = (i 2 pi k / T) p_k for k != 0.

    The zeroth mode is the extracted linear slope; the result is transformed
    back to the time instants.
    """
    total = spectral.differentiate(series.periodic_part) + series.linear_slope[..., None]
    return IfmvField(f"nlfd-{series.method}", total)


def ifmv_ts(series: IncrementSeries, spectral: SpectralOperator) -> IfmvField:
    """IFMV from split increments via the time-spectral matrix: G = D p + slope."""
    total = series.periodic_part @ spectral.d_matrix.T + series.linear_slope[..., None]
    return IfmvField(f"ts-{series.method}", total)


def _avg_flux(q, v):
    """Mean corner velocity dotted with the area vector, as ``mean`` and ``sum`` order it."""
    vbar = _sum(v) / 4.0
    return _sum([a * s for a, s in zip(vbar, _quad_area(q))])


def ifmv_avg(mesh: HexMesh, trajectory: MotionTrajectory) -> IfmvField:
    """Mean-vertex-velocity approximation: G_m = mean(v) . S_m per instant."""
    flux = mesh.blockwise(
        _avg_flux,
        mesh.interface_vertex_ids,
        trajectory.positions[:-1],
        trajectory.velocities[:-1],
    )
    return IfmvField("avg", flux)


def trimap_field(mesh: HexMesh, trajectory: MotionTrajectory) -> IfmvField:
    """Exact trilinear-mapping IFMV for all interfaces and instants."""
    flux = mesh.blockwise(
        _quad_flux,
        mesh.interface_vertex_ids,
        trajectory.positions[:-1],
        trajectory.velocities[:-1],
    )
    return IfmvField("trimap", flux)


def cell_volumes(mesh: HexMesh, trajectory: MotionTrajectory) -> np.ndarray:
    """Cell volumes per instant, shape (n_cells, 2N+1)."""
    return mesh.blockwise(_hex_volume, mesh.cell_vertex_ids, trajectory.positions[:-1])


def exact_volume_rates(mesh: HexMesh, trajectory: MotionTrajectory) -> np.ndarray:
    """Exact d(volume)/dt per cell and instant, shape (n_cells, 2N+1)."""
    return mesh.blockwise(
        _dvoldt,
        mesh.cell_vertex_ids,
        trajectory.positions[:-1],
        trajectory.velocities[:-1],
    )
