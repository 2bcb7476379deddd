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

Face values are computed once per mesh interface and scattered to the two
cells sharing it with opposite signs.  The per-Cartesian-direction split is
opt-in, from :func:`sweep_volume_by_direction` or :func:`quad_flux_by_direction`;
a series built from it, time last, goes through the same transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hexmesh import FACE_LOOPS, HexMesh, hex_volume, quad_area_vectors
from .motion import MotionTrajectory
from .spectral import SpectralOperator

__all__ = [
    "METHODS",
    "IncrementSeries",
    "IfmvField",
    "quad_flux",
    "quad_flux_by_direction",
    "dvoldt_trimap",
    "ifmv_trimap",
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

def _quad_cross_sums(quad: np.ndarray):
    q0, q1, q2, q3 = (quad[..., i, :] for i in range(4))
    c01 = np.cross(q0, q1)
    c12 = np.cross(q1, q2)
    c23 = np.cross(q2, q3)
    c30 = np.cross(q3, q0)
    c02 = np.cross(q0, q2)
    c13 = np.cross(q1, q3)
    full = c01 + c12 + c23 + c30
    return full, c01 + c12 - c02, c12 + c23 - c13, c23 + c30 + c02, c30 + c01 + c13


def quad_flux_by_direction(quad: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """Per-Cartesian-direction face flux integral of a bilinear quad.

    Component ``d`` is the exact integral of v_d n_d dS over the quad, with
    positions and velocities interpolated bilinearly from the four corners
    (..., 4, 3).  Summing the three components gives the total flux.
    """
    quad = np.asarray(quad, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    full, s012, s123, s230, s301 = _quad_cross_sums(quad)
    vt = velocities.sum(axis=-2)
    return (
        vt * full
        + velocities[..., 1, :] * s012
        + velocities[..., 2, :] * s123
        + velocities[..., 3, :] * s230
        + velocities[..., 0, :] * s301
    ) / 12.0


def quad_flux(quad: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """Total face flux integral (v . n) dS of a bilinear quad."""
    return quad_flux_by_direction(quad, velocities).sum(axis=-1)


def dvoldt_trimap(corners: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """Exact rate of change of the hexahedron volume.

    Product rule applied to the closed-form volume, as a function of the
    eight corner positions and velocities (..., 8, 3).
    """
    corners = np.asarray(corners, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    q = corners[..., FACE_LOOPS, :]
    v = velocities[..., FACE_LOOPS, :]
    ri, rj, rk, rl = (q[..., i, :] for i in range(4))
    vi, vj, vk, vl = (v[..., i, :] for i in range(4))
    terms = (
        np.einsum("...i,...i->...", vj + vk, np.cross(ri + rl, ri + rj))
        + np.einsum("...i,...i->...", rj + rk, np.cross(vi + vl, ri + rj))
        + np.einsum("...i,...i->...", rj + rk, np.cross(ri + rl, vi + vj))
    )
    return terms.sum(axis=-1) / 12.0


def ifmv_trimap(corners: np.ndarray, velocities: np.ndarray):
    """Exact IFMV of the six faces of each cell at one instant.

    Returns ``(total, by_direction)`` with shapes (..., 6) and (..., 6, 3);
    the six totals sum to :func:`dvoldt_trimap` identically.
    """
    corners = np.asarray(corners, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    by_dir = quad_flux_by_direction(
        corners[..., FACE_LOOPS, :], velocities[..., FACE_LOOPS, :]
    )
    return by_dir.sum(axis=-1), by_dir


def sweep_volume(quad_start: np.ndarray, quad_end: np.ndarray) -> np.ndarray:
    """Signed volume swept by a face moving on straight corner paths.

    The sweep is the hexahedron whose bottom face is the quad at the start
    and whose top face is the quad at the end; degenerate (zero-motion)
    sweeps cancel to rounding level.  Positive values mean motion along the
    quad loop's right-hand normal.
    """
    quad_start, quad_end = np.broadcast_arrays(
        np.asarray(quad_start, dtype=float), np.asarray(quad_end, dtype=float)
    )
    return hex_volume(np.concatenate([quad_start, quad_end], axis=-2))


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
    """Per-face volumetric increments relative to the initial configuration.

    ``totals[c, m, n]`` is the signed volume swept by face m of cell c
    between t_0 and t_n (n = 0..2N+1, the last entry being the closing
    sample at t = T).  The linear slope and periodic part are filled by
    :func:`extract_linear_and_periodic`.
    """

    method: str  # "lvi" or "aevi"
    period: float
    times: np.ndarray  # (2N+2,)
    totals: np.ndarray  # (n_cells, 6, 2N+2)
    linear_slope: np.ndarray | None = None  # (n_cells, 6)
    periodic_part: np.ndarray | None = None  # (n_cells, 6, 2N+1)


@dataclass
class IfmvField:
    """IFMV of every face at the 2N+1 spectral instants, tagged by method."""

    method: str
    total: np.ndarray  # (n_cells, 6, 2N+1)

    def sum_over_faces(self) -> np.ndarray:
        return self.total.sum(axis=1)


def lvi_increments(mesh: HexMesh, trajectory: MotionTrajectory) -> IncrementSeries:
    """Linear volumetric increments: one straight sweep from t_0 to each t_n.

    The t_0 entry is zero by definition (empty sweep), not the rounding noise
    of a collapsed hexahedron.
    """
    return _increments("lvi", mesh, trajectory, lambda q: sweep_volume(q[0], q[1:]))


def aevi_increments(mesh: HexMesh, trajectory: MotionTrajectory) -> IncrementSeries:
    """Increments accumulated as a sum of per-step sweep hexahedra."""
    return _increments(
        "aevi",
        mesh,
        trajectory,
        lambda q: np.cumsum(sweep_volume(q[:-1], q[1:]), axis=0),
    )


def _increments(method, mesh, trajectory, sweeps) -> IncrementSeries:
    """Interface increments t_1..t_2N+1 from ``sweeps`` of the gathered quads."""
    totals = np.zeros((len(mesh.interface_vertex_ids), len(trajectory.times)))
    mesh.blockwise(
        sweeps, mesh.interface_vertex_ids, trajectory.positions, out=totals[:, 1:]
    )
    return IncrementSeries(
        method, trajectory.period, trajectory.times, mesh.scatter_to_cells(totals)
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


def _require_periodic(series: IncrementSeries) -> IncrementSeries:
    if series.periodic_part is None:
        series = extract_linear_and_periodic(series)
    return series


def ifmv_nlfd(series: IncrementSeries, spectral: SpectralOperator) -> IfmvField:
    """IFMV from increments via DFT: G_k = (i 2 pi k / T) p_k for k != 0.

    The zeroth mode is the extracted linear slope; the result is transformed
    back to the time instants.
    """
    series = _require_periodic(series)
    total = spectral.differentiate(series.periodic_part) + series.linear_slope[..., None]
    return IfmvField(f"nlfd-{series.method}", total)


def ifmv_ts(series: IncrementSeries, spectral: SpectralOperator) -> IfmvField:
    """IFMV from increments via the time-spectral matrix: G = D p + slope."""
    series = _require_periodic(series)
    total = series.periodic_part @ spectral.d_matrix.T + series.linear_slope[..., None]
    return IfmvField(f"ts-{series.method}", total)


def _avg_flux(quads: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    return (velocities.mean(axis=-2) * quad_area_vectors(quads)).sum(axis=-1)


def ifmv_avg(mesh: HexMesh, trajectory: MotionTrajectory) -> IfmvField:
    """Mean-vertex-velocity approximation: G_m = mean(v) . S_m per instant."""
    flux = mesh.blockwise(
        _avg_flux,
        mesh.interface_vertex_ids,
        trajectory.positions[:-1],
        trajectory.velocities[:-1],
    )
    return IfmvField("avg", mesh.scatter_to_cells(flux))


def trimap_field(mesh: HexMesh, trajectory: MotionTrajectory) -> IfmvField:
    """Exact trilinear-mapping IFMV for all cells and instants."""
    flux = mesh.blockwise(
        quad_flux,
        mesh.interface_vertex_ids,
        trajectory.positions[:-1],
        trajectory.velocities[:-1],
    )
    return IfmvField("trimap", mesh.scatter_to_cells(flux))


def cell_volumes(mesh: HexMesh, trajectory: MotionTrajectory) -> np.ndarray:
    """Cell volumes per instant, shape (n_cells, 2N+1)."""
    return mesh.blockwise(hex_volume, mesh.cell_vertex_ids, trajectory.positions[:-1])


def exact_volume_rates(mesh: HexMesh, trajectory: MotionTrajectory) -> np.ndarray:
    """Exact d(volume)/dt per cell and instant, shape (n_cells, 2N+1)."""
    return mesh.blockwise(
        dvoldt_trimap,
        mesh.cell_vertex_ids,
        trajectory.positions[:-1],
        trajectory.velocities[:-1],
    )
