"""Integrated face mesh velocities (IFMV) on deforming hexahedral cells.

Four ways to obtain the surface integral of mesh velocity over each cell
face, G_m(t) = integral of (v . n) dS; :data:`gclkit.experiments.METHODS`
names the methods built from them:

* :func:`lvi_increments` -- straight-line volumetric increments from the
  initial configuration, differentiated spectrally by :func:`ifmv_nlfd`;
* :func:`aevi_increments` -- increments accumulated as per-step sweep
  hexahedra, differentiated the same way;
* :func:`ifmv_avg` -- mean vertex velocity dotted with the instantaneous face
  area vector (no conservation guarantee);
* :func:`trimap_field` -- the exact closed-form face flux of the trilinear
  mapping, used as the reference.

On the 2N+1 samples the NLFD route (DFT, multiply by i k, inverse DFT) and
the time-spectral matrix are one linear operator, so :func:`ifmv_ts` is
:func:`ifmv_nlfd`, which takes the derivative through the matrix.

The LVI/AEVI sweep volumes and the TRI-MAP flux are built from corner
differences, so a translated mesh keeps its values to its cells' rounding.

Increments that grow linearly in time (faces sweeping a net volume per
period) are split into a linear slope, the closing increment at t = T over
T, and a periodic part; only the periodic part is differentiated spectrally
and the slope re-enters as the zeroth mode.  Only the increments form the
t = T sample, appending t_0 to the trajectory's 2N+1 instants.

Every field holds one value per mesh interface, (n_interfaces, ...), taken
along the interface's +axis normal.  :meth:`HexMesh.sum_over_faces` forms the
cell sums, which the metrics set against the spectral derivative of the
trajectory's cell volumes.  The per-direction split is opt-in, from
:func:`sweep_volume_by_direction`; a series built from it, time last, goes
through the same transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hexmesh import (
    HexMesh,
    _cross,
    _dot,
    _hex_edges,
    _hex_volume,
    _quad_area,
    _sum,
    corner_planes,
)
from .motion import MotionTrajectory
from .spectral import SpectralOperator

__all__ = [
    "IncrementSeries",
    "IfmvField",
    "sweep_volume",
    "sweep_volume_by_direction",
    "lvi_increments",
    "aevi_increments",
    "extract_linear_and_periodic",
    "ifmv_nlfd",
    "ifmv_ts",
    "ifmv_avg",
    "trimap_field",
    "exact_volume_rates",
]


def _quad_flux_by_direction(q, v):
    """Flux components of quads with corners q[0..3] and velocities v[0..3].

    The bilinear normal is N0 + xi N1 + eta N2, so the flux is (3 vt N0 + w1 N1 + w2 N2) / 12.
    """
    a, b = q[1] - q[0], q[3] - q[0]
    c = (q[2] - q[3]) - a  # (q0 - q1) + (q2 - q3), to the bit
    n0, n1, n2 = _cross(a, b), _cross(a, c), _cross(c, b)
    vt = _sum(v)
    vt3, w1, w2 = 3.0 * vt, (vt + v[1]) + v[2], (vt + v[2]) + v[3]
    return [(vt3[d] * n0[d] + w1[d] * n1[d] + w2[d] * n2[d]) / 12.0 for d in range(3)]


def _quad_flux(q, v):
    return _sum(_quad_flux_by_direction(q, v))


def _planes_of(*arrays):
    """Corner planes of arrays (..., k, 3) broadcast against each other."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))
    return [corner_planes(a) for a in arrays]


def _dvoldt(r, v):
    """Volume rate of hexahedra with corners r[0..7] and velocities v[0..7].

    The product rule of :func:`_hex_volume`: nine triple products of its edge
    vectors and their rates, so the rounding scales with a cell's size, not
    its distance from the origin.
    """
    a, b, c, d, e, f = _hex_edges(r)
    da, db, dc, dd, de, df = _hex_edges(v)
    terms = [
        _dot(df + de, _cross(a, b)) + _dot(f + e, _cross(da, b)) + _dot(f + e, _cross(a, db)),
        _dot(de, _cross(a + c, d)) + _dot(e, _cross(da + dc, d)) + _dot(e, _cross(a + c, dd)),
        _dot(df, _cross(c, d + b)) + _dot(f, _cross(dc, d + b)) + _dot(f, _cross(c, dd + db)),
    ]
    return _sum(terms) / 12.0


def _sweep_volume(start, end):
    return _hex_volume([*start, *end])


def sweep_volume(quad_start: np.ndarray, quad_end: np.ndarray) -> np.ndarray:
    """Signed volume swept by a face moving on straight corner paths.

    The sweep is the hexahedron whose bottom face is the quad at the start
    and whose top face is the quad at the end, its volume taken from edge
    and diagonal vectors; degenerate (zero-motion) sweeps cancel to the
    rounding of the face's own size, wherever it sits.  Positive values
    mean motion along the quad loop's right-hand normal.
    """
    return _sweep_volume(*_planes_of(quad_start, quad_end))


def sweep_volume_by_direction(
    quad_start: np.ndarray, quad_end: np.ndarray
) -> np.ndarray:
    """Per-direction split of :func:`sweep_volume`.

    Component d is the integral of u_d n_d dS over the linear sweep, with u
    the corner displacement: the flux of u through the bilinear quad
    (:func:`_quad_flux_by_direction`), a quadratic in the sweep parameter,
    so a three-point Simpson rule in it is exact; the three components sum
    to the swept hexahedron volume.  Quads are (..., 4, 3).
    """
    start, end = np.asarray(quad_start, dtype=float), np.asarray(quad_end, dtype=float)
    u = end - start
    flux = [_quad_flux_by_direction(*_planes_of(q, u)) for q in (start, 0.5 * (start + end), end)]
    return np.stack([(a + 4.0 * m + b) / 6.0 for a, m, b in zip(*flux)], axis=-1)


@dataclass
class IncrementSeries:
    """Per-interface volumetric increments relative to the initial configuration.

    ``totals[f, n]`` is the signed volume swept by interface f between t_0
    and t_n (n = 0..2N+1, t_n = n T / (2N+1); the last entry, at t = T, is
    the closing increment over the period).
    :func:`extract_linear_and_periodic` fills the linear slope and periodic
    part; the increment builders return the series split.
    """

    period: float
    totals: np.ndarray  # (n_interfaces, 2N+2)
    linear_slope: np.ndarray | None = None  # (n_interfaces,)
    periodic_part: np.ndarray | None = None  # (n_interfaces, 2N+1)


@dataclass
class IfmvField:
    """IFMV of every interface at the 2N+1 spectral instants."""

    total: np.ndarray  # (n_interfaces, 2N+1)


def lvi_increments(mesh: HexMesh, trajectory: MotionTrajectory) -> IncrementSeries:
    """Linear volumetric increments: one straight sweep from t_0 to each t_n.

    The t_0 entry is zero by definition (empty sweep), not the rounding noise
    of a collapsed hexahedron.
    """
    return _increments(
        mesh,
        trajectory,
        lambda q: _sweep_volume([c[:, :1] for c in q], [c[:, 1:] for c in q]),
    )


def aevi_increments(mesh: HexMesh, trajectory: MotionTrajectory) -> IncrementSeries:
    """Increments accumulated as a sum of per-step sweep hexahedra."""
    return _increments(
        mesh,
        trajectory,
        lambda q: np.cumsum(_sweep_volume([c[:, :-1] for c in q], [c[:, 1:] for c in q]), axis=0),
    )


def _increments(mesh, trajectory, sweeps) -> IncrementSeries:
    """Interface increments t_1..t_2N+1 from ``sweeps`` of a block's quads,
    split into their linear slope and periodic part.

    ``sweeps`` receives a block's quads, t_0 appended at t = T, as four
    corner views (3, 2N+2, block) and returns (2N+1, block).
    """
    planes = np.moveaxis(trajectory.positions, -1, 0)
    closed = np.concatenate([planes, planes[:, :1]], axis=1)  # (3, 2N+2, n_vertices)
    totals = np.zeros((len(mesh.interface_vertex_ids), closed.shape[1]))
    mesh.blockwise(sweeps, "interfaces", np.moveaxis(closed, 0, -1), out=totals[:, 1:])
    series = IncrementSeries(trajectory.case.period, totals)
    return extract_linear_and_periodic(series)


def extract_linear_and_periodic(series: IncrementSeries) -> IncrementSeries:
    """Split increments into a linear slope and a periodic remainder.

    The slope is the closing increment over the period; subtracting its
    linear ramp from the samples at t_0..t_2N leaves the periodic part that
    spectral differentiation can act on.
    """
    nts = series.totals.shape[-1] - 1
    slope = series.totals[..., -1] / series.period
    periodic = series.totals[..., :-1] - slope[..., None] * (np.arange(nts) * series.period / nts)
    return replace(series, linear_slope=slope, periodic_part=periodic)


def ifmv_nlfd(series: IncrementSeries, spectral: SpectralOperator) -> IfmvField:
    """IFMV from split increments: G = D p + slope.

    D is the time-spectral matrix, the same operator on the samples as the
    NLFD route: a DFT, a multiply by i 2 pi k / T and an inverse DFT.  The
    extracted linear slope is the zeroth mode.  An operator whose period is
    not the series' is a ValueError naming both; one whose N differs is
    refused by :meth:`SpectralOperator.differentiate`.
    """
    if spectral.period != series.period:
        raise ValueError(
            f"the spectral operator's period {spectral.period} differs from "
            f"the increments' {series.period}"
        )
    total = spectral.differentiate(series.periodic_part) + series.linear_slope[..., None]
    return IfmvField(total)


# the time-spectral name of the same operator
ifmv_ts = ifmv_nlfd


def _avg_flux(q, v):
    """Mean corner velocity dotted with the area vector, as ``mean`` and ``sum`` order it."""
    vbar = _sum(v) / 4.0
    return _sum([a * s for a, s in zip(vbar, _quad_area(q))])


def ifmv_avg(mesh: HexMesh, trajectory: MotionTrajectory) -> IfmvField:
    """Mean-vertex-velocity approximation: G_m = mean(v) . S_m per instant."""
    flux = mesh.blockwise(
        _avg_flux,
        "interfaces",
        trajectory.positions,
        trajectory.velocities,
    )
    return IfmvField(flux)


def trimap_field(mesh: HexMesh, trajectory: MotionTrajectory) -> IfmvField:
    """Exact trilinear-mapping IFMV for all interfaces and instants."""
    flux = mesh.blockwise(
        _quad_flux,
        "interfaces",
        trajectory.positions,
        trajectory.velocities,
    )
    return IfmvField(flux)


def exact_volume_rates(mesh: HexMesh, trajectory: MotionTrajectory) -> np.ndarray:
    """Exact d(volume)/dt per cell and instant, shape (n_cells, 2N+1)."""
    return mesh.blockwise(
        _dvoldt,
        "cells",
        trajectory.positions,
        trajectory.velocities,
    )
