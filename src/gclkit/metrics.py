"""Error metrics and convergence-order estimation.

Three benchmark metrics quantify how well an IFMV method behaves:

* ``rel_err_freestream`` -- departure of the computed flow state from the
  prescribed uniform state (the physical meaning of the conservation law);
* ``abs_err_sum_vs_dvoldt`` -- defect of the per-cell identity
  sum_m G_m = spectral d(volume)/dt;
* ``abs_err_ifmv_vs_reference`` -- distance of individual face IFMV values
  from the exact trilinear-mapping reference, reported per face family
  (the interfaces whose reference normal is along x, y or z).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gcl import IfmvField
from .hexmesh import HexMesh

__all__ = [
    "ErrorReport",
    "rel_err_freestream",
    "abs_err_sum_vs_dvoldt",
    "abs_err_ifmv_vs_reference",
    "fd_reference_errors",
    "fitted_order",
]

ORDER_FLOOR = 1e-13


def rel_err_freestream(states: np.ndarray, reference: np.ndarray) -> float:
    """Max componentwise relative departure from the uniform reference state.

    ``states`` holds conservative variables component-first, (5, ...); the
    reference is the uniform 5-vector.  Components whose reference value is
    zero (e.g. cross-stream momentum) are normalised by the largest
    reference component instead, since a componentwise division is
    undefined there.

    Raises
    ------
    ValueError
        If the first axis of ``states`` is not the reference's components.
    """
    states = np.asarray(states, dtype=float)
    reference = np.asarray(reference, dtype=float).reshape(-1)
    if states.ndim == 0 or states.shape[0] != reference.size:
        raise ValueError(
            f"states must be ({reference.size}, ...) component-first, got {states.shape}"
        )
    column = (-1,) + (1,) * (states.ndim - 1)
    diff = np.abs(states - reference.reshape(column))
    scale = np.where(reference != 0.0, np.abs(reference), np.abs(reference).max())
    return float(np.max(diff / scale.reshape(column)))


def abs_err_sum_vs_dvoldt(mesh: HexMesh, field: IfmvField, dvoldt: np.ndarray) -> float:
    """Max |sum_m G_m - dvoldt| over cells/instants.

    The sum runs over each cell's six signed faces of ``mesh``.  ``dvoldt``
    is the spectral time derivative of the cell volumes, (n_cells, Nts),
    computed once and shared by every method at a point.
    """
    return float(np.max(np.abs(mesh.sum_over_faces(field.total) - dvoldt)))


def abs_err_ifmv_vs_reference(
    mesh: HexMesh, field: IfmvField, reference: IfmvField, direction: str
) -> float:
    """Max face IFMV error against the reference for one face family.

    ``direction`` selects the interfaces of ``mesh`` whose reference normal
    is along that axis; the comparison is on the total face flux, matching
    the sweep-geometry the per-direction benchmark curves isolate.
    """
    block, _ = mesh.axis_interfaces(direction)
    return float(np.max(np.abs(field.total[block] - reference.total[block])))


def fd_reference_errors(
    volumes: np.ndarray, exact_rates: np.ndarray, period: float
) -> tuple[float, float]:
    """Errors of 1st-order backward and 2nd-order centred volume derivatives.

    Both finite differences use the periodic samples (..., Nts) and are
    compared to the exact rates on the same sampling; they are the classical
    curves a spectral method is measured against.
    """
    volumes = np.asarray(volumes, dtype=float)
    exact_rates = np.asarray(exact_rates, dtype=float)
    nts = volumes.shape[-1]
    tau = period / nts
    backward = (volumes - np.roll(volumes, 1, axis=-1)) / tau
    centred = (np.roll(volumes, -1, axis=-1) - np.roll(volumes, 1, axis=-1)) / (2 * tau)
    fd1 = float(np.max(np.abs(backward - exact_rates)))
    fd2 = float(np.max(np.abs(centred - exact_rates)))
    return fd1, fd2


def fitted_order(
    nts_values: np.ndarray, errors: np.ndarray, floor: float = ORDER_FLOOR
) -> float:
    """Least-squares slope of log(error) against log(1/Nts).

    Points at or below the rounding floor are excluded so a flat noise
    plateau cannot corrupt the slope.  Raises if fewer than three usable
    points remain.
    """
    nts_values = np.asarray(nts_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > floor
    if keep.sum() < 3:
        raise ValueError(
            f"need at least 3 points above the {floor:g} floor, have {int(keep.sum())}"
        )
    slope = np.polyfit(np.log(1.0 / nts_values[keep]), np.log(errors[keep]), 1)[0]
    return float(slope)


@dataclass
class ErrorReport:
    """One row of the benchmark table: a (case, method, N) evaluation."""

    case_id: str
    method: str
    n_harmonics: int
    nts: int
    abs_err1: float
    abs_err2_x: float
    abs_err2_y: float
    abs_err2_z: float
    fd1_ref: float
    fd2_ref: float
    rel_err_freestream: float | None = None
    wall_ms: float = 0.0
    metadata: dict = field(default_factory=dict)
