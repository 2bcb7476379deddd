"""Cross-module property suite backing ``gclkit verify``.

Each property is a small self-contained check returning (name, passed,
detail).  The suite is intentionally cheap (seconds, not minutes); the full
benchmark reproduction lives in the test suite.
"""

from __future__ import annotations

import numpy as np

from . import gcl, metrics, rbf
from .flow import W_INF, FreestreamProblem
from .hexmesh import (
    FACE_LOOPS,
    REF_CORNERS,
    build_box_mesh,
    detect_degenerate,
    face_area_vectors,
    hex_volume,
)
from .motion import MotionCase, sample_motion
from .spectral import SpectralOperator

RNG_SEED = 20260810


def random_hexahedra(count: int, rng: np.random.Generator, scale: float = 0.25):
    """Random perturbations of the unit cube, guaranteed non-degenerate."""
    return REF_CORNERS + rng.uniform(-scale, scale, (count, 8, 3))


def gauss_volume_oracle(corners: np.ndarray, points: int = 3) -> np.ndarray:
    """Volume via tensor Gauss-Legendre quadrature of the Jacobian determinant.

    The determinant of the trilinear map has per-axis polynomial degree two,
    so three points per axis integrate it exactly.  Kept independent of the
    closed-form volume it cross-checks.
    """
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    # trilinear shape gradients at one reference point
    def gradients(xi, eta, zeta):
        return np.array(
            [
                [-(1 - eta) * (1 - zeta), -(1 - xi) * (1 - zeta), -(1 - xi) * (1 - eta)],
                [(1 - eta) * (1 - zeta), -xi * (1 - zeta), -xi * (1 - eta)],
                [eta * (1 - zeta), xi * (1 - zeta), -xi * eta],
                [-eta * (1 - zeta), (1 - xi) * (1 - zeta), -(1 - xi) * eta],
                [-(1 - eta) * zeta, -(1 - xi) * zeta, (1 - xi) * (1 - eta)],
                [(1 - eta) * zeta, -xi * zeta, xi * (1 - eta)],
                [eta * zeta, xi * zeta, xi * eta],
                [-eta * zeta, (1 - xi) * zeta, (1 - xi) * eta],
            ]
        )

    corners = np.asarray(corners, dtype=float)
    total = np.zeros(corners.shape[:-2])
    for i, wi in enumerate(weights):
        for j, wj in enumerate(weights):
            for k, wk in enumerate(weights):
                dn = gradients(nodes[i], nodes[j], nodes[k])
                jac = np.einsum("nd,...nv->...vd", dn, corners)
                total += wi * wj * wk * np.linalg.det(jac)
    return total


def _check_surface_closure(rng):
    hexes = random_hexahedra(1000, rng)
    vectors = face_area_vectors(hexes)
    defect = np.linalg.norm(vectors.sum(axis=1), axis=-1)
    scale = np.linalg.norm(vectors, axis=-1).max(axis=-1)
    worst = float((defect / scale).max())
    return worst <= 1e-13, f"max closure defect {worst:.2e}"


def _check_volume_oracle(rng):
    hexes = random_hexahedra(1000, rng)
    exact = gauss_volume_oracle(hexes)
    worst = float((np.abs(hex_volume(hexes) - exact) / np.abs(exact)).max())
    return worst <= 1e-13, f"max relative volume error {worst:.2e}"


def _check_partition(rng):
    mesh = build_box_mesh(6, 5, 4, 1.3, 1.1, 0.9)
    positions = mesh.vertices.copy()
    interior = mesh.interior_vertex_ids()
    spacing = min(1.3 / 6, 1.1 / 5, 0.9 / 4)
    positions[interior] += rng.uniform(-0.3, 0.3, (len(interior), 3)) * spacing
    total = hex_volume(mesh.cell_corners(positions)).sum()
    box = 1.3 * 1.1 * 0.9
    err = abs(total - box) / box
    return err <= 1e-12, f"partition defect {err:.2e}"


def _check_degeneracy_gate(rng):
    mesh = build_box_mesh(4, 4, 4, 1.0, 1.0, 1.0)
    clean = len(detect_degenerate(mesh, mesh.vertices)) == 0
    positions = mesh.vertices.copy()
    victim = mesh.interior_vertex_ids()[0]
    positions[victim] += np.array([0.6, 0.6, 0.6])  # push through neighbours
    flagged = len(detect_degenerate(mesh, positions)) > 0
    return clean and flagged, ""


def _check_spectral_roundtrip(rng):
    worst = 0.0
    for n in range(1, 21):
        op = SpectralOperator(n)
        s = rng.normal(size=op.nts)
        worst = max(worst, float(np.abs(op.idft(op.dft(s)) - s).max()))
    return worst <= 1e-13, f"max round-trip error {worst:.2e}"


def _check_parseval(rng):
    op = SpectralOperator(9)
    s = rng.normal(size=op.nts)
    lhs = float(np.sum(np.abs(s) ** 2) / op.nts)
    rhs = float(np.sum(np.abs(op.dft(s)) ** 2))
    err = abs(lhs - rhs) / lhs
    return err <= 1e-12, f"Parseval defect {err:.2e}"


def _fourier_defect(op, derivative, samples):
    """Largest sum over k of |DFT(derivative) - (i 2 pi k / T) DFT(samples)|.

    The sum bounds the sample-space gap between ``derivative`` and the DFT
    route idft(dft(samples) i 2 pi k / T) from above, so a bound on it is no
    looser than the same bound on the samples.
    """
    gap = op.dft(derivative) - op.dft(samples) * (2j * np.pi / op.period * op.wavenumbers)
    return float(np.abs(gap).sum(axis=-1).max())


def _check_operator_equivalence(rng):
    op = SpectralOperator(10)
    signals = rng.normal(size=(100, op.nts))
    err = _fourier_defect(op, op.differentiate(signals), signals)
    return err <= 1e-12, f"max matrix-vs-DFT-route difference {err:.2e}"


def _check_ts_matrix(rng):
    op = SpectralOperator(7)
    d = op.d_matrix
    skew = float(np.abs(d + d.T).max())
    const = float(np.abs(d @ np.ones(op.nts)).max())
    d01 = SpectralOperator(1).d_matrix[0, 1]
    ref = 2.0 * np.pi / np.sqrt(3.0)
    ok = skew == 0.0 and const <= 1e-12 and abs(d01 - ref) <= 1e-12
    return ok, f"skew {skew:.1e}, const {const:.2e}, d01 err {abs(d01-ref):.2e}"


def _check_trilinear_closure(rng, flux_perturbation=0.0):
    hexes = random_hexahedra(1000, rng)
    vels = rng.normal(size=(1000, 8, 3))
    total = gcl.quad_flux(hexes[:, FACE_LOOPS], vels[:, FACE_LOOPS]) * (1.0 + flux_perturbation)
    rate = gcl.dvoldt_trimap(hexes, vels)
    scale = np.abs(rate) + np.abs(total).sum(axis=-1) + 1e-300
    worst = float((np.abs(total.sum(axis=-1) - rate) / scale).max())
    return worst <= 1e-13, f"max closure defect {worst:.2e}"


def _check_gcl_by_construction(rng):
    mesh = build_box_mesh(5, 5, 5, 3.2, 2.8, 2.4)
    case = MotionCase.for_case("case2")
    traj = sample_motion(mesh, case, 4)
    op = SpectralOperator(4)
    dvoldt = op.differentiate(gcl.cell_volumes(mesh, traj))
    worst = 0.0
    for maker in (gcl.lvi_increments, gcl.aevi_increments):
        fld = gcl.ifmv_nlfd(maker(mesh, traj), op)
        worst = max(worst, metrics.abs_err_sum_vs_dvoldt(mesh, fld, dvoldt))
    return worst <= 1e-10, f"max conservation defect {worst:.2e}"


def _check_nlfd_ts_equivalence(rng):
    mesh = build_box_mesh(5, 5, 5, 3.2, 2.8, 2.4)
    traj = sample_motion(mesh, MotionCase.for_case("case3"), 4)
    op = SpectralOperator(4)
    series = gcl.aevi_increments(mesh, traj)
    field = gcl.ifmv_nlfd(series, op)  # gcl.ifmv_ts is the same function
    err = _fourier_defect(op, field.total - series.linear_slope[:, None], series.periodic_part)
    return err <= 1e-12, f"max NLFD/TS-vs-DFT-route difference {err:.2e}"


def _check_rbf_exactness(rng):
    # the points the motion spreads from: a box's boundary, eight symmetry blocks
    mesh = build_box_mesh(5, 4, 3, 3.2, 2.8, 2.4)
    boundary = mesh.boundary_vertex_ids()
    system = rbf.build_system(mesh.vertices[boundary], mesh.vertices, 0.3 * 3.2)
    values = rng.normal(size=len(boundary))
    recovered = rbf.interpolate(system, values)[boundary]
    err = float(np.abs(recovered - values).max() / np.abs(values).max())
    return err <= 1e-10, f"control-point residual {err:.2e}"


def _check_freestream_defect_identity(rng):
    mesh = build_box_mesh(5, 5, 5, 3.2, 2.8, 2.4)
    traj = sample_motion(mesh, MotionCase.for_case("case2"), 3)
    op = SpectralOperator(3)
    problem = FreestreamProblem(mesh, traj, op, None)
    residual = problem.residual(problem.initial_state())
    volumes = gcl.cell_volumes(mesh, traj)
    defect = -op.differentiate(volumes)  # sum of zeroed IFMV minus d(vol)/dt
    nz = ny = nx = 5
    predicted = -np.moveaxis(defect.reshape(nz, ny, nx, op.nts), -1, 0) * (
        W_INF.reshape(-1, 1, 1, 1, 1)
    )
    err = float(np.abs(residual - predicted).max() / np.abs(residual).max())
    return err <= 1e-12, f"identity defect {err:.2e}"


PROPERTIES = [
    ("surface closure (1000 random hexahedra)", _check_surface_closure),
    ("volume vs quadrature oracle", _check_volume_oracle),
    ("volume partition of a deformed box", _check_partition),
    ("degeneracy detector gate", _check_degeneracy_gate),
    ("DFT round trip", _check_spectral_roundtrip),
    ("Parseval identity", _check_parseval),
    ("spectral derivative matrix equivalence", _check_operator_equivalence),
    ("time-spectral matrix structure", _check_ts_matrix),
    ("trilinear closure: face fluxes sum to volume rate", _check_trilinear_closure),
    ("conservation by construction (LVI/AEVI)", _check_gcl_by_construction),
    ("NLFD/TS equivalence", _check_nlfd_ts_equivalence),
    ("RBF exactness at control points", _check_rbf_exactness),
    ("freestream residual equals conservation defect", _check_freestream_defect_identity),
]


def run_all(mutate_trimap: float = 0.0):
    """Run every property; returns a list of (name, passed, detail).

    ``mutate_trimap`` scales the trilinear-closure check's face fluxes by
    1 + mutate_trimap, to show that the check can fail.
    """
    results = []
    for name, check in PROPERTIES:
        rng = np.random.default_rng(RNG_SEED)
        args = (rng, mutate_trimap) if check is _check_trilinear_closure else (rng,)
        try:
            ok, detail = check(*args)
        except Exception as err:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(err).__name__}: {err}"
        results.append((name, bool(ok), detail))
    return results
