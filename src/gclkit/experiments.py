"""Benchmark driver wiring cases, methods and harmonic sweeps together.

Each IFMV method is one row of :data:`METHODS`.  One evaluation point is a
(case, N) pair: the motion is sampled, each distinct field of the requested
methods built once, and the error metrics reduced into
:class:`~gclkit.metrics.ErrorReport` rows.  The CLI and the acceptance suite
both run through this module so they cannot drift apart.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from . import flow, gcl, metrics
from .hexmesh import HexMesh, build_box_mesh
from .motion import MotionCase, MotionTrajectory, build_rbf_system, sample_motion
from .spectral import SpectralOperator

__all__ = [
    "METHODS",
    "ConfigError",
    "MeshConfig",
    "CasePoint",
    "prepare_point",
    "evaluate_point",
    "run_sweep",
    "worker_count",
]


class ConfigError(ValueError):
    """A malformed setting from outside the program (flag, file, environment)."""


@dataclass(frozen=True)
class MeshConfig:
    nx: int = 10
    ny: int = 10
    nz: int = 10
    lx: float = 3.2
    ly: float = 2.8
    lz: float = 2.4

    def build(self) -> HexMesh:
        try:
            return build_box_mesh(self.nx, self.ny, self.nz, self.lx, self.ly, self.lz)
        except MemoryError as err:
            raise ConfigError(
                f"mesh {self.nx}x{self.ny}x{self.nz} does not fit in memory: {err}"
            ) from None


@dataclass
class CasePoint:
    """Everything shared by the methods at one (case, N) evaluation point."""

    mesh: HexMesh
    trajectory: MotionTrajectory  # holds the cell volumes, (n_cells, Nts)
    spectral: SpectralOperator
    dvoldt: np.ndarray  # spectral derivative of the volumes, (n_cells, Nts)
    exact_rates: np.ndarray  # (n_cells, Nts)
    reference: gcl.IfmvField  # trimap
    fd1: float
    fd2: float


# Field builders look the gcl functions up when called, so that a wrapper
# installed on the module later is the one they run.
def _lvi(point: CasePoint) -> gcl.IfmvField:
    return gcl.ifmv_nlfd(gcl.lvi_increments(point.mesh, point.trajectory), point.spectral)


def _aevi(point: CasePoint) -> gcl.IfmvField:
    return gcl.ifmv_nlfd(gcl.aevi_increments(point.mesh, point.trajectory), point.spectral)


def _avg(point: CasePoint) -> gcl.IfmvField:
    return gcl.ifmv_avg(point.mesh, point.trajectory)


# CLI name -> (row id, field builder).  On the 2N+1 samples NLFD and
# time-spectral differentiation are one linear operator, so a ts-* row shares
# its nlfd-* twin's builder and reports that field under another name.
METHODS = {
    "lvi": ("nlfd-lvi", _lvi),
    "aevi": ("nlfd-aevi", _aevi),
    "avg": ("avg", _avg),
    "trimap": ("trimap", attrgetter("reference")),
    "ts-lvi": ("ts-lvi", _lvi),
    "ts-aevi": ("ts-aevi", _aevi),
}
_BUILDERS = dict(METHODS.values())  # row id -> field builder


def prepare_point(
    mesh: HexMesh,
    case: MotionCase,
    n_harmonics: int,
    rbf_fields: np.ndarray | None = None,
) -> CasePoint:
    """Sample, gate and measure one (case, N) point, each quantity once.

    The trajectory's cell volumes serve the gate, the metrics and every
    freestream problem of the point.  The TRI-MAP face fluxes
    are exact, so their signed sum over each cell's faces is the exact
    dV/dt; the product-rule rates (:func:`gcl.exact_volume_rates`) stay the
    independent oracle of the tests.
    """
    trajectory = sample_motion(mesh, case, n_harmonics, rbf_fields=rbf_fields)
    spectral = SpectralOperator(n_harmonics, case.period)
    reference = gcl.trimap_field(mesh, trajectory)
    exact_rates = mesh.sum_over_faces(reference.total)
    fd1, fd2 = metrics.fd_reference_errors(trajectory.volumes, exact_rates, case.period)
    return CasePoint(
        mesh, trajectory, spectral,
        spectral.differentiate(trajectory.volumes), exact_rates, reference, fd1, fd2,
    )


def evaluate_point(
    point: CasePoint,
    methods: list[str],
    freestream: bool = False,
    timing: bool = False,
) -> list[metrics.ErrorReport]:
    """Error reports for the requested row ids of :data:`METHODS`, in their order.

    Each distinct field builder runs once, with its metrics and freestream
    solve; a method that shares it gets a copy of that row, ``wall_ms``
    included, with only ``method`` changed.
    """
    trajectory = point.trajectory
    reports = {}
    for method in methods:
        build = _BUILDERS[method]
        if build in reports:
            continue
        start = time.perf_counter()
        ifmv = build(point)
        if ifmv is point.reference:  # its face sums are the exact rates
            err1 = float(np.max(np.abs(point.exact_rates - point.dvoldt)))
        else:
            err1 = metrics.abs_err_sum_vs_dvoldt(point.mesh, ifmv, point.dvoldt)
        err2 = {
            d: metrics.abs_err_ifmv_vs_reference(point.mesh, ifmv, point.reference, d)
            for d in ("x", "y", "z")
        }
        rel_err = None
        if freestream:
            result = flow.FreestreamProblem(
                point.mesh, trajectory, point.spectral, ifmv
            ).march()
            if result.diverged:
                raise flow.FreestreamDivergence(
                    trajectory.case.case_id, method, trajectory.n_harmonics
                )
            rel_err = result.rel_err
        wall_ms = (time.perf_counter() - start) * 1e3 if timing else 0.0
        reports[build] = metrics.ErrorReport(
            case_id=trajectory.case.case_id,
            method=method,
            n_harmonics=trajectory.n_harmonics,
            nts=point.spectral.nts,
            abs_err1=err1,
            abs_err2_x=err2["x"],
            abs_err2_y=err2["y"],
            abs_err2_z=err2["z"],
            fd1_ref=point.fd1,
            fd2_ref=point.fd2,
            rel_err_freestream=rel_err,
            wall_ms=wall_ms,
            metadata=dict(trajectory.metadata),
        )
    return [replace(reports[_BUILDERS[m]], method=m) for m in methods]


def worker_count(n_jobs: int) -> int:
    """Worker pool size, honouring the GCLKIT_THREADS cap."""
    cap = os.environ.get("GCLKIT_THREADS")
    workers = os.cpu_count() or 1
    if cap:
        try:
            workers = max(1, int(cap))
        except ValueError:
            raise ConfigError(f"GCLKIT_THREADS must be an integer, got {cap!r}") from None
    return max(1, min(workers, n_jobs))


def run_sweep(
    mesh_config: MeshConfig,
    case: MotionCase,
    harmonic_range: list[int],
    methods: list[str],
    freestream: bool = False,
    timing: bool = False,
) -> list[metrics.ErrorReport]:
    """Evaluate all methods over a harmonic sweep; rows ordered by (N, method).

    The case's RBF-spread boundary modes are built once, before the pool;
    its threads only read them.
    """
    mesh = mesh_config.build()
    rbf_fields = build_rbf_system(mesh, case)

    def job(n):
        point = prepare_point(mesh, case, n, rbf_fields)
        return evaluate_point(point, methods, freestream, timing)

    workers = worker_count(len(harmonic_range))
    if workers == 1:
        batches = [job(n) for n in harmonic_range]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(job, harmonic_range))
    return [row for batch in batches for row in batch]
