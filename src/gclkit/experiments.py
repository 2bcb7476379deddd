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
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from . import flow, gcl, metrics
from .hexmesh import HexMesh, build_box_mesh
from .motion import DegenerateMeshError, MotionCase, MotionTrajectory, case_fields, sample_motion
from .rbf import INLINE
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
    fields: np.ndarray | None = None,
) -> CasePoint:
    """Sample, gate and measure one (case, N) point, each quantity once.

    The trajectory's cell volumes serve the gate, the metrics and every
    freestream problem of the point.  The TRI-MAP face fluxes
    are exact, so their signed sum over each cell's faces is the exact
    dV/dt, which the finite-difference references read here; the point
    keeps the field only, and the TRI-MAP row sums it as every row does.
    The product-rule rates (:func:`gcl.exact_volume_rates`) stay the
    independent oracle of the tests.  ``fields`` is passed on to
    :func:`~gclkit.motion.sample_motion`.  A motion whose face fluxes
    overflow raises :class:`~gclkit.motion.DegenerateMeshError` at the
    first instant with a non-finite rate, naming every such cell there.
    """
    trajectory = sample_motion(mesh, case, n_harmonics, fields)
    spectral = SpectralOperator(n_harmonics, case.period)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not by numpy
        reference = gcl.trimap_field(mesh, trajectory)
        exact_rates = mesh.sum_over_faces(reference.total)
    DegenerateMeshError.raise_first(
        trajectory.times, ~np.isfinite(exact_rates), "non-finite face fluxes in"
    )
    fd1, fd2 = metrics.fd_reference_errors(trajectory.volumes, exact_rates, case.period)
    return CasePoint(
        mesh, trajectory, spectral,
        spectral.differentiate(trajectory.volumes), reference, fd1, fd2,
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
    metadata = trajectory.case.metadata(point.mesh)
    reports = {}
    for method in methods:
        build = _BUILDERS[method]
        if build in reports:
            continue
        start = time.perf_counter()
        ifmv = build(point)
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
            metadata=metadata,
        )
    return [replace(reports[_BUILDERS[m]], method=m) for m in methods]


def worker_count(n_jobs: int) -> int:
    """Worker pool size: the CPUs this process may run on, or GCLKIT_THREADS."""
    cap = os.environ.get("GCLKIT_THREADS")
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    if cap:
        try:
            workers = int(cap)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigError(f"GCLKIT_THREADS must be a positive integer, got {cap!r}")
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

    The case's spatial fields (:func:`~gclkit.motion.case_fields`) are
    built once, before any other task, and the tasks only read them.  For
    cases 4 and 5 the RBF build's grid half (the grid's orbits and near
    pairs) is one task on the pool while the calling thread factors the
    Gram blocks, so a second worker is not idle through the build; each half
    computes the same values on any thread.  A failed build is a
    :class:`ConfigError`: the mesh and the case come from the settings.  The
    calling thread then submits one task per N, in N order, which runs
    :func:`prepare_point`, submits one :func:`evaluate_point` per distinct
    field builder of the methods, with the methods that read its field, and
    returns their futures.  While one point per worker is held, the calling
    thread waits for the oldest, its point task and then the field tasks
    that returned, before it submits the next.  Only the calling thread
    waits on a future, and a task whose rows come after a failed task's
    returns at once.  Each task computes its rows alone, whichever thread
    runs it, and the rows are put back in (N, method) order by their method
    names, so the rows, and the first error in that order, are those of one
    worker, which runs the same tasks in the same order on the calling
    thread, each as it is submitted (:data:`gclkit.rbf.INLINE`).
    """
    mesh = mesh_config.build()
    groups = {}  # field builder -> the methods reading its field
    for method in methods:
        groups.setdefault(_BUILDERS[method], []).append(method)
    failed = []  # (N's index, group's index or -1 to prepare) of each task that raised

    def task(key, fn, *args):
        if failed and min(failed) < key:  # its rows would come after an error
            return None
        try:
            return fn(*args)
        except Exception:
            failed.append(key)
            raise

    def point_task(i, n):
        """Prepare N's point; return the futures of its field tasks."""
        point = task((i, -1), prepare_point, mesh, case, n, fields)
        if point is None:
            return []
        return [
            pool.submit(task, (i, g), evaluate_point, point, group, freestream, timing)
            for g, group in enumerate(groups.values())
        ]

    def join(point):
        """Wait for a point task, then for the field tasks it submitted."""
        if point.exception() is None:
            wait(point.result())

    workers = worker_count(len(harmonic_range))
    points = []  # per N, the future of its point task
    # one worker runs every task on the calling thread
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext(INLINE) as pool:
        try:
            fields = case_fields(mesh, case, pool)
        except ValueError as err:
            raise ConfigError(f"cannot build the fields of {case.case_id}: {err}") from None
        for n in harmonic_range:
            if len(points) >= workers:
                join(points[-workers])  # at most one point per worker is held
            if failed:
                break
            points.append(pool.submit(point_task, len(points), n))
        for point in points:
            join(point)
    rows = []
    for point in points:  # raises in (N, method) order
        by_method = {row.method: row for future in point.result() for row in future.result()}
        rows += [by_method[method] for method in methods]
    return rows
