"""Benchmark driver wiring cases, methods and harmonic sweeps together.

One evaluation point is a (case, N) pair: the motion is sampled, each
distinct IFMV field of the requested methods built once, and the error
metrics reduced into :class:`~gclkit.metrics.ErrorReport` rows.  The CLI and
the acceptance suite both run through this module so they cannot drift apart.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import flow, gcl, metrics
from .hexmesh import HexMesh, build_box_mesh
from .motion import (
    MotionCase,
    MotionTrajectory,
    build_rbf_system,
    raise_if_degenerate,
    sample_motion,
)
from .spectral import SpectralOperator

__all__ = [
    "METHOD_ALIASES",
    "SHARES_FIELD_WITH",
    "ConfigError",
    "MeshConfig",
    "FreestreamOptions",
    "CasePoint",
    "prepare_point",
    "evaluate_point",
    "run_sweep",
    "worker_count",
]

# CLI-facing names -> canonical method ids.
METHOD_ALIASES = {
    "lvi": "nlfd-lvi",
    "aevi": "nlfd-aevi",
    "avg": "avg",
    "trimap": "trimap",
    "ts-lvi": "ts-lvi",
    "ts-aevi": "ts-aevi",
}

# Method ids that report another method's field.  On the 2N+1 samples NLFD
# and time-spectral differentiation are one linear operator, so a ts-* row is
# its nlfd-* twin's row under another name.
SHARES_FIELD_WITH = {"ts-lvi": "nlfd-lvi", "ts-aevi": "nlfd-aevi"}


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


@dataclass(frozen=True)
class FreestreamOptions:
    """Pseudo-time settings of the uniform-flow run; None in their place runs none."""

    cfl: float
    max_iterations: int


@dataclass
class CasePoint:
    """Everything shared by the methods at one (case, N) evaluation point."""

    mesh: HexMesh
    case: MotionCase
    n_harmonics: int
    trajectory: MotionTrajectory
    spectral: SpectralOperator
    volumes: np.ndarray  # (n_cells, Nts)
    dvoldt: np.ndarray  # spectral derivative of volumes, (n_cells, Nts)
    exact_rates: np.ndarray  # (n_cells, Nts)
    reference: gcl.IfmvField  # trimap
    fd1: float
    fd2: float

    def field_for(self, method: str) -> gcl.IfmvField:
        """The IFMV field that ``method``'s row reports."""
        method = SHARES_FIELD_WITH.get(method, method)
        if method == "trimap":
            return self.reference
        if method == "avg":
            return gcl.ifmv_avg(self.mesh, self.trajectory)
        maker = gcl.lvi_increments if method == "nlfd-lvi" else gcl.aevi_increments
        return gcl.ifmv_nlfd(maker(self.mesh, self.trajectory), self.spectral)


def prepare_point(
    mesh: HexMesh,
    case: MotionCase,
    n_harmonics: int,
    rbf_fields: np.ndarray | None = None,
) -> CasePoint:
    """Sample, gate and measure one (case, N) point, each quantity once.

    The degeneracy gate reuses the cell volumes.  The TRI-MAP face fluxes
    are exact, so their signed sum over each cell's faces is the exact
    dV/dt; the product-rule rates (:func:`gcl.exact_volume_rates`,
    :func:`gcl.dvoldt_trimap`) stay the independent oracle of the tests and
    ``gclkit verify``.
    """
    # an overflowing motion is reported by the gate, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        trajectory = sample_motion(
            mesh, case, n_harmonics, check_degeneracy=False, rbf_fields=rbf_fields
        )
        volumes = gcl.cell_volumes(mesh, trajectory)
        raise_if_degenerate(mesh, trajectory, volumes)
    spectral = SpectralOperator(n_harmonics, case.period)
    reference = gcl.trimap_field(mesh, trajectory)
    exact_rates = mesh.sum_over_faces(reference.total)
    fd1, fd2 = metrics.fd_reference_errors(volumes, exact_rates, case.period)
    return CasePoint(
        mesh, case, n_harmonics, trajectory, spectral, volumes,
        spectral.differentiate(volumes), exact_rates, reference, fd1, fd2,
    )


def evaluate_point(
    point: CasePoint,
    methods: list[str],
    freestream: FreestreamOptions | None = None,
    timing: bool = False,
) -> list[metrics.ErrorReport]:
    """Error reports for the requested methods at one evaluation point, in their order.

    Each distinct field is evaluated once, with its metrics and march; a
    method that shares it (:data:`SHARES_FIELD_WITH`) gets a copy of that
    row, ``wall_ms`` included, with only ``method`` changed.
    """
    reports = {}
    for method in methods:
        name = SHARES_FIELD_WITH.get(method, method)
        if name in reports:
            continue
        start = time.perf_counter()
        ifmv = point.field_for(name)
        if name == "trimap":  # its face sums are the exact rates
            err1 = float(np.max(np.abs(point.exact_rates - point.dvoldt)))
        else:
            err1 = metrics.abs_err_sum_vs_dvoldt(point.mesh, ifmv, point.dvoldt)
        err2 = {
            d: metrics.abs_err_ifmv_vs_reference(point.mesh, ifmv, point.reference, d)
            for d in ("x", "y", "z")
        }
        rel_err = None
        if freestream is not None:
            result = flow.FreestreamProblem(
                point.mesh, point.trajectory, point.spectral, ifmv
            ).march(freestream.cfl, freestream.max_iterations)
            if result.diverged:
                raise flow.FreestreamDivergence(
                    point.case.case_id, method, point.n_harmonics
                )
            rel_err = result.rel_err
        wall_ms = (time.perf_counter() - start) * 1e3 if timing else 0.0
        reports[name] = metrics.ErrorReport(
            case_id=point.case.case_id,
            method=method,
            n_harmonics=point.n_harmonics,
            nts=point.spectral.nts,
            abs_err1=err1,
            abs_err2_x=err2["x"],
            abs_err2_y=err2["y"],
            abs_err2_z=err2["z"],
            fd1_ref=point.fd1,
            fd2_ref=point.fd2,
            rel_err_freestream=rel_err,
            wall_ms=wall_ms,
            metadata=dict(point.trajectory.metadata),
        )
    return [replace(reports[SHARES_FIELD_WITH.get(m, m)], method=m) for m in methods]


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
    freestream: FreestreamOptions | None = None,
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
