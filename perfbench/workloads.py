"""The three benchmark workloads, built from gclkit's public functions.

Each workload's ``setup(seed, out_dir)`` does everything before the timed
phase and returns the operations of one pass.  An operation is timed on its
own; its output is then checked (untimed) and its digest held to the one
every earlier run of the same code and seed produced.

The seed reaches only ``MotionCase.seed`` of case 4, the sole random input.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

from gclkit import cli, experiments, flow, gcl, motion, spectral

CONSERVATION_TOL = 1e-10  # LVI/AEVI conservation defect, by construction
TWIN_TOL = 1e-12  # ts-* against nlfd-* error columns
AVG_DRIFT = (1e-4, 1e-2)  # converged AVG freestream departure
AEVI_DRIFT = 1e-8  # AEVI keeps the uniform flow uniform
CONSERVATIVE = ("nlfd-lvi", "nlfd-aevi", "ts-lvi", "ts-aevi")
ERROR_FIELDS = ("abs_err1", "abs_err2_x", "abs_err2_y", "abs_err2_z")
REPORT_FIELDS = ERROR_FIELDS + ("fd1_ref", "fd2_ref")


@dataclass
class Operation:
    label: str
    run: Callable[[], Any]  # timed
    check: Callable[[Any], list[str]]  # untimed; returns the problems found
    digest: Callable[[Any], bytes]


def _case(case_id: str, seed: int) -> motion.MotionCase:
    return motion.MotionCase.for_case(case_id, seed=seed if case_id == "case4" else None)


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# -- ifmv_sweep --------------------------------------------------------------

SWEEP_CASES = ("case1", "case2", "case3", "case4", "case5")
# N = 20 is where a point costs most; N = 5 and 15 are left out so that the
# benchmark's runs fit its time budget on a slow host
SWEEP_N = (10, 20)
SWEEP_METHODS = ("nlfd-lvi", "nlfd-aevi", "avg", "trimap")


def _check_sweep_rows(rows) -> list[str]:
    problems = []
    if [r.method for r in rows] != list(SWEEP_METHODS):
        problems.append(f"rows {[r.method for r in rows]} != {list(SWEEP_METHODS)}")
    for r in rows:
        if not _finite(getattr(r, f) for f in REPORT_FIELDS):
            problems.append(f"{r.method}: non-finite error value")
        if r.method in CONSERVATIVE and not r.abs_err1 <= CONSERVATION_TOL:
            problems.append(f"{r.method}: abs_err1 {r.abs_err1:.3e} > {CONSERVATION_TOL}")
    return problems


def _sweep_digest(rows) -> bytes:
    return "\n".join(
        ",".join(
            [r.case_id, r.method, str(r.n_harmonics), str(r.nts)]
            + [format(getattr(r, f), ".17g") for f in REPORT_FIELDS]
        )
        for r in rows
    ).encode()


def ifmv_sweep(seed: int, out_dir: str) -> list[Operation]:
    """The acceptance table's path: 5 cases x N = 10, 20 x 4 methods.

    Each (case, N) point is one ``run_sweep`` call on the paper's 10^3 mesh.
    """
    mesh_config = experiments.MeshConfig()
    ops = []
    for case_id in SWEEP_CASES:
        case = _case(case_id, seed)
        for n in SWEEP_N:
            ops.append(
                Operation(
                    f"{case_id} N={n}",
                    lambda case=case, n=n: experiments.run_sweep(
                        mesh_config, case, [n], list(SWEEP_METHODS)
                    ),
                    _check_sweep_rows,
                    _sweep_digest,
                )
            )
    return ops


# -- fine_mesh ---------------------------------------------------------------

FINE_MESH = "20,20,20"
FINE_N = (3, 4)
FINE_METHODS = ("lvi", "aevi", "avg", "trimap", "ts-lvi", "ts-aevi")
FINE_CASES = ("1", "5")


def _check_csv(result) -> list[str]:
    code, path = result
    if code != 0:
        return [f"gclkit run exited {code}"]
    with open(path, newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    problems = []
    expected = len(FINE_N) * len(FINE_METHODS)
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    by_key = {(r["method"], r["N"]): r for r in rows}
    for r in rows:
        values = [float(r[f]) for f in REPORT_FIELDS]
        if not _finite(values):
            problems.append(f"{r['method']} N={r['N']}: non-finite value")
        if r["method"] in CONSERVATIVE and not float(r["abs_err1"]) <= CONSERVATION_TOL:
            problems.append(f"{r['method']} N={r['N']}: abs_err1 {r['abs_err1']}")
        if r["method"].startswith("ts-"):
            twin = by_key.get(("nlfd-" + r["method"][3:], r["N"]))
            if twin is None:
                problems.append(f"{r['method']} N={r['N']}: no nlfd twin")
                continue
            for f in ERROR_FIELDS:
                if not abs(float(r[f]) - float(twin[f])) <= TWIN_TOL:
                    problems.append(f"{r['method']} N={r['N']}: {f} differs from twin")
    return problems


def _csv_bytes(result) -> bytes:
    with open(result[1], "rb") as handle:
        return handle.read()


def fine_mesh(seed: int, out_dir: str) -> list[Operation]:
    """``gclkit run`` in-process on a 20^3 mesh, for cases 1 and 5.

    Case 4 fails the degeneracy gate at 20^3, so the seed has no effect here.
    """
    ops = []
    for case in FINE_CASES:
        path = os.path.join(out_dir, f"fine_mesh_case{case}.csv")
        argv = [
            "run", "--case", case, "--mesh", FINE_MESH,
            "--n", f"{FINE_N[0]}..{FINE_N[-1]}", "--methods", ",".join(FINE_METHODS),
            "--out", path,
        ]
        ops.append(
            Operation(
                f"case{case}",
                lambda argv=argv, path=path: (cli.main(argv), path),
                _check_csv,
                _csv_bytes,
            )
        )
    return ops


# -- freestream --------------------------------------------------------------

FREESTREAM_N = 2


def freestream(seed: int, out_dir: str) -> list[Operation]:
    """Case 4, N = 2, AVG IFMV on 10^3, marched to convergence."""
    mesh = experiments.MeshConfig().build()
    case = _case("case4", seed)
    trajectory = motion.sample_motion(mesh, case, FREESTREAM_N)
    operator = spectral.SpectralOperator(FREESTREAM_N, case.period)
    problem = flow.FreestreamProblem(
        mesh, trajectory, operator, gcl.ifmv_avg(mesh, trajectory)
    )

    def check(result) -> list[str]:
        problems = []
        if result.diverged or not result.converged:
            problems.append(f"AVG march did not converge in {result.iterations}")
        if not AVG_DRIFT[0] <= result.rel_err <= AVG_DRIFT[1]:
            problems.append(f"AVG rel_err {result.rel_err:.4e} outside {AVG_DRIFT}")
        aevi = gcl.ifmv_nlfd(
            gcl.extract_linear_and_periodic(gcl.aevi_increments(mesh, trajectory)),
            operator,
        )
        companion = flow.FreestreamProblem(mesh, trajectory, operator, aevi).march()
        if not companion.rel_err <= AEVI_DRIFT:
            problems.append(f"AEVI rel_err {companion.rel_err:.3e} > {AEVI_DRIFT}")
        return problems

    return [
        Operation(
            "march",
            problem.march,
            check,
            lambda r: f"{r.iterations} {r.rel_err!r}".encode(),
        )
    ]


# workload -> (set-up returning one pass's operations, GCLKIT_THREADS)
WORKLOADS = {
    "ifmv_sweep": (ifmv_sweep, 1),
    "fine_mesh": (fine_mesh, 2),
    "freestream": (freestream, 1),
}

