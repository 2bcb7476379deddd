"""One (case, N) evaluation point computes each geometric quantity once.

``prepare_point`` takes the exact dV/dt from the signed TRI-MAP face sums and
gates degeneracy on the cell volumes its trajectory carries; these tests keep
the product-rule rates as the independent oracle and pin the gate's error on
a degenerate point.
"""

import dataclasses

import numpy as np
import pytest

from gclkit import experiments, flow, gcl, hexmesh, motion
from gclkit.cli import main
from gclkit.motion import DegenerateMeshError, MotionCase, build_rbf_system

CASES = ("case1", "case2", "case3", "case4", "case5")


@pytest.mark.parametrize("case_id", CASES)
def test_exact_rates_match_product_rule(paper_mesh, case_id):
    case = MotionCase.for_case(case_id)
    fields = build_rbf_system(paper_mesh, case)
    for n in (1, 2, 20):
        point = experiments.prepare_point(paper_mesh, case, n, fields)
        oracle = gcl.exact_volume_rates(paper_mesh, point.trajectory)
        gap = np.abs(point.exact_rates - oracle).max()
        # both round at the size of the face fluxes they add up: on case 2 the
        # cell rates are ~100x smaller than the fluxes (a shear nearly keeps
        # volume), and the gap reaches 2.5e-11 of the largest rate
        assert gap <= 1e-12 * np.abs(point.reference.total).max(), (n, gap)


def test_prepare_point_makes_one_volume_pass(paper_mesh, monkeypatch):
    # the gate, the metrics and the freestream problem share one pass
    seen = []

    def counted(kernel):
        def wrapper(r):
            seen.append(r[0][0].size)  # anchor-instants in this block
            return kernel(r)

        return wrapper

    def forbidden(*args):
        raise AssertionError("the product-rule rates ran")

    for module in (gcl, hexmesh, motion):
        monkeypatch.setattr(module, "_hex_volume", counted(module._hex_volume))
    monkeypatch.setattr(gcl, "exact_volume_rates", forbidden)
    monkeypatch.setattr(gcl, "_dvoldt", forbidden)
    monkeypatch.setattr(flow, "NEWTON_MAX", 1)
    point = experiments.prepare_point(paper_mesh, MotionCase.for_case("case5"), 3)
    experiments.evaluate_point(point, ["trimap"], freestream=True)
    # each cell at each instant once: a block also holds the anchors at the
    # ends of the grid's rows and planes, which are no cells
    ((_, _, anchors),) = hexmesh._element_families(paper_mesh.counts, "cells")
    assert sum(seen) == len(anchors) * point.spectral.nts


# case 4, rbf_amplitude=0.2, N = 2, 10^3: the degenerate cells at the first
# bad instant, t = 0.2
DEGENERATE_CELLS = [
    69, 89, 91, 169, 191, 209, 269, 289, 309, 329, 369, 370, 380, 389, 398, 491,
    495, 497, 529, 569, 597, 599, 679, 695, 779, 795, 796, 797, 819, 899, 995, 999,
]


def test_degenerate_point_raises_the_same_error(paper_mesh, tmp_path, capsys):
    case = MotionCase.for_case("case4", rbf_amplitude=0.2)
    with pytest.raises(DegenerateMeshError) as info:
        experiments.prepare_point(paper_mesh, case, 2)
    assert info.value.instant == 0.2
    assert info.value.cell_ids.tolist() == DEGENERATE_CELLS
    first = ", ".join(map(str, DEGENERATE_CELLS[:10]))
    assert str(info.value) == f"degenerate cells [{first}, ...] (32 in all) at t = 0.2"
    code = main(["run", "--case", "4", "--amp", "0.2", "--n", "2..2", "--methods", "avg",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err == f"error: degeneracy: {info.value}\n"


ALL_METHODS = [row for row, _ in experiments.METHODS.values()]


def test_face_sums_run_once_per_method_but_trimap(paper_mesh, monkeypatch):
    point = experiments.prepare_point(paper_mesh, MotionCase.for_case("case5"), 3)
    calls = []
    summed = hexmesh.HexMesh.sum_over_faces

    def counted(mesh, values):
        calls.append(values.shape)
        return summed(mesh, values)

    monkeypatch.setattr(hexmesh.HexMesh, "sum_over_faces", counted)
    rows = experiments.evaluate_point(point, ALL_METHODS)
    # the TRI-MAP row reads the exact rates, its own face sums, and the ts-*
    # rows copy the nlfd-* rows: LVI, AEVI and AVG are summed once each
    assert len(calls) == 3
    trimap = rows[ALL_METHODS.index("trimap")]
    face_sums = summed(paper_mesh, point.reference.total)
    assert trimap.abs_err1 == np.max(np.abs(face_sums - point.dvoldt))


def _counted(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def _fields(row, **changes):
    return dataclasses.asdict(dataclasses.replace(row, **changes))


def test_ts_rows_copy_their_nlfd_twins(small_mesh, monkeypatch):
    point = experiments.prepare_point(small_mesh, MotionCase.for_case("case5"), 2)
    calls = {}
    _counted(monkeypatch, gcl, "lvi_increments", calls)
    _counted(monkeypatch, gcl, "aevi_increments", calls)
    _counted(monkeypatch, flow.FreestreamProblem, "march", calls)
    methods = ["nlfd-lvi", "ts-lvi", "ts-aevi"]
    rows = experiments.evaluate_point(point, methods, freestream=True)
    assert calls == {"lvi_increments": 1, "aevi_increments": 1, "march": 2}
    assert [row.method for row in rows] == methods
    assert rows[0].rel_err_freestream is not None
    assert _fields(rows[1], method="nlfd-lvi") == _fields(rows[0])
    (aevi,) = experiments.evaluate_point(point, ["nlfd-aevi"], freestream=True)
    assert _fields(rows[2], method="nlfd-aevi") == _fields(aevi)
    (alone,) = experiments.evaluate_point(point, ["ts-aevi"])
    assert alone.method == "ts-aevi"
    assert _fields(alone) == _fields(rows[2], rel_err_freestream=None)


def test_divergence_names_the_first_method_that_reads_the_field(small_mesh, monkeypatch):
    point = experiments.prepare_point(small_mesh, MotionCase.for_case("case5"), 1)

    def diverged(self, *args, **kwargs):
        return flow.FreestreamResult(np.inf, 1, 1.0, np.inf, "diverged")

    monkeypatch.setattr(flow.FreestreamProblem, "march", diverged)
    for methods in (["ts-aevi"], ["ts-lvi", "nlfd-lvi"]):
        with pytest.raises(flow.FreestreamDivergence) as info:
            experiments.evaluate_point(point, methods, freestream=True)
        assert info.value.method == methods[0]
