"""One (case, N) evaluation point computes each geometric quantity once.

``prepare_point`` takes the exact dV/dt from the signed TRI-MAP face sums and
gates degeneracy on its own cell volumes; these tests keep the product-rule
rates as the independent oracle and pin the gate's error on a degenerate
point.
"""

import numpy as np
import pytest

from gclkit import experiments, gcl, hexmesh
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
    seen = []

    def counted(kernel):
        def wrapper(r):
            seen.append(r[0][0].size)  # element-instants in this block
            return kernel(r)

        return wrapper

    def forbidden(*args):
        raise AssertionError("the product-rule rates ran")

    monkeypatch.setattr(gcl, "_hex_volume", counted(gcl._hex_volume))
    monkeypatch.setattr(hexmesh, "_hex_volume", counted(hexmesh._hex_volume))
    monkeypatch.setattr(gcl, "exact_volume_rates", forbidden)
    monkeypatch.setattr(gcl, "_dvoldt", forbidden)
    point = experiments.prepare_point(paper_mesh, MotionCase.for_case("case5"), 3)
    assert sum(seen) == paper_mesh.n_cells * point.spectral.nts


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


def test_face_sums_run_once_per_method_but_trimap(paper_mesh, monkeypatch):
    point = experiments.prepare_point(paper_mesh, MotionCase.for_case("case5"), 3)
    calls = []
    summed = hexmesh.HexMesh.sum_over_faces

    def counted(mesh, values):
        calls.append(values.shape)
        return summed(mesh, values)

    monkeypatch.setattr(hexmesh.HexMesh, "sum_over_faces", counted)
    rows = experiments.evaluate_point(point, list(gcl.METHODS))
    # the TRI-MAP row reads the exact rates, its own face sums
    assert len(calls) == len(gcl.METHODS) - 1
    trimap = rows[gcl.METHODS.index("trimap")]
    face_sums = summed(paper_mesh, point.reference.total)
    assert trimap.abs_err1 == np.max(np.abs(face_sums - point.dvoldt))
